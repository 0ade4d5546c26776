//! The three workloads: how each builds its inputs from the seed, which
//! jobs one batch holds, how a batch runs through the engine, and how its
//! outputs are scored against the exact triangle count.

use std::fmt::Write as _;
use std::time::Instant;

use degentri_core::{EstimatorConfig, RngMode};
use degentri_dynamic::DynamicEstimatorConfig;
use degentri_engine::{Engine, EngineConfig, EngineError, EngineReport, JobSpec};
use degentri_graph::CsrGraph;
use degentri_stream::{
    DynamicEdgeStream, DynamicMemoryStream, EdgeStream, MemoryStream, StreamOrder,
};

use crate::trace::{json_string, Tracer};

/// Engine worker threads for every measured batch.
pub const WORKERS: usize = 2;
/// Estimator copies per job.
pub const COPIES: usize = 4;
/// Batches whose jobs feed `rel_err_p50` and `space_words_p50`. The
/// closed loop runs at least this many, so both metrics are computed over
/// the same jobs on every run with the same seed, and `batch_ms_p90` always
/// has at least ten samples above it.
pub const SCORED_BATCHES: u64 = 150;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MainProbe,
    TurnstileChurn,
    MixedScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "main_probe" => Some(Workload::MainProbe),
            "turnstile_churn" => Some(Workload::TurnstileChurn),
            "mixed_scan" => Some(Workload::MixedScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MainProbe => "main_probe",
            Workload::TurnstileChurn => "turnstile_churn",
            Workload::MixedScan => "mixed_scan",
        }
    }

    /// The engine configuration of a batch with `workers` threads. The
    /// mixed batch keeps each job's own randomness regime so its
    /// sequential-mode job stays sequential.
    pub fn engine(self, workers: usize) -> Engine {
        let mut builder = EngineConfig::builder().workers(workers);
        if self == Workload::MixedScan {
            builder = builder.job_rng_mode();
        }
        Engine::new(
            builder
                .try_build()
                .expect("benchmark engine configuration is valid"),
        )
    }

    fn generate(self, seed: u64) -> CsrGraph {
        let graph = match self {
            Workload::MainProbe => degentri_gen::barabasi_albert(25_000, MAIN_PROBE_K, seed),
            Workload::TurnstileChurn => degentri_gen::random_ktree(2_000, KTREE_K, seed),
            Workload::MixedScan => degentri_gen::random_ktree(6_000, KTREE_K, seed),
        };
        graph.expect("benchmark generator parameters are valid")
    }

    /// The degeneracy the generator guarantees, passed to the estimators.
    fn kappa(self) -> usize {
        match self {
            Workload::MainProbe => MAIN_PROBE_K,
            Workload::TurnstileChurn | Workload::MixedScan => KTREE_K,
        }
    }

    /// Largest relative error a successful job may show before it counts
    /// as failed. The bounds catch gross errors (a zero estimate fails
    /// every job but the cap-8 turnstile job, whose 8 samplers can
    /// legitimately find no triangle) with headroom over the tails seen
    /// across seeds: at most 0.36 for Algorithms 1 and 2, 0.56 for the
    /// cap-64 turnstile job and 2.1 for the cap-8 one.
    fn tolerance(self, job: &JobPlan) -> f64 {
        match (self, job) {
            (Workload::MixedScan, JobPlan::Dynamic(_)) => 4.0,
            (_, JobPlan::Dynamic(_)) => 0.9,
            _ => 0.6,
        }
    }
}

const MAIN_PROBE_K: usize = 8;
const KTREE_K: usize = 4;
/// Share of the edges inserted a second time and deleted later.
const CHURN: f64 = 0.5;

/// One job of a batch.
#[derive(Debug, Clone)]
pub enum JobPlan {
    /// Algorithm 2 with counter-mode randomness (fuses with its batch).
    Main(EstimatorConfig),
    /// Algorithm 2 with sequential randomness.
    Sequential(EstimatorConfig),
    /// Algorithm 1 with the exact degree oracle.
    Ideal(EstimatorConfig),
    /// The turnstile estimator.
    Dynamic(DynamicEstimatorConfig),
}

impl JobPlan {
    pub fn label(&self) -> &'static str {
        match self {
            JobPlan::Main(_) => "main",
            JobPlan::Sequential(_) => "sequential",
            JobPlan::Ideal(_) => "ideal",
            JobPlan::Dynamic(_) => "dynamic",
        }
    }

    pub fn copies(&self) -> usize {
        match self {
            JobPlan::Main(c) | JobPlan::Sequential(c) | JobPlan::Ideal(c) => c.copies,
            JobPlan::Dynamic(c) => c.copies,
        }
    }

    /// Passes one copy makes over the snapshot.
    pub fn passes(&self) -> u64 {
        match self {
            JobPlan::Main(_) | JobPlan::Sequential(_) => 6,
            JobPlan::Ideal(_) => 3,
            JobPlan::Dynamic(_) => 4,
        }
    }

    fn spec(&self) -> JobSpec {
        match self {
            JobPlan::Main(c) | JobPlan::Sequential(c) => JobSpec::main(self.label(), c.clone()),
            JobPlan::Ideal(c) => JobSpec::ideal(self.label(), c.clone()),
            JobPlan::Dynamic(c) => JobSpec::dynamic(self.label(), c.clone()),
        }
    }
}

/// The snapshot a workload's batches run over.
pub enum Snapshot {
    Edges(MemoryStream),
    Updates(DynamicMemoryStream),
}

/// Everything a workload's batches need, built from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub n: usize,
    pub m: usize,
    /// κ passed to the estimators (the generator's degeneracy).
    pub kappa: usize,
    /// Degeneracy of the generated graph, from `graph::degeneracy`
    /// (computed outside the timed set-up stages).
    pub kappa_measured: usize,
    /// Exact triangle count of the graph the stream describes.
    pub triangles: u64,
    pub snapshot: Snapshot,
}

/// Wall times of the set-up stages, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub exact_s: f64,
    pub snapshot_s: f64,
}

/// SplitMix64 finalizer: derives independent seeds from a base seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn timed<T>(tracer: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = tracer.map(|t| (t.enter(name), t));
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    if let Some((id, t)) = id {
        t.exit(id);
    }
    (out, secs)
}

impl Inputs {
    /// Generates the graph, counts its triangles exactly, and builds the
    /// snapshot — the set-up stages, timed (and traced when `tracer` is
    /// given).
    pub fn build(
        workload: Workload,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> (Self, SetupTimes) {
        let (graph, generate_s) = timed(tracer.as_deref_mut(), "gen.generate", || {
            workload.generate(mix(seed, 1))
        });
        let (triangles, exact_s) = timed(tracer.as_deref_mut(), "graph.exact_triangles", || {
            degentri_graph::triangles::count_triangles(&graph)
        });
        let (snapshot, snapshot_s) = timed(tracer, "stream.snapshot_build", || match workload {
            Workload::TurnstileChurn => {
                Snapshot::Updates(DynamicMemoryStream::with_churn(&graph, CHURN, mix(seed, 2)))
            }
            _ => Snapshot::Edges(MemoryStream::from_graph(
                &graph,
                StreamOrder::UniformRandom(mix(seed, 2)),
            )),
        });
        let inputs = Inputs {
            workload,
            seed,
            n: graph.num_vertices(),
            m: graph.num_edges(),
            kappa: workload.kappa(),
            kappa_measured: degentri_graph::degeneracy::degeneracy(&graph),
            triangles,
            snapshot,
        };
        (
            inputs,
            SetupTimes {
                generate_s,
                exact_s,
                snapshot_s,
            },
        )
    }

    /// The edge snapshot (insert-only workloads).
    pub fn edges(&self) -> Option<&MemoryStream> {
        match &self.snapshot {
            Snapshot::Edges(stream) => Some(stream),
            Snapshot::Updates(_) => None,
        }
    }

    fn main_config(&self, seed: u64, mode: RngMode) -> EstimatorConfig {
        EstimatorConfig::builder()
            .epsilon(0.1)
            .kappa(self.kappa)
            .triangle_lower_bound((self.triangles / 2).max(1))
            .r_constant(20.0)
            .inner_constant(40.0)
            .assignment_constant(10.0)
            .copies(COPIES)
            .seed(seed)
            .rng_mode(mode)
            .try_build()
            .expect("benchmark estimator configuration is valid")
    }

    fn dynamic_config(&self, seed: u64, max_samples: usize) -> DynamicEstimatorConfig {
        DynamicEstimatorConfig::new(self.kappa, (self.triangles / 2).max(1))
            .with_epsilon(0.25)
            .with_copies(COPIES)
            .with_seed(seed)
            .with_constants(1.0, 2.0)
            .with_max_samples(max_samples)
            .with_rng_mode(RngMode::Counter)
    }

    /// The jobs of batch `batch`; job seeds derive from the workload seed
    /// and the batch index only.
    pub fn batch_jobs(&self, batch: u64) -> Vec<JobPlan> {
        let base = mix(self.seed, batch.wrapping_add(0x5EED));
        let seed = |job: u64| mix(base, job + 1);
        match self.workload {
            Workload::MainProbe => (0..2)
                .map(|j| JobPlan::Main(self.main_config(seed(j), RngMode::Counter)))
                .collect(),
            Workload::TurnstileChurn => (0..2)
                .map(|j| JobPlan::Dynamic(self.dynamic_config(seed(j), 64)))
                .collect(),
            Workload::MixedScan => vec![
                JobPlan::Main(self.main_config(seed(0), RngMode::Counter)),
                JobPlan::Sequential(self.main_config(seed(1), RngMode::Sequential)),
                JobPlan::Ideal(self.main_config(seed(2), RngMode::Counter)),
                JobPlan::Ideal(self.main_config(seed(3), RngMode::Counter)),
                JobPlan::Dynamic(self.dynamic_config(seed(4), 8)),
            ],
        }
    }

    /// Submits `jobs` and runs them as one engine batch.
    pub fn run_batch(
        &self,
        engine: &mut Engine,
        jobs: &[JobPlan],
    ) -> Result<EngineReport, EngineError> {
        for job in jobs {
            engine.submit(job.spec());
        }
        match &self.snapshot {
            Snapshot::Edges(stream) => engine.run(stream),
            Snapshot::Updates(stream) => engine.run_dynamic(stream),
        }
    }

    /// Scores every job of a finished batch.
    pub fn score(&self, jobs: &[JobPlan], report: &EngineReport) -> Vec<JobScore> {
        jobs.iter()
            .zip(&report.jobs)
            .map(|(job, result)| match &result.outcome {
                Err(_) => JobScore::run_failed(job),
                Ok(output) => {
                    let est = &output.estimation;
                    let rel_err = est.relative_error(self.triangles);
                    JobScore {
                        kind: job.label(),
                        outcome_ok: true,
                        within_tolerance: rel_err <= self.workload.tolerance(job),
                        well_formed: est.copies == job.copies()
                            && est.copy_estimates.iter().all(|x| x.is_finite())
                            && est.space.peak_words > 0,
                        rel_err,
                        space_words: est.space.peak_words,
                        bits: est.copy_estimates.iter().map(|x| x.to_bits()).collect(),
                    }
                }
            })
            .collect()
    }

    /// Updates in the stream (edges count as insertions) and deletions.
    pub fn updates_and_deletions(&self) -> (usize, usize) {
        match &self.snapshot {
            Snapshot::Edges(stream) => (EdgeStream::num_edges(stream), 0),
            Snapshot::Updates(stream) => (stream.num_updates(), stream.num_deletions()),
        }
    }

    /// The workload's inputs as one JSON object.
    pub fn to_json(&self) -> String {
        let (updates, deletions) = self.updates_and_deletions();
        let mix_desc: Vec<String> = self
            .batch_jobs(0)
            .iter()
            .map(|job| {
                let mut s = format!("{}x{}", job.label(), job.copies());
                if let JobPlan::Dynamic(c) = job {
                    let _ = write!(s, "(cap {})", c.max_samples);
                }
                s
            })
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"n\":{},\"m\":{},\"kappa\":{},\"kappa_measured\":{},\
             \"triangles\":{},\"m_kappa_over_t\":{},\"updates\":{},\"deletions\":{},\
             \"job_mix\":{},\"workers\":{}}}",
            json_string(self.workload.name()),
            self.seed,
            self.n,
            self.m,
            self.kappa,
            self.kappa_measured,
            self.triangles,
            self.m as f64 * self.kappa as f64 / self.triangles.max(1) as f64,
            updates,
            deletions,
            json_string(&mix_desc.join(" + ")),
            WORKERS
        )
    }
}

/// The outcome of one job, scored.
#[derive(Debug, Clone)]
pub struct JobScore {
    /// The job's kind ([`JobPlan::label`]).
    pub kind: &'static str,
    /// The engine returned an estimation (not an `Err`).
    pub outcome_ok: bool,
    /// The estimate lies within the workload's error tolerance.
    pub within_tolerance: bool,
    /// The estimation has the configured copy count, finite estimates and
    /// non-zero space.
    pub well_formed: bool,
    pub rel_err: f64,
    pub space_words: u64,
    /// Bit patterns of the per-copy estimates.
    pub bits: Vec<u64>,
}

impl JobScore {
    /// The score of a job whose outcome was an `Err`.
    pub fn run_failed(job: &JobPlan) -> Self {
        JobScore {
            kind: job.label(),
            outcome_ok: false,
            within_tolerance: false,
            well_formed: true,
            rel_err: f64::NAN,
            space_words: 0,
            bits: Vec::new(),
        }
    }

    pub fn failed(&self) -> bool {
        !(self.outcome_ok && self.within_tolerance)
    }
}
