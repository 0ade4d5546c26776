//! The traced per-layer breakdown of one batch.
//!
//! Every copy of the batch is re-run on one thread over the snapshot
//! slice, by calling the public stage APIs the engine itself drives:
//! main copies as one cohort through `MainCopyStages::plan_cohort` /
//! `fold_cohort` / `finish_pass` / `finish`, ideal and turnstile copies one
//! at a time through `begin_pass` / `fold` / `finish_pass`, and
//! sequential-mode copies through `MainEstimator::run_seeded_with`. Each
//! call is wrapped in a span; the layer metrics are sums of span
//! durations. The per-copy estimates are returned so the caller can check
//! them bit for bit against the engine's.

use degentri_core::{
    aggregate_copies, ideal_copy_seed, main_copy_seed, CopyContribution, EstimatorConfig,
    EstimatorScratch, IdealCopyStages, MainCohortScratch, MainCopyStages, MainEstimator,
};
use degentri_dynamic::{dynamic_copy_seed, DynamicCopyStages, DynamicEstimatorConfig};
use degentri_graph::Edge;
use degentri_stream::{EdgeUpdate, StreamStats, DEFAULT_BATCH_SIZE};

use crate::trace::{total_ms, Tracer};
use crate::workload::{Inputs, JobPlan, Snapshot};
use crate::Metric;

/// Items per fold call: the engine's default chunk size.
const CHUNK: usize = DEFAULT_BATCH_SIZE;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The breakdown of one batch: named layer metrics, the sum of every
/// layer time in it, and per job the bit patterns of its copy estimates.
pub struct Breakdown {
    pub metrics: Vec<Metric>,
    pub layer_sum_ms: f64,
    pub copy_bits: Vec<Vec<u64>>,
}

/// Re-runs `jobs` layer by layer under `tracer`.
pub fn breakdown(
    tracer: &mut Tracer,
    inputs: &Inputs,
    jobs: &[JobPlan],
) -> Result<Breakdown, String> {
    let edges: &[Edge] = inputs.edges().map_or(&[], |s| s.edges());
    // Turnstile jobs on an edge snapshot see it as an insert-only stream,
    // materialized once, as the engine does.
    let insert_only: Vec<EdgeUpdate>;
    let updates: &[EdgeUpdate] = match &inputs.snapshot {
        Snapshot::Updates(stream) => stream.updates(),
        Snapshot::Edges(stream) => {
            let any_dynamic = jobs.iter().any(|j| matches!(j, JobPlan::Dynamic(_)));
            insert_only = if any_dynamic {
                stream
                    .edges()
                    .iter()
                    .map(|&e| EdgeUpdate::insert(e))
                    .collect()
            } else {
                Vec::new()
            };
            &insert_only
        }
    };
    let n = inputs.n;
    let mut copy_bits: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
    let mut metrics: Vec<Metric> = Vec::new();

    let mark = tracer.mark();
    let root = tracer.enter("layers");

    // ---- core.oracle: the degree table the ideal copies borrow. --------
    let needs_oracle = jobs.iter().any(|j| matches!(j, JobPlan::Ideal(_)));
    let oracle: Option<StreamStats> = tracer.span("core.oracle_build", |_| {
        needs_oracle.then(|| StreamStats::compute(inputs.edges().expect("ideal jobs run on edges")))
    });

    // ---- core.main: every counter-mode main copy in one cohort. --------
    let main_jobs: Vec<(usize, &EstimatorConfig)> = jobs
        .iter()
        .enumerate()
        .filter_map(|(j, job)| match job {
            JobPlan::Main(c) => Some((j, c)),
            _ => None,
        })
        .collect();
    let mut cohort: Vec<MainCopyStages> = tracer.span("core.main.setup", |_| {
        main_jobs
            .iter()
            .flat_map(|&(_, c)| {
                (0..c.copies).map(move |copy| {
                    MainCopyStages::new(c, edges.len(), n, main_copy_seed(c.seed, copy))
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)
    })?;
    let mut scratch = MainCohortScratch::default();
    let passes: &[&str] = if cohort.is_empty() {
        let phases = ["plan", "fold", "finish"];
        idle_spans(tracer, "core.main", &MainCopyStages::PASS_NAMES, &phases);
        &[]
    } else {
        &MainCopyStages::PASS_NAMES
    };
    for name in passes {
        let (plan, mut accs) = tracer.span(format!("core.main.{name}.plan"), |_| {
            let plan = MainCopyStages::plan_cohort(&cohort);
            let accs: Vec<_> = cohort.iter().map(|c| c.begin_pass()).collect();
            (plan, accs)
        });
        tracer.span(format!("core.main.{name}.fold"), |_| {
            for (i, chunk) in edges.chunks(CHUNK).enumerate() {
                let pos = (i * CHUNK) as u64;
                MainCopyStages::fold_cohort(&plan, &cohort, &mut accs, &mut scratch, pos, chunk);
            }
        });
        drop(plan);
        tracer.span(format!("core.main.{name}.finish"), |_| {
            cohort
                .iter_mut()
                .zip(accs)
                .try_for_each(|(c, acc)| c.finish_pass(vec![acc]))
                .map_err(err)
        })?;
    }
    let (hits, items) = cohort
        .iter()
        .flat_map(|c| c.pass_tallies().iter())
        .fold((0u64, 0u64), |(h, i), t| (h + t.hits, i + t.items));
    tracer.span("core.main.finish", |_| -> Result<(), String> {
        let mut outcomes = cohort.into_iter();
        for &(j, c) in &main_jobs {
            let copies = outcomes
                .by_ref()
                .take(c.copies)
                .map(|stages| stages.finish())
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            let contributions: Vec<CopyContribution> =
                copies.iter().map(CopyContribution::from).collect();
            copy_bits[j] = aggregate_copies(&contributions)
                .copy_estimates
                .iter()
                .map(|x| x.to_bits())
                .collect();
        }
        Ok(())
    })?;
    metrics.push(Metric::new(
        "core.main.probe_hit_ratio",
        ratio(hits, items),
        "ratio",
    ));

    // ---- core.ideal: each copy through its three stages. ----------------
    let (mut successes, mut picks) = (0u64, 0u64);
    for (j, job) in jobs.iter().enumerate() {
        let JobPlan::Ideal(c) = job else { continue };
        let oracle = oracle.as_ref().expect("oracle built for ideal jobs");
        for copy in 0..c.copies {
            let copy_span = tracer.enter("core.ideal.copy");
            let seed = ideal_copy_seed(c.seed, copy);
            let mut stages: Option<IdealCopyStages<'_, StreamStats>> = None;
            for (pass, name) in IdealCopyStages::<StreamStats>::PASS_NAMES
                .iter()
                .enumerate()
            {
                let acc = tracer.span(format!("core.ideal.{name}.fold"), |_| {
                    if pass == 0 {
                        stages = Some(
                            IdealCopyStages::new(c, oracle, edges.len(), n, seed).map_err(err)?,
                        );
                    }
                    let s = stages.as_ref().expect("stages built in pass 1");
                    let mut acc = s.begin_pass();
                    for (i, chunk) in edges.chunks(CHUNK).enumerate() {
                        s.fold(&mut acc, (i * CHUNK) as u64, chunk);
                    }
                    Ok::<_, String>(acc)
                })?;
                tracer.span(format!("core.ideal.{name}.finish"), |_| {
                    let s = stages.as_mut().expect("stages built in pass 1");
                    s.finish_pass(vec![acc]).map_err(err)
                })?;
            }
            let outcome = stages.expect("stages built").finish().map_err(err)?;
            successes += outcome.successes as u64;
            picks += outcome.copies as u64;
            copy_bits[j].push(outcome.estimate.to_bits());
            tracer.exit(copy_span);
        }
    }
    if picks == 0 {
        let passes = IdealCopyStages::<StreamStats>::PASS_NAMES;
        idle_spans(tracer, "core.ideal", &passes, &["fold", "finish"]);
    }
    metrics.push(Metric::new(
        "core.ideal.success_ratio",
        ratio(successes, picks),
        "ratio",
    ));

    // ---- core.seq: sequential-mode copies, one standalone run each. ----
    let mut seq_scratch = EstimatorScratch::new();
    for (j, job) in jobs.iter().enumerate() {
        let JobPlan::Sequential(c) = job else {
            continue;
        };
        let stream = inputs.edges().expect("sequential jobs run on edges");
        let estimator = MainEstimator::new(c.clone());
        for copy in 0..c.copies {
            let outcome = tracer.span("core.seq.copy", |_| {
                estimator
                    .run_seeded_with(
                        stream,
                        main_copy_seed(c.seed, copy),
                        CHUNK,
                        &mut seq_scratch,
                    )
                    .map_err(err)
            })?;
            copy_bits[j].push(outcome.estimate.to_bits());
        }
    }
    if !jobs.iter().any(|j| matches!(j, JobPlan::Sequential(_))) {
        tracer.span("core.seq.copy", |_| ());
    }

    // ---- dynamic: each turnstile copy through its four stages. ---------
    let mut sketch_updates = 0u64;
    for (j, job) in jobs.iter().enumerate() {
        let JobPlan::Dynamic(c) = job else { continue };
        for copy in 0..c.copies {
            let bits = dynamic_copy(tracer, c, updates, n, copy)?;
            sketch_updates += bits.1;
            copy_bits[j].push(bits.0);
        }
    }
    if !jobs.iter().any(|j| matches!(j, JobPlan::Dynamic(_))) {
        idle_spans(
            tracer,
            "dynamic",
            &DynamicCopyStages::PASS_NAMES,
            &["fold", "finish"],
        );
    }
    tracer.exit(root);

    // ---- Metrics: span sums per layer. ---------------------------------
    let spans = tracer.since(mark);
    let mut layer_sum_ms = 0.0;
    let mut push = |metrics: &mut Vec<Metric>, metric: String, span: &str| {
        let ms = total_ms(spans, span);
        layer_sum_ms += ms;
        metrics.push(Metric::new(metric, ms, "ms"));
    };
    push(
        &mut metrics,
        "core.oracle_build_ms".into(),
        "core.oracle_build",
    );
    push(&mut metrics, "core.main.setup_ms".into(), "core.main.setup");
    for name in MainCopyStages::PASS_NAMES {
        for phase in ["plan", "fold", "finish"] {
            let span = format!("core.main.{name}.{phase}");
            push(&mut metrics, format!("{span}_ms"), &span);
        }
    }
    push(
        &mut metrics,
        "core.main.finish_ms".into(),
        "core.main.finish",
    );
    for name in IdealCopyStages::<StreamStats>::PASS_NAMES {
        for phase in ["fold", "finish"] {
            let span = format!("core.ideal.{name}.{phase}");
            push(&mut metrics, format!("{span}_ms"), &span);
        }
    }
    push(&mut metrics, "core.seq.copy_ms".into(), "core.seq.copy");
    for name in DynamicCopyStages::PASS_NAMES {
        for phase in ["fold", "finish"] {
            let span = format!("dynamic.{name}.{phase}");
            push(&mut metrics, format!("{span}_ms"), &span);
        }
    }
    let u1_fold_ms = total_ms(
        spans,
        &format!("dynamic.{}.fold", DynamicCopyStages::PASS_NAMES[0]),
    );
    metrics.push(Metric::new(
        "dynamic.sketch_updates",
        sketch_updates as f64,
        "count",
    ));
    let ns_per_update = if sketch_updates == 0 {
        0.0
    } else {
        u1_fold_ms * 1e6 / sketch_updates as f64
    };
    metrics.push(Metric::new(
        "dynamic.ns_per_sketch_update",
        ns_per_update,
        "ns",
    ));
    Ok(Breakdown {
        metrics,
        layer_sum_ms,
        copy_bits,
    })
}

/// One turnstile copy through its four stages; returns the estimate's bit
/// pattern and the pass-1 sketch-bank updates.
fn dynamic_copy(
    tracer: &mut Tracer,
    c: &DynamicEstimatorConfig,
    updates: &[EdgeUpdate],
    n: usize,
    copy: usize,
) -> Result<(u64, u64), String> {
    let copy_span = tracer.enter("dynamic.copy");
    let seed = dynamic_copy_seed(c.seed, copy);
    let mut stages: Option<DynamicCopyStages> = None;
    for (pass, name) in DynamicCopyStages::PASS_NAMES.iter().enumerate() {
        let acc = tracer.span(format!("dynamic.{name}.fold"), |_| {
            if pass == 0 {
                stages = Some(DynamicCopyStages::new(c, updates.len(), n, seed).map_err(err)?);
            }
            let s = stages.as_ref().expect("stages built in pass 1");
            let mut acc = s.begin_pass();
            for (i, chunk) in updates.chunks(CHUNK).enumerate() {
                s.fold(&mut acc, (i * CHUNK) as u64, chunk);
            }
            Ok::<_, String>(acc)
        })?;
        tracer.span(format!("dynamic.{name}.finish"), |_| {
            let s = stages.as_mut().expect("stages built in pass 1");
            s.finish_pass(vec![acc]).map_err(err)
        })?;
    }
    let stages = stages.expect("stages built");
    let bank_updates = stages.pass_tallies()[0].updates;
    let outcome = stages.finish().map_err(err)?;
    tracer.exit(copy_span);
    Ok((outcome.estimate.to_bits(), bank_updates))
}

/// Records empty phase spans for the passes of a layer the batch does not
/// use, so the layer reports its measured (near-zero) cost rather than a
/// constant zero.
fn idle_spans(tracer: &mut Tracer, layer: &str, passes: &[&str], phases: &[&str]) {
    for name in passes {
        for phase in phases {
            tracer.span(format!("{layer}.{name}.{phase}"), |_| ());
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
