//! The repository benchmark: end-to-end metrics from closed-loop engine
//! batches, and a separate traced run that breaks one batch into layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload main_probe --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run builds its workload from `--seed` (graph generation, exact
//! triangle count, snapshot, one warm-up batch), then one client submits
//! engine batches back to back for `--seconds`: the next batch starts only
//! after the previous one returned. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` alternates traced and untraced batches, re-runs one
//! batch layer by layer through the public stage APIs (checking its copy
//! estimates bit for bit against the engine's), prints the per-layer
//! metrics, and writes every span to `.bench_trace/<workload>-<seed>.json`.
//! The last line of standard output is the JSON result.

mod layers;
mod trace;
mod workload;

use std::hint::black_box;
use std::time::Instant;

use degentri_engine::{Engine, EngineReport, EngineStats};
use degentri_stream::ShardedSnapshot;

use trace::{json_string, Tracer};
use workload::{Inputs, JobPlan, JobScore, Snapshot, Workload, SCORED_BATCHES, WORKERS};

/// Set-ups per run; `setup_s` and the set-up layer times are medians.
const SETUP_REPS: usize = 5;
/// Repetitions of the layer breakdown and its w1/w2 engine batches.
const LAYER_REPS: usize = 3;
/// Repetitions of the bare snapshot sweep.
const SWEEP_REPS: usize = 5;
/// Batch index of the warm-up batch (never a measured batch's index).
const WARMUP_BATCH: u64 = u64::MAX;
/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <main_probe|turnstile_churn|mixed_scan> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        measured_run(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---- statistics -----------------------------------------------------------

/// Linear-interpolation quantile of `values` (0 for an empty slice).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q * (sorted.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

// ---- set-up -----------------------------------------------------------------

struct Setup {
    inputs: Inputs,
    /// Median wall time of a whole set-up, warm-up batch included.
    setup_s: f64,
    generate_s: f64,
    exact_s: f64,
    snapshot_s: f64,
}

/// Builds the workload `SETUP_REPS` times (each followed by one warm-up
/// batch) and keeps the last build.
fn set_up(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let mut totals = Vec::new();
    let mut stages = Vec::new();
    let mut kept: Option<Inputs> = None;
    for _ in 0..SETUP_REPS {
        // Free the previous build first so peak memory holds one copy.
        drop(kept.take());
        let span = tracer.as_deref_mut().map(|t| t.enter("setup"));
        let started = Instant::now();
        let (inputs, times) = Inputs::build(args.workload, args.seed, tracer.as_deref_mut());
        let jobs = inputs.batch_jobs(WARMUP_BATCH);
        let mut engine = args.workload.engine(WORKERS);
        let warm = match tracer.as_deref_mut() {
            Some(t) => t.span("warmup_batch", |_| inputs.run_batch(&mut engine, &jobs)),
            None => inputs.run_batch(&mut engine, &jobs),
        }
        .map_err(|e| format!("warm-up batch failed: {e}"))?;
        if let Some(job) = warm.jobs.iter().find(|j| !j.is_ok()) {
            return Err(format!(
                "warm-up job {} failed: {:?}",
                job.label,
                job.error()
            ));
        }
        totals.push(started.elapsed().as_secs_f64());
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.exit(id);
        }
        stages.push(times);
        kept = Some(inputs);
    }
    let inputs = kept.expect("at least one set-up");
    if inputs.kappa_measured > inputs.kappa {
        return Err(format!(
            "generated graph has degeneracy {} above the κ = {} passed to the estimators",
            inputs.kappa_measured, inputs.kappa
        ));
    }
    let pick =
        |f: fn(&workload::SetupTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    Ok(Setup {
        setup_s: median(&totals),
        generate_s: pick(|t| t.generate_s),
        exact_s: pick(|t| t.exact_s),
        snapshot_s: pick(|t| t.snapshot_s),
        inputs,
    })
}

// ---- the closed loop --------------------------------------------------------

#[derive(Default)]
struct LoopResult {
    /// Engine wall time of every untraced batch, ms.
    batch_ms: Vec<f64>,
    /// Whole-iteration wall time and completed jobs, untraced and traced.
    plain: (f64, u64),
    traced: (f64, u64),
    attempted: u64,
    failed: u64,
    malformed: u64,
    /// Jobs of the first `SCORED_BATCHES` batches.
    scored: Vec<JobScore>,
    batch0_bits: Vec<Vec<u64>>,
    wall_s: f64,
}

fn bits_of(report: &EngineReport) -> Vec<Vec<u64>> {
    report
        .jobs
        .iter()
        .map(|job| match &job.outcome {
            Ok(out) => out
                .estimation
                .copy_estimates
                .iter()
                .map(|x| x.to_bits())
                .collect(),
            Err(_) => Vec::new(),
        })
        .collect()
}

/// Runs batches back to back for `seconds` (and at least the scored
/// batches).
fn closed_loop(inputs: &Inputs, seconds: f64, mut tracer: Option<&mut Tracer>) -> LoopResult {
    let mut engine = inputs.workload.engine(WORKERS);
    let mut out = LoopResult::default();
    let started = Instant::now();
    let mut batch = 0u64;
    while batch < SCORED_BATCHES || started.elapsed().as_secs_f64() < seconds {
        // Every second batch is traced when a tracer is given.
        let mut batch_tracer = tracer.as_deref_mut().filter(|_| batch % 2 == 1);
        let traced = batch_tracer.is_some();
        let iteration = Instant::now();
        let span = batch_tracer.as_deref_mut().map(|t| t.enter("batch"));
        let jobs = inputs.batch_jobs(batch);
        let run_started = Instant::now();
        let report = match batch_tracer.as_deref_mut() {
            Some(t) => t.span("engine.run", |_| inputs.run_batch(&mut engine, &jobs)),
            None => inputs.run_batch(&mut engine, &jobs),
        };
        let run_ms = ms(run_started);
        let scores: Vec<JobScore> = match &report {
            Ok(report) => match batch_tracer.as_deref_mut() {
                Some(t) => t.span("score", |_| inputs.score(&jobs, report)),
                None => inputs.score(&jobs, report),
            },
            Err(e) => {
                eprintln!("perfbench: batch {batch} failed: {e}");
                jobs.iter().map(JobScore::run_failed).collect()
            }
        };
        if let (Some(t), Some(id)) = (batch_tracer, span) {
            t.exit(id);
        }
        let iteration_ms = ms(iteration);
        let completed = scores.iter().filter(|s| s.outcome_ok).count() as u64;
        let side = if traced {
            &mut out.traced
        } else {
            &mut out.plain
        };
        side.0 += iteration_ms;
        side.1 += completed;
        if !traced {
            out.batch_ms.push(run_ms);
        }
        out.attempted += scores.len() as u64;
        out.failed += scores.iter().filter(|s| s.failed()).count() as u64;
        out.malformed += scores.iter().filter(|s| !s.well_formed).count() as u64;
        if batch == 0 {
            out.batch0_bits = scores.iter().map(|s| s.bits.clone()).collect();
        }
        if batch < SCORED_BATCHES {
            out.scored.extend(scores);
        }
        batch += 1;
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

impl LoopResult {
    fn completed(&self) -> u64 {
        self.plain.1 + self.traced.1
    }

    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

// ---- output -----------------------------------------------------------------

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> bool {
    let mut correct = correct;
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        println!("{:<48} {:>16} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() {
            m.value
        } else {
            eprintln!("perfbench: metric {} is not finite", m.name);
            correct = false;
            0.0
        };
        body.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_string(&m.name),
            value,
            json_string(m.unit)
        ));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    correct
}

// ---- the untraced run ---------------------------------------------------------

fn measured_run(args: &Args) -> Result<bool, String> {
    let setup = set_up(args, None)?;
    let inputs = &setup.inputs;
    println!("inputs {}", inputs.to_json());
    let lp = closed_loop(inputs, args.seconds, None);

    // Determinism: batch 0 again must reproduce every copy estimate.
    let mut engine = inputs.workload.engine(WORKERS);
    let again = inputs
        .run_batch(&mut engine, &inputs.batch_jobs(0))
        .map_err(|e| format!("repeat of batch 0 failed: {e}"))?;
    let repeatable = bits_of(&again) == lp.batch0_bits;
    if !repeatable {
        eprintln!("perfbench: batch 0 did not reproduce its copy estimates");
    }
    if lp.malformed > 0 {
        eprintln!("perfbench: {} malformed job outputs", lp.malformed);
    }

    let ok: Vec<&JobScore> = lp.scored.iter().filter(|s| s.outcome_ok).collect();
    let rel_errs: Vec<f64> = ok.iter().map(|s| s.rel_err).collect();
    let space: Vec<f64> = ok.iter().map(|s| s.space_words as f64).collect();
    println!("batches {} over {:.3} s", lp.batch_ms.len(), lp.wall_s);
    println!("jobs_failed_ratio {} ratio", lp.failed_ratio());
    for kind in ["main", "sequential", "ideal", "dynamic"] {
        let of_kind = ok.iter().filter(|s| s.kind == kind);
        if let Some(worst) = of_kind.map(|s| s.rel_err).reduce(f64::max) {
            println!("rel_err_max {kind} {worst} ratio");
        }
    }
    let metrics = vec![
        Metric::new("jobs_per_s", lp.completed() as f64 / lp.wall_s, "jobs/s"),
        Metric::new("batch_ms_p50", median(&lp.batch_ms), "ms"),
        Metric::new("batch_ms_p90", quantile(&lp.batch_ms, 0.9), "ms"),
        Metric::new("setup_s", setup.setup_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
        Metric::new("space_words_p50", median(&space), "words"),
        Metric::new("rel_err_p50", median(&rel_errs), "ratio"),
    ];
    let correct = repeatable && lp.malformed == 0;
    Ok(print_result(correct, lp.attempted, lp.failed, &metrics))
}

// ---- the traced run -----------------------------------------------------------

/// Median bare-sweep cost per item: one `ShardedSnapshot::pass_sharded`
/// with a trivial fold, on one worker.
fn sweep_ns_per_item(inputs: &Inputs, tracer: &mut Tracer) -> f64 {
    fn sweep<T: Copy + Send + Sync>(n: usize, items: &[T], key: impl Fn(&T) -> u64 + Sync) -> u64 {
        let view = ShardedSnapshot::new(n, items, 1);
        view.pass_sharded(1, |_, shard| {
            shard
                .iter()
                .fold(0u64, |acc, item| acc.wrapping_add(key(item)))
        })
        .into_iter()
        .fold(0u64, u64::wrapping_add)
    }
    let (items, _) = inputs.updates_and_deletions();
    let samples: Vec<f64> = (0..SWEEP_REPS)
        .map(|_| {
            let started = Instant::now();
            let acc = tracer.span("stream.sweep", |_| match &inputs.snapshot {
                Snapshot::Edges(s) => sweep(inputs.n, s.edges(), |e| e.key()),
                Snapshot::Updates(s) => {
                    sweep(inputs.n, s.updates(), |u| u.edge.key() ^ u.delta() as u64)
                }
            });
            black_box(acc);
            started.elapsed().as_nanos() as f64 / items.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn timed_batch(
    tracer: &mut Tracer,
    name: &str,
    inputs: &Inputs,
    engine: &mut Engine,
    jobs: &[JobPlan],
) -> Result<(EngineReport, f64), String> {
    let started = Instant::now();
    let report = tracer
        .span(name, |_| inputs.run_batch(engine, jobs))
        .map_err(|e| format!("{name} failed: {e}"))?;
    Ok((report, ms(started)))
}

fn engine_metrics(stats: &EngineStats, jobs: &[JobPlan]) -> Vec<Metric> {
    let logical: u64 = jobs.iter().map(|j| j.copies() as u64 * j.passes()).sum();
    vec![
        Metric::new(
            "stream.items_per_batch",
            stats.edges_streamed as f64,
            "count",
        ),
        Metric::new(
            "stream.sweeps_per_batch",
            stats.sweeps_executed as f64,
            "count",
        ),
        Metric::new("engine.utilization", stats.worker_utilization, "ratio"),
        Metric::new(
            "engine.idle_worker_ms",
            (stats.workers as f64 * stats.wall_seconds - stats.busy_seconds) * 1e3,
            "ms",
        ),
        Metric::new("engine.fused_busy_ms", stats.fused_busy_seconds * 1e3, "ms"),
        Metric::new(
            "engine.per_copy_busy_ms",
            stats.per_copy_busy_seconds * 1e3,
            "ms",
        ),
        Metric::new("engine.fused_sweeps", stats.fused_sweeps as f64, "count"),
        Metric::new(
            "engine.per_copy_sweeps",
            stats.per_copy_sweeps as f64,
            "count",
        ),
        Metric::new("engine.jobs_failed", stats.jobs_failed as f64, "count"),
        Metric::new(
            "engine.copies_evicted",
            stats.copies_evicted as f64,
            "count",
        ),
        Metric::new(
            "engine.copies_retried",
            stats.copies_retried as f64,
            "count",
        ),
        Metric::new(
            "engine.sweep_sharing",
            stats.sweeps_executed as f64 / logical.max(1) as f64,
            "ratio",
        ),
    ]
}

fn traced_run(args: &Args) -> Result<bool, String> {
    let mut tracer = Tracer::new();
    let setup = set_up(args, Some(&mut tracer))?;
    let inputs = &setup.inputs;
    let inputs_json = inputs.to_json();
    println!("inputs {inputs_json}");

    let lp = tracer.span("closed_loop", |t| {
        closed_loop(inputs, args.seconds, Some(t))
    });

    // One batch, three ways per repetition: the engine at WORKERS and at
    // one worker, and the single-thread layer breakdown.
    let jobs = inputs.batch_jobs(0);
    let mut w2_engine = inputs.workload.engine(WORKERS);
    let mut w1_engine = inputs.workload.engine(1);
    let mut w2: Vec<(EngineReport, f64)> = Vec::new();
    let mut w1_ms = Vec::new();
    let mut layer_samples: Vec<Vec<Metric>> = Vec::new();
    let mut layer_sums = Vec::new();
    let mut identical = true;
    for _ in 0..LAYER_REPS {
        let (r2, ms2) = timed_batch(
            &mut tracer,
            "engine.batch.w2",
            inputs,
            &mut w2_engine,
            &jobs,
        )?;
        let (r1, ms1) = timed_batch(
            &mut tracer,
            "engine.batch.w1",
            inputs,
            &mut w1_engine,
            &jobs,
        )?;
        let breakdown = layers::breakdown(&mut tracer, inputs, &jobs)?;
        for (j, job) in jobs.iter().enumerate() {
            let direct = &breakdown.copy_bits[j];
            for (tier, report) in [("w2", &r2), ("w1", &r1)] {
                let engine_bits = bits_of(report);
                if engine_bits[j] != *direct {
                    identical = false;
                    eprintln!(
                        "perfbench: {} job {j}: stage-driven copy estimates differ from the \
                         {tier} engine's",
                        job.label()
                    );
                }
            }
        }
        w2.push((r2, ms2));
        w1_ms.push(ms1);
        layer_sums.push(breakdown.layer_sum_ms);
        layer_samples.push(breakdown.metrics);
    }
    let sweep_ns = sweep_ns_per_item(inputs, &mut tracer);

    // Engine counters come from the w2 repetition with the median wall.
    let w2_ms: Vec<f64> = w2.iter().map(|(_, ms)| *ms).collect();
    let w2_median = median(&w2_ms);
    let typical = w2
        .iter()
        .min_by(|a, b| (a.1 - w2_median).abs().total_cmp(&(b.1 - w2_median).abs()))
        .expect("at least one repetition");
    let w1_median = median(&w1_ms);

    let mut metrics = vec![
        Metric::new("gen.generate_s", setup.generate_s, "s"),
        Metric::new("graph.exact_triangles_s", setup.exact_s, "s"),
        Metric::new("stream.snapshot_build_s", setup.snapshot_s, "s"),
        Metric::new("stream.sweep_ns_per_item", sweep_ns, "ns"),
    ];
    // Each layer metric is the median over the repetitions.
    for (k, first) in layer_samples[0].iter().enumerate() {
        let values: Vec<f64> = layer_samples.iter().map(|s| s[k].value).collect();
        metrics.push(Metric::new(first.name.clone(), median(&values), first.unit));
    }
    metrics.extend(engine_metrics(&typical.0.stats, &jobs));
    metrics.push(Metric::new("engine.batch_ms_w1", w1_median, "ms"));
    metrics.push(Metric::new(
        "engine.parallel_speedup",
        w1_median / w2_median,
        "ratio",
    ));
    metrics.push(Metric::new(
        "engine.overhead_ms",
        w1_median - median(&layer_sums),
        "ms",
    ));
    let plain_rate = lp.plain.1 as f64 / lp.plain.0.max(1e-9);
    let traced_rate = lp.traced.1 as f64 / lp.traced.0.max(1e-9);
    metrics.push(Metric::new(
        "obs.tracing_overhead",
        traced_rate / plain_rate,
        "ratio",
    ));
    metrics.push(Metric::new("jobs_failed_ratio", lp.failed_ratio(), "ratio"));

    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("create {TRACE_DIR}: {e}"))?;
    let path = format!(
        "{TRACE_DIR}/{}-{}.json",
        inputs.workload.name(),
        inputs.seed
    );
    std::fs::write(&path, tracer.to_json(&inputs_json))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!("trace {path} ({} spans)", tracer.spans().len());

    let correct = identical && lp.malformed == 0;
    Ok(print_result(correct, lp.attempted, lp.failed, &metrics))
}
