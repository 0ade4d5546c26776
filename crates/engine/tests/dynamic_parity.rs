//! Engine-vs-standalone parity for the turnstile estimator: a
//! [`JobKind::Dynamic`] job scheduled by the engine must reproduce the
//! standalone [`DynamicTriangleEstimator::run`] bit for bit — across
//! worker counts, in both randomness regimes, with and without the
//! spare-worker sharded path — because copies carry the same derived
//! seeds and the median aggregation is shared.

use degentri_core::RngMode;
use degentri_dynamic::{
    aggregate_dynamic_copies, run_dynamic_copy, DynamicEstimatorConfig, DynamicOutcome,
    DynamicTriangleEstimator,
};
use degentri_engine::{Engine, EngineConfig, EngineError, JobSpec};
use degentri_gen::{barabasi_albert, wheel};
use degentri_graph::triangles::count_triangles;
use degentri_stream::{
    DynamicMemoryStream, EdgeUpdate, MemoryStream, ShardedDynamicStream, StreamOrder,
};

fn workload() -> (DynamicMemoryStream, DynamicEstimatorConfig) {
    let g = barabasi_albert(140, 4, 5).unwrap();
    let stream = DynamicMemoryStream::with_churn(&g, 0.5, 23);
    let config = DynamicEstimatorConfig::new(4, count_triangles(&g).max(1) / 2)
        .with_epsilon(0.3)
        .with_copies(4)
        .with_seed(19)
        .with_max_samples(120);
    (stream, config)
}

fn assert_same(engine: &degentri_engine::JobResult, standalone: &DynamicOutcome, what: &str) {
    assert_eq!(
        engine.estimation().estimate.to_bits(),
        standalone.estimate.to_bits(),
        "{what}: estimate"
    );
    assert_eq!(
        engine.estimation().copy_estimates,
        standalone.copy_estimates,
        "{what}: copies"
    );
    assert_eq!(engine.estimation().space, standalone.space, "{what}: space");
    let dynamic = engine.dynamic().expect("dynamic outcome attached");
    assert_eq!(dynamic.surviving_edges, standalone.surviving_edges);
    assert_eq!(dynamic.triangles_found, standalone.triangles_found);
    assert_eq!(dynamic.r, standalone.r);
}

#[test]
fn engine_matches_standalone_across_workers_and_modes() {
    let (stream, config) = workload();
    for mode in [RngMode::Sequential, RngMode::Counter] {
        let standalone = DynamicTriangleEstimator::new(config.clone().with_rng_mode(mode))
            .run(&stream)
            .unwrap();
        for workers in [1usize, 2, 4] {
            let mut engine = Engine::new(
                EngineConfig::builder()
                    .workers(workers)
                    .rng_mode(mode)
                    .try_build()
                    .unwrap(),
            );
            engine.submit(JobSpec::dynamic("turnstile", config.clone()));
            let report = engine.run_dynamic(&stream).unwrap();
            assert_same(
                &report.jobs[0],
                &standalone,
                &format!("{mode:?} workers {workers}"),
            );
            assert_eq!(report.stats.rng_mode, Some(mode));
            assert_eq!(report.stats.tasks, config.copies);
            assert!(report.stats.edges_streamed > 0);
        }
    }
}

#[test]
fn engine_forces_counter_mode_by_default() {
    let (stream, config) = workload();
    // The submitted job asks for the sequential regime; the engine default
    // overrides it to counter mode, so the result must equal a standalone
    // counter-mode run.
    let counter = DynamicTriangleEstimator::new(config.clone().with_rng_mode(RngMode::Counter))
        .run(&stream)
        .unwrap();
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("forced", config.clone()));
    let report = engine.run_dynamic(&stream).unwrap();
    assert_same(&report.jobs[0], &counter, "forced counter");

    // job_rng_mode() makes the engine respect the job's own regime.
    let sequential = DynamicTriangleEstimator::new(config.clone())
        .run(&stream)
        .unwrap();
    let mut engine = Engine::new(
        EngineConfig::builder()
            .workers(2)
            .job_rng_mode()
            .try_build()
            .unwrap(),
    );
    engine.submit(JobSpec::dynamic("respected", config));
    let report = engine.run_dynamic(&stream).unwrap();
    assert_same(&report.jobs[0], &sequential, "respected sequential");
    assert_eq!(report.stats.rng_mode, None);
}

#[test]
fn spare_workers_shard_counter_mode_copies_bit_identically() {
    let (stream, config) = workload();
    // 2 copies on 8 workers: 4 shard workers per copy.
    let config = config.with_copies(2);
    let mut wide = Engine::with_workers(8);
    wide.submit(JobSpec::dynamic("sharded", config.clone()));
    let sharded = wide.run_dynamic(&stream).unwrap();
    // The fused cohort shards its shared sweeps across the whole pool.
    assert_eq!(sharded.stats.intra_task_workers, 8);
    assert_eq!(sharded.stats.fused_cohorts, 1);

    let mut copy_only = Engine::new(
        EngineConfig::builder()
            .workers(8)
            .intra_task_sharding(false)
            .try_build()
            .unwrap(),
    );
    copy_only.submit(JobSpec::dynamic("copy-only", config.clone()));
    let plain = copy_only.run_dynamic(&stream).unwrap();
    assert_eq!(plain.stats.intra_task_workers, 1);
    assert_eq!(
        sharded.jobs[0].estimation().estimate.to_bits(),
        plain.jobs[0].estimation().estimate.to_bits()
    );
    assert_eq!(
        sharded.jobs[0].estimation().copy_estimates,
        plain.jobs[0].estimation().copy_estimates
    );

    // Under a forced sequential regime the dynamic job does not shard.
    let mut sequential = Engine::new(
        EngineConfig::builder()
            .workers(8)
            .rng_mode(RngMode::Sequential)
            .try_build()
            .unwrap(),
    );
    sequential.submit(JobSpec::dynamic("sequential", config));
    let report = sequential.run_dynamic(&stream).unwrap();
    assert_eq!(report.stats.intra_task_workers, 1);
}

#[test]
fn engine_copies_match_manual_sharded_copies_at_every_shard_count() {
    // The engine picks one shard count from its worker budget; the runner
    // API lets tests pin any shard count. All of them must agree with the
    // engine result (and with each other).
    let (stream, config) = workload();
    let config = config.with_rng_mode(RngMode::Counter).with_copies(2);
    let estimator = DynamicTriangleEstimator::new(config.clone());
    let mut engine = Engine::with_workers(8);
    engine.submit(JobSpec::dynamic("reference", config.clone()));
    let report = engine.run_dynamic(&stream).unwrap();
    for shards in 1..=8usize {
        for workers in [1usize, 2, 4] {
            let view = ShardedDynamicStream::from_stream(&stream, shards);
            let out = estimator.run_sharded(&view, workers).unwrap();
            assert_eq!(
                out.copy_estimates,
                report.jobs[0].estimation().copy_estimates,
                "shards {shards} workers {workers}"
            );
        }
    }
}

/// The fused turnstile cohort folds each sketch pass copy-parallel (one
/// pool task per copy) and each union pass as a sharded shared sweep. With
/// fewer, as many, and more copies than workers, and one or two jobs per
/// cohort, every copy must equal the standalone single-copy runner bit for
/// bit, and every job its standalone aggregate.
#[test]
fn copy_parallel_sketch_passes_match_standalone_copies() {
    let (stream, config) = workload();
    let config = config.with_rng_mode(RngMode::Counter).with_max_samples(48);
    let seeds = [19u64, 20];
    for copies in [1usize, 3, 8] {
        let expected: Vec<Vec<_>> = seeds
            .iter()
            .map(|&seed| {
                let job = config.clone().with_seed(seed).with_copies(copies);
                (0..copies)
                    .map(|copy| run_dynamic_copy(&stream, &job, copy).unwrap())
                    .collect()
            })
            .collect();
        for jobs in [1usize, 2] {
            for workers in [1usize, 2, 4] {
                let mut engine = Engine::with_workers(workers);
                for &seed in &seeds[..jobs] {
                    engine.submit(JobSpec::dynamic(
                        format!("seed {seed}"),
                        config.clone().with_seed(seed).with_copies(copies),
                    ));
                }
                let report = engine.run_dynamic(&stream).unwrap();
                assert_eq!(report.stats.fused_cohorts, 1);
                for (job, copy_outcomes) in report.jobs.iter().zip(&expected) {
                    let what = format!(
                        "{} copies {copies} jobs {jobs} workers {workers}",
                        job.label
                    );
                    let standalone: Vec<f64> = copy_outcomes.iter().map(|c| c.estimate).collect();
                    assert_eq!(job.estimation().copy_estimates, standalone, "{what}");
                    let aggregate = aggregate_dynamic_copies(copy_outcomes);
                    assert_eq!(
                        job.estimation().estimate.to_bits(),
                        aggregate.estimate.to_bits(),
                        "{what}"
                    );
                    assert_eq!(job.estimation().space, aggregate.space, "{what}");
                }
            }
        }
    }
}

#[test]
fn many_dynamic_jobs_share_one_snapshot() {
    let (stream, config) = workload();
    let mut engine = Engine::with_workers(4);
    for (i, seed) in [1u64, 2, 3].iter().enumerate() {
        engine.submit(JobSpec::dynamic(
            format!("job {i}"),
            config.clone().with_seed(*seed).with_copies(2),
        ));
    }
    let report = engine.run_dynamic(&stream).unwrap();
    assert_eq!(report.jobs.len(), 3);
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.label, format!("job {i}"));
        assert_eq!(job.tasks, 2);
        let standalone = DynamicTriangleEstimator::new(
            config
                .clone()
                .with_seed([1u64, 2, 3][i])
                .with_copies(2)
                .with_rng_mode(RngMode::Counter),
        )
        .run(&stream)
        .unwrap();
        assert_same(job, &standalone, &format!("job {i}"));
    }
    // The queue was drained; the engine is reusable.
    assert_eq!(engine.queued_jobs(), 0);
}

#[test]
fn entry_point_matrix_is_enforced() {
    let (dynamic_stream, dynamic_config) = workload();
    let g = wheel(60).unwrap();
    let edge_stream = MemoryStream::from_graph(&g, StreamOrder::AsGiven);

    // A turnstile job over an edge snapshot runs on the insert-only
    // materialization of the edges — bit-identical to the standalone
    // estimator fed the same stream as inserts.
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("turnstile", dynamic_config.clone()));
    let report = engine.run(&edge_stream).unwrap();
    let inserts = edge_stream
        .edges()
        .iter()
        .map(|&edge| EdgeUpdate::insert(edge))
        .collect();
    let insert_stream = DynamicMemoryStream::from_updates(g.num_vertices(), inserts);
    let standalone =
        DynamicTriangleEstimator::new(dynamic_config.clone().with_rng_mode(RngMode::Counter))
            .run(&insert_stream)
            .unwrap();
    assert_same(&report.jobs[0], &standalone, "turnstile on edge snapshot");

    // An insert-only job cannot run over a dynamic snapshot.
    let main_config = degentri_core::EstimatorConfig::builder()
        .kappa(3)
        .triangle_lower_bound(59)
        .copies(2)
        .build();
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::main("insert-only", main_config));
    assert!(matches!(
        engine.run_dynamic(&dynamic_stream),
        Err(EngineError::UnsupportedJob { .. })
    ));

    // Invalid dynamic configurations fail validation up front.
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic(
        "bad",
        dynamic_config.clone().with_epsilon(2.0),
    ));
    assert!(matches!(
        engine.run_dynamic(&dynamic_stream),
        Err(EngineError::Dynamic(_))
    ));

    // An empty dynamic snapshot is rejected like the standalone runner.
    let empty = DynamicMemoryStream::from_updates(4, Vec::new());
    let mut engine = Engine::with_workers(2);
    engine.submit(JobSpec::dynamic("empty", dynamic_config));
    assert!(matches!(
        engine.run_dynamic(&empty),
        Err(EngineError::Dynamic(_))
    ));

    // An empty queue over a dynamic snapshot is a valid no-op.
    let mut engine = Engine::with_workers(2);
    let report = engine.run_dynamic(&dynamic_stream).unwrap();
    assert!(report.jobs.is_empty());
    assert_eq!(report.stats.tasks, 0);
}
