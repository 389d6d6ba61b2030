//! Integration tests for the parallel experiment-suite engine: the
//! parallel fan-out must be an *observationally invisible* optimization
//! — bit-identical to running the same jobs serially — while still
//! delivering a real wall-clock speedup on multicore hosts.

use archsim::Platform;
use smartbalance::{
    run_experiment_with, ExperimentSpec, ExperimentSuite, JobResult, Policy, PredictorCache,
    PredictorSet, ShardConfig, SmartBalanceConfig,
};
use workloads::{ImbConfig, Level};

/// A small but non-trivial spec: two IMB profiles on the big.LITTLE
/// platform (the one every policy, including GTS and IKS, supports).
fn spec(name: &str, scale: f64) -> ExperimentSpec {
    let profiles = vec![
        ImbConfig::new(Level::High, Level::Low)
            .profile()
            .scaled(scale),
        ImbConfig::new(Level::Medium, Level::Low)
            .profile()
            .scaled(scale),
    ];
    ExperimentSpec::new(name, Platform::octa_big_little(), profiles)
}

/// Profile scale of the determinism checks: small, so every job runs
/// about one epoch.
const SCALE: f64 = 0.08;

/// Profile scale of the speedup check: every job runs at least
/// [`SPEEDUP_MIN_EPOCHS`] epochs (140 to 298), so simulation, not the
/// one predictor training the jobs share, dominates the wall clock.
/// The one-worker suite takes about 65 ms in a release build on a
/// 2-vCPU host, well above a few milliseconds of host jitter.
const SPEEDUP_SCALE: f64 = 20.0;

/// Fewest epochs a job of the speedup check may run.
const SPEEDUP_MIN_EPOCHS: u64 = 20;

/// Eight-plus jobs mixing policies, experiments and a pinned config —
/// the workload the acceptance criteria are checked against.
fn build_suite(workers: usize, scale: f64) -> ExperimentSuite {
    let mut suite = ExperimentSuite::new().with_workers(workers);
    for (i, policy) in [Policy::Vanilla, Policy::Gts, Policy::Iks, Policy::Smart]
        .into_iter()
        .enumerate()
    {
        suite.push(spec(&format!("w{i}"), scale), policy);
    }
    for i in 0..3 {
        suite.push(spec(&format!("w{i}"), scale), Policy::Smart);
    }
    // One job whose config pins its own annealer seed.
    let pinned = spec("pinned", scale).with_policy_config(SmartBalanceConfig {
        anneal_seed: Some(42),
        ..SmartBalanceConfig::default()
    });
    suite.push(pinned, Policy::Smart);
    suite
}

/// Serializes every job result; equality of these strings is
/// bit-equality of every f64 in them (Rust's float `Display` is
/// shortest-roundtrip, so distinct bits print distinctly).
fn fingerprint(report: &smartbalance::SuiteReport) -> Vec<String> {
    report
        .jobs
        .iter()
        .map(|j| serde_json::to_string(&j.result).expect("serialize"))
        .collect()
}

#[test]
fn parallel_suite_matches_serial_run_experiment() {
    let suite = build_suite(4, SCALE);
    assert!(suite.jobs().len() >= 8, "acceptance: at least 8 jobs");
    let report = suite.run();

    // Re-run every job serially through the plain runner entry point,
    // building the balancer exactly as the suite did.
    for (parallel, job) in report.jobs.iter().zip(suite.jobs()) {
        let mut balancer = job.build_balancer();
        let serial = run_experiment_with(&job.spec, balancer.as_mut(), None);
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize"),
            serde_json::to_string(&parallel.result).expect("serialize"),
            "job {} ({:?}) diverged from its serial rerun",
            parallel.job_index,
            parallel.policy,
        );
    }
}

#[test]
fn rerunning_the_suite_is_bit_identical_and_faster_in_parallel() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let serial_report = build_suite(1, SCALE).run();
    let parallel_report = build_suite(cores, SCALE).run();

    // Determinism: same jobs, different worker counts and scheduling
    // orders, bit-identical measurements.
    assert_eq!(fingerprint(&serial_report), fingerprint(&parallel_report));

    // And a third run with an odd pool size for good measure.
    assert_eq!(
        fingerprint(&serial_report),
        fingerprint(&build_suite(3, SCALE).run())
    );

    // Speedup: on a multicore host the 8-job fan-out must beat the
    // one-worker run on wall-clock. The jobs above run about one epoch
    // each, so their time is mostly the shared training; these are
    // large enough that simulation dominates.
    if cores >= 2 {
        let serial_report = build_suite(1, SPEEDUP_SCALE).run();
        let parallel_report = build_suite(cores, SPEEDUP_SCALE).run();
        for job in &serial_report.jobs {
            assert!(
                job.result.epochs >= SPEEDUP_MIN_EPOCHS,
                "job {} ({:?}) ran {} epochs, fewer than {SPEEDUP_MIN_EPOCHS}",
                job.job_index,
                job.policy,
                job.result.epochs,
            );
        }
        assert!(
            parallel_report.wall_s < serial_report.wall_s,
            "no speedup: {} workers took {:.3}s vs {:.3}s serial",
            cores,
            parallel_report.wall_s,
            serial_report.wall_s,
        );
        assert!(parallel_report.speedup() > 1.0);
    }
    assert!(serial_report.throughput_jobs_per_s() > 0.0);
}

#[test]
fn identical_runs_produce_byte_identical_canonical_reports() {
    // The smartlint D1 rule exists to protect exactly this guarantee:
    // no HashMap iteration order may leak into results. Two fresh runs
    // of the same suite must serialize — wall-clock fields aside — to
    // the same bytes, whole report included (job order, gains, traces).
    let first = build_suite(2, SCALE).run().canonicalized();
    let second = build_suite(4, SCALE).run().canonicalized();
    assert_eq!(
        serde_json::to_string(&first).expect("serialize"),
        serde_json::to_string(&second).expect("serialize"),
        "canonicalized SuiteReport JSON differs between identical runs"
    );
}

#[test]
#[allow(clippy::float_cmp)] // the roundtrip must preserve the exact bits
fn suite_report_round_trips_through_json() {
    let mut suite = ExperimentSuite::new().with_workers(2);
    suite.push(spec("w0", 0.01), Policy::Vanilla);
    suite.push(spec("w0", 0.01), Policy::Smart);
    let report = suite.run();

    // The report's jobs are what the campaign journal stores and reads
    // back on resume, so each must come back through the JSON text
    // with the exact bits.
    let text = serde_json::to_string(&report).expect("serialize report");
    let json: serde_json::Value = serde_json::from_str(&text).expect("parse report");
    let jobs = json.map_get("jobs");
    for (i, job) in report.jobs.iter().enumerate() {
        let entry = jobs.seq_get(i).expect("one entry per job");
        let back: JobResult = serde_json::from_value(entry).expect("deserialize job");
        assert_eq!(
            serde_json::to_string(&back).expect("serialize"),
            serde_json::to_string(job).expect("serialize"),
        );
        assert_eq!(back.result, job.result);
        assert_eq!(back.wall_s, job.wall_s);
    }
    assert!(jobs.seq_get(report.jobs.len()).is_err());
}

#[test]
fn the_predictor_cache_has_one_slot_per_training_key() {
    let quad = |name: &str| ExperimentSpec::new(name, Platform::quad_heterogeneous(), Vec::new());
    let big_little = |name: &str| spec(name, 0.01);
    let mut suite = ExperimentSuite::new();
    suite.push(quad("q"), Policy::Vanilla);
    // The default quad key, under four job seeds, a pinned annealer
    // seed and a sharded spec: one slot.
    suite.push(quad("q"), Policy::Smart);
    suite.push(quad("q2"), Policy::Smart);
    suite.push(quad("q").with_shard(ShardConfig::default()), Policy::Smart);
    let pinned = quad("pinned").with_policy_config(SmartBalanceConfig {
        anneal_seed: Some(42),
        sensor_seed: Some(7),
        ..SmartBalanceConfig::default()
    });
    suite.push(pinned, Policy::Smart);
    // Sparse sensing trains another set.
    let sparse = quad("sparse").with_policy_config(SmartBalanceConfig {
        sparse_sensing: true,
        ..SmartBalanceConfig::default()
    });
    suite.push(sparse, Policy::Smart);
    // The other platform: baselines need no set, SmartBalance one more.
    suite.push(big_little("bl"), Policy::Vanilla);
    suite.push(big_little("bl"), Policy::Gts);
    suite.push(big_little("bl"), Policy::Smart);
    suite.push(
        big_little("bl-sharded").with_shard(ShardConfig::default()),
        Policy::Smart,
    );

    let cells = || suite.jobs().iter().map(|j| (&j.spec, j.policy));
    let cache = PredictorCache::for_cells(cells());
    assert_eq!(cache.len(), 3, "default quad, sparse quad, big.LITTLE");
    assert_eq!(cache.trained(), 0, "building the cache trains nothing");
    for job in suite.jobs().iter().filter(|j| j.policy == Policy::Smart) {
        let cfg = job.effective_config();
        let fresh = PredictorSet::train_with_sparsity(
            &job.spec.platform,
            cfg.train_corpus,
            cfg.train_seed,
            cfg.sparse_sensing,
        );
        assert_eq!(
            cache.predictors_for(&job.spec.platform, &cfg),
            fresh,
            "job {}: the shared set is the set it would train",
            job.spec.name
        );
    }
    assert_eq!(cache.trained(), 3);
    // A key without a slot trains afresh and adds none.
    let other_seed = SmartBalanceConfig {
        train_seed: 99,
        ..SmartBalanceConfig::default()
    };
    let platform = Platform::quad_heterogeneous();
    assert_eq!(
        cache.predictors_for(&platform, &other_seed),
        PredictorSet::train(&platform, other_seed.train_corpus, 99)
    );
    assert_eq!((cache.len(), cache.trained()), (3, 3));

    let baselines = cells().filter(|&(_, policy)| policy != Policy::Smart);
    assert!(PredictorCache::for_cells(baselines).is_empty());
}
