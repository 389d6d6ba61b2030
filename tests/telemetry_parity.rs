//! Parity tests for the closed-loop telemetry layer: observability is
//! strictly *write-only* from the simulation's point of view, so a run
//! with a telemetry hub attached must be observationally
//! indistinguishable — bit-for-bit — from the same run without one,
//! and the telemetry output itself must be deterministic across reruns
//! and across suite worker counts.
//!
//! Same fingerprint technique as `tests/engine_parity.rs`: string
//! equality of serde_json output implies bit equality of every `f64`
//! inside (shortest-roundtrip formatting).

use archsim::Platform;
use kernelsim::{LoadBalancer, System, SystemConfig};
use smartbalance::{
    ExperimentSpec, ExperimentSuite, Policy, SmartBalance, SmartBalanceConfig, SuiteReport,
};
use telemetry::ObsCapture;
use workloads::SyntheticGenerator;

const TASKS: usize = 8;
const EPOCHS: u32 = 12;

/// Everything observable about one closed-loop run, plus what the
/// telemetry hub (if attached) saw.
struct RunTrace {
    /// serde_json fingerprint of every epoch's report, in order.
    fingerprints: Vec<String>,
    total_instructions: u64,
    total_energy_bits: u64,
    total_slices: u64,
    obs: Option<ObsCapture>,
}

/// Runs the reference SmartBalance scenario, optionally with a
/// telemetry hub attached to both the system and the policy.
fn run(observed: bool) -> RunTrace {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::with_config(&platform, SmartBalanceConfig::default());
    let mut sys = System::new(platform, SystemConfig::default());
    let hub = if observed {
        let hub = telemetry::shared();
        sys.set_telemetry(hub.clone());
        policy.attach_telemetry(&hub);
        Some(hub)
    } else {
        None
    };
    let mut gen = SyntheticGenerator::new(0x0B5E);
    for i in 0..TASKS {
        sys.spawn(gen.profile(format!("w{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    let mut fingerprints = Vec::new();
    for _ in 0..EPOCHS {
        let report = sys.run_epoch(&mut policy);
        fingerprints.push(serde_json::to_string(&report).expect("serialize report"));
    }
    let stats = sys.stats();
    RunTrace {
        fingerprints,
        total_instructions: stats.total_instructions,
        total_energy_bits: stats.total_energy_j.to_bits(),
        total_slices: sys.total_slices(),
        obs: hub.map(|hub| hub.borrow().capture()),
    }
}

#[test]
fn telemetry_is_bit_transparent_to_the_simulation() {
    let plain = run(false);
    let observed = run(true);

    for (epoch, (a, b)) in plain
        .fingerprints
        .iter()
        .zip(observed.fingerprints.iter())
        .enumerate()
    {
        assert_eq!(a, b, "EpochReport for epoch {epoch} diverged");
    }
    assert_eq!(plain.total_instructions, observed.total_instructions);
    assert_eq!(
        plain.total_energy_bits, observed.total_energy_bits,
        "energy accounting must match to the last bit"
    );
    assert_eq!(plain.total_slices, observed.total_slices);

    // Transparency must not be vacuous: the hub has to have actually
    // watched the loop — one span per epoch, with the balancer-side
    // phases (sense/degrade/anneal) and the prediction audit populated.
    let obs = observed.obs.expect("observed run captures");
    assert!(plain.obs.is_none());
    assert_eq!(obs.summary.epochs, u64::from(EPOCHS));
    assert!(obs.summary.anneal_epochs > 0, "annealer epochs observed");
    assert!(
        obs.summary.prediction_samples > 0,
        "prediction audit resolved samples"
    );
    assert!(
        obs.summary.mean_abs_ips_error > 0.0,
        "audit measured a real error signal"
    );
    assert_eq!(obs.jsonl.lines().count(), EPOCHS as usize);
    assert!(obs.prometheus.contains("sb_anneal_epochs_total"));
    assert!(obs
        .prometheus
        .contains("sb_prediction_abs_rel_error_ips_count"));
}

#[test]
fn rerun_telemetry_output_is_byte_identical() {
    let a = run(true).obs.expect("captured");
    let b = run(true).obs.expect("captured");
    assert_eq!(a.jsonl, b.jsonl, "JSONL stream must be reproducible");
    assert_eq!(a.prometheus, b.prometheus);
    assert_eq!(
        serde_json::to_string(&a.summary).expect("serialize"),
        serde_json::to_string(&b.summary).expect("serialize"),
    );
}

/// Builds the observed suite: two experiments, each under Vanilla and
/// SmartBalance, all four jobs with telemetry attached.
fn observed_suite(workers: usize) -> SuiteReport {
    let mut gen = SyntheticGenerator::new(0x5EED);
    let mut specs = Vec::new();
    for name in ["alpha", "beta"] {
        let profiles = (0..4)
            .map(|i| gen.profile(format!("{name}{i}"), 3, 40_000_000, i % 2 == 0))
            .collect();
        specs.push(
            ExperimentSpec::new(name, Platform::quad_heterogeneous(), profiles)
                .with_max_epochs(200),
        );
    }
    let mut suite = ExperimentSuite::new().with_workers(workers);
    for spec in specs {
        suite.push_observed(spec.clone(), Policy::Vanilla);
        suite.push_observed(spec, Policy::Smart);
    }
    suite.run()
}

#[test]
fn observed_suite_is_worker_count_independent() {
    let two = observed_suite(2);
    let four = observed_suite(4);
    let two_canon = serde_json::to_string(&two.canonicalized()).expect("serialize");
    let four_canon = serde_json::to_string(&four.canonicalized()).expect("serialize");
    assert_eq!(
        two_canon, four_canon,
        "canonical suite reports (including ObsCaptures) must not depend on pool size"
    );
    // Non-vacuous: every job carries a populated observability bundle.
    for job in &two.jobs {
        let obs = job.obs.as_ref().expect("observed job captures");
        assert_eq!(obs.summary.epochs, job.result.epochs);
        assert!(!obs.jsonl.is_empty());
    }
    // SmartBalance jobs must have produced audit samples.
    assert!(two
        .jobs
        .iter()
        .filter(|j| j.policy == Policy::Smart)
        .all(|j| j
            .obs
            .as_ref()
            .is_some_and(|o| o.summary.prediction_samples > 0)));
}
