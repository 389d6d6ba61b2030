//! Parity tests for the closed-loop telemetry layer: observability is
//! strictly *write-only* from the simulation's point of view, so a run
//! with a telemetry hub attached — recording scheduler events or not —
//! must be observationally indistinguishable — bit-for-bit — from the
//! same run without one, and the telemetry output itself must be
//! deterministic across reruns and across suite worker counts.
//!
//! Same fingerprint technique as `tests/engine_parity.rs`: string
//! equality of serde_json output implies bit equality of every `f64`
//! inside (shortest-roundtrip formatting).

use archsim::{CoreId, FaultKind, FaultPlan, Platform};
use kernelsim::{LoadBalancer, System, SystemConfig};
use smartbalance::{
    ExperimentSpec, ExperimentSuite, Policy, ShardConfig, SmartBalance, SmartBalanceConfig,
    SuiteReport,
};
use telemetry::{ObsCapture, TraceLevel};
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
    /// Scheduler events the hub kept.
    events: usize,
}

/// Runs the reference SmartBalance scenario, optionally with a
/// telemetry hub attached to both the system and the policy that
/// records scheduler events at the given level.
fn run(hub_level: Option<TraceLevel>) -> RunTrace {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::with_config(&platform, SmartBalanceConfig::default());
    let mut sys = System::new(platform, SystemConfig::default());
    let hub = hub_level.map(|level| {
        let hub = telemetry::shared();
        hub.borrow_mut().set_trace(level, 1 << 20);
        sys.set_telemetry(hub.clone());
        policy.attach_telemetry(&hub);
        hub
    });
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
        obs: hub.as_ref().map(|hub| hub.borrow().capture()),
        events: hub.map_or(0, |hub| hub.borrow().events().len()),
    }
}

#[test]
fn telemetry_is_bit_transparent_to_the_simulation() {
    let plain = run(None);
    let observed = run(Some(TraceLevel::Off));
    let traced = run(Some(TraceLevel::Full));

    for other in [&observed, &traced] {
        assert_eq!(plain.fingerprints.len(), other.fingerprints.len());
        for (epoch, (a, b)) in plain
            .fingerprints
            .iter()
            .zip(other.fingerprints.iter())
            .enumerate()
        {
            assert_eq!(a, b, "EpochReport for epoch {epoch} diverged");
        }
        assert_eq!(plain.total_instructions, other.total_instructions);
        assert_eq!(
            plain.total_energy_bits, other.total_energy_bits,
            "energy accounting must match to the last bit"
        );
        assert_eq!(plain.total_slices, other.total_slices);
    }

    // Recording scheduler events changes nothing else the hub sees.
    let (quiet, loud) = (
        observed.obs.as_ref().expect("observed run captures"),
        traced.obs.as_ref().expect("traced run captures"),
    );
    assert_eq!(quiet.jsonl, loud.jsonl);
    assert_eq!(quiet.prometheus, loud.prometheus);
    assert_eq!(
        serde_json::to_string(&quiet.summary).expect("serialize"),
        serde_json::to_string(&loud.summary).expect("serialize"),
    );
    assert_eq!(observed.events, 0, "an Off hub records no events");
    assert!(
        traced.events as u64 > plain.total_slices,
        "every slice, plus the lifecycle events"
    );

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
    let a = run(Some(TraceLevel::Off)).obs.expect("captured");
    let b = run(Some(TraceLevel::Off)).obs.expect("captured");
    assert_eq!(a.jsonl, b.jsonl, "JSONL stream must be reproducible");
    assert_eq!(a.prometheus, b.prometheus);
    assert_eq!(
        serde_json::to_string(&a.summary).expect("serialize"),
        serde_json::to_string(&b.summary).expect("serialize"),
    );
}

/// FNV-1a over everything a capture exports: the JSONL stream, the
/// Prometheus text and the summary JSON.
fn capture_digest(obs: &ObsCapture) -> u64 {
    let summary = serde_json::to_string(&obs.summary).expect("serialize summary");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in [&obs.jsonl, &obs.prometheus, &summary] {
        for &b in part.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The sharded back half under a hub: 48 mixed tasks on
/// `clustered_heterogeneous(4, 8)` for 10 epochs, with noisy sensors on
/// cores 0–3 (quarantined threads) and core 9 offline for epochs 4–6.
fn sharded_capture() -> ObsCapture {
    let platform = Platform::clustered_heterogeneous(4, 8);
    let config = SmartBalanceConfig {
        shard: Some(ShardConfig {
            workers: 2,
            ..ShardConfig::default()
        }),
        ..SmartBalanceConfig::default()
    };
    let mut policy = Policy::Smart.build(&platform, Some(&config));
    assert_eq!(policy.name(), "smartbalance-sharded");
    let mut sys = System::new(platform, SystemConfig::default());
    let hub = telemetry::shared();
    sys.set_telemetry(hub.clone());
    policy.attach_telemetry(&hub);
    let mut plan = FaultPlan::new();
    for core in 0..4 {
        plan = plan.inject(0, Some(core), FaultKind::Noise { sigma: 3.0 });
    }
    sys.set_fault_plan(plan, 0x5EED_0002);
    let mut gen = SyntheticGenerator::new(0x54A2D);
    for i in 0..48 {
        sys.spawn(gen.profile(format!("s{i}"), 2, u64::MAX / 64, i % 3 == 0));
    }
    for epoch in 0..10 {
        match epoch {
            4 => sys.set_core_online(CoreId(9), false),
            7 => sys.set_core_online(CoreId(9), true),
            _ => {}
        }
        sys.run_epoch(policy.as_mut());
    }
    let obs = hub.borrow().capture();
    obs
}

/// The hub's whole output for one flat and one sharded run, pinned to
/// digests recorded before the two back halves shared their matrix
/// build, objective, seed draw, diff and telemetry tail. The sharded
/// run is the only test that reaches the per-cluster anneal and
/// exchange records.
#[test]
fn hub_output_of_both_back_halves_is_pinned() {
    let flat = run(Some(TraceLevel::Off)).obs.expect("captured");
    let sharded = sharded_capture();
    for metric in [
        "sb_shard_anneal_iterations_total{cluster=\"0\"}",
        "sb_shard_exchange_candidates_total",
        "sb_stage_work_total{stage=\"exchange\"}",
    ] {
        assert!(sharded.prometheus.contains(metric), "no {metric}");
    }
    assert!(sharded.summary.anneal_epochs > 0);
    assert!(sharded.summary.prediction_samples > 0);
    assert_eq!(
        capture_digest(&flat),
        0x53cc_3384_a28b_d71c,
        "flat hub output moved"
    );
    assert_eq!(
        capture_digest(&sharded),
        0x55f4_68cd_b9ff_de82,
        "sharded hub output moved"
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
