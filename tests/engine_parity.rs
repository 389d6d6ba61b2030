//! Reference-vs-batched slice-engine parity: the batched engine is a
//! *performance* backend, so every run must be observationally
//! indistinguishable — bit-for-bit — from the reference interpreter,
//! under forced cross-type migrations, mid-epoch DVFS transitions, an
//! active sensor-fault plan, probabilistic migration failure, core
//! hotplug, task churn (short tasks replaced as they exit) and
//! full-level event tracing.
//!
//! The fingerprint is the JSON serialization of every [`EpochReport`]
//! (string equality implies bit equality of every `f64` inside), plus
//! the sensor totals, the dispatch count, the estimate-cache hit/miss
//! telemetry and — for the traced scenario — the exact CSV event
//! stream.

use archsim::{CoreId, CoreTypeId, FaultKind, FaultPlan, Platform};
use kernelsim::{
    Allocation, EngineKind, EpochReport, LoadBalancer, System, SystemConfig, TraceLevel,
};
use workloads::SyntheticGenerator;

/// Deterministic stirring balancer: rotates every live task one core
/// to the right each epoch, forcing cross-type migrations (every core
/// of the quad heterogeneous platform is its own type) and regularly
/// moving sleeping tasks across wake heaps.
struct Rotate {
    num_cores: usize,
    epoch: usize,
}

impl LoadBalancer for Rotate {
    fn name(&self) -> &str {
        "rotate"
    }

    fn rebalance(&mut self, _platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        self.epoch += 1;
        let mut alloc = Allocation::new();
        for t in report.tasks.iter().filter(|t| t.alive) {
            alloc.assign(t.task, CoreId((t.task.0 + self.epoch) % self.num_cores));
        }
        Some(alloc)
    }
}

/// Which stress knobs a scenario run turns on.
#[derive(Debug, Clone, Copy, Default)]
struct Scenario {
    /// Mid-epoch DVFS retunes at epochs 4 and 9.
    dvfs: bool,
    /// A certain `StuckCounters` sensor fault from epoch 2.
    faults: bool,
    /// Every migration attempt fails with this probability (0 = off).
    migration_failure: f64,
    /// Core 2 offline for epochs 5..8 with a DVFS retune of its type
    /// while it is down.
    hotplug: bool,
    /// Full-level tracing (shrinks the run to [`TRACED_EPOCHS`]).
    trace: bool,
    /// Short tasks, each replaced by a new one as it exits, with core 3
    /// toggled offline/online every [`CHURN_HOTPLUG_EVERY`] epochs
    /// (runs [`CHURN_EPOCHS`]).
    churn: bool,
}

/// Everything observable about one run of the scenario.
struct RunTrace {
    /// serde_json fingerprint of every epoch's report, in order.
    fingerprints: Vec<String>,
    total_instructions: u64,
    total_energy_bits: u64,
    total_slices: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// CSV dump of the event ring (empty unless `trace` was set).
    trace_csv: String,
}

const TASKS: usize = 10;
const EPOCHS: u32 = 16;
const TRACED_EPOCHS: u32 = 3;
const CHURN_EPOCHS: u32 = 40;
const CHURN_HOTPLUG_EVERY: u32 = 7;

/// Instruction budget of the next task: effectively endless, or short
/// enough to exit within an epoch or two under churn.
fn task_instructions(gen: &mut SyntheticGenerator, sc: Scenario) -> u64 {
    if sc.churn {
        10_000_000 + gen.below(60_000_001)
    } else {
        u64::MAX / 64
    }
}

/// Runs the parity scenario — 10 multi-phase tasks (half interactive)
/// on the quad heterogeneous platform, stirred by [`Rotate`] — on the
/// chosen engine and returns everything observable about it.
fn run(engine: EngineKind, cached: bool, sc: Scenario) -> RunTrace {
    let platform = Platform::quad_heterogeneous();
    let config = SystemConfig {
        engine,
        ..SystemConfig::default()
    };
    let mut sys = System::new(platform, config);
    assert_eq!(sys.engine_kind(), engine);
    sys.set_estimate_caching(cached);
    if sc.faults {
        sys.set_fault_plan(
            FaultPlan::new().inject(2, None, FaultKind::StuckCounters { prob: 1.0 }),
            0xFA17_2026,
        );
    }
    sys.set_migration_failure(sc.migration_failure, 0xBAD);
    if sc.trace {
        sys.enable_tracing(TraceLevel::Full, 1 << 20);
    }
    let mut gen = SyntheticGenerator::new(0xD1CE);
    for i in 0..TASKS {
        let instructions = task_instructions(&mut gen, sc);
        sys.spawn(gen.profile(format!("w{i}"), 5, instructions, i % 2 == 0));
    }
    let mut bal = Rotate {
        num_cores: 4,
        epoch: 0,
    };
    let epochs = match (sc.trace, sc.churn) {
        (true, _) => TRACED_EPOCHS,
        (false, true) => CHURN_EPOCHS,
        (false, false) => EPOCHS,
    };
    let mut fingerprints = Vec::new();
    for epoch in 0..epochs {
        if sc.dvfs && epoch == 4 {
            // Mid-epoch: run one period, then retune while cached
            // estimates (and batched run state) are hot.
            sys.run_period();
            sys.set_operating_point(CoreTypeId(1), 1.0e9, 0.72);
        }
        if sc.dvfs && epoch == 9 {
            sys.run_period();
            sys.set_operating_point(CoreTypeId(1), 1.9e9, 0.9);
            sys.set_operating_point(CoreTypeId(3), 0.4e9, 0.55);
        }
        if sc.hotplug {
            if epoch == 5 {
                sys.set_core_online(CoreId(2), false);
            }
            if epoch == 6 {
                // Retune the offline core's type so any estimate taken
                // before the outage is stale when the core returns.
                sys.set_operating_point(CoreTypeId(2), 0.9e9, 0.68);
            }
            if epoch == 8 {
                sys.set_core_online(CoreId(2), true);
            }
        }
        if sc.churn && epoch > 0 && epoch % CHURN_HOTPLUG_EVERY == 0 {
            let online = sys.core_online(CoreId(3));
            sys.set_core_online(CoreId(3), !online);
        }
        let report = sys.run_epoch(&mut bal);
        fingerprints.push(serde_json::to_string(&report).expect("serialize report"));
        if sc.churn {
            for _ in report.tasks.iter().filter(|t| !t.alive) {
                let id = sys.next_task_id().0;
                let instructions = task_instructions(&mut gen, sc);
                sys.spawn(gen.profile(format!("w{id}"), 5, instructions, id.is_multiple_of(2)));
            }
        }
    }
    RunTrace {
        fingerprints,
        total_instructions: sys.sensors().total_instructions(),
        total_energy_bits: sys.sensors().total_energy_j().to_bits(),
        total_slices: sys.total_slices(),
        cache_hits: sys.estimate_cache().hits(),
        cache_misses: sys.estimate_cache().misses(),
        trace_csv: if sc.trace {
            assert_eq!(sys.tracer().dropped(), 0, "ring must not wrap");
            sys.tracer().to_csv()
        } else {
            String::new()
        },
    }
}

/// Asserts the full observable-equality contract between two runs.
fn assert_runs_identical(a: &RunTrace, b: &RunTrace, label: &str) {
    assert_eq!(
        a.fingerprints.len(),
        b.fingerprints.len(),
        "{label}: epoch count"
    );
    for (epoch, (fa, fb)) in a.fingerprints.iter().zip(b.fingerprints.iter()).enumerate() {
        assert_eq!(fa, fb, "{label}: EpochReport for epoch {epoch} diverged");
    }
    assert_eq!(a.total_instructions, b.total_instructions, "{label}");
    assert_eq!(
        a.total_energy_bits, b.total_energy_bits,
        "{label}: energy must match to the last bit"
    );
    assert_eq!(a.total_slices, b.total_slices, "{label}");
    assert_eq!(
        (a.cache_hits, a.cache_misses),
        (b.cache_hits, b.cache_misses),
        "{label}: estimate-cache telemetry diverged"
    );
    assert_eq!(a.trace_csv, b.trace_csv, "{label}: trace streams diverged");
}

#[test]
fn batched_matches_reference_on_the_full_stress_scenario() {
    let sc = Scenario {
        dvfs: true,
        faults: true,
        migration_failure: 0.5,
        ..Scenario::default()
    };
    let reference = run(EngineKind::Reference, true, sc);
    let batched = run(EngineKind::Batched, true, sc);
    assert_runs_identical(&reference, &batched, "full stress");
    // Not vacuous: real work happened and the cache actually served it.
    assert!(reference.total_slices > 1_000);
    assert!(reference.cache_hits > reference.cache_misses);
}

#[test]
fn batched_parity_holds_across_hotplug() {
    let sc = Scenario {
        hotplug: true,
        dvfs: true,
        ..Scenario::default()
    };
    let reference = run(EngineKind::Reference, true, sc);
    let batched = run(EngineKind::Batched, true, sc);
    assert_runs_identical(&reference, &batched, "hotplug");
}

#[test]
fn hotplug_across_dvfs_does_not_replay_stale_estimates() {
    // A core going offline, its type being retuned, and the core coming
    // back must not let either engine replay estimates taken at the old
    // operating point: the cached runs must match the uncached oracle
    // bit-for-bit through the outage.
    let sc = Scenario {
        hotplug: true,
        ..Scenario::default()
    };
    let uncached = run(EngineKind::Reference, false, sc);
    let cached = run(EngineKind::Reference, true, sc);
    let batched = run(EngineKind::Batched, true, sc);
    for (epoch, (a, b)) in uncached
        .fingerprints
        .iter()
        .zip(cached.fingerprints.iter())
        .enumerate()
    {
        assert_eq!(a, b, "stale reference estimate visible at epoch {epoch}");
    }
    for (epoch, (a, b)) in uncached
        .fingerprints
        .iter()
        .zip(batched.fingerprints.iter())
        .enumerate()
    {
        assert_eq!(a, b, "stale batched replay visible at epoch {epoch}");
    }
    assert_eq!(uncached.total_energy_bits, cached.total_energy_bits);
    assert_eq!(uncached.total_energy_bits, batched.total_energy_bits);
    // The retune while core 2 was offline must actually change
    // execution once it is back, or this test proves nothing.
    let quiet = run(EngineKind::Reference, true, Scenario::default());
    assert_ne!(
        quiet.fingerprints[8..],
        cached.fingerprints[8..],
        "hotplug + DVFS must alter post-outage epochs"
    );
}

#[test]
fn full_trace_streams_are_identical() {
    // Per-event parity at TraceLevel::Full: every slice, sleep, wake,
    // exit and migration event, in order, with identical payloads.
    let sc = Scenario {
        trace: true,
        dvfs: false,
        ..Scenario::default()
    };
    let reference = run(EngineKind::Reference, true, sc);
    let batched = run(EngineKind::Batched, true, sc);
    assert!(
        reference.trace_csv.lines().count() > 100,
        "traced scenario too small to be meaningful"
    );
    assert_runs_identical(&reference, &batched, "traced");
}

#[test]
fn batched_with_caching_disabled_delegates_to_reference() {
    // With the estimate cache off there is nothing legal to replay; the
    // batched engine must fall back to reference behaviour (and still
    // report its configured kind).
    let sc = Scenario {
        dvfs: true,
        ..Scenario::default()
    };
    let reference = run(EngineKind::Reference, false, sc);
    let batched = run(EngineKind::Batched, false, sc);
    assert_runs_identical(&reference, &batched, "uncached delegation");
    assert_eq!(reference.cache_hits, 0);
}

#[test]
fn batched_matches_reference_under_task_churn() {
    // Tasks exit and are replaced every epoch, so the batched engine
    // retires the run state of exited tasks while new ids keep arriving;
    // migrations fail at random and a core comes and goes.
    let sc = Scenario {
        churn: true,
        migration_failure: 0.1,
        ..Scenario::default()
    };
    let reference = run(EngineKind::Reference, true, sc);
    let batched = run(EngineKind::Batched, true, sc);
    assert_runs_identical(&reference, &batched, "churn");
    let exits: usize = reference
        .fingerprints
        .iter()
        .map(|f| f.matches("\"alive\":false").count())
        .sum();
    assert!(
        exits > 3 * TASKS,
        "premise: the run churned ({exits} exits)"
    );
}
