//! Slice-loop parity against the uncached oracle: the estimate memo
//! (with the phase cursors and wake-event heap that serve the same hot
//! path) is a *performance* mechanism, so every cached run must be
//! observationally indistinguishable — bit-for-bit — from the same run
//! with caching disabled, where every slice re-evaluates the pipeline
//! model. The scenarios stack forced cross-type migrations with
//! mid-epoch DVFS transitions, an active sensor-fault plan,
//! probabilistic migration failure, core hotplug, task churn (short
//! tasks replaced as they exit) and full-level event tracing. A
//! 256-core scenario runs the same stress with the epoch's slice loop
//! split into one to four core ranges, and every worker count must
//! match the single-range run and the oracle.
//!
//! The fingerprint is the JSON serialization of every [`EpochReport`]
//! (string equality implies bit equality of every `f64` inside), plus
//! the sensor totals, the dispatch count and — for the traced scenario
//! — the exact CSV event stream. Every scenario also pins the memo's
//! telemetry, so the parity can never pass vacuously: the oracle never
//! hits, the cached run serves more than four lookups per miss, each
//! dispatched slice consults the cache exactly once, and the hit and
//! miss totals equal the ones recorded before the memo moved from one
//! shared table into each task.

use archsim::{CoreId, CoreTypeId, FaultKind, FaultPlan, Platform};
use kernelsim::{Allocation, EpochReport, LoadBalancer, System, SystemConfig};
use telemetry::TraceLevel;
use workloads::SyntheticGenerator;

/// Deterministic stirring balancer: rotates every live task `stride`
/// cores to the right each epoch, forcing cross-type migrations (every
/// core of the quad heterogeneous platform is its own type) and
/// regularly moving sleeping tasks across wake heaps.
struct Rotate {
    num_cores: usize,
    stride: usize,
    epoch: usize,
    /// The worker budget the balancer hands the slice loop.
    workers: usize,
}

impl Rotate {
    fn new(num_cores: usize, stride: usize, workers: usize) -> Self {
        Rotate {
            num_cores,
            stride,
            epoch: 0,
            workers,
        }
    }
}

impl LoadBalancer for Rotate {
    fn name(&self) -> &str {
        "rotate"
    }

    fn rebalance(&mut self, _platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        self.epoch += 1;
        let mut alloc = Allocation::new();
        for t in report.tasks.iter().filter(|t| t.alive) {
            let core = (t.task.0 + self.epoch * self.stride) % self.num_cores;
            alloc.assign(t.task, CoreId(core));
        }
        Some(alloc)
    }

    fn workers(&self) -> usize {
        self.workers
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
/// on the quad heterogeneous platform, stirred by [`Rotate`] — with
/// the estimate cache on or off, and returns everything observable
/// about it.
fn run(cached: bool, sc: Scenario) -> RunTrace {
    let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
    sys.set_estimate_caching(cached);
    if sc.faults {
        sys.set_fault_plan(
            FaultPlan::new().inject(2, None, FaultKind::StuckCounters { prob: 1.0 }),
            0xFA17_2026,
        );
    }
    sys.set_migration_failure(sc.migration_failure, 0xBAD);
    let hub = telemetry::shared();
    if sc.trace {
        hub.borrow_mut().set_trace(TraceLevel::Full, 1 << 20);
        sys.set_telemetry(hub.clone());
    }
    let mut gen = SyntheticGenerator::new(0xD1CE);
    for i in 0..TASKS {
        let instructions = task_instructions(&mut gen, sc);
        sys.spawn(gen.profile(format!("w{i}"), 5, instructions, i % 2 == 0));
    }
    let mut bal = Rotate::new(4, 1, 1);
    let epochs = match (sc.trace, sc.churn) {
        (true, _) => TRACED_EPOCHS,
        (false, true) => CHURN_EPOCHS,
        (false, false) => EPOCHS,
    };
    let mut fingerprints = Vec::new();
    for epoch in 0..epochs {
        if sc.dvfs && epoch == 4 {
            // Mid-epoch: run one period, then retune while cached
            // estimates are hot.
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
    let stats = sys.stats();
    RunTrace {
        fingerprints,
        total_instructions: stats.total_instructions,
        total_energy_bits: stats.total_energy_j.to_bits(),
        total_slices: sys.total_slices(),
        cache_hits: sys.estimate_cache().hits(),
        cache_misses: sys.estimate_cache().misses(),
        trace_csv: if sc.trace {
            let hub = hub.borrow();
            assert_eq!(hub.dropped_events(), 0, "ring must not wrap");
            hub.trace_csv()
        } else {
            String::new()
        },
    }
}

/// Runs `sc` cached and against the uncached oracle, asserts the full
/// observable-equality contract and the memo's telemetry invariants,
/// and returns the cached run for scenario-specific checks. `memo` is
/// the cached run's `(hits, misses)`, recorded when one table shared
/// by every task held the memo.
fn assert_matches_oracle(sc: Scenario, label: &str, memo: (u64, u64)) -> RunTrace {
    let cached = run(true, sc);
    let oracle = run(false, sc);
    assert_same_run(&cached, &oracle, label);
    assert_eq!(
        (cached.cache_hits, cached.cache_misses),
        memo,
        "{label}: memo hits and misses moved"
    );
    assert_memo_telemetry(&cached, &oracle, label);
    cached
}

/// FNV-1a over everything observable about a run except the memo's
/// counts: report fingerprints, totals and the CSV trace. Pinned
/// digests carry the same libm risk as the benchmark's baseline
/// fingerprints.
fn digest(run: &RunTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &run.fingerprints {
        eat(f.as_bytes());
    }
    for v in [
        run.total_instructions,
        run.total_energy_bits,
        run.total_slices,
    ] {
        eat(&v.to_le_bytes());
    }
    eat(run.trace_csv.as_bytes());
    h
}

/// Everything observable about two runs is equal, bit for bit; the
/// memo's counts are left to the caller.
fn assert_same_run(cached: &RunTrace, oracle: &RunTrace, label: &str) {
    assert_eq!(
        cached.fingerprints.len(),
        oracle.fingerprints.len(),
        "{label}: epoch count"
    );
    for (epoch, (a, b)) in cached
        .fingerprints
        .iter()
        .zip(oracle.fingerprints.iter())
        .enumerate()
    {
        assert_eq!(a, b, "{label}: EpochReport for epoch {epoch} diverged");
    }
    assert_eq!(
        cached.total_instructions, oracle.total_instructions,
        "{label}"
    );
    assert_eq!(
        cached.total_energy_bits, oracle.total_energy_bits,
        "{label}: energy must match to the last bit"
    );
    assert_eq!(cached.total_slices, oracle.total_slices, "{label}");
    assert_eq!(
        cached.trace_csv, oracle.trace_csv,
        "{label}: trace streams diverged"
    );
}

/// The oracle never hits, the cached run mostly does, and every
/// dispatched slice consults the cache exactly once in both.
fn assert_memo_telemetry(cached: &RunTrace, oracle: &RunTrace, label: &str) {
    assert_eq!(oracle.cache_hits, 0, "{label}: the oracle must never hit");
    assert!(
        cached.cache_hits > 4 * cached.cache_misses,
        "{label}: cache barely used: {} hits / {} misses",
        cached.cache_hits,
        cached.cache_misses
    );
    for (run, name) in [(cached, "cached"), (oracle, "oracle")] {
        assert_eq!(
            run.cache_hits + run.cache_misses,
            run.total_slices,
            "{label} ({name}): every dispatched slice consults the cache exactly once"
        );
    }
}

#[test]
fn dvfs_scenario_matches_the_uncached_oracle() {
    let sc = Scenario {
        dvfs: true,
        ..Scenario::default()
    };
    let with_dvfs = assert_matches_oracle(sc, "dvfs", (1763, 70));
    // Not vacuous: the DVFS knob is not a no-op, so a cached estimate
    // surviving a retune would have shown above.
    let without = run(true, Scenario::default());
    assert_eq!(
        with_dvfs.fingerprints[..4],
        without.fingerprints[..4],
        "identical before the first transition"
    );
    assert_ne!(
        with_dvfs.fingerprints[5..],
        without.fingerprints[5..],
        "DVFS retune at epoch 4 must alter subsequent epochs"
    );
    assert_ne!(with_dvfs.total_instructions, without.total_instructions);
}

#[test]
fn full_stress_scenario_matches_the_uncached_oracle() {
    let sc = Scenario {
        dvfs: true,
        faults: true,
        migration_failure: 0.5,
        ..Scenario::default()
    };
    let cached = assert_matches_oracle(sc, "full stress", (1742, 51));
    assert!(cached.total_slices > 1_000, "real work happened");
}

#[test]
fn hotplug_with_dvfs_matches_the_uncached_oracle() {
    let sc = Scenario {
        hotplug: true,
        dvfs: true,
        ..Scenario::default()
    };
    assert_matches_oracle(sc, "hotplug + dvfs", (1738, 80));
}

#[test]
fn hotplug_across_dvfs_does_not_replay_stale_estimates() {
    // A core going offline, its type being retuned, and the core coming
    // back must not let the memo serve estimates taken at the old
    // operating point: the cached run must match the uncached oracle
    // bit-for-bit through the outage.
    let sc = Scenario {
        hotplug: true,
        ..Scenario::default()
    };
    let cached = assert_matches_oracle(sc, "hotplug", (1751, 50));
    // The retune while core 2 was offline must actually change
    // execution once it is back, or this test proves nothing.
    let quiet = run(true, Scenario::default());
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
        ..Scenario::default()
    };
    let cached = assert_matches_oracle(sc, "traced", (310, 30));
    // Recorded with the single-threaded loop that preceded core ranges,
    // so the merged trace keeps its event order: by period, then core.
    assert_eq!(
        digest(&cached),
        0x8772_2672_54ca_c213,
        "traced: the run moved against the loop before core ranges"
    );
    assert!(
        cached.trace_csv.lines().count() > 100,
        "traced scenario too small to be meaningful"
    );
}

#[test]
fn churn_scenario_matches_the_uncached_oracle() {
    // Tasks exit and are replaced every epoch, so the memo drops the
    // estimates of exited tasks while new ids keep arriving; migrations
    // fail at random and a core comes and goes.
    let sc = Scenario {
        churn: true,
        migration_failure: 0.1,
        ..Scenario::default()
    };
    let cached = assert_matches_oracle(sc, "churn", (4416, 466));
    let exits: usize = cached
        .fingerprints
        .iter()
        .map(|f| f.matches("\"alive\":false").count())
        .sum();
    assert!(
        exits > 3 * TASKS,
        "premise: the run churned ({exits} exits)"
    );
}

/// Cores per cluster and clusters of the worker-count scenario's
/// platform: four clusters, so up to four core ranges.
const WIDE_CLUSTERS: usize = 4;
const WIDE_CLUSTER_CORES: usize = 64;
const WIDE_TASKS: usize = 384;
const WIDE_EPOCHS: u32 = 8;

/// The worker-count scenario: 384 mixed tasks (a third interactive,
/// every eighth short enough to exit) on a 256-core, four-cluster
/// platform, rotated 67 cores per epoch so most tasks cross a range
/// boundary and leave stale wake-heap entries behind in another range.
/// On top: DVFS retunes (one right after a lone `run_period`), a
/// certain `StuckCounters` fault, 30 % migration failure, a core
/// offline for three epochs and full-level tracing. The slice loop
/// runs on `workers` core ranges.
fn run_wide(cached: bool, workers: usize) -> RunTrace {
    let platform = Platform::clustered_heterogeneous(WIDE_CLUSTERS, WIDE_CLUSTER_CORES);
    let n = platform.num_cores();
    let mut sys = System::new(platform, SystemConfig::default());
    sys.set_estimate_caching(cached);
    sys.set_fault_plan(
        FaultPlan::new().inject(2, None, FaultKind::StuckCounters { prob: 1.0 }),
        0x5EED,
    );
    sys.set_migration_failure(0.3, 0xF00D);
    let hub = telemetry::shared();
    hub.borrow_mut().set_trace(TraceLevel::Full, 1 << 22);
    sys.set_telemetry(hub.clone());
    let mut gen = SyntheticGenerator::new(0x00C0_4E5E);
    for i in 0..WIDE_TASKS {
        let instructions = if i % 8 == 0 {
            5_000_000 + gen.below(40_000_001)
        } else {
            u64::MAX / 64
        };
        let profile = gen.profile(format!("w{i}"), 4, instructions, i % 3 == 0);
        sys.spawn_on(profile, CoreId((i * 5) % n));
    }
    let mut bal = Rotate::new(n, 67, workers);
    let mut fingerprints = Vec::new();
    for epoch in 0..WIDE_EPOCHS {
        match epoch {
            2 => {
                sys.run_period();
                sys.set_operating_point(CoreTypeId(1), 1.0e9, 0.72);
            }
            3 => sys.set_core_online(CoreId(130), false),
            5 => {
                sys.set_operating_point(CoreTypeId(3), 0.4e9, 0.55);
                sys.set_operating_point(CoreTypeId(1), 1.9e9, 0.9);
            }
            6 => sys.set_core_online(CoreId(130), true),
            _ => {}
        }
        let report = sys.run_epoch(&mut bal);
        fingerprints.push(serde_json::to_string(&report).expect("serialize report"));
    }
    assert_eq!(hub.borrow().dropped_events(), 0, "ring must not wrap");
    let trace_csv = hub.borrow().trace_csv();
    let stats = sys.stats();
    RunTrace {
        fingerprints,
        total_instructions: stats.total_instructions,
        total_energy_bits: stats.total_energy_j.to_bits(),
        total_slices: sys.total_slices(),
        cache_hits: sys.estimate_cache().hits(),
        cache_misses: sys.estimate_cache().misses(),
        trace_csv,
    }
}

#[test]
fn slice_loop_output_is_invariant_to_the_worker_count() {
    let single = run_wide(true, 1);
    for workers in 2..=4 {
        let split = run_wide(true, workers);
        let label = format!("{workers} workers");
        assert_same_run(&split, &single, &label);
        assert_eq!(
            (split.cache_hits, split.cache_misses),
            (single.cache_hits, single.cache_misses),
            "{label}: memo hits and misses"
        );
    }
    // Recorded with the single-threaded loop that preceded core ranges.
    assert_eq!(
        (digest(&single), single.cache_hits, single.cache_misses),
        (0xab77_3d66_2e39_e03b, 31_179, 1_744),
        "the run moved against the loop before core ranges"
    );
    let oracle = run_wide(false, 4);
    assert_same_run(&single, &oracle, "oracle on 4 workers");
    assert_memo_telemetry(&single, &oracle, "oracle on 4 workers");
    // Not vacuous: tasks exited, slept and woke, and moved.
    for needle in [",exit,", ",sleep,", ",wake,", ",migrate,"] {
        assert!(
            single.trace_csv.contains(needle),
            "premise: the trace holds {needle} events"
        );
    }
    assert!(single.total_slices > 10_000, "real work happened");
}
