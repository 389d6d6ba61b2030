//! Parity tests for the memoized slice-execution engine: estimate
//! caching, phase cursors and the wake-event heap are *performance*
//! changes, so a cached run must be observationally indistinguishable —
//! bit-for-bit — from an uncached run of the same scenario, including
//! across mid-epoch DVFS transitions and forced cross-type migrations.
//!
//! The fingerprint is the JSON serialization of every [`EpochReport`]:
//! string equality of serde_json output implies bit equality of every
//! `f64` inside (shortest-roundtrip formatting), which is a far
//! stronger bar than approximate equality of summary statistics.

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{Allocation, EpochReport, LoadBalancer, System, SystemConfig, TaskId};
use workloads::SyntheticGenerator;

/// Deterministic stirring balancer: rotates every task one core to the
/// right each epoch. Guarantees cross-type migrations every epoch on
/// the quad heterogeneous platform (every core is its own type) and
/// regularly migrates *sleeping* tasks, exercising the wake-heap
/// re-registration path in `apply_allocation`.
struct Rotate {
    num_cores: usize,
    num_tasks: usize,
    epoch: usize,
}

impl LoadBalancer for Rotate {
    fn name(&self) -> &str {
        "rotate"
    }

    fn rebalance(&mut self, _platform: &Platform, _report: &EpochReport) -> Option<Allocation> {
        self.epoch += 1;
        let mut alloc = Allocation::new();
        for t in 0..self.num_tasks {
            alloc.assign(TaskId(t), CoreId((t + self.epoch) % self.num_cores));
        }
        Some(alloc)
    }
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
}

const TASKS: usize = 10;
const EPOCHS: u32 = 16;

/// Runs the reference parity scenario: 10 multi-phase tasks (half
/// interactive) on the quad heterogeneous platform, stirred by
/// [`Rotate`], with two mid-epoch DVFS transitions when `dvfs` is set.
fn run(cached: bool, dvfs: bool) -> RunTrace {
    let platform = Platform::quad_heterogeneous();
    let mut sys = System::new(platform, SystemConfig::default());
    sys.set_estimate_caching(cached);
    let mut gen = SyntheticGenerator::new(0xD1CE);
    for i in 0..TASKS {
        sys.spawn(gen.profile(format!("w{i}"), 5, u64::MAX / 64, i % 2 == 0));
    }
    let mut bal = Rotate {
        num_cores: 4,
        num_tasks: TASKS,
        epoch: 0,
    };
    let mut fingerprints = Vec::new();
    for epoch in 0..EPOCHS {
        // Mid-epoch DVFS: run one period of the epoch, then retune a
        // core type while its cached estimates are hot.
        if dvfs && epoch == 4 {
            sys.run_period();
            sys.set_operating_point(CoreTypeId(1), 1.0e9, 0.72);
        }
        if dvfs && epoch == 9 {
            sys.run_period();
            sys.set_operating_point(CoreTypeId(1), 1.9e9, 0.9);
            sys.set_operating_point(CoreTypeId(3), 0.4e9, 0.55);
        }
        let report = sys.run_epoch(&mut bal);
        fingerprints.push(serde_json::to_string(&report).expect("serialize report"));
    }
    let stats = sys.stats();
    RunTrace {
        fingerprints,
        total_instructions: stats.total_instructions,
        total_energy_bits: stats.total_energy_j.to_bits(),
        total_slices: sys.total_slices(),
        cache_hits: sys.estimate_cache().hits(),
        cache_misses: sys.estimate_cache().misses(),
    }
}

#[test]
fn cached_and_uncached_streams_are_bit_identical() {
    let cached = run(true, true);
    let uncached = run(false, true);

    for (epoch, (a, b)) in cached
        .fingerprints
        .iter()
        .zip(uncached.fingerprints.iter())
        .enumerate()
    {
        assert_eq!(a, b, "EpochReport for epoch {epoch} diverged");
    }
    assert_eq!(cached.total_instructions, uncached.total_instructions);
    assert_eq!(
        cached.total_energy_bits, uncached.total_energy_bits,
        "energy accounting must match to the last bit"
    );
    assert_eq!(cached.total_slices, uncached.total_slices);

    // The parity must not be vacuous: the cached run has to have
    // actually served most dispatches from the cache, and the uncached
    // run must never have populated it.
    assert!(
        cached.cache_hits > 4 * cached.cache_misses,
        "cache barely used: {} hits / {} misses",
        cached.cache_hits,
        cached.cache_misses
    );
    assert_eq!(uncached.cache_hits, 0);
    assert_eq!(
        cached.cache_hits + cached.cache_misses,
        cached.total_slices,
        "every dispatched slice consults the cache exactly once"
    );
}

#[test]
fn dvfs_transitions_change_execution_through_the_cache() {
    // Guard against the parity test passing trivially because the DVFS
    // knob is a no-op: with transitions enabled the cached run must
    // diverge from a transition-free run after the first retune.
    let with_dvfs = run(true, true);
    let without = run(true, false);
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
