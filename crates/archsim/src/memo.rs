//! Memoization of the analytical pipeline model.
//!
//! A [`crate::pipeline::PipelineEstimate`] is fully determined by the workload's
//! intrinsic characteristics and the core configuration, yet the
//! scheduler hot loop historically re-evaluated the model — five
//! transcendental miss-rate curves plus struct rebuilds — on *every*
//! simulated slice. An [`EstimateCache`] belongs to one workload (in
//! `kernelsim`, one per task) and keeps one evaluation per (phase, core
//! type, DVFS level) the workload has visited, turning the inner
//! simulation loop into pure arithmetic. Hit and miss counts go to a
//! caller-held [`MemoStats`], so caches that live in different places
//! (tasks simulated on different threads) sum into one telemetry.
//!
//! Correctness contract: `estimate` is a deterministic pure function,
//! so replaying a cached result is bit-identical to re-evaluating it —
//! *provided the key captures every input*. The owner keeps one cache
//! per workload, so the key carries the phase index within that
//! workload, the core-type id, and a DVFS level that the owner must bump
//! (or explicitly invalidate) whenever a core type's operating point
//! changes. Stale-entry bugs are keying bugs; `kernelsim` proves parity
//! with an uncached run in its test suite.

use crate::core_type::CoreConfig;
use crate::pipeline::{estimate, PipelineEstimate};
use crate::workload::WorkloadCharacteristics;

/// Cache key: every input that determines a [`PipelineEstimate`]
/// besides the workload that owns the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimateKey {
    /// Phase index within the workload.
    pub phase: u32,
    /// Core-type id the estimate was evaluated for.
    pub core_type: u32,
    /// DVFS level of that core type: bumped by the owner on every
    /// operating-point change, so stale entries can never be served.
    pub dvfs_level: u32,
}

/// One workload's memo of pipeline-model evaluations: sparse entries,
/// one per key the workload has visited, searched linearly (a task
/// visits a handful of phases on a handful of core types).
///
/// # Examples
///
/// ```
/// use archsim::{estimate, CoreConfig, EstimateCache, EstimateKey, MemoStats, WorkloadCharacteristics};
///
/// let mut cache = EstimateCache::new();
/// let mut stats = MemoStats::default();
/// let w = WorkloadCharacteristics::balanced();
/// let cfg = CoreConfig::big();
/// let key = EstimateKey { phase: 0, core_type: 1, dvfs_level: 0 };
/// let a = cache.get_or_compute(key, &w, &cfg, &mut stats);
/// let b = cache.get_or_compute(key, &w, &cfg, &mut stats);
/// assert_eq!(a, b);
/// assert_eq!(stats.hits(), 1);
/// assert_eq!(a, estimate(&w, &cfg));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EstimateCache {
    /// Boxed, so an empty memo costs one pointer: every task keeps its
    /// memo for life, exited tasks included.
    #[expect(
        clippy::box_collection,
        reason = "a boxed table keeps the empty memo of every exited task at 8 bytes"
    )]
    entries: Option<Box<Vec<(EstimateKey, PipelineEstimate)>>>,
}

impl EstimateCache {
    /// Creates an empty cache (no storage until the first miss).
    pub fn new() -> Self {
        EstimateCache::default()
    }

    /// Returns the memoized estimate for `key`, evaluating
    /// [`estimate`]`(workload, core)` on a miss; counts the lookup in
    /// `stats`. The table grows by exactly one entry per miss.
    pub fn get_or_compute(
        &mut self,
        key: EstimateKey,
        workload: &WorkloadCharacteristics,
        core: &CoreConfig,
        stats: &mut MemoStats,
    ) -> PipelineEstimate {
        let entries = self.entries.get_or_insert_with(Box::default);
        if let Some((_, est)) = entries.iter().find(|(k, _)| *k == key) {
            stats.hits += 1;
            return *est;
        }
        let est = stats.evaluate_uncached(workload, core);
        entries.reserve_exact(1);
        entries.push((key, est));
        est
    }

    /// Drops every entry for `core_type` — the explicit invalidation
    /// hook for operating-point changes (belt to the DVFS-level key's
    /// braces: it also keeps the table from accumulating dead levels).
    pub fn invalidate_core_type(&mut self, core_type: u32) {
        if let Some(entries) = &mut self.entries {
            entries.retain(|(k, _)| k.core_type != core_type);
        }
    }

    /// Removes every entry and releases the storage (e.g. when the
    /// owning task exits and can never be dispatched again).
    pub fn clear(&mut self) {
        self.entries = None;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.as_ref().map_or(0, |entries| entries.len())
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hit/miss telemetry of estimate lookups, summed over any number of
/// [`EstimateCache`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    hits: u64,
    misses: u64,
}

impl MemoStats {
    /// Evaluates the model without consulting any cache and counts the
    /// lookup as a miss — the uncached reference path parity tests
    /// compare against, and the miss path of
    /// [`EstimateCache::get_or_compute`].
    pub fn evaluate_uncached(
        &mut self,
        workload: &WorkloadCharacteristics,
        core: &CoreConfig,
    ) -> PipelineEstimate {
        self.misses += 1;
        estimate(workload, core)
    }

    /// Adds `other`'s counts.
    pub fn absorb(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Lookups served from a table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that evaluated the model.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from a table (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn key(phase: u32, core_type: u32, dvfs: u32) -> EstimateKey {
        EstimateKey {
            phase,
            core_type,
            dvfs_level: dvfs,
        }
    }

    #[test]
    fn cached_equals_fresh_bitwise() {
        let mut cache = EstimateCache::new();
        let mut stats = MemoStats::default();
        let cfg = CoreConfig::huge();
        for (i, w) in [
            WorkloadCharacteristics::compute_bound(),
            WorkloadCharacteristics::memory_bound(),
            WorkloadCharacteristics::branch_bound(),
        ]
        .iter()
        .enumerate()
        {
            let k = key(i as u32, 0, 0);
            let first = cache.get_or_compute(k, w, &cfg, &mut stats);
            let second = cache.get_or_compute(k, w, &cfg, &mut stats);
            let fresh = estimate(w, &cfg);
            assert_eq!(first, second);
            assert!(first.ipc.to_bits() == fresh.ipc.to_bits());
            assert_eq!(first, fresh);
        }
        assert_eq!(stats.hits(), 3);
        assert_eq!(stats.misses(), 3);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dvfs_level_is_part_of_the_key() {
        // A frequency change re-keys the estimate: serving the old
        // entry would replay the old frequency's IPC-cycles curve.
        let mut cache = EstimateCache::new();
        let mut stats = MemoStats::default();
        let w = WorkloadCharacteristics::memory_bound();
        let nominal = CoreConfig::big();
        let slow = nominal.at_operating_point(0.75e9, 0.65);
        let at_nominal = cache.get_or_compute(key(0, 1, 0), &w, &nominal, &mut stats);
        let at_slow = cache.get_or_compute(key(0, 1, 1), &w, &slow, &mut stats);
        assert_ne!(
            at_nominal, at_slow,
            "memory-bound estimates must differ across operating points"
        );
        assert_eq!(at_slow, estimate(&w, &slow));
        // The stale-key path would have returned `at_nominal` — that is
        // exactly the bug the dvfs_level key component guards against.
        assert_eq!(
            cache.get_or_compute(key(0, 1, 0), &w, &slow, &mut stats),
            at_nominal
        );
    }

    #[test]
    fn invalidation_drops_only_the_target() {
        let mut cache = EstimateCache::new();
        let mut stats = MemoStats::default();
        let w = WorkloadCharacteristics::balanced();
        cache.get_or_compute(key(0, 0, 0), &w, &CoreConfig::huge(), &mut stats);
        cache.get_or_compute(key(0, 1, 0), &w, &CoreConfig::big(), &mut stats);
        cache.get_or_compute(key(1, 1, 0), &w, &CoreConfig::big(), &mut stats);
        assert_eq!(cache.len(), 3);
        cache.invalidate_core_type(1);
        assert_eq!(cache.len(), 1);
        cache.get_or_compute(key(1, 0, 0), &w, &CoreConfig::huge(), &mut stats);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(stats.hits() + stats.misses(), 4, "counts outlive entries");
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        // The uncached path consults no table and stores nothing.
        let cache = EstimateCache::new();
        let mut stats = MemoStats::default();
        let w = WorkloadCharacteristics::balanced();
        let cfg = CoreConfig::small();
        let a = stats.evaluate_uncached(&w, &cfg);
        let b = stats.evaluate_uncached(&w, &cfg);
        assert_eq!(a, b);
        assert!(cache.is_empty());
        assert_eq!(stats.hits(), 0);
        assert_eq!(stats.misses(), 2);
    }

    #[test]
    fn counts_from_separate_caches_sum() {
        let w = WorkloadCharacteristics::balanced();
        let cfg = CoreConfig::big();
        let (mut a, mut b) = (EstimateCache::new(), EstimateCache::new());
        let (mut sa, mut sb) = (MemoStats::default(), MemoStats::default());
        for _ in 0..3 {
            a.get_or_compute(key(0, 1, 0), &w, &cfg, &mut sa);
        }
        b.get_or_compute(key(2, 1, 0), &w, &cfg, &mut sb);
        sa.absorb(sb);
        assert_eq!((sa.hits(), sa.misses()), (2, 2));
    }
}
