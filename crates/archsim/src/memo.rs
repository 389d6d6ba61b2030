//! Memoization of the analytical pipeline model.
//!
//! A [`crate::PipelineEstimate`] is fully determined by the workload's
//! intrinsic characteristics and the core configuration, yet the
//! scheduler hot loop historically re-evaluated the model — five
//! transcendental miss-rate curves plus struct rebuilds — on *every*
//! simulated slice. The [`EstimateCache`] keys one evaluation per
//! (workload phase, core type, DVFS level) and replays it, turning the
//! inner simulation loop into pure arithmetic.
//!
//! Correctness contract: `estimate` is a deterministic pure function,
//! so replaying a cached result is bit-identical to re-evaluating it —
//! *provided the key captures every input*. The key therefore carries
//! a caller-assigned workload identity (typically task id), the phase
//! index within that workload, the core-type id, and a DVFS level that
//! the owner must bump (or explicitly invalidate) whenever a core
//! type's operating point changes. Stale-entry bugs are keying bugs;
//! `kernelsim` proves parity with an uncached run in its test suite.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::core_type::CoreConfig;
use crate::pipeline::{estimate, PipelineEstimate};
use crate::workload::WorkloadCharacteristics;

/// Deterministic multiply-fold hasher for the fixed-width
/// [`EstimateKey`]. The cache sits on the per-slice hot path where
/// SipHash's DoS resistance buys nothing (keys are internal ids, not
/// attacker-controlled input) but costs more than the probe itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    const MUL: u64 = 0x517c_c1b7_2722_0a95;

    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(Self::MUL);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// Cache key: every input that determines a [`PipelineEstimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EstimateKey {
    /// Caller-assigned identity of the workload (e.g. a task id). Two
    /// keys with the same `(workload_id, phase)` must always refer to
    /// the same [`WorkloadCharacteristics`].
    pub workload_id: u64,
    /// Phase index within the workload.
    pub phase: u32,
    /// Core-type id the estimate was evaluated for.
    pub core_type: u32,
    /// DVFS level of that core type: bumped by the owner on every
    /// operating-point change, so stale entries can never be served.
    pub dvfs_level: u32,
}

/// Memo table for pipeline-model evaluations with hit/miss telemetry.
///
/// # Examples
///
/// ```
/// use archsim::{estimate, CoreConfig, EstimateCache, EstimateKey, WorkloadCharacteristics};
///
/// let mut cache = EstimateCache::new();
/// let w = WorkloadCharacteristics::balanced();
/// let cfg = CoreConfig::big();
/// let key = EstimateKey { workload_id: 0, phase: 0, core_type: 1, dvfs_level: 0 };
/// let a = cache.get_or_compute(key, &w, &cfg);
/// let b = cache.get_or_compute(key, &w, &cfg);
/// assert_eq!(a, b);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(a, estimate(&w, &cfg));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EstimateCache {
    map: HashMap<EstimateKey, PipelineEstimate, BuildHasherDefault<KeyHasher>>,
    enabled: bool,
    hits: u64,
    misses: u64,
}

impl EstimateCache {
    /// Creates an empty, enabled cache.
    pub fn new() -> Self {
        EstimateCache {
            map: HashMap::default(),
            enabled: true,
            hits: 0,
            misses: 0,
        }
    }

    /// Enables or disables memoization. While disabled every lookup
    /// evaluates the model afresh and stores nothing — the reference
    /// path parity tests compare against.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns the memoized estimate for `key`, evaluating
    /// [`estimate`]`(workload, core)` on a miss.
    pub fn get_or_compute(
        &mut self,
        key: EstimateKey,
        workload: &WorkloadCharacteristics,
        core: &CoreConfig,
    ) -> PipelineEstimate {
        if !self.enabled {
            self.misses += 1;
            return estimate(workload, core);
        }
        if let Some(est) = self.map.get(&key) {
            self.hits += 1;
            return *est;
        }
        self.misses += 1;
        let est = estimate(workload, core);
        self.map.insert(key, est);
        est
    }

    /// Drops every entry for `core_type` — the explicit invalidation
    /// hook for operating-point changes (belt to the DVFS-level key's
    /// braces: it also keeps the table from accumulating dead levels).
    pub fn invalidate_core_type(&mut self, core_type: u32) {
        // smartlint: allow(unordered-iter, "retain filters by a pure key predicate; the surviving set is independent of visit order")
        self.map.retain(|k, _| k.core_type != core_type);
    }

    /// Drops every entry for `workload_id` (e.g. when a task exits and
    /// can never be dispatched again).
    pub fn invalidate_workload(&mut self, workload_id: u64) {
        // smartlint: allow(unordered-iter, "retain filters by a pure key predicate; the surviving set is independent of visit order")
        self.map.retain(|k, _| k.workload_id != workload_id);
    }

    /// Removes all entries and resets telemetry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the table.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that evaluated the model.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from the table (0 when unused).
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

    fn key(workload: u64, phase: u32, core_type: u32, dvfs: u32) -> EstimateKey {
        EstimateKey {
            workload_id: workload,
            phase,
            core_type,
            dvfs_level: dvfs,
        }
    }

    #[test]
    fn cached_equals_fresh_bitwise() {
        let mut cache = EstimateCache::new();
        let cfg = CoreConfig::huge();
        for (i, w) in [
            WorkloadCharacteristics::compute_bound(),
            WorkloadCharacteristics::memory_bound(),
            WorkloadCharacteristics::branch_bound(),
        ]
        .iter()
        .enumerate()
        {
            let k = key(7, i as u32, 0, 0);
            let first = cache.get_or_compute(k, w, &cfg);
            let second = cache.get_or_compute(k, w, &cfg);
            let fresh = estimate(w, &cfg);
            assert_eq!(first, second);
            assert!(first.ipc.to_bits() == fresh.ipc.to_bits());
            assert_eq!(first, fresh);
        }
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 3);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dvfs_level_is_part_of_the_key() {
        // A frequency change re-keys the estimate: serving the old
        // entry would replay the old frequency's IPC-cycles curve.
        let mut cache = EstimateCache::new();
        let w = WorkloadCharacteristics::memory_bound();
        let nominal = CoreConfig::big();
        let slow = nominal.at_operating_point(0.75e9, 0.65);
        let at_nominal = cache.get_or_compute(key(1, 0, 1, 0), &w, &nominal);
        let at_slow = cache.get_or_compute(key(1, 0, 1, 1), &w, &slow);
        assert_ne!(
            at_nominal, at_slow,
            "memory-bound estimates must differ across operating points"
        );
        assert_eq!(at_slow, estimate(&w, &slow));
        // The stale-key path would have returned `at_nominal` — that is
        // exactly the bug the dvfs_level key component guards against.
        assert_eq!(cache.get_or_compute(key(1, 0, 1, 0), &w, &slow), at_nominal);
    }

    #[test]
    fn invalidation_drops_only_the_target() {
        let mut cache = EstimateCache::new();
        let w = WorkloadCharacteristics::balanced();
        cache.get_or_compute(key(1, 0, 0, 0), &w, &CoreConfig::huge());
        cache.get_or_compute(key(1, 0, 1, 0), &w, &CoreConfig::big());
        cache.get_or_compute(key(2, 0, 1, 0), &w, &CoreConfig::big());
        assert_eq!(cache.len(), 3);
        cache.invalidate_core_type(1);
        assert_eq!(cache.len(), 1);
        cache.get_or_compute(key(2, 0, 0, 0), &w, &CoreConfig::huge());
        cache.invalidate_workload(2);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let mut cache = EstimateCache::new();
        cache.set_enabled(false);
        let w = WorkloadCharacteristics::balanced();
        let cfg = CoreConfig::small();
        let a = cache.get_or_compute(key(0, 0, 3, 0), &w, &cfg);
        let b = cache.get_or_compute(key(0, 0, 3, 0), &w, &cfg);
        assert_eq!(a, b);
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
    }
}
