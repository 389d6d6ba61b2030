//! Analytical cache and TLB miss-rate models.
//!
//! Miss rates follow a smooth capacity law
//!
//! ```text
//! mr(ws) = compulsory + max_rate · (ws / (ws + K·capacity))^p
//! ```
//!
//! which matches the qualitative behaviour of real caches: a small
//! compulsory floor for tiny working sets, a gradual rise from conflict
//! misses as the working set approaches capacity (real caches have no
//! hard knee — associativity and line-granularity effects smear the
//! transition), and saturation for working sets far beyond capacity.
//! The curve is strictly monotone in `ws`, which also makes it
//! *invertible*: an observed miss rate on one cache size identifies the
//! working set, which is exactly the property SmartBalance's cross-core
//! predictor relies on (Section 4.2.2 of the paper).

/// Compulsory (cold) miss rate shared by all caches.
const COMPULSORY_RATE: f64 = 0.001;

/// Upper bound on any modelled cache miss rate; even pathological
/// pointer-chasing retains some spatial locality.
const MAX_CACHE_MISS_RATE: f64 = 0.60;

/// Upper bound on any modelled TLB miss rate.
const MAX_TLB_MISS_RATE: f64 = 0.20;

/// Floor TLB miss rate (context-switch shootdowns).
const MIN_TLB_MISS_RATE: f64 = 1.0e-5;

/// Capacity headroom factor `K` of the smooth capacity law: the miss
/// rate reaches ~3 % of its maximum when the working set equals the
/// capacity.
const CAPACITY_HEADROOM: f64 = 3.0;

/// Shape exponent `p` of the cache capacity law.
const CACHE_SHAPE: f64 = 2.5;

/// Shape exponent of the TLB coverage law.
const TLB_SHAPE: f64 = 2.0;

/// Capacity-based cache model for one L1 cache.
///
/// # Examples
///
/// ```
/// use archsim::cache::CacheModel;
///
/// let small = CacheModel::new(16.0);
/// let large = CacheModel::new(64.0);
/// // A 128 KiB working set misses more in a 16 KiB cache than a 64 KiB one.
/// assert!(small.miss_rate(128.0) > large.miss_rate(128.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheModel {
    capacity_kib: f64,
}

impl CacheModel {
    /// Creates a model for a cache of `capacity_kib` KiB.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_kib` is not strictly positive and finite.
    pub fn new(capacity_kib: f64) -> Self {
        assert!(
            capacity_kib.is_finite() && capacity_kib > 0.0,
            "cache capacity must be positive, got {capacity_kib}"
        );
        CacheModel { capacity_kib }
    }

    /// Cache capacity in KiB.
    pub fn capacity_kib(&self) -> f64 {
        self.capacity_kib
    }

    /// Miss rate (misses per access) for a working set of
    /// `working_set_kib` KiB.
    ///
    /// Strictly increasing in the working-set size and decreasing in
    /// capacity; bounded to `[COMPULSORY, 0.6]`.
    pub fn miss_rate(&self, working_set_kib: f64) -> f64 {
        let ws = working_set_kib.max(0.0);
        if ws == 0.0 {
            return COMPULSORY_RATE;
        }
        let occupancy = ws / (ws + CAPACITY_HEADROOM * self.capacity_kib);
        let capacity_component = MAX_CACHE_MISS_RATE * occupancy.powf(CACHE_SHAPE);
        (COMPULSORY_RATE + capacity_component).min(MAX_CACHE_MISS_RATE)
    }

    /// Inverts [`CacheModel::miss_rate`]: the working-set size (KiB)
    /// that would produce `miss_rate` on this cache. Rates at or below
    /// the compulsory floor map to a small cache-resident working set;
    /// rates at or above the ceiling map to a very large one.
    pub fn working_set_for(&self, miss_rate: f64) -> f64 {
        let cap_component =
            (miss_rate - COMPULSORY_RATE).clamp(1.0e-7, MAX_CACHE_MISS_RATE * 0.999_9);
        let occupancy = (cap_component / MAX_CACHE_MISS_RATE).powf(1.0 / CACHE_SHAPE);
        CAPACITY_HEADROOM * self.capacity_kib * occupancy / (1.0 - occupancy)
    }
}

/// Coverage-based TLB model.
///
/// # Examples
///
/// ```
/// use archsim::cache::TlbModel;
///
/// let tlb = TlbModel::new(64);
/// assert!(tlb.miss_rate(32.0) < tlb.miss_rate(4096.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbModel {
    entries: u32,
}

impl TlbModel {
    /// Creates a model for a TLB with `entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: u32) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        TlbModel { entries }
    }

    /// Number of TLB entries.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Miss rate (misses per access) when the workload touches `pages`
    /// distinct pages.
    pub fn miss_rate(&self, pages: f64) -> f64 {
        let pages = pages.max(0.0);
        if pages == 0.0 {
            return MIN_TLB_MISS_RATE;
        }
        let covered = self.entries as f64;
        let occupancy = pages / (pages + CAPACITY_HEADROOM * covered);
        (MAX_TLB_MISS_RATE * occupancy.powf(TLB_SHAPE)).max(MIN_TLB_MISS_RATE)
    }

    /// Inverts [`TlbModel::miss_rate`]: the page count that would
    /// produce `miss_rate` on this TLB.
    pub fn pages_for(&self, miss_rate: f64) -> f64 {
        let r = miss_rate.clamp(MIN_TLB_MISS_RATE, MAX_TLB_MISS_RATE * 0.999_9);
        let occupancy = (r / MAX_TLB_MISS_RATE).powf(1.0 / TLB_SHAPE);
        CAPACITY_HEADROOM * self.entries as f64 * occupancy / (1.0 - occupancy)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn cache_resident_is_near_compulsory() {
        let c = CacheModel::new(32.0);
        assert!(c.miss_rate(4.0) < 0.005, "tiny ws is near the floor");
        // At capacity the smooth law shows early conflict misses but
        // stays small.
        assert!(c.miss_rate(32.0) < 0.05);
        assert!(c.miss_rate(32.0) > COMPULSORY_RATE);
    }

    #[test]
    fn miss_rate_strictly_monotone_and_invertible() {
        let c = CacheModel::new(32.0);
        let mut prev = 0.0;
        for ws in [1.0, 8.0, 16.0, 32.0, 64.0, 256.0, 4096.0] {
            let mr = c.miss_rate(ws);
            assert!(mr > prev, "strictly increasing at ws={ws}");
            let back = c.working_set_for(mr);
            assert!(
                (back - ws).abs() / ws < 0.01,
                "inversion roundtrip at ws={ws}: got {back}"
            );
            prev = mr;
        }
    }

    #[test]
    fn tlb_inversion_roundtrips() {
        let t = TlbModel::new(64);
        for pages in [8.0, 64.0, 256.0, 4096.0] {
            let mr = t.miss_rate(pages);
            let back = t.pages_for(mr);
            assert!(
                (back - pages).abs() / pages < 0.01,
                "pages={pages}: got {back}"
            );
        }
    }

    #[test]
    fn miss_rate_monotone_in_working_set() {
        let c = CacheModel::new(32.0);
        let mut prev = 0.0;
        for ws in [8.0, 32.0, 48.0, 64.0, 128.0, 1024.0, 65_536.0] {
            let mr = c.miss_rate(ws);
            assert!(mr >= prev, "miss rate must not decrease with ws");
            assert!(mr <= MAX_CACHE_MISS_RATE);
            prev = mr;
        }
    }

    #[test]
    fn bigger_cache_never_misses_more() {
        for ws in [4.0, 20.0, 100.0, 1000.0] {
            let small = CacheModel::new(16.0).miss_rate(ws);
            let large = CacheModel::new(64.0).miss_rate(ws);
            assert!(large <= small, "ws={ws}: large {large} vs small {small}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        CacheModel::new(0.0);
    }

    #[test]
    fn tlb_coverage() {
        let t = TlbModel::new(64);
        assert!(t.miss_rate(16.0) < 2e-3);
        assert!(t.miss_rate(2000.0) > 0.1);
    }

    #[test]
    fn tlb_monotone_in_pages() {
        let t = TlbModel::new(32);
        let mut prev = 0.0;
        for pages in [1.0, 32.0, 64.0, 256.0, 4096.0] {
            let mr = t.miss_rate(pages);
            assert!(mr >= prev);
            assert!(mr <= MAX_TLB_MISS_RATE);
            prev = mr;
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entry_tlb_rejected() {
        TlbModel::new(0);
    }
}
