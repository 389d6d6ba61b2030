//! The throughput and power characterization matrices `S(k)` and `P(k)`
//! (paper Eq. 2–3): for every live thread `t_i` and every core `c_j`,
//! the (measured or predicted) average throughput `ips_ij` and power
//! `p_ij` of `t_i` executing on `c_j`, plus the per-thread utilization
//! vector `U` that Algorithm 1 takes as input.
//!
//! Every entry depends only on the core's *type*: a measurement on one
//! type stands for all of its cores, and Θ/α predict per type pair
//! (Eq. 8–9). So each thread's row holds one entry per core type
//! (`m × q`, `q` = largest type id + 1), and core `j` reads the entry
//! of its type. The flat annealer, each sharded cluster's sub-problem
//! and the sharded exchange all evaluate this one representation.

use archsim::{CoreId, CoreTypeId};
use kernelsim::{affinity_allows, TaskId};

/// The per-epoch characterization state handed to the optimizer.
///
/// Rows are threads; entries are stored per core type and read per
/// core through the core's type, so [`set`](Self::set) on core `j`
/// sets every core of `j`'s type.
///
/// # Examples
///
/// ```
/// use kernelsim::TaskId;
/// use smartbalance::matrices::CharacterizationMatrices;
/// use archsim::CoreTypeId;
///
/// let mut m = CharacterizationMatrices::new(
///     vec![TaskId(0), TaskId(1)],
///     vec![CoreTypeId(0), CoreTypeId(1), CoreTypeId(1)],
///     vec![0.1, 0.1, 0.1],
/// );
/// m.set(0, 1, 2.0e9, 0.4, true);
/// assert_eq!(m.ips(0, 1), 2.0e9);
/// assert_eq!(m.ips(0, 2), 2.0e9, "core 2 shares core 1's type");
/// assert!(m.is_measured(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationMatrices {
    tasks: Vec<TaskId>,
    /// Core type of each core: the type entry core `j` reads.
    core_types: Vec<CoreTypeId>,
    /// Type entries per row: the largest type id in `core_types` + 1.
    q: usize,
    /// Sleep power per core, watts (for the idle term of the objective).
    sleep_power_w: Vec<f64>,
    /// `S(k)` and `P(k)`: `(ips, power)` per thread and core type,
    /// row-major `m × q`.
    rates: Vec<(f64, f64)>,
    /// Utilization vector `U`: per-thread CPU demand in `(0, 1]`.
    utilization: Vec<f64>,
    /// True where the type entry was measured this epoch (vs predicted).
    measured: Vec<bool>,
    /// Per-thread affinity masks (bit `j` = core `j` allowed).
    allowed: Vec<u64>,
}

impl CharacterizationMatrices {
    /// Creates zeroed matrices for `tasks` × cores (given by their
    /// types), with per-core sleep power.
    ///
    /// # Panics
    ///
    /// Panics if `core_types` or `sleep_power_w` is empty or their
    /// lengths differ.
    pub fn new(tasks: Vec<TaskId>, core_types: Vec<CoreTypeId>, sleep_power_w: Vec<f64>) -> Self {
        assert!(!core_types.is_empty(), "need at least one core");
        assert_eq!(
            core_types.len(),
            sleep_power_w.len(),
            "one sleep power per core"
        );
        let m = tasks.len();
        let q = core_types.iter().map(|t| t.0 + 1).max().unwrap_or(1);
        CharacterizationMatrices {
            tasks,
            core_types,
            q,
            sleep_power_w,
            rates: vec![(0.0, 0.0); m * q],
            utilization: vec![1.0; m],
            measured: vec![false; m * q],
            allowed: vec![u64::MAX; m],
        }
    }

    /// Number of threads `m`.
    pub fn num_threads(&self) -> usize {
        self.tasks.len()
    }

    /// Number of cores `n`.
    pub fn num_cores(&self) -> usize {
        self.core_types.len()
    }

    /// Type entries per row, `q`.
    pub(crate) fn num_type_entries(&self) -> usize {
        self.q
    }

    /// The thread ids, in row order.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Core type of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn core_type(&self, j: usize) -> CoreTypeId {
        self.core_types[j]
    }

    /// The core type of every core, in core order.
    pub(crate) fn core_types(&self) -> &[CoreTypeId] {
        &self.core_types
    }

    /// Index of thread `i`'s entry for core `j`'s type.
    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.num_threads());
        i * self.q + self.core_types[j].0
    }

    /// Sets entry `(i, j)` of both matrices, and with it the entry of
    /// every other core of `j`'s type.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, or `ips`/`power_w` are
    /// negative or non-finite.
    pub fn set(&mut self, i: usize, j: usize, ips: f64, power_w: f64, measured: bool) {
        self.set_type(i, self.core_types[j], ips, power_w, measured);
    }

    /// Sets thread `i`'s entry for every core of type `t`.
    ///
    /// # Panics
    ///
    /// As [`set`](Self::set), or if `t` is beyond the row width.
    pub(crate) fn set_type(
        &mut self,
        i: usize,
        t: CoreTypeId,
        ips: f64,
        power_w: f64,
        measured: bool,
    ) {
        assert!(
            ips.is_finite() && ips >= 0.0,
            "ips must be finite and >= 0, got {ips}"
        );
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "power must be finite and >= 0, got {power_w}"
        );
        assert!(i < self.num_threads() && t.0 < self.q, "entry out of range");
        let k = i * self.q + t.0;
        self.rates[k] = (ips, power_w);
        self.measured[k] = measured;
    }

    /// Copies row `k` of `src` into row `i`: the type entries this
    /// instance has room for and the utilization. The affinity mask is
    /// not copied, since it is per core.
    ///
    /// # Panics
    ///
    /// Panics if `src`'s rows are narrower than this instance's.
    pub(crate) fn copy_row(&mut self, i: usize, src: &CharacterizationMatrices, k: usize) {
        let q = self.q;
        assert!(q <= src.q, "source rows are narrower than {q} types");
        let (to, from) = (i * q..(i + 1) * q, k * src.q..k * src.q + q);
        self.rates[to.clone()].copy_from_slice(&src.rates[from.clone()]);
        self.measured[to].copy_from_slice(&src.measured[from]);
        self.utilization[i] = src.utilization[k];
    }

    /// Throughput of thread `i` on core `j`, instructions per second.
    pub fn ips(&self, i: usize, j: usize) -> f64 {
        self.rates(i, j).0
    }

    /// Power of thread `i` on core `j`, watts.
    pub fn power(&self, i: usize, j: usize) -> f64 {
        self.rates(i, j).1
    }

    /// `(ips, power)` of thread `i` on core `j`.
    #[inline]
    pub(crate) fn rates(&self, i: usize, j: usize) -> (f64, f64) {
        self.rates[self.idx(i, j)]
    }

    /// Row `i` of `S(k)` and `P(k)`: thread `i`'s `(ips, power)` per
    /// core type.
    pub(crate) fn rates_row(&self, i: usize) -> &[(f64, f64)] {
        &self.rates[i * self.q..(i + 1) * self.q]
    }

    /// Whether entry `(i, j)` was measured this epoch.
    pub fn is_measured(&self, i: usize, j: usize) -> bool {
        self.measured[self.idx(i, j)]
    }

    /// Per-thread utilization (CPU demand) in `(0, 1]`.
    pub fn utilization(&self, i: usize) -> f64 {
        self.utilization[i]
    }

    /// Sets thread `i`'s utilization, clamped to `(0, 1]`.
    pub fn set_utilization(&mut self, i: usize, u: f64) {
        self.utilization[i] = u.clamp(1.0e-3, 1.0);
    }

    /// Sleep power of core `j`, watts.
    pub fn sleep_power_w(&self, j: usize) -> f64 {
        self.sleep_power_w[j]
    }

    /// Sets thread `i`'s CPU-affinity mask (bit `j` = core `j`
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if the mask allows none of this instance's cores.
    pub fn set_allowed(&mut self, i: usize, mask: u64) {
        let n = self.num_cores();
        let usable = if n >= 64 {
            mask
        } else {
            mask & ((1u64 << n) - 1)
        };
        assert!(usable != 0, "affinity mask allows no core of this platform");
        self.allowed[i] = mask;
    }

    /// Whether thread `i` may be placed on core `j` per its affinity.
    #[inline]
    pub fn is_allowed(&self, i: usize, j: usize) -> bool {
        affinity_allows(self.allowed[i], CoreId(j))
    }

    /// Fraction of all `(thread, core)` entries that were measured (the
    /// rest were predicted).
    #[cfg(test)]
    fn measured_fraction(&self) -> f64 {
        let cells = self.num_threads() * self.num_cores();
        if cells == 0 {
            return 0.0;
        }
        let measured = (0..self.num_threads())
            .map(|i| {
                (0..self.num_cores())
                    .filter(|&j| self.is_measured(i, j))
                    .count()
            })
            .sum::<usize>();
        measured as f64 / cells as f64
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn sample() -> CharacterizationMatrices {
        CharacterizationMatrices::new(
            vec![TaskId(5), TaskId(9)],
            vec![CoreTypeId(0), CoreTypeId(1), CoreTypeId(1)],
            vec![0.17, 0.03, 0.03],
        )
    }

    #[test]
    fn shape_and_defaults() {
        let m = sample();
        assert_eq!(m.num_threads(), 2);
        assert_eq!(m.num_cores(), 3);
        assert_eq!(m.ips(1, 2), 0.0);
        assert_eq!(m.utilization(0), 1.0);
        assert!(!m.is_measured(0, 0));
        assert_eq!(m.measured_fraction(), 0.0);
        assert_eq!(m.core_type(1), CoreTypeId(1));
        assert_eq!(m.sleep_power_w(0), 0.17);
    }

    #[test]
    fn set_and_lookup() {
        let mut m = sample();
        m.set(1, 0, 3.0e9, 5.5, true);
        m.set(1, 1, 1.0e9, 0.8, false);
        assert_eq!(m.ips(1, 0), 3.0e9);
        assert_eq!(m.power(1, 1), 0.8);
        assert!(m.is_measured(1, 0));
        assert!(!m.is_measured(1, 1));
        assert!((m.measured_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    /// An entry is stored once per core type: setting it on one core
    /// sets every core of that type, a type id no core uses leaves a
    /// zero gap in the rows, and `copy_row` copies a row's leading type
    /// entries and its utilization exactly.
    #[test]
    fn entries_are_stored_per_core_type() {
        let mut m = CharacterizationMatrices::new(
            vec![TaskId(0), TaskId(1)],
            vec![CoreTypeId(2), CoreTypeId(0), CoreTypeId(2)],
            vec![0.03, 0.17, 0.03],
        );
        assert_eq!(m.num_type_entries(), 3);
        m.set(1, 2, 1.5e9, 0.4, true);
        m.set(1, 1, 3.0e9, 2.5, false);
        assert_eq!((m.ips(1, 0), m.power(1, 0)), (1.5e9, 0.4));
        assert!(m.is_measured(1, 0) && !m.is_measured(1, 1));
        assert_eq!(m.rates_row(1), &[(3.0e9, 2.5), (0.0, 0.0), (1.5e9, 0.4)]);
        assert!((m.measured_fraction() - 2.0 / 6.0).abs() < 1e-12);
        m.set_utilization(1, 0.4);

        // Sub-problems over some of the cores, as a sharded cluster
        // copies them.
        let mut big = CharacterizationMatrices::new(
            vec![TaskId(1)],
            vec![CoreTypeId(2), CoreTypeId(2)],
            vec![0.03, 0.03],
        );
        big.copy_row(0, &m, 1);
        assert_eq!((big.ips(0, 1), big.power(0, 0)), (1.5e9, 0.4));
        assert!(big.is_measured(0, 1));
        assert_eq!(big.utilization(0), 0.4);
        let mut small =
            CharacterizationMatrices::new(vec![TaskId(1)], vec![CoreTypeId(0)], vec![0.17]);
        small.copy_row(0, &m, 1);
        assert_eq!(small.rates_row(0), &[(3.0e9, 2.5)]);
        assert!(!small.is_measured(0, 0));
    }

    #[test]
    fn row_lookup_by_task() {
        // Row i holds the i-th task given at construction.
        let m = sample();
        assert_eq!(m.tasks(), &[TaskId(5), TaskId(9)]);
    }

    #[test]
    fn affinity_masks() {
        let mut m = sample();
        assert!(m.is_allowed(0, 0) && m.is_allowed(0, 2));
        m.set_allowed(0, 0b101);
        assert!(m.is_allowed(0, 0));
        assert!(!m.is_allowed(0, 1));
        assert!(m.is_allowed(0, 2));
    }

    #[test]
    #[should_panic(expected = "allows no core")]
    fn empty_affinity_rejected() {
        // Mask only allows core 5, which does not exist here.
        sample().set_allowed(0, 1 << 5);
    }

    #[test]
    fn utilization_clamped() {
        let mut m = sample();
        m.set_utilization(0, 5.0);
        assert_eq!(m.utilization(0), 1.0);
        m.set_utilization(0, -1.0);
        assert_eq!(m.utilization(0), 1.0e-3);
        m.set_utilization(0, 0.5);
        assert_eq!(m.utilization(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_ips() {
        sample().set(0, 0, f64::NAN, 1.0, true);
    }

    #[test]
    #[should_panic(expected = "one sleep power per core")]
    fn rejects_mismatched_sleep_powers() {
        CharacterizationMatrices::new(vec![], vec![CoreTypeId(0)], vec![]);
    }

    #[test]
    fn empty_thread_set_is_valid() {
        let m = CharacterizationMatrices::new(vec![], vec![CoreTypeId(0)], vec![0.01]);
        assert_eq!(m.num_threads(), 0);
        assert_eq!(m.measured_fraction(), 0.0);
    }
}
