//! The throughput and power characterization matrices `S(k)` and `P(k)`
//! (paper Eq. 2–3): for every live thread `t_i` and every core `c_j`,
//! the (measured or predicted) average throughput `ips_ij` and power
//! `p_ij` of `t_i` executing on `c_j`, plus the per-thread utilization
//! vector `U` that Algorithm 1 takes as input.

use archsim::CoreTypeId;
use kernelsim::TaskId;
use serde::{Deserialize, Serialize};

/// The per-epoch characterization state handed to the optimizer.
///
/// Rows are threads, columns are cores; storage is dense row-major
/// because the optimizer's objective evaluation reads whole rows.
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
///     vec![CoreTypeId(0), CoreTypeId(1)],
///     vec![0.1, 0.1],
/// );
/// m.set(0, 1, 2.0e9, 0.4, true);
/// assert_eq!(m.ips(0, 1), 2.0e9);
/// assert!(m.is_measured(0, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationMatrices {
    tasks: Vec<TaskId>,
    core_types: Vec<CoreTypeId>,
    /// Sleep power per core, watts (for the idle term of the objective).
    sleep_power_w: Vec<f64>,
    /// `S(k)`: ips_ij, row-major `m × n`.
    s: Vec<f64>,
    /// `P(k)`: p_ij, row-major `m × n`.
    p: Vec<f64>,
    /// Utilization vector `U`: per-thread CPU demand in `(0, 1]`.
    utilization: Vec<f64>,
    /// True where the entry was measured this epoch (vs predicted).
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
        let n = core_types.len();
        CharacterizationMatrices {
            tasks,
            core_types,
            sleep_power_w,
            s: vec![0.0; m * n],
            p: vec![0.0; m * n],
            utilization: vec![1.0; m],
            measured: vec![false; m * n],
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

    /// Row index of `task`, if present.
    pub fn row_of(&self, task: TaskId) -> Option<usize> {
        self.tasks.iter().position(|&t| t == task)
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.num_threads() && j < self.num_cores());
        i * self.core_types.len() + j
    }

    /// Sets entry `(i, j)` of both matrices.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range, or `ips`/`power_w` are
    /// negative or non-finite.
    pub fn set(&mut self, i: usize, j: usize, ips: f64, power_w: f64, measured: bool) {
        assert!(
            ips.is_finite() && ips >= 0.0,
            "ips must be finite and >= 0, got {ips}"
        );
        assert!(
            power_w.is_finite() && power_w >= 0.0,
            "power must be finite and >= 0, got {power_w}"
        );
        let k = self.idx(i, j);
        self.s[k] = ips;
        self.p[k] = power_w;
        self.measured[k] = measured;
    }

    /// Throughput of thread `i` on core `j`, instructions per second.
    pub fn ips(&self, i: usize, j: usize) -> f64 {
        self.s[self.idx(i, j)]
    }

    /// Power of thread `i` on core `j`, watts.
    pub fn power(&self, i: usize, j: usize) -> f64 {
        self.p[self.idx(i, j)]
    }

    /// Row `i` of `S(k)`: thread `i`'s throughput on every core.
    pub(crate) fn ips_row(&self, i: usize) -> &[f64] {
        let n = self.num_cores();
        &self.s[i * n..(i + 1) * n]
    }

    /// Row `i` of `P(k)`: thread `i`'s power on every core.
    pub(crate) fn power_row(&self, i: usize) -> &[f64] {
        let n = self.num_cores();
        &self.p[i * n..(i + 1) * n]
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
    pub fn is_allowed(&self, i: usize, j: usize) -> bool {
        j < 64 && self.allowed[i] & (1 << j) != 0 || j >= 64 && self.allowed[i] == u64::MAX
    }

    /// Fraction of all entries that were measured (the rest were
    /// predicted) — a sensing-coverage diagnostic.
    pub fn measured_fraction(&self) -> f64 {
        if self.measured.is_empty() {
            return 0.0;
        }
        self.measured.iter().filter(|&&b| b).count() as f64 / self.measured.len() as f64
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

    #[test]
    fn row_lookup_by_task() {
        let m = sample();
        assert_eq!(m.row_of(TaskId(9)), Some(1));
        assert_eq!(m.row_of(TaskId(5)), Some(0));
        assert_eq!(m.row_of(TaskId(1)), None);
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
