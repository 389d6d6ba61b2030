//! The optimization objective (paper Eq. 10–11): maximize overall
//! energy efficiency — instructions per joule — plus the literal
//! per-core ratio sum of Eq. 11 and the alternative goals (throughput,
//! power) the paper notes can be swapped in, and the *incremental*
//! evaluation that makes Algorithm 1 cheap ("the computation of the
//! objective function is also optimized by keeping track of previous
//! computations and obtaining a new evaluation only by performing
//! computations induced by the latest swap on Ψ").
//!
//! The incremental state caches each core's demand/rate sums and its
//! weighted goal aggregates, so a candidate move re-evaluates only the
//! two cores it touches. A scan that tries one thread on many
//! destinations (the annealer's greedy pull and polish, the sharded
//! exchange) also shares the move's from-core half: [`Leave`] is
//! computed once per thread and completed once per destination, with
//! the same arithmetic, bit for bit, as evaluating each move whole.
//!
//! Per-core model under an allocation Ψ: threads time-share a core
//! under CFS, so with per-thread demands `u_i` and per-thread full-speed
//! rates `ips_ij` / `p_ij`,
//!
//! ```text
//! U_j   = Σ u_i                (total demand)
//! busy  = min(1, U_j)          (the core can't exceed 100 %)
//! IPS_j = Σ u_i·ips_ij · busy/U_j
//! P_j   = Σ u_i·p_ij  · busy/U_j + (1 − busy)·P_sleep_j
//! ```
//!
//! Objective values are expressed in GIPS/W so the annealer's
//! fixed-point acceptance test operates on O(1) magnitudes.

use serde::{Deserialize, Serialize};

use crate::matrices::CharacterizationMatrices;

/// Scale factor turning instr/s per watt into GIPS/W.
const GIPS: f64 = 1.0e9;

/// Effective (post-time-sharing) throughput and power of one core given
/// its demand/rate sums — the free-function form of the per-core model
/// in the module docs, shared by [`Objective`] and the sharded
/// balancer's cross-cluster exchange state so both evaluate identical
/// arithmetic. An empty core (`u_sum <= 0`) sleeps.
pub fn effective_core_terms(
    u_sum: f64,
    ips_sum: f64,
    pow_sum: f64,
    sleep_power_w: f64,
) -> (f64, f64) {
    if u_sum <= 0.0 {
        return (0.0, sleep_power_w);
    }
    let busy = u_sum.min(1.0);
    let scale = busy / u_sum;
    let ips = ips_sum * scale;
    let power = pow_sum * scale + (1.0 - busy) * sleep_power_w;
    (ips, power)
}

/// One core's weighted contribution to the goal aggregates:
/// `(ω·IPS, ω·P, ω·(IPS/P)/GIPS)`; the ratio term is 0 for an idle or
/// powerless core.
pub fn weighted_aggregates(weight: f64, (ips, p): (f64, f64)) -> (f64, f64, f64) {
    let ratio = if ips <= 0.0 || p <= 0.0 {
        0.0
    } else {
        weight * (ips / p) / GIPS
    };
    (weight * ips, weight * p, ratio)
}

/// Combines summed per-core aggregates into the scalar objective for
/// `goal`.
pub fn goal_total(goal: Goal, sum_ips: f64, sum_p: f64, sum_ratio: f64) -> f64 {
    match goal {
        Goal::EnergyEfficiency => {
            if sum_p <= 0.0 {
                0.0
            } else {
                (sum_ips / sum_p) / GIPS
            }
        }
        Goal::PerCoreEfficiencySum => sum_ratio,
        Goal::Throughput => sum_ips / GIPS,
        Goal::MinPower => -sum_p,
        Goal::EnergyDelayProduct => {
            if sum_p <= 0.0 {
                0.0
            } else {
                (sum_ips / GIPS) * (sum_ips / GIPS) / sum_p
            }
        }
    }
}

/// Optimization goal (the paper's Eq. 11 plus the alternatives its
/// Section 5.1 mentions can be swapped into the objective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Goal {
    /// Maximize the *system* energy efficiency `Σ ω_j IPS_j / Σ ω_j
    /// P_j` (GIPS/W) — instructions per joule of the machine as a
    /// whole, the quantity the paper's Eq. 10 calls "overall energy
    /// efficiency (IPS/Watt or Instructions per Joule)" and that the
    /// evaluation figures measure. This is the default goal.
    ///
    /// Rationale for deviating from the literal Eq. 11 by default: the
    /// per-core ratio *sum* is insensitive to how much work each core
    /// contributes, so it can park a hopeless thread on a big core as a
    /// "dump site" (one small bad term) to keep efficient cores' ratios
    /// pristine — improving `J_E` while worsening the measured
    /// instructions/joule. The system ratio has no such pathology. The
    /// literal Eq. 11 remains available as
    /// [`Goal::PerCoreEfficiencySum`] and is compared in the ablation
    /// bench.
    #[default]
    EnergyEfficiency,
    /// Maximize `Σ ω_j IPS_j / P_j` — the paper's Eq. 11 as written
    /// (per-core ratio sum; idle cores contribute 0).
    PerCoreEfficiencySum,
    /// Maximize total throughput `Σ ω_j IPS_j` (GIPS).
    Throughput,
    /// Minimize total power: the objective is `−Σ ω_j P_j` (W).
    MinPower,
    /// Minimize the energy-delay product: the objective is
    /// `(Σ ω_j IPS_j)² / Σ ω_j P_j` (maximizing IPS²/P minimizes
    /// energy·delay per instruction) — the classic middle ground
    /// between the throughput and energy goals.
    EnergyDelayProduct,
}

/// Objective evaluator over a characterization-matrix snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective<'a> {
    matrices: &'a CharacterizationMatrices,
    weights: Vec<f64>,
    goal: Goal,
}

impl<'a> Objective<'a> {
    /// Creates an evaluator with all core weights `ω_j = 1` (the
    /// paper's default).
    pub fn new(matrices: &'a CharacterizationMatrices, goal: Goal) -> Self {
        Objective {
            weights: vec![1.0; matrices.num_cores()],
            matrices,
            goal,
        }
    }

    /// Sets per-core weights `ω_j` ("can be tuned to give preference to
    /// certain cores or core types").
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the core count or any
    /// weight is negative/non-finite.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.matrices.num_cores(), "one ω per core");
        for &w in &weights {
            assert!(w.is_finite() && w >= 0.0, "ω must be finite and >= 0");
        }
        self.weights = weights;
        self
    }

    /// The underlying matrices.
    pub fn matrices(&self) -> &CharacterizationMatrices {
        self.matrices
    }

    /// Full evaluation of allocation `alloc` (`alloc[i]` = core index
    /// of thread `i`).
    ///
    /// # Panics
    ///
    /// Panics if `alloc.len()` differs from the thread count or any
    /// entry is out of core range.
    pub fn evaluate(&self, alloc: &[usize]) -> f64 {
        let state = IncrementalObjective::new(self, alloc);
        state.value()
    }
}

/// The from-core half of moving one thread off its current core: the
/// goal aggregates with that core re-evaluated as if the thread had
/// left. A scan over candidate destinations computes it once per
/// thread ([`IncrementalObjective::leave`]) and completes it once per
/// destination ([`IncrementalObjective::delta_to`]). It describes the
/// state it was taken from, so a committed move invalidates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leave {
    pub(crate) thread: usize,
    from: usize,
    /// The thread's utilization (its demand on either core).
    u: f64,
    /// `(ΣωIPS, ΣωP, Σratio)` with the from-core term patched.
    sums: (f64, f64, f64),
}

/// Per-core demand/rate sums of an allocation plus each core's cached
/// weighted goal aggregates: the O(1)-per-move arithmetic shared by
/// [`IncrementalObjective`] (dense matrix rows) and the sharded
/// balancer's exchange state (compact per-type rows). Callers pass a
/// thread's utilization and its full-speed `(ips, power)` on the core
/// in question, so both representations evaluate identical arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoreLedger {
    goal: Goal,
    weights: Vec<f64>,
    sleep_w: Vec<f64>,
    u_sum: Vec<f64>,
    ips_sum: Vec<f64>,
    pow_sum: Vec<f64>,
    /// Cached `weighted_aggregates` of each core's effective terms.
    aggs: Vec<(f64, f64, f64)>,
    /// Weighted ΣIPS across cores.
    sum_ips: f64,
    /// Weighted ΣP across cores.
    sum_p: f64,
    /// Weighted Σ(IPS/P) across cores (Eq. 11 aggregate).
    sum_ratio: f64,
    total: f64,
}

impl CoreLedger {
    /// Builds the ledger from each thread's `(core, u, ips, power)` on
    /// its current core, in thread order.
    pub(crate) fn new(
        goal: Goal,
        weights: Vec<f64>,
        sleep_w: Vec<f64>,
        placed: impl IntoIterator<Item = (usize, f64, f64, f64)>,
    ) -> Self {
        let n = sleep_w.len();
        let mut u_sum = vec![0.0; n];
        let mut ips_sum = vec![0.0; n];
        let mut pow_sum = vec![0.0; n];
        for (j, u, ips, pow) in placed {
            u_sum[j] += u;
            ips_sum[j] += u * ips;
            pow_sum[j] += u * pow;
        }
        let aggs: Vec<(f64, f64, f64)> = (0..n)
            .map(|j| {
                let terms = effective_core_terms(u_sum[j], ips_sum[j], pow_sum[j], sleep_w[j]);
                weighted_aggregates(weights[j], terms)
            })
            .collect();
        let (mut sum_ips, mut sum_p, mut sum_ratio) = (0.0, 0.0, 0.0);
        for &(i, p, r) in &aggs {
            sum_ips += i;
            sum_p += p;
            sum_ratio += r;
        }
        let total = goal_total(goal, sum_ips, sum_p, sum_ratio);
        CoreLedger {
            goal,
            weights,
            sleep_w,
            u_sum,
            ips_sum,
            pow_sum,
            aggs,
            sum_ips,
            sum_p,
            sum_ratio,
            total,
        }
    }

    /// Current objective value.
    pub(crate) fn value(&self) -> f64 {
        self.total
    }

    /// Total demand currently placed on core `j`.
    pub(crate) fn load_of(&self, j: usize) -> f64 {
        self.u_sum[j]
    }

    /// Weighted aggregates core `j` would contribute with these sums.
    fn aggregates_at(&self, j: usize, u_sum: f64, ips_sum: f64, pow_sum: f64) -> (f64, f64, f64) {
        weighted_aggregates(
            self.weights[j],
            effective_core_terms(u_sum, ips_sum, pow_sum, self.sleep_w[j]),
        )
    }

    /// The from-core half of moving `thread` (utilization `u`, rates
    /// `ips`/`pow` on `from`) off core `from`.
    pub(crate) fn leave(&self, thread: usize, from: usize, u: f64, ips: f64, pow: f64) -> Leave {
        let (ni, np, nr) = self.aggregates_at(
            from,
            self.u_sum[from] - u,
            self.ips_sum[from] - u * ips,
            self.pow_sum[from] - u * pow,
        );
        let (oi, op, or) = self.aggs[from];
        Leave {
            thread,
            from,
            u,
            sums: (
                self.sum_ips + (ni - oi),
                self.sum_p + (np - op),
                self.sum_ratio + (nr - or),
            ),
        }
    }

    /// The to-core half: the objective delta of `leave`'s thread
    /// arriving on core `to` with rates `ips`/`pow` there; 0 for a
    /// self-move.
    pub(crate) fn delta_to(&self, leave: &Leave, to: usize, ips: f64, pow: f64) -> f64 {
        if to == leave.from {
            return 0.0;
        }
        let u = leave.u;
        let (ni, np, nr) = self.aggregates_at(
            to,
            self.u_sum[to] + u,
            self.ips_sum[to] + u * ips,
            self.pow_sum[to] + u * pow,
        );
        let (oi, op, or) = self.aggs[to];
        let (s_ips, s_p, s_r) = leave.sums;
        goal_total(
            self.goal,
            s_ips + (ni - oi),
            s_p + (np - op),
            s_r + (nr - or),
        ) - self.total
    }

    /// Moves a thread of utilization `u` from core `from` (where it
    /// runs at `at_from` = `(ips, power)`) to a different core `to`
    /// (at `at_to`), returning the realized delta.
    pub(crate) fn commit(
        &mut self,
        from: usize,
        to: usize,
        u: f64,
        at_from: (f64, f64),
        at_to: (f64, f64),
    ) -> f64 {
        self.u_sum[from] -= u;
        self.ips_sum[from] -= u * at_from.0;
        self.pow_sum[from] -= u * at_from.1;
        self.u_sum[to] += u;
        self.ips_sum[to] += u * at_to.0;
        self.pow_sum[to] += u * at_to.1;
        // O(1): patch the three goal aggregates for the two cores.
        for j in [from, to] {
            let (ni, np, nr) =
                self.aggregates_at(j, self.u_sum[j], self.ips_sum[j], self.pow_sum[j]);
            let (oi, op, or) = self.aggs[j];
            self.sum_ips += ni - oi;
            self.sum_p += np - op;
            self.sum_ratio += nr - or;
            self.aggs[j] = (ni, np, nr);
        }
        let new_total = goal_total(self.goal, self.sum_ips, self.sum_p, self.sum_ratio);
        let delta = new_total - self.total;
        self.total = new_total;
        delta
    }
}

/// Incrementally maintained objective state for a working allocation:
/// per-core partial sums plus cached per-core aggregates, updated in
/// O(1) per move instead of O(m·n) per evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalObjective<'a, 'b> {
    objective: &'b Objective<'a>,
    alloc: Vec<usize>,
    ledger: CoreLedger,
}

impl<'a, 'b> IncrementalObjective<'a, 'b> {
    /// Builds the state for an initial allocation.
    ///
    /// # Panics
    ///
    /// Panics if `alloc.len()` differs from the thread count or any
    /// entry is out of core range.
    pub fn new(objective: &'b Objective<'a>, alloc: &[usize]) -> Self {
        let m = objective.matrices;
        assert_eq!(alloc.len(), m.num_threads(), "one core per thread");
        let n = m.num_cores();
        let placed = alloc.iter().enumerate().map(|(i, &j)| {
            assert!(j < n, "thread {i} assigned to non-existent core {j}");
            (j, m.utilization(i), m.ips(i, j), m.power(i, j))
        });
        let sleep_w = (0..n).map(|j| m.sleep_power_w(j)).collect();
        IncrementalObjective {
            objective,
            alloc: alloc.to_vec(),
            ledger: CoreLedger::new(objective.goal, objective.weights.clone(), sleep_w, placed),
        }
    }

    /// Current objective value.
    pub fn value(&self) -> f64 {
        self.ledger.value()
    }

    /// Current allocation.
    pub fn alloc(&self) -> &[usize] {
        &self.alloc
    }

    /// The from-core half of moving thread `i` off its current core,
    /// to pair with [`IncrementalObjective::delta_to`] for every
    /// candidate destination.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn leave(&self, i: usize) -> Leave {
        let from = self.alloc[i];
        let m = self.objective.matrices;
        self.ledger
            .leave(i, from, m.utilization(i), m.ips(i, from), m.power(i, from))
    }

    /// The objective delta if `leave`'s thread moved to core `to` (no
    /// state change): the to-core half on top of the shared from-core
    /// half. Returns 0 for a self-move.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn delta_to(&self, leave: &Leave, to: usize) -> f64 {
        let (i, m) = (leave.thread, self.objective.matrices);
        self.ledger
            .delta_to(leave, to, m.ips(i, to), m.power(i, to))
    }

    /// The objective delta if thread `i` moved to core `to` (no state
    /// change). Returns 0 for a self-move.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `to` is out of range.
    pub fn delta_for_move(&self, i: usize, to: usize) -> f64 {
        self.delta_to(&self.leave(i), to)
    }

    /// Commits the move of thread `i` to core `to`, returning the
    /// realized delta.
    pub fn commit_move(&mut self, i: usize, to: usize) -> f64 {
        let from = self.alloc[i];
        if from == to {
            return 0.0;
        }
        let m = self.objective.matrices;
        self.alloc[i] = to;
        self.ledger.commit(
            from,
            to,
            m.utilization(i),
            (m.ips(i, from), m.power(i, from)),
            (m.ips(i, to), m.power(i, to)),
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use archsim::CoreTypeId;
    use kernelsim::TaskId;

    /// The reference the split evaluation must match bit for bit: the
    /// one-shot two-core patch built from the public per-core functions
    /// (both cores' old and new terms from the sums, patched
    /// from-then-to). And a check that the per-core cache equals a
    /// fresh evaluation of each core's sums.
    impl CoreLedger {
        pub(crate) fn one_shot_delta(
            &self,
            from: usize,
            to: usize,
            u: f64,
            at_from: (f64, f64),
            at_to: (f64, f64),
        ) -> f64 {
            if from == to {
                return 0.0;
            }
            let new_from = effective_core_terms(
                self.u_sum[from] - u,
                self.ips_sum[from] - u * at_from.0,
                self.pow_sum[from] - u * at_from.1,
                self.sleep_w[from],
            );
            let new_to = effective_core_terms(
                self.u_sum[to] + u,
                self.ips_sum[to] + u * at_to.0,
                self.pow_sum[to] + u * at_to.1,
                self.sleep_w[to],
            );
            let (mut s_ips, mut s_p, mut s_r) = (self.sum_ips, self.sum_p, self.sum_ratio);
            for (j, new) in [(from, new_from), (to, new_to)] {
                let old = effective_core_terms(
                    self.u_sum[j],
                    self.ips_sum[j],
                    self.pow_sum[j],
                    self.sleep_w[j],
                );
                let (oi, op, or) = weighted_aggregates(self.weights[j], old);
                let (ni, np, nr) = weighted_aggregates(self.weights[j], new);
                s_ips += ni - oi;
                s_p += np - op;
                s_r += nr - or;
            }
            goal_total(self.goal, s_ips, s_p, s_r) - self.total
        }

        pub(crate) fn assert_cache_is_fresh(&self) {
            let bits = |(a, b, c): (f64, f64, f64)| (a.to_bits(), b.to_bits(), c.to_bits());
            for (j, &cached) in self.aggs.iter().enumerate() {
                let terms = effective_core_terms(
                    self.u_sum[j],
                    self.ips_sum[j],
                    self.pow_sum[j],
                    self.sleep_w[j],
                );
                let fresh = weighted_aggregates(self.weights[j], terms);
                assert_eq!(bits(cached), bits(fresh), "core {j}: stale aggregates");
            }
        }
    }

    /// Two threads × two cores with hand-set rates.
    fn simple() -> CharacterizationMatrices {
        let mut m = CharacterizationMatrices::new(
            vec![TaskId(0), TaskId(1)],
            vec![CoreTypeId(0), CoreTypeId(1)],
            vec![0.1, 0.01],
        );
        // Thread 0: fast on core 0 (4 GIPS @ 4 W), slow on core 1.
        m.set(0, 0, 4.0e9, 4.0, true);
        m.set(0, 1, 0.5e9, 0.1, false);
        // Thread 1: memory-bound, barely faster on core 0.
        m.set(1, 0, 1.0e9, 4.0, false);
        m.set(1, 1, 0.4e9, 0.1, true);
        m.set_utilization(0, 1.0);
        m.set_utilization(1, 1.0);
        m
    }

    #[test]
    fn per_core_sum_goal_matches_eq11() {
        let m = simple();
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum);
        // Matched: t0 on c0 (1 GIPS/W), t1 on c1 (4 GIPS/W) -> 5.
        let matched = obj.evaluate(&[0, 1]);
        // Inverted: t0 on c1 (5 GIPS/W!), t1 on c0 (0.25).
        let inverted = obj.evaluate(&[1, 0]);
        assert!((matched - 5.0).abs() < 1e-9, "{matched}");
        assert!((inverted - 5.25).abs() < 1e-9, "{inverted}");
        // Both on the little core: they share it 50/50; the idle big
        // core contributes 0.
        let packed = obj.evaluate(&[1, 1]);
        // IPS = (0.5+0.4)/2 GIPS, P = 0.1 -> 4.5 GIPS/W.
        assert!((packed - 4.5).abs() < 1e-9, "{packed}");
    }

    #[test]
    fn system_efficiency_goal_is_global_ratio() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        // Matched: ΣIPS = 4.4 GIPS, ΣP = 4.1 W.
        let matched = obj.evaluate(&[0, 1]);
        assert!((matched - 4.4 / 4.1).abs() < 1e-9, "{matched}");
        // Packed on the little core: ΣIPS = 0.45 GIPS shared, ΣP =
        // 0.1 W busy + 0.1 W big-core sleep.
        let packed = obj.evaluate(&[1, 1]);
        assert!((packed - 0.45 / 0.2).abs() < 1e-9, "{packed}");
        // No dump-site pathology: parking t1 on the big core (terrible
        // ratio, real watts) must score worse than keeping it cheap.
        let dumped = obj.evaluate(&[1, 0]);
        assert!(
            dumped < packed,
            "dump-site must not win: {dumped} vs {packed}"
        );
    }

    #[test]
    fn throughput_goal_prefers_big_core() {
        let m = simple();
        let obj = Objective::new(&m, Goal::Throughput);
        let big = obj.evaluate(&[0, 0]); // share: (4+1)/2 = 2.5 GIPS
        let split = obj.evaluate(&[0, 1]); // 4 + 0.4 = 4.4 GIPS
        assert!((big - 2.5).abs() < 1e-9);
        assert!((split - 4.4).abs() < 1e-9);
        assert!(split > big);
    }

    #[test]
    fn min_power_goal_counts_sleep_leakage() {
        let m = simple();
        let obj = Objective::new(&m, Goal::MinPower);
        // Everything on core 1: core 0 sleeps at 0.1 W.
        let packed = obj.evaluate(&[1, 1]);
        assert!((packed - -(0.1 + 0.1)).abs() < 1e-9, "{packed}");
    }

    #[test]
    fn weights_scale_core_terms() {
        let m = simple();
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum).with_weights(vec![2.0, 0.0]);
        let v = obj.evaluate(&[0, 1]);
        // Core 0 term doubled (2 GIPS/W), core 1 zeroed.
        assert!((v - 2.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn partial_utilization_mixes_sleep_power() {
        let mut m = simple();
        m.set_utilization(0, 0.5);
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum);
        // Thread 0 alone on core 0 at 50 % duty: IPS = 2 GIPS,
        // P = 0.5*4 + 0.5*0.1 = 2.05 W.
        let mut alloc_state = IncrementalObjective::new(&obj, &[0, 1]);
        let expected_core0 = 2.0 / 2.05;
        let got = alloc_state.value() - 4.0; // subtract core 1's term
        assert!((got - expected_core0).abs() < 1e-9, "{got}");
        // Moving t1 over too: U = 1.5 > 1 -> saturation.
        alloc_state.commit_move(1, 0);
        let u = 1.5;
        let scale = 1.0 / u;
        let ips = (0.5 * 4.0e9 + 1.0 * 1.0e9) * scale / 1.0e9;
        let p = (0.5 * 4.0 + 1.0 * 4.0) * scale;
        assert!((alloc_state.value() - ips / p).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_full_evaluation() {
        let m = simple();
        for goal in [
            Goal::EnergyEfficiency,
            Goal::PerCoreEfficiencySum,
            Goal::Throughput,
            Goal::MinPower,
            Goal::EnergyDelayProduct,
        ] {
            let obj = Objective::new(&m, goal);
            let mut state = IncrementalObjective::new(&obj, &[0, 0]);
            let moves = [(0, 1), (1, 1), (0, 0), (1, 0), (0, 1)];
            for (i, to) in moves {
                let predicted = state.delta_for_move(i, to);
                let before = state.value();
                let realized = state.commit_move(i, to);
                assert!((predicted - realized).abs() < 1e-12, "{goal:?}");
                let full = obj.evaluate(state.alloc());
                assert!(
                    (state.value() - full).abs() < 1e-9,
                    "{goal:?}: incremental {} vs full {full}",
                    state.value()
                );
                assert!((state.value() - before - realized).abs() < 1e-12);
            }
        }
    }

    /// Five threads × four cores with uneven rates and partial demand,
    /// so scripted moves saturate, empty and refill cores.
    fn uneven() -> CharacterizationMatrices {
        let mut m = CharacterizationMatrices::new(
            (0..5).map(TaskId).collect(),
            (0..4).map(CoreTypeId).collect(),
            vec![0.2, 0.05, 0.05, 0.01],
        );
        for i in 0..5 {
            for j in 0..4 {
                let ips = (1.0 + 0.37 * i as f64 + 1.13 * (3 - j) as f64) * 1.0e9;
                let power = 0.05 + 0.9 * (3 - j) as f64 + 0.11 * i as f64;
                m.set(i, j, ips, power, j == i % 4);
            }
            m.set_utilization(i, [1.0, 0.35, 0.8, 0.55, 0.2][i]);
        }
        m
    }

    /// The split evaluation (`leave` once, `delta_to` per destination)
    /// reproduces the one-shot two-core patch bit for bit, for every
    /// goal, with and without ω, on every (thread, core) pair along a
    /// scripted commit sequence; and every commit leaves the per-core
    /// aggregate cache equal to a fresh evaluation.
    #[test]
    fn split_delta_is_bit_identical_to_the_one_shot_patch() {
        let m = uneven();
        let script = [
            (0, 1),
            (3, 1),
            (1, 0),
            (4, 3),
            (2, 3),
            (0, 3),
            (3, 2),
            (1, 1),
        ];
        for goal in [
            Goal::EnergyEfficiency,
            Goal::PerCoreEfficiencySum,
            Goal::Throughput,
            Goal::MinPower,
            Goal::EnergyDelayProduct,
        ] {
            for weights in [None, Some(vec![1.5, 1.0, 0.25, 0.0])] {
                let mut obj = Objective::new(&m, goal);
                if let Some(w) = weights.clone() {
                    obj = obj.with_weights(w);
                }
                let mut state = IncrementalObjective::new(&obj, &[0, 0, 2, 2, 2]);
                state.ledger.assert_cache_is_fresh();
                for (mi, mto) in script {
                    for i in 0..5 {
                        let leave = state.leave(i);
                        let from = state.alloc()[i];
                        for to in 0..4 {
                            let one_shot = state.ledger.one_shot_delta(
                                from,
                                to,
                                m.utilization(i),
                                (m.ips(i, from), m.power(i, from)),
                                (m.ips(i, to), m.power(i, to)),
                            );
                            let split = state.delta_to(&leave, to);
                            assert_eq!(
                                split.to_bits(),
                                one_shot.to_bits(),
                                "{goal:?} {weights:?}: move ({i},{to})"
                            );
                            assert_eq!(state.delta_for_move(i, to).to_bits(), split.to_bits());
                        }
                    }
                    let predicted = state.delta_for_move(mi, mto);
                    let realized = state.commit_move(mi, mto);
                    assert_eq!(
                        realized.to_bits(),
                        predicted.to_bits(),
                        "{goal:?} {weights:?}"
                    );
                    state.ledger.assert_cache_is_fresh();
                }
            }
        }
    }

    #[test]
    fn edp_goal_sits_between_throughput_and_energy() {
        // EDP should prefer the big core more than the energy goal
        // does, but still account for power unlike pure throughput.
        let m = simple();
        let edp = Objective::new(&m, Goal::EnergyDelayProduct);
        // Matched split: IPS 4.4 GIPS, P 4.1 W -> 4.4^2/4.1 = 4.722.
        let split = edp.evaluate(&[0, 1]);
        assert!((split - 4.4 * 4.4 / 4.1).abs() < 1e-9, "{split}");
        // Packed on little: IPS 0.45, P 0.2 -> 1.0125.
        let packed = edp.evaluate(&[1, 1]);
        assert!((packed - 0.45 * 0.45 / 0.2).abs() < 1e-9, "{packed}");
        // Unlike the energy goal, EDP prefers the split here.
        assert!(split > packed);
    }

    #[test]
    fn self_move_is_free() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let mut state = IncrementalObjective::new(&obj, &[0, 1]);
        assert_eq!(state.delta_for_move(0, 0), 0.0);
        assert_eq!(state.commit_move(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-existent core")]
    fn bad_allocation_rejected() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        obj.evaluate(&[0, 7]);
    }

    #[test]
    #[should_panic(expected = "one core per thread")]
    fn wrong_length_allocation_rejected() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        obj.evaluate(&[0]);
    }
}
