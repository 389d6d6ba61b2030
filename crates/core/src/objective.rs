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
//! two cores it touches. Trying one thread on many destinations (the
//! annealer's greedy pull and polish, the sharded exchange) also
//! shares the move's from-core half: [`Leave`] is computed once per
//! thread and completed once per destination, with the same
//! arithmetic, bit for bit, as evaluating each move whole. The annealer
//! completes it for every core at once, in one pass over the cores that
//! reads each core's entry of the thread's per-type `S`/`P` rows, and a
//! commit stores the values its evaluation computed instead of
//! computing them again.
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

use archsim::{CoreId, CoreTypeId};
use serde::{Deserialize, Serialize};

use crate::matrices::CharacterizationMatrices;

/// Scale factor turning instr/s per watt into GIPS/W.
const GIPS: f64 = 1.0e9;

/// Effective (post-time-sharing) throughput and power of one core given
/// its demand/rate sums — the free-function form of the per-core model
/// in the module docs. An empty core (`u_sum <= 0`) sleeps: its
/// `(0, P_sleep)` is selected over the busy-core arithmetic rather than
/// returned early, so a scan's loop body is one expression per core.
#[inline]
pub fn effective_core_terms(
    u_sum: f64,
    ips_sum: f64,
    pow_sum: f64,
    sleep_power_w: f64,
) -> (f64, f64) {
    let busy = u_sum.min(1.0);
    let scale = busy / u_sum;
    let ips = ips_sum * scale;
    let power = pow_sum * scale + (1.0 - busy) * sleep_power_w;
    if u_sum <= 0.0 {
        (0.0, sleep_power_w)
    } else {
        (ips, power)
    }
}

/// One core's weighted contribution to the goal aggregates:
/// `(ω·IPS, ω·P, ω·(IPS/P)/GIPS)`; the ratio term is 0 for an idle or
/// powerless core.
pub fn weighted_aggregates(weight: f64, terms: (f64, f64)) -> (f64, f64, f64) {
    let (ips, p) = weighted_terms(weight, terms);
    (ips, p, weighted_ratio(weight, terms))
}

/// `(ω·IPS, ω·P)`: the part of [`weighted_aggregates`] every goal reads.
#[inline]
fn weighted_terms(weight: f64, (ips, p): (f64, f64)) -> (f64, f64) {
    (weight * ips, weight * p)
}

/// `ω·(IPS/P)/GIPS`, 0 for an idle or powerless core: the part of
/// [`weighted_aggregates`] only [`Goal::PerCoreEfficiencySum`] reads.
#[inline]
fn weighted_ratio(weight: f64, (ips, p): (f64, f64)) -> f64 {
    let ratio = weight * (ips / p) / GIPS;
    if ips <= 0.0 || p <= 0.0 {
        0.0
    } else {
        ratio
    }
}

/// Combines summed per-core aggregates into the scalar objective for
/// `goal`.
#[inline]
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
    /// [`Goal::PerCoreEfficiencySum`]; `tests/end_to_end.rs` compares
    /// the two against vanilla.
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

    /// This objective's goal and weights over `matrices`, a sub-problem
    /// whose core `k` is this objective's core `columns[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `columns` does not hold one core per column of
    /// `matrices`.
    pub(crate) fn for_columns<'b>(
        &self,
        matrices: &'b CharacterizationMatrices,
        columns: &[CoreId],
    ) -> Objective<'b> {
        assert_eq!(columns.len(), matrices.num_cores(), "one core per column");
        Objective {
            matrices,
            weights: columns.iter().map(|c| self.weights[c.0]).collect(),
            goal: self.goal,
        }
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
/// from-core's sums and aggregates without the thread, and the goal
/// aggregates with that core patched. A scan over candidate
/// destinations computes it once per thread
/// ([`IncrementalObjective::leave`]) and completes it once per
/// destination ([`IncrementalObjective::delta_to`]). It describes the
/// state it was taken from, so a committed move invalidates it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leave {
    pub(crate) thread: usize,
    from: usize,
    /// The thread's utilization (its demand on either core).
    u: f64,
    /// The from-core's demand/rate sums without the thread.
    from_sums: Sums,
    /// The from-core's weighted aggregates of `from_sums`.
    from_aggs: Aggs,
    /// `(ΣωIPS, ΣωP, Σratio)` with the from-core term patched.
    sums: Aggs,
}

/// A fully evaluated move: both touched cores' new sums and aggregates,
/// the patched goal aggregates and the new total. Committing a move
/// ([`IncrementalObjective::apply`]) stores these values, so the
/// committed state is, bit for bit, the one the move was evaluated and
/// accepted on. Like [`Leave`], it describes the state it was taken
/// from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Move {
    leave: Leave,
    to: usize,
    to_sums: Sums,
    to_aggs: Aggs,
    sums: Aggs,
    total: f64,
    /// The objective delta: the new total minus the current one.
    pub(crate) delta: f64,
}

/// A core's demand/rate sums `(ΣU, Σu·ips, Σu·p)`.
type Sums = (f64, f64, f64);

/// Weighted goal aggregates `(ωIPS, ωP, ratio)` of one core, or their
/// sums across cores.
type Aggs = (f64, f64, f64);

/// `total` with one core's aggregates `old` replaced by `new`.
#[inline]
fn patch(total: Aggs, old: Aggs, new: Aggs) -> Aggs {
    (
        total.0 + (new.0 - old.0),
        total.1 + (new.1 - old.1),
        total.2 + (new.2 - old.2),
    )
}

/// One core of an [`IncrementalObjective`]: its weight and sleep power,
/// the demand/rate sums of the threads placed on it, and the cached
/// weighted aggregates of those sums.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LedgerCore {
    weight: f64,
    sleep_w: f64,
    sums: Sums,
    aggs: Aggs,
}

impl LedgerCore {
    /// The sums with a thread of utilization `u` and full-speed rates
    /// `ips`/`pow` added.
    #[inline]
    fn arrive(&self, u: f64, ips: f64, pow: f64) -> Sums {
        (
            self.sums.0 + u,
            self.sums.1 + u * ips,
            self.sums.2 + u * pow,
        )
    }

    /// The sums with that thread removed.
    #[inline]
    fn depart(&self, u: f64, ips: f64, pow: f64) -> Sums {
        (
            self.sums.0 - u,
            self.sums.1 - u * ips,
            self.sums.2 - u * pow,
        )
    }

    /// The effective `(ips, power)` of this core with `sums`.
    #[inline]
    fn terms(&self, (u, ips, pow): Sums) -> (f64, f64) {
        effective_core_terms(u, ips, pow, self.sleep_w)
    }

    /// The weighted aggregates this core contributes with `sums`.
    #[inline]
    fn aggregates(&self, sums: Sums) -> Aggs {
        weighted_aggregates(self.weight, self.terms(sums))
    }
}

/// Incrementally maintained objective state for a working allocation:
/// per-core demand/rate sums plus each core's cached weighted goal
/// aggregates, updated in O(1) per move instead of O(m·n) per
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalObjective<'a, 'b> {
    objective: &'b Objective<'a>,
    /// `objective`'s goal, copied so each evaluation reads it without
    /// going through the reference.
    goal: Goal,
    alloc: Vec<usize>,
    cores: Vec<LedgerCore>,
    /// Weighted `(ΣIPS, ΣP, Σ(IPS/P))` across cores; the last is the
    /// Eq. 11 aggregate.
    sums: Aggs,
    total: f64,
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
        let mut cores: Vec<LedgerCore> = objective
            .weights
            .iter()
            .enumerate()
            .map(|(j, &weight)| LedgerCore {
                weight,
                sleep_w: m.sleep_power_w(j),
                sums: (0.0, 0.0, 0.0),
                aggs: (0.0, 0.0, 0.0),
            })
            .collect();
        for (i, &j) in alloc.iter().enumerate() {
            assert!(j < n, "thread {i} assigned to non-existent core {j}");
            let (u, (ips, pow)) = (m.utilization(i), m.rates(i, j));
            let sums = &mut cores[j].sums;
            sums.0 += u;
            sums.1 += u * ips;
            sums.2 += u * pow;
        }
        let mut sums = (0.0, 0.0, 0.0);
        for core in &mut cores {
            core.aggs = core.aggregates(core.sums);
            sums.0 += core.aggs.0;
            sums.1 += core.aggs.1;
            sums.2 += core.aggs.2;
        }
        IncrementalObjective {
            objective,
            goal: objective.goal,
            alloc: alloc.to_vec(),
            cores,
            sums,
            total: goal_total(objective.goal, sums.0, sums.1, sums.2),
        }
    }

    /// Current objective value.
    pub fn value(&self) -> f64 {
        self.total
    }

    /// Current allocation.
    pub fn alloc(&self) -> &[usize] {
        &self.alloc
    }

    /// Total demand currently placed on core `j`.
    pub(crate) fn load_of(&self, j: usize) -> f64 {
        self.cores[j].sums.0
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
        let (u, (ips, pow)) = (m.utilization(i), m.rates(i, from));
        let core = &self.cores[from];
        let from_sums = core.depart(u, ips, pow);
        let from_aggs = core.aggregates(from_sums);
        Leave {
            thread: i,
            from,
            u,
            from_sums,
            from_aggs,
            sums: patch(self.sums, core.aggs, from_aggs),
        }
    }

    /// The objective delta if `leave`'s thread moved to core `to` (no
    /// state change): the to-core half on top of the shared from-core
    /// half. Returns 0 for a self-move.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn delta_to(&self, leave: &Leave, to: usize) -> f64 {
        if to == leave.from {
            return 0.0;
        }
        self.evaluate(leave, to).delta
    }

    /// Fills `out[j]` with [`IncrementalObjective::delta_to`] of
    /// `leave`'s thread for every core `j`, bit for bit, in one pass
    /// over the cores that reads each core's `(ips, power)` from the
    /// thread's per-type row through the core's type. The goal is
    /// dispatched once per scan, and the Eq. 11 ratio is computed only
    /// for the goal that reads it.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds one entry per core.
    pub(crate) fn scan(&self, leave: &Leave, out: &mut [f64]) {
        assert_eq!(out.len(), self.cores.len(), "one delta per core");
        let m = self.objective.matrices;
        let (row, types) = (m.rates_row(leave.thread), m.core_types());
        match self.goal {
            Goal::EnergyEfficiency => self.scan_with::<false>(leave, row, types, out, |s| {
                goal_total(Goal::EnergyEfficiency, s.0, s.1, s.2)
            }),
            Goal::PerCoreEfficiencySum => self.scan_with::<true>(leave, row, types, out, |s| {
                goal_total(Goal::PerCoreEfficiencySum, s.0, s.1, s.2)
            }),
            Goal::Throughput => self.scan_with::<false>(leave, row, types, out, |s| {
                goal_total(Goal::Throughput, s.0, s.1, s.2)
            }),
            Goal::MinPower => self.scan_with::<false>(leave, row, types, out, |s| {
                goal_total(Goal::MinPower, s.0, s.1, s.2)
            }),
            Goal::EnergyDelayProduct => self.scan_with::<false>(leave, row, types, out, |s| {
                goal_total(Goal::EnergyDelayProduct, s.0, s.1, s.2)
            }),
        }
        out[leave.from] = 0.0;
    }

    /// [`IncrementalObjective::scan`]'s loop for one goal, given as
    /// `total`; `RATIO` says whether that goal reads the ratio
    /// aggregate. Without it the ratio is not computed, and the third
    /// sum `total` receives is meaningless.
    #[inline(always)]
    fn scan_with<const RATIO: bool>(
        &self,
        leave: &Leave,
        row: &[(f64, f64)],
        types: &[CoreTypeId],
        out: &mut [f64],
        total: impl Fn(Aggs) -> f64,
    ) {
        for ((core, t), delta) in self.cores.iter().zip(types).zip(out) {
            let (ips, pow) = row[t.0];
            let terms = core.terms(core.arrive(leave.u, ips, pow));
            let (wi, wp) = weighted_terms(core.weight, terms);
            let wr = if RATIO {
                weighted_ratio(core.weight, terms)
            } else {
                0.0
            };
            *delta = total(patch(leave.sums, core.aggs, (wi, wp, wr))) - self.total;
        }
    }

    /// The evaluated move of `leave`'s thread to core `to`, a different
    /// core, for [`IncrementalObjective::apply`]: the to-core half on
    /// top of `leave`.
    #[inline]
    pub(crate) fn evaluate(&self, leave: &Leave, to: usize) -> Move {
        debug_assert_ne!(to, leave.from, "a move changes the thread's core");
        let (ips, pow) = self.objective.matrices.rates(leave.thread, to);
        let core = &self.cores[to];
        let to_sums = core.arrive(leave.u, ips, pow);
        let to_aggs = core.aggregates(to_sums);
        let sums = patch(leave.sums, core.aggs, to_aggs);
        let total = goal_total(self.goal, sums.0, sums.1, sums.2);
        Move {
            leave: *leave,
            to,
            to_sums,
            to_aggs,
            sums,
            total,
            delta: total - self.total,
        }
    }

    /// Commits an evaluated move: stores both cores' sums and
    /// aggregates, the goal aggregates and the total it computed, and
    /// returns its delta.
    pub(crate) fn apply(&mut self, mv: &Move) -> f64 {
        self.alloc[mv.leave.thread] = mv.to;
        let from = &mut self.cores[mv.leave.from];
        from.sums = mv.leave.from_sums;
        from.aggs = mv.leave.from_aggs;
        let to = &mut self.cores[mv.to];
        to.sums = mv.to_sums;
        to.aggs = mv.to_aggs;
        self.sums = mv.sums;
        self.total = mv.total;
        mv.delta
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
        if self.alloc[i] == to {
            return 0.0;
        }
        let mv = self.evaluate(&self.leave(i), to);
        self.apply(&mv)
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
    impl IncrementalObjective<'_, '_> {
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
            let (cf, ct) = (&self.cores[from], &self.cores[to]);
            let new_from = effective_core_terms(
                cf.sums.0 - u,
                cf.sums.1 - u * at_from.0,
                cf.sums.2 - u * at_from.1,
                cf.sleep_w,
            );
            let new_to = effective_core_terms(
                ct.sums.0 + u,
                ct.sums.1 + u * at_to.0,
                ct.sums.2 + u * at_to.1,
                ct.sleep_w,
            );
            let (mut s_ips, mut s_p, mut s_r) = self.sums;
            for (c, new) in [(cf, new_from), (ct, new_to)] {
                let old = effective_core_terms(c.sums.0, c.sums.1, c.sums.2, c.sleep_w);
                let (oi, op, or) = weighted_aggregates(c.weight, old);
                let (ni, np, nr) = weighted_aggregates(c.weight, new);
                s_ips += ni - oi;
                s_p += np - op;
                s_r += nr - or;
            }
            goal_total(self.goal, s_ips, s_p, s_r) - self.total
        }

        pub(crate) fn assert_cache_is_fresh(&self) {
            let bits = |(a, b, c): (f64, f64, f64)| (a.to_bits(), b.to_bits(), c.to_bits());
            for (j, c) in self.cores.iter().enumerate() {
                let terms = effective_core_terms(c.sums.0, c.sums.1, c.sums.2, c.sleep_w);
                let fresh = weighted_aggregates(c.weight, terms);
                assert_eq!(bits(c.aggs), bits(fresh), "core {j}: stale aggregates");
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

    /// Six threads × six cores of three types, two cores each and not
    /// in type order, with uneven per-type rates and partial demand: the
    /// scan, `delta_to` and commits read each core's entry through its
    /// type, and the sleep power stays per core.
    fn shared_types() -> CharacterizationMatrices {
        let types = [2, 0, 1, 0, 2, 1];
        let mut m = CharacterizationMatrices::new(
            (0..6).map(TaskId).collect(),
            types.iter().map(|&t| CoreTypeId(t)).collect(),
            vec![0.02, 0.2, 0.05, 0.18, 0.03, 0.06],
        );
        for i in 0..6 {
            for (j, &t) in types.iter().enumerate() {
                let ips = (0.8 + 0.29 * i as f64 + 1.4 * (2 - t) as f64) * 1.0e9;
                let power = 0.04 + 1.1 * (2 - t) as f64 + 0.07 * i as f64;
                m.set(i, j, ips, power, t == i % 3);
            }
            m.set_utilization(i, [0.9, 0.3, 1.0, 0.45, 0.7, 0.15][i]);
        }
        m
    }

    /// The split evaluation (`leave` once, then `delta_to` per
    /// destination or one row scan over all of them) reproduces the
    /// one-shot two-core patch bit for bit, for every goal, with and
    /// without ω, on every (thread, core) pair along a scripted commit
    /// sequence; and every evaluated commit returns the predicted delta
    /// and leaves the per-core aggregate cache equal to a fresh
    /// evaluation. One input gives each core its own type, the other
    /// lets cores share types.
    #[test]
    fn split_delta_is_bit_identical_to_the_one_shot_patch() {
        let own_types = (
            uneven(),
            vec![1.5, 1.0, 0.25, 0.0],
            vec![0, 0, 2, 2, 2],
            vec![
                (0, 1),
                (3, 1),
                (1, 0),
                (4, 3),
                (2, 3),
                (0, 3),
                (3, 2),
                (1, 1),
            ],
        );
        let shared = (
            shared_types(),
            vec![1.5, 0.5, 1.0, 0.0, 2.0, 0.75],
            vec![0, 0, 1, 3, 3, 4],
            vec![
                (0, 4),
                (2, 3),
                (5, 2),
                (1, 5),
                (3, 0),
                (4, 1),
                (2, 5),
                (0, 2),
                (1, 1),
            ],
        );
        for (m, omega, initial, script) in [own_types, shared] {
            let n = m.num_cores();
            for goal in [
                Goal::EnergyEfficiency,
                Goal::PerCoreEfficiencySum,
                Goal::Throughput,
                Goal::MinPower,
                Goal::EnergyDelayProduct,
            ] {
                for weights in [None, Some(omega.clone())] {
                    let mut obj = Objective::new(&m, goal);
                    if let Some(w) = weights.clone() {
                        obj = obj.with_weights(w);
                    }
                    let mut state = IncrementalObjective::new(&obj, &initial);
                    state.assert_cache_is_fresh();
                    let mut scanned = vec![f64::NAN; n];
                    for &(mi, mto) in &script {
                        for i in 0..m.num_threads() {
                            let leave = state.leave(i);
                            let from = state.alloc()[i];
                            state.scan(&leave, &mut scanned);
                            for (to, scan) in scanned.iter().enumerate() {
                                let one_shot = state.one_shot_delta(
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
                                    "{n} cores, {goal:?} {weights:?}: move ({i},{to})"
                                );
                                assert_eq!(state.delta_for_move(i, to).to_bits(), split.to_bits());
                                assert_eq!(
                                    scan.to_bits(),
                                    one_shot.to_bits(),
                                    "{n} cores, {goal:?} {weights:?}: scan ({i},{to})"
                                );
                            }
                        }
                        let predicted = state.delta_for_move(mi, mto);
                        let realized = state.commit_move(mi, mto);
                        assert_eq!(
                            realized.to_bits(),
                            predicted.to_bits(),
                            "{n} cores, {goal:?} {weights:?}"
                        );
                        state.assert_cache_is_fresh();
                    }
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
