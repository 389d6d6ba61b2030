//! Algorithm 1: the `Smart_Balance()` run-time optimizer — a modified
//! online simulated-annealing search over thread-to-core allocations.
//!
//! Faithful to the paper's algorithm:
//! - the allocation `Ψ` is a uni-dimensional array (`alloc[i]` = core
//!   of thread `i`);
//! - each iteration perturbs `Ψ` by picking a position with `randi` and
//!   re-assigning it within a window that shrinks with the
//!   `perturb` schedule (`pos_new = pos + √perturb · randi(−pos, n·m −
//!   pos)` in the paper's flattened index space);
//! - a better solution is always accepted; a worse one with probability
//!   `e^{diff/accept}` evaluated in **fixed point** ([`crate::fixed`])
//!   using the paper's `randi() mod (1/probability) == 0` test;
//! - `perturb` and `accept` decay geometrically
//!   (`Opt_Δperturb`, `Opt_Δaccept`);
//! - the objective is evaluated **incrementally** (only the two cores
//!   touched by a move are recomputed).
//!
//! Two deviations, noted in DESIGN.md ("modified online Simulated
//! Annealing" is the paper's own wording for its variant):
//! - we track the best-seen allocation and return it (strictly no
//!   worse than returning the final one);
//! - every [`GREEDY_PULL_PERIOD`]-th iteration performs a *greedy
//!   pull* — a uniformly chosen thread is moved to its single-thread
//!   best core if that improves the objective — which keeps the
//!   optimizer convergent at iteration budgets far below the `n·m`
//!   proposal-space size (the regime Fig. 8(a) operates in).

use serde::{Deserialize, Serialize};

use crate::fixed::{fx_exp_neg, Fx, Randi};
use crate::objective::{IncrementalObjective, Objective};

/// Every this-many iterations the annealer performs a greedy pull
/// instead of a random perturbation (see the module docs).
pub const GREEDY_PULL_PERIOD: u32 = 8;

/// Maximum deterministic greedy sweeps after the SA loop.
pub const POLISH_ROUNDS: usize = 3;

/// Tunable inputs of Algorithm 1 (`Opt_*` parameters; defaults are the
/// Fig. 8(b) operating point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealParams {
    /// `Opt_max_iter`: iteration budget.
    pub max_iter: u32,
    /// `Opt_perturb`: initial perturbation magnitude (fraction of the
    /// core-index space a move may jump across, 0..=1].
    pub perturb: f64,
    /// `Opt_Δperturb`: geometric decay of the perturbation per
    /// iteration.
    pub dperturb: f64,
    /// `Opt_accept`: initial acceptance temperature, in objective units
    /// (GIPS/W for the energy goal).
    pub accept: f64,
    /// `Opt_Δaccept`: geometric decay of the acceptance temperature.
    pub daccept: f64,
}

impl Default for AnnealParams {
    fn default() -> Self {
        Self::cooled(500)
    }
}

impl AnnealParams {
    /// Initial acceptance temperature, in objective units (GIPS/W).
    pub const ACCEPT_INITIAL: f64 = 0.5;
    /// Final acceptance temperature the schedule cools to.
    pub const ACCEPT_FINAL: f64 = 1.0e-4;
    /// Final perturbation magnitude the schedule shrinks to.
    pub const PERTURB_FINAL: f64 = 0.01;

    /// Builds a parameter set whose geometric `accept`/`perturb`
    /// schedules cool from their initial to their final values over
    /// exactly `max_iter` iterations — the annealer always finishes
    /// cold regardless of the budget, so small budgets behave like
    /// fast anneals rather than truncated random walks.
    ///
    /// # Panics
    ///
    /// Panics if `max_iter == 0`.
    pub fn cooled(max_iter: u32) -> Self {
        assert!(max_iter > 0, "need at least one iteration");
        let steps = f64::from(max_iter);
        AnnealParams {
            max_iter,
            perturb: 1.0,
            dperturb: Self::PERTURB_FINAL.powf(1.0 / steps),
            accept: Self::ACCEPT_INITIAL,
            daccept: (Self::ACCEPT_FINAL / Self::ACCEPT_INITIAL).powf(1.0 / steps),
        }
    }

    /// The paper's Fig. 8(a) scalability rule: the iteration budget is
    /// capped as the platform grows so the optimizer stays within its
    /// epoch-time budget, trading solution quality for scalability.
    ///
    /// Our calibration: `8·m·√n`, clamped to `[200, 4000]`, with the
    /// cooling schedules stretched to the budget.
    pub fn scaled_for(n_cores: usize, m_threads: usize) -> Self {
        let budget = (8.0 * m_threads as f64 * (n_cores as f64).sqrt()) as u32;
        Self::cooled(budget.clamp(200, 4_000))
    }
}

/// Result of one optimizer run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealOutcome {
    /// Best allocation found (`alloc[i]` = core index of thread `i`).
    pub allocation: Vec<usize>,
    /// Objective value of [`AnnealOutcome::allocation`].
    pub objective: f64,
    /// Objective value of the initial allocation (for improvement
    /// reporting).
    pub initial_objective: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Accepted moves (uphill + downhill).
    pub accepted_moves: u32,
}

impl AnnealOutcome {
    /// Relative improvement over the initial allocation (0 when the
    /// initial objective was non-positive).
    pub fn improvement(&self) -> f64 {
        if self.initial_objective <= 0.0 {
            0.0
        } else {
            (self.objective - self.initial_objective) / self.initial_objective
        }
    }
}

/// Runs Algorithm 1 from `initial` and returns the best allocation
/// found.
///
/// # Panics
///
/// Panics if `initial.len()` differs from the matrices' thread count,
/// any entry is out of core range, or the matrices have no cores.
///
/// # Examples
///
/// ```
/// use archsim::CoreTypeId;
/// use kernelsim::TaskId;
/// use smartbalance::anneal::{anneal, AnnealParams};
/// use smartbalance::matrices::CharacterizationMatrices;
/// use smartbalance::objective::{Goal, Objective};
///
/// let mut m = CharacterizationMatrices::new(
///     vec![TaskId(0)],
///     vec![CoreTypeId(0), CoreTypeId(1)],
///     vec![0.1, 0.01],
/// );
/// m.set(0, 0, 1.0e9, 4.0, true); // 0.25 GIPS/W
/// m.set(0, 1, 0.8e9, 0.1, false); // 8 GIPS/W
/// let obj = Objective::new(&m, Goal::EnergyEfficiency);
/// let out = anneal(&obj, &[0], AnnealParams::default(), 42);
/// assert_eq!(out.allocation, vec![1], "the efficient core wins");
/// ```
pub fn anneal(
    objective: &Objective<'_>,
    initial: &[usize],
    params: AnnealParams,
    seed: u32,
) -> AnnealOutcome {
    let m = initial.len();
    let n = objective.matrices().num_cores();
    assert!(n > 0, "need at least one core");

    let mut state = IncrementalObjective::new(objective, initial);
    let initial_objective = state.value();

    if m == 0 || n == 1 {
        // Nothing to optimize.
        return AnnealOutcome {
            allocation: initial.to_vec(),
            objective: initial_objective,
            initial_objective,
            iterations: 0,
            accepted_moves: 0,
        };
    }

    let mut rng = Randi::new(seed);
    let mut best_alloc = initial.to_vec();
    let mut best_value = initial_objective;
    let mut perturb = params.perturb.clamp(0.0, 1.0);
    let mut accept = params.accept.max(1.0e-9);
    let mut accepted_moves = 0;

    for iter in 0..params.max_iter {
        let i = rng.randi_range(0, m as i64) as usize;
        let cur = state.alloc()[i];
        let matrices = objective.matrices();
        let (to, diff) = if iter % GREEDY_PULL_PERIOD == GREEDY_PULL_PERIOD - 1 {
            // --- Greedy pull: the thread's best single allowed move,
            // its from-core half shared across the scan.
            let leave = state.leave(i);
            let mut best_core = cur;
            let mut best_delta = 0.0;
            for j in 0..n {
                if j == cur || !matrices.is_allowed(i, j) {
                    continue;
                }
                let d = state.delta_to(&leave, j);
                if d > best_delta {
                    best_delta = d;
                    best_core = j;
                }
            }
            if best_core == cur {
                perturb *= params.dperturb;
                accept *= params.daccept;
                continue;
            }
            (best_core, best_delta)
        } else {
            // --- Perturb: propose a core within the shrinking window.
            let window = ((perturb.sqrt() * n as f64).ceil() as i64).max(1);
            let lo = (cur as i64 - window).max(0);
            let hi = (cur as i64 + window + 1).min(n as i64);
            let mut to = rng.randi_range(lo, hi) as usize;
            if to == cur {
                // Nudge to a definite neighbour so the iteration is
                // not wasted (wraps at the edges).
                to = (cur + 1) % n;
            }
            if !matrices.is_allowed(i, to) {
                // Affinity forbids the proposal: skip the iteration
                // (the schedules still advance, like a rejected move).
                perturb *= params.dperturb;
                accept *= params.daccept;
                continue;
            }
            // --- Evaluate: incremental delta for the proposed move.
            (to, state.delta_for_move(i, to))
        };

        let take = if diff > 0.0 {
            true
        } else {
            // Accept a worse solution with probability e^{diff/accept},
            // computed fixed-point, using the paper's modulo test.
            let x = Fx::from_f64((-diff / accept).min(12.0));
            let probability = fx_exp_neg(x);
            if probability.0 <= 0 {
                false
            } else {
                // `randi() mod round(1/p) == 0` accepts with chance ~p.
                let inv_p = ((Fx::ONE.0 as u64) << 16) / probability.0 as u64;
                let inv_p = inv_p >> 16;
                inv_p <= 1 || u64::from(rng.randi()) % inv_p == 0
            }
        };

        if take {
            state.commit_move(i, to);
            accepted_moves += 1;
            if state.value() > best_value {
                best_value = state.value();
                best_alloc.copy_from_slice(state.alloc());
            }
        }

        perturb *= params.dperturb;
        accept *= params.daccept;
    }

    // --- Final polish: deterministic greedy sweeps from the best-seen
    // allocation until a local optimum (bounded rounds). It removes the
    // tail of threads the randomized schedule never happened to visit.
    // Cost is O(rounds·m·n) delta evaluations: at 96 threads on 64
    // cores one sweep is ~6k, the same order as the whole SA loop, so
    // each thread's from-core half is computed once per sweep.
    let mut state = IncrementalObjective::new(objective, &best_alloc);
    for _ in 0..POLISH_ROUNDS {
        let mut improved = false;
        for i in 0..m {
            let cur = state.alloc()[i];
            let leave = state.leave(i);
            let mut best_core = cur;
            let mut best_delta = 1.0e-12;
            for j in 0..n {
                if j == cur || !objective.matrices().is_allowed(i, j) {
                    continue;
                }
                let d = state.delta_to(&leave, j);
                if d > best_delta {
                    best_delta = d;
                    best_core = j;
                }
            }
            if best_core != cur {
                state.commit_move(i, best_core);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    if state.value() > best_value {
        best_value = state.value();
        best_alloc.copy_from_slice(state.alloc());
    }

    AnnealOutcome {
        allocation: best_alloc,
        objective: best_value,
        initial_objective,
        iterations: params.max_iter,
        accepted_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::CharacterizationMatrices;
    use crate::objective::Goal;
    use archsim::CoreTypeId;
    use kernelsim::TaskId;

    /// 4 threads × 4 cores where thread i is uniquely efficient on
    /// core i; global optimum is the identity allocation.
    fn diagonal_matrices() -> CharacterizationMatrices {
        let mut m = CharacterizationMatrices::new(
            (0..4).map(TaskId).collect(),
            (0..4).map(CoreTypeId).collect(),
            vec![0.01; 4],
        );
        for i in 0..4 {
            for j in 0..4 {
                let ips = if i == j { 2.0e9 } else { 1.0e9 };
                let p = if i == j { 0.5 } else { 2.0 };
                m.set(i, j, ips, p, true);
            }
        }
        m
    }

    #[test]
    fn finds_diagonal_optimum() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let out = anneal(&obj, &[0, 0, 0, 0], AnnealParams::default(), 1);
        assert_eq!(out.allocation, vec![0, 1, 2, 3]);
        // Global ratio at the diagonal: ΣIPS = 8 GIPS, ΣP = 2 W.
        assert!((out.objective - 4.0).abs() < 1e-9, "{}", out.objective);
        assert!(out.improvement() > 0.0);
    }

    #[test]
    fn never_worse_than_initial() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        for seed in 0..20 {
            let out = anneal(
                &obj,
                &[3, 2, 1, 0],
                AnnealParams {
                    max_iter: 30,
                    ..Default::default()
                },
                seed,
            );
            assert!(
                out.objective >= out.initial_objective,
                "seed {seed}: {} < {}",
                out.objective,
                out.initial_objective
            );
        }
    }

    #[test]
    fn allocation_always_valid() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        for seed in 0..10 {
            let out = anneal(&obj, &[1, 1, 2, 2], AnnealParams::default(), seed);
            assert_eq!(out.allocation.len(), 4);
            for &c in &out.allocation {
                assert!(c < 4);
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let a = anneal(&obj, &[0, 0, 0, 0], AnnealParams::default(), 7);
        let b = anneal(&obj, &[0, 0, 0, 0], AnnealParams::default(), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_thread_set_is_noop() {
        let m = CharacterizationMatrices::new(vec![], vec![CoreTypeId(0)], vec![0.01]);
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let out = anneal(&obj, &[], AnnealParams::default(), 3);
        assert!(out.allocation.is_empty());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn single_core_is_noop() {
        let mut m = CharacterizationMatrices::new(vec![TaskId(0)], vec![CoreTypeId(0)], vec![0.01]);
        m.set(0, 0, 1.0e9, 1.0, true);
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let out = anneal(&obj, &[0], AnnealParams::default(), 3);
        assert_eq!(out.allocation, vec![0]);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let short = anneal(
            &obj,
            &[3, 2, 1, 0],
            AnnealParams {
                max_iter: 10,
                ..Default::default()
            },
            5,
        );
        let long = anneal(
            &obj,
            &[3, 2, 1, 0],
            AnnealParams {
                max_iter: 2_000,
                ..Default::default()
            },
            5,
        );
        assert!(long.objective >= short.objective);
    }

    #[test]
    fn scaled_params_grow_with_system_size() {
        let small = AnnealParams::scaled_for(2, 4);
        let large = AnnealParams::scaled_for(64, 128);
        assert!(small.max_iter < large.max_iter);
        assert!(large.max_iter <= 4_000, "budget is capped for scalability");
        assert!(small.max_iter >= 200);
    }

    #[test]
    fn downhill_moves_happen_at_high_temperature() {
        // With a huge acceptance temperature, the annealer should
        // accept plenty of worse moves (it is not a greedy search).
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let out = anneal(
            &obj,
            &[0, 1, 2, 3], // start at the optimum
            AnnealParams {
                max_iter: 300,
                accept: 1.0e6,
                daccept: 1.0,
                ..Default::default()
            },
            11,
        );
        assert!(
            out.accepted_moves > 50,
            "hot annealer should wander: {} accepts",
            out.accepted_moves
        );
        // ...but the best-seen solution is still the optimum.
        assert_eq!(out.allocation, vec![0, 1, 2, 3]);
    }
}
