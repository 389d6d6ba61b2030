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

use crate::fixed::{fx_exp_neg, Fx, Randi};
use crate::matrices::CharacterizationMatrices;
use crate::objective::{IncrementalObjective, Objective};

/// Every this-many iterations the annealer performs a greedy pull
/// instead of a random perturbation (see the module docs).
pub const GREEDY_PULL_PERIOD: u32 = 8;

/// Maximum deterministic greedy sweeps after the SA loop.
pub const POLISH_ROUNDS: usize = 3;

/// Tunable inputs of Algorithm 1 (`Opt_*` parameters; defaults are the
/// Fig. 8(b) operating point).
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
/// Panics if `params.daccept` is not finite and positive (a
/// non-positive decay would turn the acceptance temperature
/// non-positive mid-run), if `initial.len()` differs from the
/// matrices' thread count, any entry is out of core range, or the
/// matrices have no cores.
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
    assert!(
        params.daccept.is_finite() && params.daccept > 0.0,
        "AnnealParams::daccept must be finite and > 0, got {}",
        params.daccept
    );
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

    let matrices = objective.matrices();
    let mut rng = Randi::new(seed);
    let mut best_alloc = initial.to_vec();
    let mut best_value = initial_objective;
    let mut perturb = params.perturb.clamp(0.0, 1.0);
    let mut accept = params.accept.max(1.0e-9);
    let mut accepted_moves = 0;
    // One thread's delta to every core, refilled by each scan.
    let mut deltas = vec![0.0; n];

    for iter in 0..params.max_iter {
        let i = rng.randi_range(0, m as i64) as usize;
        let cur = state.alloc()[i];
        let mv = if iter % GREEDY_PULL_PERIOD == GREEDY_PULL_PERIOD - 1 {
            // --- Greedy pull: the thread's best single allowed move,
            // its from-core half shared across the scan.
            let leave = state.leave(i);
            state.scan(&leave, &mut deltas);
            let Some(to) = best_destination(matrices, i, cur, &deltas, 0.0) else {
                perturb *= params.dperturb;
                accept *= params.daccept;
                continue;
            };
            state.evaluate(&leave, to)
        } else {
            // --- Perturb: propose a core within the shrinking window.
            let window = ceil_to_i64(perturb.sqrt() * n as f64).max(1);
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
            state.evaluate(&state.leave(i), to)
        };
        let diff = mv.delta;

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
            state.apply(&mv);
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
    // each thread's from-core half is computed once per sweep and
    // completed for every core in one row scan.
    let mut state = IncrementalObjective::new(objective, &best_alloc);
    for _ in 0..POLISH_ROUNDS {
        let mut improved = false;
        for i in 0..m {
            let cur = state.alloc()[i];
            let leave = state.leave(i);
            state.scan(&leave, &mut deltas);
            if let Some(to) = best_destination(matrices, i, cur, &deltas, 1.0e-12) {
                let mv = state.evaluate(&leave, to);
                state.apply(&mv);
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

/// The first core with the largest of `deltas` above `floor` among the
/// cores other than `cur` that thread `i` may move to, or `None` when
/// no such move clears `floor`.
fn best_destination(
    matrices: &CharacterizationMatrices,
    i: usize,
    cur: usize,
    deltas: &[f64],
    floor: f64,
) -> Option<usize> {
    let mut best = None;
    let mut best_delta = floor;
    for (j, &d) in deltas.iter().enumerate() {
        if j == cur || !matrices.is_allowed(i, j) {
            continue;
        }
        if d > best_delta {
            best_delta = d;
            best = Some(j);
        }
    }
    best
}

/// `x.ceil() as i64`, computed exactly without libm's `ceil` (a call
/// on the baseline x86-64 target, which lacks SSE4.1's `roundsd`): the
/// saturating cast truncates towards zero and maps NaN to 0, and a
/// value with a fraction cut off gets one more. Truncation already is
/// the ceiling of a negative value, and every float of magnitude 2⁵³ or
/// more is an integer, so `t as f64` is exactly the truncated value
/// wherever the cast did not saturate.
fn ceil_to_i64(x: f64) -> i64 {
    let t = x as i64;
    if (t as f64) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Goal;
    use archsim::CoreTypeId;
    use kernelsim::TaskId;

    #[test]
    fn integer_ceiling_matches_f64_ceil() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut xs = vec![0.0, -0.0, 0.5, 1.0e-300, f64::INFINITY, f64::NAN];
        for k in [1u32, 2, 3, 7, 63, 64, 96, 255, 256, 1024, 4096] {
            let x = f64::from(k);
            xs.extend([x, below(x), x + 0.5]);
            // `n` times the square roots the perturb window sees.
            for perturb in [1.0, 0.5, 0.25, 1.0e-3, 1.0e-9] {
                xs.push(f64::sqrt(perturb) * x);
            }
        }
        for p in [52, 53, 62, 63, 64] {
            let x = 2f64.powi(p);
            xs.extend([x, below(x)]);
        }
        xs.extend([1.0e19, -1.5, -2.0, f64::NEG_INFINITY]);
        for x in xs {
            assert_eq!(ceil_to_i64(x), x.ceil() as i64, "x = {x:e}");
        }
    }

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

    /// Synthetic `threads × cores` matrices over `types` core types in
    /// contiguous blocks, each thread's rates depending only on the
    /// core type like the balancer's predicted rows. A few rates are
    /// zero, so the idle-core and zero-ratio cases arise; with `masks`
    /// a third of the threads get a random affinity mask.
    fn golden_matrices(
        threads: usize,
        cores: usize,
        types: usize,
        masks: bool,
        rng: &mut Randi,
    ) -> CharacterizationMatrices {
        let unit = |rng: &mut Randi| f64::from(rng.randi()) / 4_294_967_296.0;
        let type_of = |j: usize| j * types / cores;
        let sleep: Vec<f64> = (0..types).map(|t| 0.01 + 0.05 * t as f64).collect();
        let mut m = CharacterizationMatrices::new(
            (0..threads).map(TaskId).collect(),
            (0..cores).map(|j| CoreTypeId(type_of(j))).collect(),
            (0..cores).map(|j| sleep[type_of(j)]).collect(),
        );
        for i in 0..threads {
            let mut row = Vec::with_capacity(types);
            for t in 0..types {
                let ips = if unit(rng) < 0.05 {
                    0.0
                } else {
                    (0.2 + 3.0 * unit(rng)) * (1.0 + t as f64) * 1.0e9
                };
                let power = if unit(rng) < 0.05 {
                    0.0
                } else {
                    (0.05 + 1.5 * unit(rng)) * (1.0 + 0.8 * t as f64)
                };
                row.push((ips, power));
            }
            for j in 0..cores {
                let (ips, power) = row[type_of(j)];
                m.set(i, j, ips, power, j % 3 == 0);
            }
            let u = unit(rng);
            m.set_utilization(i, if u < 0.2 { 1.0 } else { u });
            if masks && unit(rng) < 0.34 {
                let bits = (u64::from(rng.randi()) << 32) | u64::from(rng.randi());
                let usable = if cores >= 64 {
                    bits
                } else {
                    bits & ((1 << cores) - 1)
                };
                m.set_allowed(i, if usable == 0 { 1 } else { usable });
            }
        }
        m
    }

    /// A hash of `anneal`'s outcomes over a grid of shapes (1 × 2 up
    /// to one 96 × 64 single-type cluster), every goal, ω on and off,
    /// affinity masks, default and hot parameters and several seeds.
    /// The constant was recorded before the row scan, the evaluated
    /// commit and the table-driven `fx_exp_neg`; any change to
    /// Algorithm 1's arithmetic, its selection order or its random
    /// stream moves it.
    #[test]
    fn outcomes_match_the_recorded_golden_hash() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let hot = AnnealParams {
            daccept: 1.0,
            ..AnnealParams::default()
        };
        let shapes = [(1, 2, 2), (8, 4, 2), (32, 4, 4), (40, 16, 4), (96, 64, 1)];
        let mut anneals = 0;
        for (k, &(threads, cores, types)) in shapes.iter().enumerate() {
            for masks in [false, true] {
                for seed in 1..=3u32 {
                    let mut rng = Randi::new(seed * 7_919 + k as u32 * 104_729 + u32::from(masks));
                    let m = golden_matrices(threads, cores, types, masks, &mut rng);
                    let initial: Vec<usize> = (0..threads)
                        .map(|_| rng.randi_range(0, cores as i64) as usize)
                        .collect();
                    let weights: Vec<f64> = (0..cores)
                        .map(|_| f64::from(rng.randi() % 9) * 0.25)
                        .collect();
                    for goal in [
                        Goal::EnergyEfficiency,
                        Goal::PerCoreEfficiencySum,
                        Goal::Throughput,
                        Goal::MinPower,
                        Goal::EnergyDelayProduct,
                    ] {
                        for weighted in [false, true] {
                            let mut obj = Objective::new(&m, goal);
                            if weighted {
                                obj = obj.with_weights(weights.clone());
                            }
                            for params in [AnnealParams::default(), hot] {
                                let out = anneal(&obj, &initial, params, seed);
                                for &c in &out.allocation {
                                    mix(c as u64);
                                }
                                mix(out.objective.to_bits());
                                mix(out.initial_objective.to_bits());
                                mix(u64::from(out.accepted_moves));
                                anneals += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(anneals, 600);
        assert_eq!(
            hash, 0x0a4f_83a6_6851_d36a,
            "golden hash over {anneals} anneals"
        );
    }

    #[test]
    #[should_panic(expected = "AnnealParams::daccept must be finite and > 0, got -0.5")]
    fn negative_daccept_is_rejected_at_entry() {
        let m = diagonal_matrices();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let params = AnnealParams {
            daccept: -0.5,
            ..AnnealParams::scaled_for(4, 8)
        };
        anneal(&obj, &[0, 0, 0, 0], params, 1);
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
