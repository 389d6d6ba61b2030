//! Ground-truth allocators for evaluating the annealer (paper Fig. 8's
//! "*distance to optimal* ... obtained by running our optimization
//! algorithm for synthetic cases whose optimal solution is known").
//!
//! Two tools:
//! - [`exhaustive_best`]: brute-force optimum for small instances
//!   (`n^m` enumeration, guarded);
//! - [`known_optimum_case`]: a constructed instance of any size whose
//!   optimum is known analytically (each core has a designated set of
//!   threads that are overwhelmingly more efficient on it; demands are
//!   sized so designated threads exactly fill their core).

use archsim::CoreTypeId;
use kernelsim::TaskId;
use workloads::SyntheticGenerator;

use crate::matrices::CharacterizationMatrices;
use crate::objective::{Goal, Objective};

/// Upper bound on `n^m` for [`exhaustive_best`]; beyond this the search
/// is refused rather than silently taking minutes.
const MAX_ENUMERATION: u128 = 20_000_000;

/// Exhaustively enumerates all `n^m` allocations and returns the best
/// one with its objective value.
///
/// # Errors
///
/// Returns `Err` with the would-be enumeration size when `n^m` exceeds
/// the internal guard (20 M).
///
/// # Examples
///
/// ```
/// use smartbalance::optimal::{exhaustive_best, known_optimum_case};
/// use smartbalance::objective::{Goal, Objective};
///
/// let case = known_optimum_case(3, 1, 42);
/// let obj = Objective::new(&case.matrices, Goal::EnergyEfficiency);
/// let (best, value) = exhaustive_best(&obj).expect("small instance");
/// assert_eq!(best, case.optimal_alloc);
/// assert!((value - case.optimal_value).abs() < 1e-9);
/// ```
pub fn exhaustive_best(objective: &Objective<'_>) -> Result<(Vec<usize>, f64), u128> {
    let m = objective.matrices().num_threads();
    let n = objective.matrices().num_cores();
    if m == 0 {
        return Ok((Vec::new(), objective.evaluate(&[])));
    }
    let size = (n as u128).checked_pow(m as u32).ok_or(u128::MAX)?;
    if size > MAX_ENUMERATION {
        return Err(size);
    }
    let mut alloc = vec![0usize; m];
    let mut best = alloc.clone();
    let mut best_value = objective.evaluate(&alloc);
    // Odometer enumeration.
    loop {
        // Increment.
        let mut pos = 0;
        loop {
            if pos == m {
                return Ok((best, best_value));
            }
            alloc[pos] += 1;
            if alloc[pos] < n {
                break;
            }
            alloc[pos] = 0;
            pos += 1;
        }
        let v = objective.evaluate(&alloc);
        if v > best_value {
            best_value = v;
            best.copy_from_slice(&alloc);
        }
    }
}

/// A constructed instance with a known optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownCase {
    /// The characterization matrices of the instance.
    pub matrices: CharacterizationMatrices,
    /// The optimal allocation.
    pub optimal_alloc: Vec<usize>,
    /// The optimal objective value (energy-efficiency goal).
    pub optimal_value: f64,
}

/// Builds an `n`-core instance with `threads_per_core` designated
/// threads per core (`m = n · threads_per_core`).
///
/// Designated threads run at a randomly drawn efficiency within a
/// narrow band (≈2–2.6 GIPS/W) on their home core and at 10× lower
/// throughput for 10× higher power (100× lower efficiency) anywhere
/// else; each thread's demand is `1 / threads_per_core`, so the home
/// assignment exactly saturates every core. Under the
/// energy-efficiency objective the home assignment is optimal: the
/// most a deviation can gain at the vacated core (shedding its worst
/// thread, ≤ the narrow band's width) is far below the loss at the
/// receiving core (absorbing a 100×-less-efficient, power-hungry
/// migrant into its weighted mean).
///
/// # Panics
///
/// Panics if `n_cores == 0` or `threads_per_core == 0`.
pub fn known_optimum_case(n_cores: usize, threads_per_core: usize, seed: u64) -> KnownCase {
    assert!(n_cores > 0, "need at least one core");
    assert!(threads_per_core > 0, "need at least one thread per core");
    let m = n_cores * threads_per_core;
    let mut gen = SyntheticGenerator::new(seed);
    let mut matrices = CharacterizationMatrices::new(
        (0..m).map(TaskId).collect(),
        (0..n_cores).map(CoreTypeId).collect(),
        vec![0.01; n_cores],
    );

    let u = 1.0 / threads_per_core as f64;
    for i in 0..m {
        let home = i / threads_per_core;
        // Narrow home-efficiency band: ~2..2.6 GIPS/W.
        let home_ips = gen.range(2.0e9, 2.5e9);
        let home_power = gen.range(0.95, 1.05);
        for j in 0..n_cores {
            if j == home {
                matrices.set(i, j, home_ips, home_power, true);
            } else {
                // 100x less efficient away from home.
                matrices.set(i, j, home_ips / 10.0, home_power * 10.0, false);
            }
        }
        matrices.set_utilization(i, u);
    }

    let optimal_alloc: Vec<usize> = (0..m).map(|i| i / threads_per_core).collect();
    let objective = Objective::new(&matrices, Goal::EnergyEfficiency);
    let optimal_value = objective.evaluate(&optimal_alloc);

    KnownCase {
        matrices,
        optimal_alloc,
        optimal_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anneal::{anneal, AnnealParams};

    #[test]
    fn exhaustive_matches_construction_small() {
        for seed in [1, 2, 3] {
            let case = known_optimum_case(3, 2, seed); // 3^6 = 729
            let obj = Objective::new(&case.matrices, Goal::EnergyEfficiency);
            let (best, value) = exhaustive_best(&obj).expect("tiny");
            assert!(
                value <= case.optimal_value + 1e-9,
                "construction must be optimal: exhaustive {value} vs {}",
                case.optimal_value
            );
            assert!((value - case.optimal_value).abs() < 1e-9);
            assert_eq!(best, case.optimal_alloc, "seed {seed}");
        }
    }

    #[test]
    fn exhaustive_guard_refuses_large() {
        let case = known_optimum_case(8, 4, 1); // 8^32 — way over budget
        let obj = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        assert!(exhaustive_best(&obj).is_err());
    }

    #[test]
    fn empty_instance() {
        let m = CharacterizationMatrices::new(vec![], vec![CoreTypeId(0)], vec![0.01]);
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let (alloc, _) = exhaustive_best(&obj).expect("empty");
        assert!(alloc.is_empty());
    }

    #[test]
    fn annealer_reaches_known_optimum_on_small_case() {
        let case = known_optimum_case(4, 2, 7);
        let obj = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        let initial = vec![0; 8];
        let out = anneal(
            &obj,
            &initial,
            AnnealParams {
                max_iter: 3_000,
                ..Default::default()
            },
            13,
        );
        let distance = 1.0 - out.objective / case.optimal_value;
        assert!(
            distance < 0.02,
            "annealer should be within 2 % of optimal, got {distance}"
        );
    }

    #[test]
    fn known_case_shapes() {
        let case = known_optimum_case(5, 3, 9);
        assert_eq!(case.matrices.num_threads(), 15);
        assert_eq!(case.matrices.num_cores(), 5);
        assert_eq!(case.optimal_alloc.len(), 15);
        assert!(case.optimal_value > 0.0);
        // Every thread's home utilization sums to exactly 1 per core.
        for j in 0..5 {
            let u: f64 = (0..15)
                .filter(|&i| case.optimal_alloc[i] == j)
                .map(|i| case.matrices.utilization(i))
                .sum();
            assert!((u - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        known_optimum_case(0, 1, 1);
    }
}
