//! `ablation` — timings of the design choices in the paper's Section
//! 4.3 and DESIGN.md's ablation list:
//!
//! 1. fixed-point vs floating-point `e^{-x}` in the annealer's hot
//!    path, and the xorshift `randi`;
//! 2. incremental vs full objective evaluation (the paper's
//!    "computations induced by the latest swap");
//! 3. Algorithm 1 on oracle vs Θ-predicted matrices, plus the quality
//!    gap between the two allocations;
//! 4. exhaustive enumeration vs the annealer at 3 cores × 6 threads.
//!
//! Each line is the mean wall-clock time per iteration. Serial on
//! purpose: concurrent work would inflate the timings. Takes no
//! arguments.

use std::hint::black_box;
use std::time::{Duration, Instant};

use archsim::CoreTypeId;
use kernelsim::TaskId;
use smartbalance::fixed::{fx_exp_neg, Fx, Randi};
use smartbalance::objective::IncrementalObjective;
use smartbalance::{
    anneal, exhaustive_best, known_optimum_case, AnnealParams, CharacterizationMatrices, Goal,
    Objective,
};
use smartbalance_bench::{ablation_anneal, ablation_matrices, prediction_gap};
use workloads::SyntheticGenerator;

/// Prints the mean wall-clock time per call of `f`: one untimed
/// warm-up call, then calls until at least 200 ms have passed.
fn time<T>(label: &str, mut f: impl FnMut() -> T) {
    black_box(f());
    let start = Instant::now();
    let mut iters = 0u32;
    while start.elapsed() < Duration::from_millis(200) {
        black_box(f());
        iters += 1;
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    println!("{label:<24} {ns:>10.1} ns/iter ({iters} iters)");
}

/// `m` threads × `n` cores of random rates and powers.
fn random_matrices(n: usize, m: usize, seed: u64) -> CharacterizationMatrices {
    let mut gen = SyntheticGenerator::new(seed);
    let mut mat = CharacterizationMatrices::new(
        (0..m).map(TaskId).collect(),
        (0..n).map(CoreTypeId).collect(),
        vec![0.01; n],
    );
    for i in 0..m {
        for j in 0..n {
            mat.set(i, j, gen.range(0.1e9, 4.0e9), gen.range(0.05, 8.0), false);
        }
        mat.set_utilization(i, gen.range(0.1, 1.0));
    }
    mat
}

fn main() {
    println!("== 1. fixed point (256 calls per iteration) ==");
    let xs: Vec<f64> = (0..256).map(|i| f64::from(i) * 0.04).collect();
    time("fx_exp_neg", || {
        xs.iter().fold(0i64, |acc, &x| {
            acc.wrapping_add(fx_exp_neg(Fx::from_f64(x)).0)
        })
    });
    time("f64_exp", || xs.iter().map(|&x| (-x).exp()).sum::<f64>());
    let mut r = Randi::new(7);
    time("randi_xorshift", || {
        (0..256).fold(0u32, |acc, _| acc.wrapping_add(r.randi()))
    });

    println!("\n== 2. incremental objective (32 move deltas per iteration) ==");
    let mat = random_matrices(16, 32, 3);
    let objective = Objective::new(&mat, Goal::EnergyEfficiency);
    let alloc: Vec<usize> = (0..32).map(|i| i % 16).collect();
    let state = IncrementalObjective::new(&objective, &alloc);
    time("delta_incremental", || {
        (0..32)
            .map(|i| state.delta_for_move(i, (i + 7) % 16))
            .sum::<f64>()
    });
    time("delta_by_full_reeval", || {
        let base = objective.evaluate(&alloc);
        let mut work = alloc.clone();
        let mut acc = 0.0;
        for i in 0..32 {
            work[i] = (i + 7) % 16;
            acc += objective.evaluate(&work) - base;
            work[i] = alloc[i];
        }
        acc
    });

    println!("\n== 3. oracle vs predicted matrices (4 cores, 8 threads) ==");
    let m = ablation_matrices();
    let oracle = Objective::new(&m.oracle, Goal::EnergyEfficiency);
    let predicted = Objective::new(&m.predicted, Goal::EnergyEfficiency);
    time("anneal_on_oracle", || ablation_anneal(&oracle));
    time("anneal_on_predicted", || ablation_anneal(&predicted));
    println!(
        "predicted-matrix allocation scores {:.2} % below the oracle one",
        100.0 * prediction_gap(&m)
    );

    println!("\n== 4. SA vs exhaustive (3 cores, 6 threads, 729 allocations) ==");
    let case = known_optimum_case(3, 2, 5);
    let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
    time("exhaustive", || exhaustive_best(&objective).expect("small"));
    let params = AnnealParams::scaled_for(3, 6);
    time("anneal", || anneal(&objective, &[0; 6], params, 9));
}
