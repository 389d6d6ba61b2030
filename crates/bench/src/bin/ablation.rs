//! `ablation` — timings of the design choices in the paper's Section
//! 4.3 and DESIGN.md's ablation list:
//!
//! 1. fixed-point vs floating-point `e^{-x}` in the annealer's hot
//!    path, and the xorshift `randi`;
//! 2. incremental vs full objective evaluation (the paper's
//!    "computations induced by the latest swap");
//! 3. Algorithm 1 on oracle vs Θ-predicted matrices, plus the quality
//!    gap between the two allocations;
//! 4. exhaustive enumeration vs the annealer at 3 cores × 6 threads;
//! 5. the predict stage: one `predict_ipc_by_type` row (Eq. 8 for
//!    every destination type) and one offline `PredictorSet::train`.
//!
//! Each line is the mean wall-clock time per iteration. Serial on
//! purpose: concurrent work would inflate the timings. Takes no
//! arguments.

use std::hint::black_box;
use std::time::{Duration, Instant};

use archsim::{run_slice, CoreTypeId, Platform};
use kernelsim::TaskId;
use smartbalance::fixed::{fx_exp_neg, Fx, Randi, FRAC_BITS, ONE};
use smartbalance::objective::IncrementalObjective;
use smartbalance::predict::PredictorSet;
use smartbalance::sense::features_from_counters;
use smartbalance::{
    anneal, exhaustive_best, known_optimum_case, splitmix64, AnnealParams,
    CharacterizationMatrices, Goal, Objective, SmartBalanceConfig,
};
use smartbalance_bench::{ablation_anneal, ablation_matrices, prediction_gap, reject_unknown_args};
use workloads::SyntheticGenerator;

/// Inputs per timed iteration of item 1.
const SCATTERED: usize = 4096;

/// Signatures per timed iteration of item 5.
const SIGNATURES: usize = 2000;

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args("ablation", &args, "", "");
    println!("== 1. fixed point ({SCATTERED} calls per iteration) ==");
    // Raw inputs scattered over the annealer's domain [0, 12·2¹⁶] by
    // splitmix64, so the branch predictor cannot learn them.
    let domain = (12 << FRAC_BITS) + 1;
    let raws: Vec<i64> = (0..SCATTERED)
        .map(|k| (splitmix64(k as u64) % domain) as i64)
        .collect();
    time("fx_exp_neg", || {
        raws.iter()
            .fold(0i64, |acc, &raw| acc.wrapping_add(fx_exp_neg(Fx(raw)).0))
    });
    let xs: Vec<f64> = raws.iter().map(|&raw| raw as f64 / ONE as f64).collect();
    time("f64_exp", || xs.iter().map(|&x| (-x).exp()).sum::<f64>());
    let mut r = Randi::new(7);
    time("randi_xorshift", || {
        (0..SCATTERED).fold(0u32, |acc, _| acc.wrapping_add(r.randi()))
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

    println!("\n== 5. predict stage (quad platform, default corpus) ==");
    // Synthetic workloads, each sampled for 10 ms on a source core type
    // that splitmix64 scatters, so rows alternate source types the way
    // a rebalance's misses do.
    let platform = Platform::quad_heterogeneous();
    let corpus = SmartBalanceConfig::default().train_corpus;
    let predictors = PredictorSet::train(&platform, corpus, 42);
    let q = platform.num_types() as u64;
    let signatures: Vec<_> = SyntheticGenerator::new(11)
        .corpus(SIGNATURES)
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let src = CoreTypeId((splitmix64(k as u64) % q) as usize);
            let cfg = platform.type_config(src);
            let slice = run_slice(w, cfg, 10_000_000);
            (features_from_counters(&slice.counters, cfg.freq_hz), src)
        })
        .collect();
    println!("predict_ipc_by_type: {SIGNATURES} rows per iteration");
    time("predict_ipc_by_type", || {
        signatures
            .iter()
            .map(|(f, src)| predictors.predict_ipc_by_type(f, *src)[0])
            .sum::<f64>()
    });
    time("train", || PredictorSet::train(&platform, corpus, 42));
}
