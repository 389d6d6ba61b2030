//! `timings` — the evaluation's wall-clock numbers, serial on purpose
//! (concurrent work would inflate them), in this order:
//!
//! - Fig. 7(a): the mean host time per epoch of each stage of the real
//!   `SmartBalance` on the quad-core platform, from the
//!   `sb_stage_host_ns_total` series a host clock on its hub records,
//!   plus the modeled migration cost;
//! - Fig. 7(b): the optimizer's scalability, 2→128 cores with twice as
//!   many threads;
//! - ablations 1–5 of DESIGN.md "Design choices called out for
//!   ablation", each the mean wall-clock time per iteration.
//!
//! The paper's claim: on 2–8 cores the overhead is negligible next to
//! the 60 ms epoch (<1 %); larger platforms stay in budget because the
//! iteration count is capped (Fig. 8(a)).
//!
//! Usage: `timings [--json out.json]`; `--json` writes Fig. 7(b)'s rows.

use std::hint::black_box;
use std::time::{Duration, Instant};

use archsim::{run_slice, CoreTypeId, Platform};
use kernelsim::TaskId;
use serde::Serialize;
use smartbalance::fixed::{fx_exp_neg, Fx, Randi, FRAC_BITS, ONE};
use smartbalance::objective::IncrementalObjective;
use smartbalance::predict::PredictorSet;
use smartbalance::sense::features_from_counters;
use smartbalance::{
    anneal, exhaustive_best, known_optimum_case, run_experiment_with, splitmix64, AnnealParams,
    CharacterizationMatrices, ExperimentSpec, Goal, Objective, SmartBalance, SmartBalanceConfig,
};
use smartbalance_bench::{
    ablation_anneal, ablation_matrices, maybe_dump_json, prediction_gap, reject_unknown_args,
};
use telemetry::registry::labeled;
use workloads::SyntheticGenerator;

#[derive(Debug, Serialize)]
struct ScaleRow {
    cores: usize,
    threads: usize,
    max_iter: u32,
    optimize_us: f64,
    migration_us: f64,
    total_us: f64,
    epoch_pct: f64,
}

/// Modeled per-thread migration cost (kernelsim's default), µs.
const MIGRATION_COST_US: f64 = 50.0;

/// Epoch length the percentages are reported against, µs (60 ms).
const EPOCH_US: f64 = 60_000.0;

/// Inputs per timed iteration of ablation 1.
const SCATTERED: usize = 4096;

/// Signatures per timed iteration of ablation 5.
const SIGNATURES: usize = 2000;

/// Fig. 7(a): the default `SmartBalance` balances eight synthetic
/// threads of three phases (every third interactive, none exits) on
/// the quad platform for 24 epochs, with a host clock on its hub.
fn fig7a() {
    let platform = Platform::quad_heterogeneous();
    let mut gen = SyntheticGenerator::new(42);
    let threads = (0..8).map(|i| gen.profile(format!("t{i}"), 3, u64::MAX / 2, i % 3 == 0));
    let spec = ExperimentSpec::new("fig7a", platform.clone(), threads.collect());
    let hub = telemetry::shared();
    let origin = Instant::now();
    hub.borrow_mut()
        .set_clock(move || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let mut policy = SmartBalance::new(&platform);
    let run = run_experiment_with(&spec.with_max_epochs(24), &mut policy, Some(&hub));

    let hub = hub.borrow();
    let per_epoch = |key: &str| hub.registry().counter(key) as f64 / run.epochs as f64;
    let stage_us =
        |stage: &str| per_epoch(&labeled("sb_stage_host_ns_total", &[("stage", stage)])) / 1e3;
    let sense = stage_us("sense");
    let predict = stage_us("predict");
    let optimize = stage_us("anneal") + stage_us("exchange");
    let migs = per_epoch("sb_alloc_requested_total");
    let migrate = migs * MIGRATION_COST_US;
    let total = sense + predict + optimize + migrate;
    println!("Fig 7(a): average per-epoch overhead, quad-core HMP, 8 threads");
    println!("  sense:    {sense:>9.1} us");
    println!("  predict:  {predict:>9.1} us");
    println!("  optimize: {optimize:>9.1} us");
    println!("  migrate:  {migrate:>9.1} us (modeled, {migs:.1} migrations avg)");
    println!(
        "  total:    {total:>9.1} us = {:.2} % of the 60 ms epoch (paper: <1 %)",
        100.0 * total / EPOCH_US
    );
}

/// Fig. 7(b): Algorithm 1 on constructed instances of 2–128 cores with
/// twice as many threads; returns the rows `--json` writes.
fn fig7b() -> Vec<ScaleRow> {
    println!("\nFig 7(b): scalability (threads = 2x cores, 50 % migrated assumed)");
    println!(
        "{:>6} {:>8} {:>9} {:>12} {:>12} {:>12} {:>9}",
        "cores", "threads", "max_iter", "optimize_us", "migrate_us", "total_us", "% epoch"
    );
    let mut rows = Vec::new();
    for &cores in &[2usize, 4, 8, 16, 32, 64, 128] {
        let threads = 2 * cores;
        let case = known_optimum_case(cores, 2, cores as u64);
        let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        let params = AnnealParams::scaled_for(cores, threads);
        let initial = vec![0usize; threads];
        // Warm up once, then time a few repetitions.
        let _ = anneal(&objective, &initial, params, 1);
        let reps = 5;
        let t0 = Instant::now();
        for r in 0..reps {
            let _ = anneal(&objective, &initial, params, r + 2);
        }
        let optimize_us = t0.elapsed().as_secs_f64() / reps as f64 * 1e6;
        // The paper assumes 50 % of threads migrate.
        let migration_us = threads as f64 * 0.5 * MIGRATION_COST_US;
        let total_us = optimize_us + migration_us;
        let epoch_pct = 100.0 * total_us / EPOCH_US;
        println!(
            "{cores:>6} {threads:>8} {:>9} {optimize_us:>12.1} {migration_us:>12.1} {total_us:>12.1} {epoch_pct:>9.2}",
            params.max_iter
        );
        rows.push(ScaleRow {
            cores,
            threads,
            max_iter: params.max_iter,
            optimize_us,
            migration_us,
            total_us,
            epoch_pct,
        });
    }
    println!("(paper: optimization + migration dominate; quad-core total <1 % of epoch)");
    rows
}

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

/// Ablations 1–5, each line the mean wall-clock time per iteration.
fn ablations() {
    println!("\n== 1. fixed point ({SCATTERED} calls per iteration) ==");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args("timings", &args, "--json", "");
    fig7a();
    let rows = fig7b();
    maybe_dump_json(&args, &rows);
    ablations();
}
