//! Regenerates paper Fig. 7: (a) the average runtime of each
//! SmartBalance phase on the quad-core platform and (b) scalability of
//! the optimizer as cores/threads grow (2→128 cores, 4→256 threads).
//!
//! The paper's claim: on typical embedded platforms (2–8 cores) the
//! total overhead is negligible relative to the 60 ms epoch (<1 %);
//! larger configurations are kept in budget by capping the iteration
//! count (Fig. 8(a)).
//!
//! Usage: `fig7 [--json out.json]`
//!
//! Unlike `paper`, this binary does NOT fan out over the experiment
//! suite: every number here is a wall-clock phase timing, and
//! concurrent workers would contend for cores and inflate them.

use std::time::Instant;

use archsim::Platform;
use serde::Serialize;
use smartbalance::{anneal, known_optimum_case, AnnealParams, Goal, Objective};
use smartbalance_bench::{collect_phase_timings, maybe_dump_json, reject_unknown_args};

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_args("fig7", args.get(1..).unwrap_or_default(), "--json", "");

    // ---- (a) per-phase overhead on the quad-core platform ----------
    let platform = Platform::quad_heterogeneous();
    let timings = collect_phase_timings(&platform, 8, 24);
    let n = timings.len().max(1) as f64;
    let sense: f64 = timings.iter().map(|t| t.sense_s).sum::<f64>() / n * 1e6;
    let predict: f64 = timings.iter().map(|t| t.predict_s).sum::<f64>() / n * 1e6;
    let optimize: f64 = timings.iter().map(|t| t.optimize_s).sum::<f64>() / n * 1e6;
    let migs: f64 = timings.iter().map(|t| t.migrations as f64).sum::<f64>() / n;
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

    // ---- (b) scalability sweep -------------------------------------
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
    maybe_dump_json(&args, &rows);
}
