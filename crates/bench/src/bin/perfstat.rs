//! `perfstat` — hot-loop performance counter for the simulation engine.
//!
//! Runs the reference epoch-loop scenario (quad heterogeneous platform,
//! 24 mixed batch/interactive multi-phase tasks, 2000 epochs) twice —
//! with the memoized estimate cache enabled and disabled — and reports
//! slices/sec, epochs/sec and the estimate-cache hit statistics for
//! each round, plus the wall-clock of a small [`ExperimentSuite`] grid.
//! Results are written to `BENCH_hotpath.json` (override with
//! `--json <path>`).
//!
//! The rounds double as a parity gate: both must commit the same
//! instructions, dispatch the same slice count, and land bit-identical
//! total energy (`f64::to_bits`). A divergence aborts the process, so
//! the CI smoke run fails if the memo drifts from the uncached model.
//!
//! Report schema v3: a `cached` and an `uncached` round (each with an
//! `energy_bits` field) and `speedup` (estimate memoization,
//! uncached/cached).
//!
//! Flags:
//!
//! * `--smoke` — CI-sized grid (200 epochs, 12 tasks, tiny suite), for
//!   exercising the pipeline rather than producing stable numbers.
//! * `--json <path>` — output path for the JSON report.

use std::time::Instant;

use archsim::Platform;
use kernelsim::{NullBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::{ExperimentSpec, ExperimentSuite, Policy};
use workloads::{ImbConfig, Level, SyntheticGenerator};

/// Seed for the reference scenario's synthetic workload generator.
const SEED: u64 = 0xB007;

/// One measured run of the epoch loop.
#[derive(Debug, Clone, Serialize)]
struct RoundStats {
    /// Whether the estimate cache was enabled.
    cached: bool,
    /// Wall-clock of the measured round, seconds.
    wall_s: f64,
    /// Epochs simulated.
    epochs: u64,
    /// Epoch throughput, epochs per wall-clock second.
    epochs_per_s: f64,
    /// Scheduling slices dispatched.
    slices: u64,
    /// Slice throughput, slices per wall-clock second.
    slices_per_s: f64,
    /// Instructions committed (identical across rounds by design).
    instructions: u64,
    /// `f64::to_bits` of the total platform energy — the bit-parity
    /// fingerprint every round must agree on.
    energy_bits: u64,
    /// Estimate-cache hits during the round.
    cache_hits: u64,
    /// Estimate-cache misses during the round.
    cache_misses: u64,
    /// `hits / (hits + misses)`.
    cache_hit_rate: f64,
}

/// The full `BENCH_hotpath.json` document (schema v3).
#[derive(Debug, Clone, Serialize)]
struct HotpathReport {
    /// Report schema version.
    schema: u32,
    /// `true` when produced by a `--smoke` run (numbers not comparable).
    smoke: bool,
    /// Tasks in the epoch-loop scenario.
    tasks: usize,
    /// Epochs per round in the epoch-loop scenario.
    epochs: u64,
    /// Estimate cache enabled.
    cached: RoundStats,
    /// Estimate cache disabled.
    uncached: RoundStats,
    /// `uncached.wall_s / cached.wall_s` — the memoization speedup.
    speedup: f64,
    /// Jobs in the suite wall-clock grid.
    suite_jobs: usize,
    /// Workers the suite ran on.
    suite_workers: usize,
    /// Suite wall-clock, seconds.
    suite_wall_s: f64,
    /// Suite throughput, jobs per second.
    suite_jobs_per_s: f64,
}

/// Runs one full round of the reference scenario and measures it.
fn run_round(cached: bool, epochs: u64, tasks: usize) -> RoundStats {
    let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
    sys.set_estimate_caching(cached);
    let mut gen = SyntheticGenerator::new(SEED);
    for i in 0..tasks {
        let p = gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0);
        sys.spawn(p);
    }
    let mut nb = NullBalancer;
    let t0 = Instant::now();
    for _ in 0..epochs {
        sys.run_epoch(&mut nb);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let slices = sys.total_slices();
    let cache = sys.estimate_cache();
    RoundStats {
        cached,
        wall_s,
        epochs,
        epochs_per_s: epochs as f64 / wall_s,
        slices,
        slices_per_s: slices as f64 / wall_s,
        instructions: sys.stats().total_instructions,
        energy_bits: sys.sensors().total_energy_j().to_bits(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_hit_rate: cache.hit_rate(),
    }
}

/// Asserts the parity contract between the cached and uncached rounds:
/// identical committed work and bit-identical energy. Process-aborting
/// on purpose — this is the CI divergence gate.
fn assert_parity(cached: &RoundStats, uncached: &RoundStats) {
    assert_eq!(
        cached.instructions, uncached.instructions,
        "instruction divergence between cached and uncached rounds"
    );
    assert_eq!(
        cached.slices, uncached.slices,
        "slice-count divergence between cached and uncached rounds"
    );
    assert_eq!(
        cached.energy_bits, uncached.energy_bits,
        "energy bit divergence between cached and uncached rounds"
    );
}

/// Times a small experiment-suite grid: two IMB configurations,
/// parallelized to 8 threads each, under two policies.
fn run_suite(scale: f64) -> (usize, usize, f64, f64) {
    let mut suite = ExperimentSuite::new();
    for (name, cfg) in [
        ("hi-lo", ImbConfig::new(Level::High, Level::Low)),
        ("med-lo", ImbConfig::new(Level::Medium, Level::Low)),
    ] {
        let spec = ExperimentSpec::new(
            name,
            Platform::quad_heterogeneous(),
            ExperimentSpec::parallelize(&cfg.profile().scaled(scale), 8),
        );
        for policy in [Policy::None, Policy::Vanilla] {
            suite.push(spec.clone(), policy);
        }
    }
    let report = suite.run();
    (
        report.jobs.len(),
        report.workers,
        report.wall_s,
        report.throughput_jobs_per_s(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|p| args.get(p + 1).cloned())
        .unwrap_or_else(|| "BENCH_hotpath.json".to_owned());

    let (epochs, tasks, suite_scale) = if smoke {
        (200u64, 12usize, 1.0)
    } else {
        (2000u64, 24usize, 400.0)
    };

    // Warm-up round: page in code, warm the allocator.
    run_round(true, epochs.min(200), tasks);

    let cached = run_round(true, epochs, tasks);
    let uncached = run_round(false, epochs, tasks);
    // Memoization must not change simulated execution.
    assert_parity(&cached, &uncached);

    let (suite_jobs, suite_workers, suite_wall_s, suite_jobs_per_s) = run_suite(suite_scale);

    let report = HotpathReport {
        schema: 3,
        smoke,
        tasks,
        epochs,
        speedup: uncached.wall_s / cached.wall_s,
        cached,
        uncached,
        suite_jobs,
        suite_workers,
        suite_wall_s,
        suite_jobs_per_s,
    };

    println!(
        "{:<10} {:>9} {:>12} {:>14} {:>10} {:>9}",
        "round", "wall_s", "epochs/s", "slices/s", "hit_rate", "slices"
    );
    for r in [&report.cached, &report.uncached] {
        println!(
            "{:<10} {:>9.4} {:>12.1} {:>14.1} {:>10.4} {:>9}",
            if r.cached { "cached" } else { "uncached" },
            r.wall_s,
            r.epochs_per_s,
            r.slices_per_s,
            r.cache_hit_rate,
            r.slices
        );
    }
    println!(
        "speedup: {:.2}x memoization  |  suite: {} jobs on {} workers in {:.2} s ({:.2} jobs/s)",
        report.speedup,
        report.suite_jobs,
        report.suite_workers,
        report.suite_wall_s,
        report.suite_jobs_per_s
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write json report");
    println!("(report written to {json_path})");
}
