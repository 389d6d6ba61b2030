//! `chaos` — fault-injection sweep for the SmartBalance closed loop.
//!
//! Runs the reference chaos scenario (quad heterogeneous platform,
//! long-running mixed synthetic tasks under SmartBalance) fault-free to
//! establish a baseline, then re-runs it under a grid of sensor fault
//! kinds × intensities plus hotplug, throttling and migration-failure
//! cells, and reports how much energy efficiency the degraded loop
//! retains. Every cell runs inside `catch_unwind`: a panicking balancer
//! is itself a failed cell (and a non-zero exit). Results are written
//! to `BENCH_chaos.json` (override with `--json <path>`).
//!
//! Flags:
//!
//! * `--smoke` — CI-sized sweep (fewer epochs, two intensities), for
//!   exercising the pipeline rather than producing stable numbers.
//! * `--max-intensity` — only the worst-case cells (every fault kind at
//!   full strength at once, hotplug churn, certain migration failure);
//!   exits non-zero if anything panics. CI runs this under
//!   `RUST_BACKTRACE=1`.
//! * `--json <path>` — output path for the JSON report.

use std::panic::{catch_unwind, AssertUnwindSafe};

use archsim::{CoreId, FaultClass, FaultKind, FaultPlan, Platform};
use kernelsim::{System, SystemConfig, TraceLevel};
use serde::Serialize;
use smartbalance::{DegradeMode, PredictorSet, SmartBalance, SmartBalanceConfig};
use workloads::SyntheticGenerator;

/// Seed for the scenario's synthetic workload generator.
const WORKLOAD_SEED: u64 = 0xC4405;
/// Seed for every cell's fault harness.
const FAULT_SEED: u64 = 0xFA17_0001;

/// What one cell injects, beyond its `FaultPlan`.
#[derive(Debug, Clone, Default)]
struct CellSetup {
    plan: FaultPlan,
    /// `(core, offline_epoch, online_epoch)` hotplug cycle.
    hotplug: Option<(usize, u64, u64)>,
    /// `(core, duty)` thermal throttle from epoch 0.
    throttle: Option<(usize, f64)>,
    /// Probability that any accepted migration fails in-flight.
    migration_failure: f64,
}

/// Raw observables from one (possibly faulty) run.
struct RunOutcome {
    instructions: u64,
    energy_j: f64,
    duration_s: f64,
    mode_transitions: u64,
    final_mode: DegradeMode,
    offline_rejections: u64,
    transient_rejections: u64,
    rejected_migrations: u64,
    /// Epoch-reports that showed a live task on an offline core.
    offline_placements: u64,
    migrations: u64,
    /// Last scheduler events of the run, rendered compactly.
    event_tail: Vec<String>,
}

/// One cell of the published report.
#[derive(Debug, Clone, Serialize)]
struct CellResult {
    /// Cell label, e.g. `stuck@0.2` or `hotplug`.
    name: String,
    /// Fault intensity in [0, 1] (1.0 for the scenario cells).
    intensity: f64,
    /// Ground-truth energy efficiency, instructions per joule.
    ips_per_watt: f64,
    /// `ips_per_watt / baseline.ips_per_watt`.
    ips_per_watt_retained: f64,
    /// Energy-delay-product ratio vs. the fault-free baseline
    /// (lower is better; 1.0 = no regression).
    edp_ratio: f64,
    /// Degradation-ladder transitions during the run.
    mode_transitions: u64,
    /// Ladder rung at the end of the run.
    final_mode: String,
    /// Migrations rejected because the target core was offline.
    offline_rejections: u64,
    /// Migrations rejected by the transient-failure model.
    transient_rejections: u64,
    /// Migrations rejected for any reason, cumulative over the run.
    rejected_migrations: u64,
    /// Epoch-reports showing a live task on an offline core (must be 0).
    offline_placements: u64,
    /// Migrations actually performed.
    migrations: u64,
    /// Last scheduler events of the run (compact one-line renderings).
    last_events: Vec<String>,
    /// Whether the cell's run panicked (all metrics zeroed).
    panicked: bool,
}

/// The full `BENCH_chaos.json` document.
#[derive(Debug, Clone, Serialize)]
struct ChaosReport {
    /// `true` when produced by a `--smoke` run.
    smoke: bool,
    /// `true` when produced by a `--max-intensity` run.
    max_intensity: bool,
    /// Epochs per cell.
    epochs: u64,
    /// Tasks in the scenario.
    tasks: usize,
    /// Fault-free reference efficiency, instructions per joule.
    baseline_ips_per_watt: f64,
    /// Fault-free reference energy-delay product, J·s.
    baseline_edp: f64,
    /// Every fault cell, in sweep order.
    cells: Vec<CellResult>,
    /// Number of cells that panicked (the exit code is 1 if > 0).
    panics: u64,
}

/// Runs the chaos scenario once under the given fault setup.
fn run_scenario(
    setup: &CellSetup,
    predictors: &PredictorSet,
    epochs: u64,
    tasks: usize,
) -> RunOutcome {
    let platform = Platform::quad_heterogeneous();
    let config = SmartBalanceConfig::default();
    let mut policy = SmartBalance::with_predictors(&platform, config, predictors.clone());
    let mut sys = System::new(platform, SystemConfig::default());
    sys.enable_tracing(TraceLevel::Lifecycle, 64);
    if !setup.plan.is_empty() {
        sys.set_fault_plan(setup.plan.clone(), FAULT_SEED);
    }
    if setup.migration_failure > 0.0 {
        sys.set_migration_failure(setup.migration_failure, FAULT_SEED ^ 0xDEAD);
    }
    if let Some((core, duty)) = setup.throttle {
        sys.set_core_throttle(CoreId(core), duty);
    }
    let mut gen = SyntheticGenerator::new(WORKLOAD_SEED);
    for i in 0..tasks {
        // Long budgets: nothing completes, so every cell simulates the
        // same wall-clock of work demand.
        sys.spawn(gen.profile(format!("c{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }

    let mut offline_placements = 0u64;
    let mut duration_ns = 0u64;
    for epoch in 0..epochs {
        if let Some((core, out_at, in_at)) = setup.hotplug {
            if epoch == out_at {
                sys.set_core_online(CoreId(core), false);
            }
            if epoch == in_at {
                sys.set_core_online(CoreId(core), true);
            }
        }
        let report = sys.run_epoch(&mut policy);
        duration_ns = report.now_ns;
        if let Some((core, out_at, in_at)) = setup.hotplug {
            let down = epoch >= out_at && epoch < in_at;
            if down
                && report
                    .tasks
                    .iter()
                    .any(|t| t.alive && t.core == CoreId(core))
            {
                offline_placements += 1;
            }
        }
    }

    // Cumulative over the whole run (every apply, not just the last
    // surviving `last_applied()` snapshot).
    let stats = sys.stats();
    let totals = stats.migration_totals;
    RunOutcome {
        instructions: stats.total_instructions,
        energy_j: stats.total_energy_j,
        duration_s: duration_ns as f64 / 1e9,
        mode_transitions: policy.mode_transitions(),
        final_mode: policy.mode(),
        offline_rejections: totals.offline_core,
        transient_rejections: totals.transient_failure,
        rejected_migrations: totals.rejected,
        offline_placements,
        migrations: stats.migrations,
        event_tail: sys
            .tracer()
            .events()
            .iter()
            .rev()
            .take(4)
            .rev()
            .map(|e| e.to_string())
            .collect(),
    }
}

/// Ground-truth efficiency of a run, instructions per joule.
fn ips_per_watt(o: &RunOutcome) -> f64 {
    o.instructions as f64 / o.energy_j.max(1e-12)
}

/// Energy-delay product normalized to giga-instructions of progress:
/// `E · T / (I/1e9)²`, so cells that both burn more energy *and* lose
/// throughput are penalized on both axes.
fn edp(o: &RunOutcome) -> f64 {
    let gi = (o.instructions as f64 / 1e9).max(1e-12);
    o.energy_j * o.duration_s / (gi * gi)
}

/// Runs one cell under `catch_unwind` and folds it into a result row.
fn run_cell(
    name: &str,
    intensity: f64,
    setup: CellSetup,
    predictors: &PredictorSet,
    epochs: u64,
    tasks: usize,
    baseline: &RunOutcome,
) -> CellResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_scenario(&setup, predictors, epochs, tasks)
    }));
    match outcome {
        Ok(o) => CellResult {
            name: name.to_owned(),
            intensity,
            ips_per_watt: ips_per_watt(&o),
            ips_per_watt_retained: ips_per_watt(&o) / ips_per_watt(baseline),
            edp_ratio: edp(&o) / edp(baseline),
            mode_transitions: o.mode_transitions,
            final_mode: o.final_mode.name().to_owned(),
            offline_rejections: o.offline_rejections,
            transient_rejections: o.transient_rejections,
            rejected_migrations: o.rejected_migrations,
            offline_placements: o.offline_placements,
            migrations: o.migrations,
            last_events: o.event_tail,
            panicked: false,
        },
        Err(_) => CellResult {
            name: name.to_owned(),
            intensity,
            ips_per_watt: 0.0,
            ips_per_watt_retained: 0.0,
            edp_ratio: f64::INFINITY,
            mode_transitions: 0,
            final_mode: "panicked".to_owned(),
            offline_rejections: 0,
            transient_rejections: 0,
            rejected_migrations: 0,
            offline_placements: 0,
            migrations: 0,
            last_events: Vec::new(),
            panicked: true,
        },
    }
}

/// One injected fault kind at a sweep intensity, applied to all cores
/// from epoch 0.
fn kind_at(kind: &str, intensity: f64) -> FaultKind {
    match kind {
        "stuck" => FaultKind::StuckCounters { prob: intensity },
        "drop" => FaultKind::DroppedSamples { prob: intensity },
        "noise" => FaultKind::Noise { sigma: intensity },
        // Severity grows with intensity: the cap shrinks toward zero.
        // Scaled to bite per-task epoch samples (~4e7 cycles each).
        "saturation" => FaultKind::Saturation {
            cap: ((1.0 - intensity) * 5.0e7 + 1.0e4) as u64,
        },
        "power" => FaultKind::PowerDropout { prob: intensity },
        other => unreachable!("unknown fault kind {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let max_intensity = args.iter().any(|a| a == "--max-intensity");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|p| args.get(p + 1).cloned())
        .unwrap_or_else(|| "BENCH_chaos.json".to_owned());

    let (epochs, tasks) = if smoke || max_intensity {
        (30u64, 12usize)
    } else {
        (120u64, 16usize)
    };
    let intensities: &[f64] = if smoke || max_intensity {
        &[0.2, 0.8]
    } else {
        &[0.1, 0.2, 0.4, 0.8]
    };

    // Train once; every cell reuses the same predictors, so cells
    // differ only in the faults injected.
    let platform = Platform::quad_heterogeneous();
    let config = SmartBalanceConfig::default();
    let predictors = PredictorSet::train(&platform, config.train_corpus, config.train_seed);

    let baseline = run_scenario(&CellSetup::default(), &predictors, epochs, tasks);
    let mut cells = Vec::new();

    if max_intensity {
        // Worst case only: everything at full strength simultaneously,
        // plus hotplug churn and certain migration failure. The point
        // is "never panics", not the retained efficiency.
        let mut plan = FaultPlan::new();
        for kind in ["stuck", "drop", "noise", "power"] {
            plan = plan.inject(0, None, kind_at(kind, 1.0));
        }
        plan = plan.inject(0, None, kind_at("saturation", 1.0));
        cells.push(run_cell(
            "everything@1.0",
            1.0,
            CellSetup {
                plan: plan.clone(),
                hotplug: Some((1, epochs / 4, epochs / 2)),
                throttle: Some((2, 0.3)),
                migration_failure: 1.0,
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
        cells.push(run_cell(
            "everything@1.0-no-hotplug",
            1.0,
            CellSetup {
                plan,
                migration_failure: 1.0,
                ..CellSetup::default()
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
    } else {
        // Fault kind × intensity grid.
        for kind in ["stuck", "drop", "noise", "saturation", "power"] {
            for &intensity in intensities {
                let plan = FaultPlan::new().inject(0, None, kind_at(kind, intensity));
                cells.push(run_cell(
                    &format!("{kind}@{intensity}"),
                    intensity,
                    CellSetup {
                        plan,
                        ..CellSetup::default()
                    },
                    &predictors,
                    epochs,
                    tasks,
                    &baseline,
                ));
            }
        }
        // Kernel-side fault cells.
        cells.push(run_cell(
            "hotplug",
            1.0,
            CellSetup {
                hotplug: Some((1, epochs / 4, 3 * epochs / 4)),
                ..CellSetup::default()
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
        cells.push(run_cell(
            "throttle",
            1.0,
            CellSetup {
                throttle: Some((0, 0.4)),
                ..CellSetup::default()
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
        cells.push(run_cell(
            "migration-failure",
            0.5,
            CellSetup {
                migration_failure: 0.5,
                ..CellSetup::default()
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
        // The issue's acceptance scenario: 20 % stuck counters on all
        // cores plus one core hotplugged out and back mid-run. The
        // balancer must keep ≥ 70 % of the fault-free IPS/Watt.
        let plan = FaultPlan::new()
            .inject(0, None, FaultKind::StuckCounters { prob: 0.2 })
            .clear(epochs.saturating_sub(4), None, FaultClass::Stuck);
        cells.push(run_cell(
            "acceptance",
            0.2,
            CellSetup {
                plan,
                hotplug: Some((3, epochs / 3, 2 * epochs / 3)),
                ..CellSetup::default()
            },
            &predictors,
            epochs,
            tasks,
            &baseline,
        ));
    }

    let panics = cells.iter().filter(|c| c.panicked).count() as u64;
    let report = ChaosReport {
        smoke,
        max_intensity,
        epochs,
        tasks,
        baseline_ips_per_watt: ips_per_watt(&baseline),
        baseline_edp: edp(&baseline),
        cells,
        panics,
    };

    println!("scheduler tracing: level {}", TraceLevel::Lifecycle);
    println!(
        "{:<26} {:>9} {:>9} {:>6} {:>12} {:>8} {:>8} {:>8}",
        "cell", "retained", "edp_x", "modes", "final", "rej_off", "rej_all", "panic"
    );
    for c in &report.cells {
        println!(
            "{:<26} {:>9.3} {:>9.3} {:>6} {:>12} {:>8} {:>8} {:>8}",
            c.name,
            c.ips_per_watt_retained,
            c.edp_ratio,
            c.mode_transitions,
            c.final_mode,
            c.offline_rejections,
            c.rejected_migrations,
            c.panicked
        );
        if c.offline_placements > 0 {
            for line in &c.last_events {
                println!("    {line}");
            }
        }
    }
    println!(
        "baseline: {:.3e} instr/J  |  {} cells, {} panics",
        report.baseline_ips_per_watt,
        report.cells.len(),
        report.panics
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write json report");
    println!("(report written to {json_path})");

    let placements: u64 = report.cells.iter().map(|c| c.offline_placements).sum();
    if placements > 0 {
        eprintln!("ERROR: live tasks observed on offline cores ({placements} epoch-reports)");
        std::process::exit(1);
    }
    if report.panics > 0 {
        eprintln!("ERROR: {} cells panicked", report.panics);
        std::process::exit(1);
    }
}
