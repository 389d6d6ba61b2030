//! `obsreport` — controller-health observability report for the closed
//! loop.
//!
//! Runs the reference SmartBalance scenario with the telemetry hub
//! attached and emits the full observability bundle:
//!
//! * `BENCH_obs.json` — controller-health metrics CI tracks as a
//!   trajectory (mean |prediction error|, anneal convergence rate,
//!   degrade-epoch fraction, migration churn) plus an observed
//!   experiment-suite grid. Every field is simulation-deterministic:
//!   reruns with the same seeds produce byte-identical JSON.
//! * `obs_epochs.jsonl` — one `EpochObs` span per line.
//! * `obs_trace.json` — Chrome `trace_events` JSON (epoch spans +
//!   scheduler events), loadable in Perfetto / `chrome://tracing`.
//! * `obs_metrics.prom` — Prometheus text snapshot of the registry.
//!
//! Flags:
//!
//! * `--smoke` — CI-sized run (60 epochs, 8 tasks, small suite).
//! * `--json <path>` / `--jsonl <path>` / `--trace <path>` /
//!   `--prom <path>` — output path overrides.

use archsim::Platform;
use kernelsim::{LoadBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::{ExperimentSpec, ExperimentSuite, ObsSummary, Policy, SmartBalance};
use smartbalance_bench::{flag_value, reject_unknown_args, write_report};
use telemetry::{StageProfile, TraceLevel};
use workloads::SyntheticGenerator;

/// Seed for the reference scenario's synthetic workload generator.
const SEED: u64 = 0x0B5E;

/// One observed suite job's controller-health row.
#[derive(Debug, Clone, Serialize)]
struct SuiteObsRow {
    /// Experiment label.
    experiment: String,
    /// Policy name the job ran under.
    policy: String,
    /// Epochs the job executed.
    epochs: u64,
    /// The job's aggregated telemetry summary.
    summary: ObsSummary,
}

/// The full `BENCH_obs.json` document. Deliberately contains no
/// wall-clock fields: the whole report is a pure function of the seeds.
#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    /// Report schema version. v2 adds the rebalance stage profile.
    schema: u32,
    /// `true` when produced by a `--smoke` run.
    smoke: bool,
    /// Epochs in the reference scenario.
    epochs: u64,
    /// Tasks in the reference scenario.
    tasks: usize,
    /// Scheduler-trace verbosity the scenario ran with.
    trace_level: String,
    /// Controller-health summary of the reference scenario.
    summary: ObsSummary,
    /// Scheduler events retained in the trace ring.
    trace_events: usize,
    /// Scheduler events overwritten once the ring filled.
    trace_dropped: u64,
    /// Per-stage rebalance pipeline profile (sense → predict → anneal
    /// → exchange → apply), in canonical stage order. Deterministic
    /// invocation/work counters only — never wall-clock.
    stages: Vec<StageProfile>,
    /// Observed suite grid, in job order.
    suite: Vec<SuiteObsRow>,
}

/// Everything the observed reference scenario produces.
struct ScenarioOutput {
    summary: ObsSummary,
    stages: Vec<StageProfile>,
    jsonl: String,
    prometheus: String,
    chrome_json: String,
    trace_events: usize,
    trace_dropped: u64,
    trace_level: TraceLevel,
    event_tail: Vec<String>,
}

/// Runs the reference closed-loop scenario (SmartBalance on the quad
/// heterogeneous platform) with a hub attached that also records
/// every scheduler event.
fn run_observed(epochs: u64, tasks: usize, trace_capacity: usize) -> ScenarioOutput {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::new(&platform);
    let mut sys = System::new(platform, SystemConfig::default());
    let hub = telemetry::shared();
    let trace_level = TraceLevel::Full;
    hub.borrow_mut().set_trace(trace_level, trace_capacity);
    sys.set_telemetry(hub.clone());
    policy.attach_telemetry(&hub);
    let mut gen = SyntheticGenerator::new(SEED);
    for i in 0..tasks {
        sys.spawn(gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    for _ in 0..epochs {
        sys.run_epoch(&mut policy);
    }

    let hub = hub.borrow();
    let events = hub.events();
    let tail = events
        .iter()
        .rev()
        .take(8)
        .rev()
        .map(|e| e.to_string())
        .collect();
    ScenarioOutput {
        summary: hub.summary(),
        stages: hub.stage_profile(),
        jsonl: hub.jsonl(),
        prometheus: hub.registry().prometheus_text(),
        // The loop's epoch spans first, then the scheduler events —
        // Perfetto orders by timestamp internally.
        chrome_json: telemetry::chrome_trace_json(&hub.chrome_events()),
        trace_events: events.len(),
        trace_dropped: hub.dropped_events(),
        trace_level,
        event_tail: tail,
    }
}

/// Runs the observed suite grid: two synthetic experiments, each under
/// Vanilla and SmartBalance, all jobs with telemetry attached.
fn run_suite(max_epochs: u64) -> Vec<SuiteObsRow> {
    let mut gen = SyntheticGenerator::new(0x5EED);
    let mut suite = ExperimentSuite::new();
    for name in ["mix-a", "mix-b"] {
        let profiles = (0..4)
            .map(|i| gen.profile(format!("{name}{i}"), 3, 60_000_000, i % 2 == 0))
            .collect();
        let spec = ExperimentSpec::new(name, Platform::quad_heterogeneous(), profiles)
            .with_max_epochs(max_epochs);
        suite.push_observed(spec.clone(), Policy::Vanilla);
        suite.push_observed(spec, Policy::Smart);
    }
    let report = suite.run();
    report
        .jobs
        .iter()
        .map(|j| SuiteObsRow {
            experiment: j.result.experiment.clone(),
            policy: j.result.policy.clone(),
            epochs: j.result.epochs,
            summary: j
                .obs
                .as_ref()
                .map(|o| o.summary.clone())
                .unwrap_or_default(),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args(
        "obsreport",
        &args,
        "--json --jsonl --trace --prom",
        "--smoke",
    );
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = flag_value(&args, "--json").unwrap_or("BENCH_obs.json");
    let jsonl_path = flag_value(&args, "--jsonl").unwrap_or("obs_epochs.jsonl");
    let trace_path = flag_value(&args, "--trace").unwrap_or("obs_trace.json");
    let prom_path = flag_value(&args, "--prom").unwrap_or("obs_metrics.prom");

    let (epochs, tasks, trace_capacity, suite_epochs) = if smoke {
        (60u64, 8usize, 4_000usize, 120u64)
    } else {
        (400, 16, 20_000, 400)
    };

    let scenario = run_observed(epochs, tasks, trace_capacity);
    let suite = run_suite(suite_epochs);

    let report = ObsReport {
        schema: 2,
        smoke,
        epochs,
        tasks,
        trace_level: scenario.trace_level.to_string(),
        summary: scenario.summary,
        trace_events: scenario.trace_events,
        trace_dropped: scenario.trace_dropped,
        stages: scenario.stages,
        suite,
    };

    let s = &report.summary;
    println!(
        "closed-loop observability — {} epochs, {} tasks",
        epochs, tasks
    );
    println!(
        "  prediction audit : {} samples, mean |err| ips {:.4} / power {:.4}",
        s.prediction_samples, s.mean_abs_ips_error, s.mean_abs_power_error
    );
    println!(
        "  annealer         : {} epochs, convergence rate {:.3}",
        s.anneal_epochs, s.anneal_convergence_rate
    );
    println!(
        "  degrade ladder   : {} degraded epochs (fraction {:.3}), {} transitions",
        s.degrade_epochs, s.degrade_epoch_fraction, s.mode_transitions
    );
    println!(
        "  migrations       : {} performed, {} rejected | cache hit rate {:.4}",
        s.migrations, s.rejected_migrations, s.cache_hit_rate
    );
    println!(
        "  trace            : level {}, {} events retained, {} dropped",
        report.trace_level, report.trace_events, report.trace_dropped
    );
    for stage in &report.stages {
        println!(
            "  stage {:<10} : {:>6} invocations, {:>12} work units",
            stage.stage, stage.invocations, stage.work
        );
    }
    for line in &scenario.event_tail {
        println!("    {line}");
    }
    for row in &report.suite {
        println!(
            "  suite {:<8} {:<12} {:>4} epochs, {} samples, mean |ips err| {:.4}",
            row.experiment,
            row.policy,
            row.epochs,
            row.summary.prediction_samples,
            row.summary.mean_abs_ips_error
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    write_report(json_path, json);
    write_report(jsonl_path, &scenario.jsonl);
    write_report(trace_path, &scenario.chrome_json);
    write_report(prom_path, &scenario.prometheus);
    println!("(reports written to {json_path}, {jsonl_path}, {trace_path}, {prom_path})");
}
