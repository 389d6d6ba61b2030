//! `campaign` — crash-safe resumable campaign sweep over the paper's
//! evaluation grid.
//!
//! Expands a (benchmark × parallelism × policy) grid into
//! content-addressed cells, runs them through the `campaign` crate's
//! checkpointing retry/quarantine runner, and writes
//! `BENCH_campaign.json` (override with `--json <path>`). The grid
//! deliberately includes one cell that can never succeed — IKS on the
//! 4-type quad platform, which asserts a paired big.LITTLE — so every
//! report also demonstrates the quarantine path end to end.
//!
//! A campaign killed at any point (SIGKILL included) is resumed by
//! re-running the same command with `--resume`: completed cells replay
//! from the checkpoint journal and the canonicalized report comes out
//! byte-identical to an uninterrupted run. CI drills exactly that.
//!
//! Flags:
//!
//! * `--smoke` — CI-sized grid (fewer cells, fewer epochs).
//! * `--resume` — keep the existing checkpoint journal (default wipes
//!   it for a fresh campaign).
//! * `--json <path>` — full report path (`BENCH_campaign.json`).
//! * `--canonical <path>` — also write the canonicalized report, the
//!   file CI byte-compares across kill/resume and across worker
//!   counts and flush cadences.
//! * `--checkpoint <path>` — journal path
//!   (`campaign_checkpoint.jsonl`).
//! * `--flush-every <n>` — checkpoint after every `n` resolved cells
//!   (default 4); workers keep running during a flush.
//! * `--max-cells <n>` — stop (as if killed) after `n` cells this run.
//! * `--stop-file <path>` — graceful-shutdown trigger.
//! * `--workers <n>` — worker threads (default: suite default).
//! * `--scale <f>` / `--epochs <n>` — workload scale and epoch cap
//!   overrides; CI uses them to make the kill-drill target slow enough
//!   that SIGKILL reliably lands mid-flight.
//! * `--metrics-addr <addr>` — serve `GET /metrics`, `GET /progress`
//!   and `GET /healthz` on `addr` (e.g. `127.0.0.1:9464`, or port `0`
//!   for an ephemeral port) while the campaign runs. The endpoint is
//!   read-only: canonicalized reports are byte-identical with it on or
//!   off.
//! * `--metrics-addr-file <path>` — write the bound address (after
//!   `:0` resolution) to `path`, for scripts that need to scrape an
//!   ephemeral port. Needs `--metrics-addr`.
//!
//! Any other argument is refused before anything runs, and so are
//! `--metrics-addr-file` without `--metrics-addr` and a `--json`,
//! `--canonical` or `--metrics-addr-file` path that could not be
//! written: the checks run before the first cell, and leave the files
//! as they are.

use campaign::{Campaign, CampaignConfig, CampaignJob, CampaignReport, CheckpointJournal};

use archsim::Platform;
use serde::Serialize;
use smartbalance::{ExperimentSpec, Policy};
use smartbalance_bench::{
    ensure_writable, flag_value, parse_flag, reject_unknown_args, write_report,
};
use workloads::parsec;

/// What `BENCH_campaign.json` contains.
#[derive(Serialize)]
struct BenchReport {
    /// Report schema (mirrors the campaign crate's schema version).
    schema: u32,
    /// Whether this was a `--smoke` run.
    smoke: bool,
    /// Grid shape summary, e.g. `2 benchmarks x 2 threads x 3 policies`.
    grid: String,
    /// The campaign outcome (completed + poisoned cells, retries).
    report: CampaignReport,
    /// Campaign lifecycle counters in Prometheus exposition format.
    prometheus: String,
}

fn build_grid(smoke: bool, scale: Option<f64>, epochs: Option<u64>) -> Vec<CampaignJob> {
    let scale = scale.unwrap_or(if smoke { 0.01 } else { 0.05 });
    let max_epochs = epochs.unwrap_or(if smoke { 150 } else { 1_500 });
    let benchmarks = if smoke {
        vec![("blackscholes", parsec::blackscholes())]
    } else {
        vec![
            ("blackscholes", parsec::blackscholes()),
            ("swaptions", parsec::swaptions()),
            ("bodytrack", parsec::bodytrack()),
        ]
    };
    let threads: &[usize] = if smoke { &[2] } else { &[2, 4] };
    // GTS/IKS assert a paired big.LITTLE platform and would quarantine
    // on the quad; only IKS is included, deliberately, as the
    // designated poisoned cell below.
    let policies = [Policy::None, Policy::Vanilla, Policy::Smart];

    let platform = Platform::quad_heterogeneous();
    let mut jobs = Vec::new();
    for (name, profile) in &benchmarks {
        for &t in threads {
            let spec = ExperimentSpec::new(
                format!("{name}-{t}t"),
                platform.clone(),
                ExperimentSpec::parallelize(&profile.scaled(scale), t),
            )
            .with_max_epochs(max_epochs);
            for policy in policies {
                let index = jobs.len();
                jobs.push(CampaignJob::new(index, spec.clone(), policy));
            }
        }
    }
    // The designated poisoned cell: IKS asserts a paired big.LITTLE
    // platform and panics deterministically on the 4-type quad. It is
    // retried, quarantined, and the campaign completes around it.
    let index = jobs.len();
    let poison_spec = ExperimentSpec::new(
        "iks-on-quad (expected quarantine)",
        platform,
        ExperimentSpec::parallelize(&parsec::blackscholes().scaled(scale), 2),
    )
    .with_max_epochs(max_epochs);
    jobs.push(CampaignJob::new(index, poison_spec, Policy::Iks));
    jobs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_args(
        "campaign",
        &args,
        "--json --canonical --checkpoint --flush-every --max-cells --stop-file --workers --scale \
         --epochs --metrics-addr --metrics-addr-file",
        "--smoke --resume",
    );
    let smoke = args.iter().any(|a| a == "--smoke");
    let resume = args.iter().any(|a| a == "--resume");
    let json_path = flag_value(&args, "--json").unwrap_or("BENCH_campaign.json");
    let canonical_path = flag_value(&args, "--canonical");
    let checkpoint_path = flag_value(&args, "--checkpoint").unwrap_or("campaign_checkpoint.jsonl");
    let flush_every = parse_flag(&args, "--flush-every").unwrap_or(4);
    let max_cells = parse_flag(&args, "--max-cells");
    let stop_file = flag_value(&args, "--stop-file").map(Into::into);
    let workers = parse_flag(&args, "--workers").unwrap_or(0);
    let scale = parse_flag(&args, "--scale");
    let epochs = parse_flag(&args, "--epochs");
    let metrics_addr = flag_value(&args, "--metrics-addr");
    let metrics_addr_file = flag_value(&args, "--metrics-addr-file");
    // A script waiting for the address file must fail now, not time out.
    assert!(
        metrics_addr.is_some() || metrics_addr_file.is_none(),
        "--metrics-addr-file needs --metrics-addr: no endpoint, so no address to write"
    );
    // The reports are written after the last cell; an unwritable path
    // must fail before the first one.
    [Some(json_path), canonical_path, metrics_addr_file]
        .into_iter()
        .flatten()
        .for_each(ensure_writable);

    if !resume {
        let _ = std::fs::remove_file(checkpoint_path);
    }
    let journal = match CheckpointJournal::load(checkpoint_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("campaign: cannot open checkpoint {checkpoint_path}: {e}");
            std::process::exit(1);
        }
    };
    if resume && !journal.is_empty() {
        eprintln!(
            "campaign: resuming from {} checkpointed cells in {checkpoint_path}",
            journal.len()
        );
    }

    let jobs = build_grid(smoke, scale, epochs);
    let grid = format!("{} cells (incl. 1 designated poisoned cell)", jobs.len());
    let config = CampaignConfig {
        flush_every,
        workers,
        stop_file,
        max_cells_this_run: max_cells,
        max_retries: 2,
        ..CampaignConfig::default()
    };

    let hub = telemetry::shared();
    let mut campaign = Campaign::new(jobs, config, journal);
    campaign.attach_telemetry(hub.clone());

    // The live observability plane: the runner publishes snapshots
    // into the mailbox; obsd serves them from a detached thread. The
    // server holds only Arc'd snapshots, so the campaign never blocks
    // on a scraper.
    let live_server = metrics_addr.map(|addr| {
        let mailbox = std::sync::Arc::new(telemetry::SnapshotCell::fresh());
        let server = match obsd::serve(std::sync::Arc::clone(&mailbox), addr) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("campaign: cannot bind metrics endpoint {addr}: {e}");
                std::process::exit(1);
            }
        };
        eprintln!("campaign: live endpoint on http://{}", server.bound_addr());
        if let Some(path) = metrics_addr_file {
            write_report(path, server.bound_addr().to_string());
        }
        campaign.publish_snapshots(mailbox);
        server
    });
    let report = match campaign.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: checkpoint flush failed: {e}");
            std::process::exit(1);
        }
    };

    eprintln!(
        "campaign: {} cells — {} completed, {} quarantined, {} resumed, {} executed, {} retries{}",
        report.cells,
        report.completed.len(),
        report.poisoned.len(),
        report.resumed_cells,
        report.executed_cells,
        report.retries_total,
        if report.interrupted {
            " (interrupted — re-run with --resume)"
        } else {
            ""
        }
    );

    if let Some(path) = canonical_path {
        let canonical = serde_json::to_string_pretty(&report.canonicalized())
            .expect("canonical report serializes");
        write_report(path, canonical);
    }

    let interrupted = report.interrupted;
    let bench = BenchReport {
        schema: campaign::CAMPAIGN_SCHEMA_VERSION,
        smoke,
        grid,
        report,
        prometheus: hub.borrow().registry().prometheus_text(),
    };
    let json = serde_json::to_string_pretty(&bench).expect("report serializes");
    write_report(json_path, json);
    eprintln!("campaign: report written to {json_path}");

    if let Some(server) = live_server {
        eprintln!(
            "campaign: live endpoint served {} metric scrape(s)",
            server.scrape_count()
        );
        server.request_shutdown();
    }

    // An interrupted run exits 3 so scripts can distinguish "resume
    // me" from success (0) and hard failure (1).
    if interrupted {
        std::process::exit(3);
    }
}
