//! Campaign crash-safety acceptance tests: a killed campaign resumes
//! from its checkpoint journal without recomputing completed cells and
//! reproduces the uninterrupted report byte-for-byte (canonicalized);
//! a deterministically failing cell climbs the retry ladder, lands in
//! quarantine, and never takes the rest of the grid with it. The
//! pipeline's shape — worker count, flush cadence, completion order —
//! never reaches a report byte.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use archsim::{Platform, WorkloadCharacteristics};
use campaign::{Campaign, CampaignConfig, CampaignJob, CampaignReport, CheckpointJournal};
use kernelsim::SystemConfig;
use smartbalance::{ExperimentSpec, Goal, JobResult, Policy, ShardConfig, SmartBalanceConfig};
use telemetry::SnapshotCell;
use workloads::WorkloadProfile;

fn tiny_spec(name: &str, instructions: u64) -> ExperimentSpec {
    ExperimentSpec::new(
        name,
        Platform::quad_heterogeneous(),
        vec![
            WorkloadProfile::uniform("t0", WorkloadCharacteristics::balanced(), instructions),
            WorkloadProfile::uniform("t1", WorkloadCharacteristics::compute_bound(), instructions),
        ],
    )
    .with_max_epochs(60)
}

/// A 6-cell grid: three specs under two policies each.
fn grid() -> Vec<CampaignJob> {
    let mut jobs = Vec::new();
    for (s, spec_name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        for policy in [Policy::Vanilla, Policy::Smart] {
            let index = jobs.len();
            jobs.push(CampaignJob::new(
                index,
                tiny_spec(spec_name, 400_000 + 100_000 * s as u64),
                policy,
            ));
        }
    }
    jobs
}

/// Twelve cells of about 6 000 epochs each: slow enough that the
/// calling thread reacts to a flush long before one worker could drain
/// the grid.
fn slow_grid() -> Vec<CampaignJob> {
    (0..12)
        .map(|i| {
            let spec = tiny_spec(&format!("slow{i}"), 1_000_000_000_000).with_max_epochs(100_000);
            CampaignJob::new(i, spec, Policy::Vanilla)
        })
        .collect()
}

fn journal_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("campaign-acceptance-tests");
    fs::create_dir_all(&dir).expect("temp dir creates");
    let path = dir.join(format!("{test}.jsonl"));
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(dir.join(format!("{test}.jsonl.tmp")));
    path
}

fn canonical_bytes(report: &CampaignReport) -> String {
    serde_json::to_string(&report.canonicalized()).expect("report serializes")
}

#[test]
fn uninterrupted_campaign_completes_every_cell() {
    let path = journal_path("uninterrupted");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let mut campaign = Campaign::new(grid(), CampaignConfig::default(), journal);
    let report = campaign.run().expect("journal flushes");
    assert!(report.is_complete());
    assert!(!report.interrupted);
    assert_eq!(report.cells, 6);
    assert_eq!(report.completed.len(), 6);
    assert_eq!(report.poisoned.len(), 0);
    assert_eq!(report.retries_total, 0);
    assert_eq!(report.resumed_cells, 0);
    assert_eq!(report.executed_cells, 6);
    assert_eq!(campaign.journal().len(), 6, "every cell checkpointed");
    // Cells are reported in grid order with their grid indices.
    let indices: Vec<usize> = report.completed.iter().map(|c| c.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn killed_campaign_resumes_without_recomputation_and_matches_bytes() {
    // Reference: one straight run.
    let ref_path = journal_path("kill-resume-reference");
    let journal = CheckpointJournal::load(&ref_path).expect("fresh journal");
    let mut reference = Campaign::new(grid(), CampaignConfig::default(), journal);
    let reference_report = reference.run().expect("journal flushes");
    assert!(reference_report.is_complete());

    // "Kill" a second campaign after two cells: the per-run cell
    // budget stops the process exactly as SIGKILL would, after the
    // journal has flushed the completed prefix.
    let path = journal_path("kill-resume");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let interrupted_config = CampaignConfig {
        flush_every: 1,
        max_cells_this_run: Some(2),
        ..CampaignConfig::default()
    };
    let mut first = Campaign::new(grid(), interrupted_config, journal);
    let first_report = first.run().expect("journal flushes");
    assert!(first_report.interrupted);
    assert_eq!(first_report.executed_cells, 2);
    assert!(!first_report.is_complete());

    // Resume in a brand-new runner (fresh process, same journal path).
    let journal = CheckpointJournal::load(&path).expect("journal replays");
    assert_eq!(journal.len(), 2, "the killed run left two checkpoints");
    let mut resumed = Campaign::new(grid(), CampaignConfig::default(), journal);
    let resumed_report = resumed.run().expect("journal flushes");
    assert!(resumed_report.is_complete());
    assert_eq!(resumed_report.resumed_cells, 2, "replayed, not recomputed");
    assert_eq!(
        resumed_report.executed_cells, 4,
        "only the pending cells ran"
    );

    assert_eq!(
        canonical_bytes(&resumed_report),
        canonical_bytes(&reference_report),
        "resumed campaign must be byte-identical to the uninterrupted run"
    );
}

#[test]
fn deterministic_panic_is_retried_then_quarantined_and_grid_survives() {
    // IKS asserts a paired big.LITTLE platform; on the 4-type quad it
    // panics deterministically — the canonical poisoned cell.
    let mut jobs = grid();
    let poisoned_index = jobs.len();
    jobs.push(CampaignJob::new(
        poisoned_index,
        tiny_spec("poisoned", 400_000),
        Policy::Iks,
    ));

    let path = journal_path("quarantine");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        max_retries: 2,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(jobs, config, journal);
    let report = campaign.run().expect("journal flushes");

    assert!(report.is_complete(), "quarantine is terminal, not fatal");
    assert_eq!(report.completed.len(), 6, "healthy cells all finished");
    assert_eq!(report.poisoned.len(), 1);
    let cell = &report.poisoned[0];
    assert_eq!(cell.index, poisoned_index);
    assert_eq!(cell.attempts, 3, "first try + max_retries retries");
    assert!(
        cell.error.contains("exactly 2 core types"),
        "the panic payload is preserved: {}",
        cell.error
    );
    assert_eq!(report.retries_total, 2);

    // Forensics: every rung of the retry ladder is on the record, and
    // each one carries the same deterministic panic payload.
    let log = cell
        .attempts_log
        .as_ref()
        .expect("freshly quarantined cells always carry the attempt log");
    assert_eq!(log.len(), 3);
    for (k, attempt) in log.iter().enumerate() {
        assert_eq!(attempt.attempt as usize, k + 1);
        assert!(
            attempt.error.contains("exactly 2 core types"),
            "attempt {}: {}",
            attempt.attempt,
            attempt.error
        );
    }
    // IKS panics inside the very first rebalance, before any epoch
    // span closes — the flight recorder is present but empty.
    let flight = cell.flight.as_ref().expect("flight recorder present");
    assert!(flight.spans.is_empty());
}

#[test]
fn a_training_failure_stays_the_failure_of_its_own_cells() {
    // Three training samples cannot fit ten coefficients, so training
    // panics. Both cells share that key; the grid's three SmartBalance
    // cells share another, healthy one.
    const UNDERDETERMINED: &str = "need at least 10 training samples, got 3";
    let untrainable = SmartBalanceConfig {
        train_corpus: 3,
        ..SmartBalanceConfig::default()
    };
    let mut jobs = grid();
    for name in ["untrainable-a", "untrainable-b"] {
        let spec = tiny_spec(name, 400_000).with_policy_config(untrainable.clone());
        jobs.push(CampaignJob::new(jobs.len(), spec, Policy::Smart));
    }

    let path = journal_path("training-failure");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        workers: 2,
        max_retries: 2,
        ..CampaignConfig::default()
    };
    let report = Campaign::new(jobs, config, journal)
        .run()
        .expect("journal flushes");
    assert!(report.is_complete());
    let completed: Vec<usize> = report.completed.iter().map(|c| c.index).collect();
    assert_eq!(
        completed,
        vec![0, 1, 2, 3, 4, 5],
        "healthy cells all finished"
    );
    let poisoned: Vec<usize> = report.poisoned.iter().map(|c| c.index).collect();
    assert_eq!(poisoned, vec![6, 7]);
    for cell in &report.poisoned {
        assert_eq!(cell.attempts, 3, "first try + max_retries retries");
        assert!(cell.error.contains(UNDERDETERMINED), "{}", cell.error);
        let log = cell.attempts_log.as_ref().expect("attempt log present");
        assert_eq!(log.len(), 3);
        for attempt in log {
            assert!(attempt.error.contains(UNDERDETERMINED), "{}", attempt.error);
        }
    }
}

/// A completed cell's result with its execution metadata zeroed.
fn measured_bytes(result: &JobResult) -> String {
    let mut result = result.clone();
    result.wall_s = 0.0;
    serde_json::to_string(&result).expect("result serializes")
}

#[test]
fn cells_that_share_a_training_measure_like_cells_that_train_alone() {
    // The grid's SmartBalance cells share one key; a sparse-sensing
    // cell and a sharded cell join it with a second key and the first.
    let mut jobs = grid();
    let sparse = tiny_spec("sparse", 500_000).with_policy_config(SmartBalanceConfig {
        sparse_sensing: true,
        ..SmartBalanceConfig::default()
    });
    jobs.push(CampaignJob::new(jobs.len(), sparse, Policy::Smart));
    let sharded = tiny_spec("sharded", 500_000).with_shard(ShardConfig::default());
    jobs.push(CampaignJob::new(jobs.len(), sharded, Policy::Smart));

    let path = journal_path("shared-training");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        workers: 2,
        ..CampaignConfig::default()
    };
    let report = Campaign::new(jobs.clone(), config, journal)
        .run()
        .expect("journal flushes");
    assert_eq!(report.completed.len(), jobs.len());
    for cell in &report.completed {
        let alone = jobs[cell.index].to_suite_job().execute(cell.index);
        assert_eq!(
            measured_bytes(&cell.result),
            measured_bytes(&alone),
            "cell {} ({:?})",
            cell.index,
            jobs[cell.index].policy
        );
    }
}

#[test]
fn flight_recorder_preserves_the_last_epochs_of_a_budget_quarantine() {
    // A runaway cell stopped by the epoch watchdog: the quarantine
    // record must carry the tail of its epoch history — capped by the
    // recorder ring — so the hang is debuggable post mortem.
    let hung = CampaignJob::new(
        0,
        tiny_spec("hung-forensics", 2_000_000_000).with_max_epochs(10_000),
        Policy::Vanilla,
    );
    let path = journal_path("flight-recorder");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        max_retries: 1,
        max_epochs_per_job: Some(5),
        flight_recorder_epochs: 3,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(vec![hung], config, journal);
    let report = campaign.run().expect("journal flushes");

    assert_eq!(report.poisoned.len(), 1);
    let cell = &report.poisoned[0];
    let log = cell.attempts_log.as_ref().expect("attempt log present");
    assert_eq!(log.len(), 2, "first try + one retry");
    for attempt in log {
        assert!(
            attempt.error.contains("epoch budget exhausted"),
            "{}",
            attempt.error
        );
    }
    let flight = cell.flight.as_ref().expect("flight recorder present");
    assert_eq!(
        flight.spans.len(),
        3,
        "the ring keeps exactly flight_recorder_epochs spans"
    );
    assert_eq!(
        flight.dropped_epochs, 2,
        "5 budgeted epochs minus a 3-span ring"
    );
    let epochs: Vec<u64> = flight.spans.iter().map(|s| s.epoch).collect();
    assert!(
        epochs.windows(2).all(|w| w[1] == w[0] + 1),
        "the retained spans are the consecutive tail: {epochs:?}"
    );

    // The forensics survive the journal round trip: a resumed campaign
    // replays them rather than re-running the cell.
    let journal = CheckpointJournal::load(&path).expect("journal replays");
    let hung = CampaignJob::new(
        0,
        tiny_spec("hung-forensics", 2_000_000_000).with_max_epochs(10_000),
        Policy::Vanilla,
    );
    let mut resumed = Campaign::new(vec![hung], CampaignConfig::default(), journal);
    let resumed_report = resumed.run().expect("journal flushes");
    assert_eq!(resumed_report.resumed_cells, 1, "replayed, not recomputed");
    let replayed = &resumed_report.poisoned[0];
    assert_eq!(
        replayed.flight.as_ref().map(|f| f.spans.len()),
        Some(3),
        "flight spans survive the disk round trip"
    );
    assert_eq!(
        replayed.attempts_log.as_ref().map(Vec::len),
        Some(2),
        "attempt log survives the disk round trip"
    );
}

#[test]
fn epoch_and_slice_budgets_quarantine_runaway_cells() {
    // A workload far too large to finish inside the clamped epoch
    // budget stands in for a hung cell.
    let hung = CampaignJob::new(
        0,
        tiny_spec("hung", 2_000_000_000).with_max_epochs(10_000),
        Policy::Vanilla,
    );
    let path = journal_path("epoch-budget");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        max_retries: 0,
        max_epochs_per_job: Some(5),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(vec![hung], config, journal);
    let report = campaign.run().expect("journal flushes");
    assert_eq!(report.poisoned.len(), 1);
    assert_eq!(report.poisoned[0].attempts, 1, "max_retries 0: one try");
    assert!(
        report.poisoned[0].error.contains("epoch budget exhausted"),
        "{}",
        report.poisoned[0].error
    );

    // A healthy cell under an absurdly small slice budget trips the
    // post-hoc classifier the same way.
    let busy = CampaignJob::new(0, tiny_spec("busy", 400_000), Policy::Vanilla);
    let path = journal_path("slice-budget");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        max_retries: 0,
        max_slices_per_job: Some(1),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(vec![busy], config, journal);
    let report = campaign.run().expect("journal flushes");
    assert_eq!(report.poisoned.len(), 1);
    assert!(
        report.poisoned[0].error.contains("slice budget exceeded"),
        "{}",
        report.poisoned[0].error
    );
}

#[test]
fn stop_file_requests_graceful_shutdown_with_partial_report() {
    let path = journal_path("stop-file");
    let stop = path.with_extension("stop");
    let _ = fs::remove_file(&stop);

    // First: complete two cells so the journal has something to keep.
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        flush_every: 1,
        max_cells_this_run: Some(2),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(grid(), config, journal);
    campaign.run().expect("journal flushes");

    // Then: a stop request present at startup halts before any new
    // work, but the partial report still carries the completed cells.
    fs::write(&stop, b"stop").expect("stop file writes");
    let journal = CheckpointJournal::load(&path).expect("journal replays");
    let config = CampaignConfig {
        stop_file: Some(stop.clone()),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(grid(), config, journal);
    let report = campaign.run().expect("journal flushes");
    let _ = fs::remove_file(&stop);

    assert!(report.interrupted, "stop file wins before the first claim");
    assert_eq!(report.executed_cells, 0, "no new work after the request");
    assert_eq!(report.resumed_cells, 2);
    assert_eq!(report.completed.len(), 2, "partial report keeps the prefix");
}

#[test]
fn stop_seen_after_a_flush_lets_cells_in_flight_finish() {
    // The journal itself is the stop file: absent at start-up, present
    // from the first flush on, so the stop lands right after it.
    let path = journal_path("stop-mid-run");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        workers: 1,
        flush_every: 2,
        stop_file: Some(path.clone()),
        ..CampaignConfig::default()
    };
    let jobs = slow_grid();
    let ids: Vec<String> = jobs.iter().map(CampaignJob::id).collect();
    let mut campaign = Campaign::new(jobs, config, journal);
    let report = campaign.run().expect("journal flushes");
    assert!(report.interrupted, "the stop closed the queue");
    assert!(
        report.executed_cells >= 2,
        "the stop follows the first flush"
    );
    // The cell in flight at the stop finished, was journaled and was
    // committed by a final flush.
    let on_disk = CheckpointJournal::load(&path).expect("journal replays");
    let want: BTreeSet<String> = ids[..report.executed_cells].iter().cloned().collect();
    assert_eq!(journal_ids(&on_disk), want);
}

#[test]
fn resume_tolerates_a_torn_journal_tail() {
    // Complete two cells, then append garbage — the torn tail a
    // non-atomic writer would leave. Resume must replay the intact
    // records, recompute only what the tail lost, and still match the
    // reference bytes.
    let ref_path = journal_path("torn-reference");
    let journal = CheckpointJournal::load(&ref_path).expect("fresh journal");
    let mut reference = Campaign::new(grid(), CampaignConfig::default(), journal);
    let reference_report = reference.run().expect("journal flushes");

    let path = journal_path("torn");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        flush_every: 1,
        max_cells_this_run: Some(2),
        ..CampaignConfig::default()
    };
    let mut first = Campaign::new(grid(), config, journal);
    first.run().expect("journal flushes");
    let mut text = fs::read_to_string(&path).expect("journal readable");
    text.push_str("{\"Completed\":{\"id\":\"feedface00");
    fs::write(&path, text).expect("tear the tail");

    let journal = CheckpointJournal::load(&path).expect("load tolerates tail");
    assert_eq!(journal.skipped_lines(), 1);
    assert_eq!(journal.len(), 2);
    let mut resumed = Campaign::new(grid(), CampaignConfig::default(), journal);
    let resumed_report = resumed.run().expect("journal flushes");
    assert!(resumed_report.is_complete());
    assert_eq!(
        canonical_bytes(&resumed_report),
        canonical_bytes(&reference_report)
    );
}

/// Ids of every record in `journal`, in id order.
fn journal_ids(journal: &CheckpointJournal) -> BTreeSet<String> {
    journal.records().map(|r| r.id().to_owned()).collect()
}

#[test]
fn pool_shape_never_changes_the_report_or_the_journal() {
    let mut reference: Option<(String, BTreeSet<String>)> = None;
    for (workers, flush_every) in [(1, 1), (2, 3), (4, 8)] {
        let path = journal_path(&format!("pool-shape-{workers}w-{flush_every}f"));
        let journal = CheckpointJournal::load(&path).expect("fresh journal");
        let config = CampaignConfig {
            workers,
            flush_every,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::new(grid(), config, journal);
        let mailbox = Arc::new(SnapshotCell::fresh());
        campaign.publish_snapshots(Arc::clone(&mailbox));
        let report = campaign.run().expect("journal flushes");
        assert!(report.is_complete());
        assert_eq!(
            mailbox.latest().progress.journal_flushes,
            report.executed_cells.div_ceil(flush_every) as u64,
            "{workers} workers: one flush per {flush_every} resolved cells, plus the tail"
        );

        let on_disk = CheckpointJournal::load(&path).expect("journal replays");
        assert_eq!(journal_ids(&on_disk), journal_ids(campaign.journal()));
        let shape = (canonical_bytes(&report), journal_ids(&on_disk));
        match &reference {
            None => reference = Some(shape),
            Some(first) => assert_eq!(
                &shape, first,
                "{workers} workers, flush_every {flush_every}: same report bytes and journal ids"
            ),
        }
    }
}

#[test]
fn cell_budget_journals_exactly_the_first_pending_cells() {
    let ids: Vec<String> = grid().iter().map(CampaignJob::id).collect();
    let path = journal_path("cell-budget");
    for (budget, journaled) in [(3, 3), (2, 5)] {
        let journal = CheckpointJournal::load(&path).expect("journal loads");
        let config = CampaignConfig {
            workers: 4,
            max_cells_this_run: Some(budget),
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::new(grid(), config, journal);
        let report = campaign.run().expect("journal flushes");
        assert!(report.interrupted);
        assert_eq!(report.executed_cells, budget);
        let on_disk = CheckpointJournal::load(&path).expect("journal replays");
        let want: BTreeSet<String> = ids[..journaled].iter().cloned().collect();
        assert_eq!(
            journal_ids(&on_disk),
            want,
            "the first {journaled} grid cells, however the workers raced"
        );
    }
}

#[test]
fn snapshots_track_the_cells_in_flight() {
    const WORKERS: usize = 2;
    let ids: BTreeSet<String> = grid().iter().map(CampaignJob::id).collect();
    let mailbox = Arc::new(SnapshotCell::fresh());
    let path = journal_path("in-flight");
    // The runner is !Send (its telemetry handle is an Rc), so it runs
    // on its own thread while this one polls the mailbox.
    let runner = {
        let mailbox = Arc::clone(&mailbox);
        std::thread::spawn(move || {
            let journal = CheckpointJournal::load(&path).expect("fresh journal");
            let config = CampaignConfig {
                workers: WORKERS,
                flush_every: 1,
                ..CampaignConfig::default()
            };
            let mut campaign = Campaign::new(grid(), config, journal);
            campaign.attach_telemetry(telemetry::shared());
            campaign.publish_snapshots(mailbox);
            campaign.run().expect("journal flushes")
        })
    };
    while !runner.is_finished() {
        let progress = &mailbox.latest().progress;
        assert!(
            progress.current_cells.len() <= WORKERS,
            "at most one claimed cell per worker: {:?}",
            progress.current_cells
        );
        for id in &progress.current_cells {
            assert!(ids.contains(id), "{id} is not a grid cell");
        }
        std::thread::yield_now();
    }
    let report = runner.join().expect("campaign thread joins");
    assert!(report.is_complete());
    let last = &mailbox.latest().progress;
    assert!(
        last.current_cells.is_empty(),
        "nothing in flight at the end"
    );
    assert_eq!(last.cells_pending, 0);
    assert_eq!(last.executed_this_run, 6);
}

#[test]
fn flush_error_stops_new_claims_and_is_returned() {
    // The journal's directory does not exist, so the first flush fails.
    let dir = std::env::temp_dir().join("campaign-acceptance-tests/missing-dir");
    let _ = fs::remove_dir_all(&dir);
    let journal =
        CheckpointJournal::load(dir.join("journal.jsonl")).expect("missing file loads empty");
    let config = CampaignConfig {
        workers: 1,
        flush_every: 1,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(slow_grid(), config, journal);
    assert!(campaign.run().is_err(), "the flush error is returned");
    let ran = campaign.journal().len();
    assert!(
        (1..12).contains(&ran),
        "no claims after the error: {ran} cells ran"
    );
}

#[test]
fn reordered_grid_replays_into_the_report_of_a_fresh_run() {
    // Pin every seed, then reverse and re-index the grid: the ids stay
    // the same (they hash content, not position), so a resume over the
    // reordered grid replays all six cells from the journal.
    let path = journal_path("reorder");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    Campaign::new(grid(), CampaignConfig::default(), journal)
        .run()
        .expect("journal flushes");
    let reordered = || -> Vec<CampaignJob> {
        let mut jobs = grid();
        jobs.reverse();
        for (index, job) in jobs.iter_mut().enumerate() {
            job.index = index;
        }
        jobs
    };

    let journal = CheckpointJournal::load(&path).expect("journal replays");
    let mut resumed = Campaign::new(reordered(), CampaignConfig::default(), journal);
    let resumed_report = resumed.run().expect("journal flushes");
    assert_eq!(resumed_report.executed_cells, 0, "nothing recomputed");
    assert_eq!(resumed_report.resumed_cells, 6);
    let indices: Vec<usize> = resumed_report.completed.iter().map(|c| c.index).collect();
    assert_eq!(
        indices,
        vec![0, 1, 2, 3, 4, 5],
        "indices of the current grid"
    );

    let fresh_path = journal_path("reorder-fresh");
    let journal = CheckpointJournal::load(&fresh_path).expect("fresh journal");
    let mut fresh = Campaign::new(reordered(), CampaignConfig::default(), journal);
    let fresh_report = fresh.run().expect("journal flushes");
    assert_eq!(fresh_report.executed_cells, 6);
    assert_eq!(
        canonical_bytes(&resumed_report),
        canonical_bytes(&fresh_report),
        "a replayed reordered grid reports exactly what a fresh run of it does"
    );
}

#[test]
fn resume_over_a_journal_from_another_grid_reruns_every_cell() {
    // A journal written for other specs (here: other instruction counts,
    // the same names, policies and seeds) shares no cell id with the
    // grid — which is what every journal written before a change to the
    // id's inputs looks like. A resume must execute every cell, report
    // exactly what a fresh run does, and leave the foreign records in
    // the file without ever reporting them.
    let path = journal_path("foreign-grid");
    let foreign: Vec<CampaignJob> = ["alpha", "beta", "gamma"]
        .iter()
        .enumerate()
        .map(|(index, name)| CampaignJob::new(index, tiny_spec(name, 250_000), Policy::Vanilla))
        .collect();
    let foreign_cells = foreign.len();
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    Campaign::new(foreign, CampaignConfig::default(), journal)
        .run()
        .expect("journal flushes");

    let journal = CheckpointJournal::load(&path).expect("journal replays");
    assert_eq!(journal.len(), foreign_cells);
    let mut resumed = Campaign::new(grid(), CampaignConfig::default(), journal);
    let resumed_report = resumed.run().expect("journal flushes");
    assert!(resumed_report.is_complete());
    assert_eq!(resumed_report.resumed_cells, 0, "no foreign record reused");
    assert_eq!(resumed_report.executed_cells, 6, "every cell executed");
    assert_eq!(
        resumed.journal().len(),
        6 + foreign_cells,
        "foreign records stay in the journal"
    );
    let reloaded = CheckpointJournal::load(&path).expect("journal replays");
    assert_eq!(reloaded.len(), 6 + foreign_cells, "and on disk");

    let fresh_path = journal_path("foreign-grid-fresh");
    let journal = CheckpointJournal::load(&fresh_path).expect("fresh journal");
    let fresh_report = Campaign::new(grid(), CampaignConfig::default(), journal)
        .run()
        .expect("journal flushes");
    assert_eq!(
        canonical_bytes(&resumed_report),
        canonical_bytes(&fresh_report),
        "foreign records never reach the report"
    );
}

/// A grid whose cell ids are pinned below. It holds a vanilla and a
/// SmartBalance cell over one spec, a spec that comes back after
/// another, a sharded cell, a cell with its own policy config, and two
/// adjacent cells with one seed whose specs are equal under `==` but
/// render differently: `migration_activity` 0.0 against -0.0.
fn pinned_grid() -> Vec<CampaignJob> {
    let zero_activity = |activity: f64| {
        tiny_spec("zero", 300_000).with_sys_config(SystemConfig {
            migration_activity: activity,
            ..SystemConfig::default()
        })
    };
    let throughput = SmartBalanceConfig {
        goal: Goal::Throughput,
        core_weights: Some(vec![1.0, 1.0, 0.5, 0.5]),
        ..SmartBalanceConfig::default()
    };
    let cells = [
        (tiny_spec("alpha", 300_000), Policy::Vanilla),
        (tiny_spec("alpha", 300_000), Policy::Smart),
        (tiny_spec("beta", 300_000), Policy::Vanilla),
        (tiny_spec("alpha", 300_000), Policy::Vanilla),
        (
            tiny_spec("beta", 300_000).with_shard(ShardConfig::default()),
            Policy::Smart,
        ),
        (
            tiny_spec("gamma", 300_000).with_policy_config(throughput),
            Policy::Smart,
        ),
        (zero_activity(0.0), Policy::Vanilla),
        (zero_activity(-0.0), Policy::Vanilla),
    ];
    let mut jobs: Vec<CampaignJob> = cells
        .into_iter()
        .enumerate()
        .map(|(index, (spec, policy))| CampaignJob::new(index, spec, policy))
        .collect();
    jobs[7].seed = jobs[6].seed;
    jobs
}

/// The ids of [`pinned_grid`], in grid order. A changed id re-runs the
/// cell on every resume over an existing journal.
const PINNED_IDS: [&str; 8] = [
    "8b41b54e2b14d387",
    "8e9af833b9774ca3",
    "f989f05464f5d787",
    "e93bdfc49deef7d1",
    "283b2130027256a3",
    "034248eb66308e13",
    "188d3ca921977888",
    "96320e78f52978cf",
];

#[test]
fn cell_ids_are_pinned() {
    let jobs = pinned_grid();
    assert_eq!(jobs[6].spec, jobs[7].spec, "0.0 == -0.0");
    let ids: Vec<String> = jobs.iter().map(CampaignJob::id).collect();
    assert_eq!(ids, PINNED_IDS);
    assert_ne!(ids[6], ids[7], "-0.0 renders differently from 0.0");

    let path = journal_path("pinned-ids");
    let journal = CheckpointJournal::load(&path).expect("fresh journal");
    let config = CampaignConfig {
        workers: 3,
        ..CampaignConfig::default()
    };
    let report = Campaign::new(pinned_grid(), config, journal)
        .run()
        .expect("journal flushes");
    assert!(report.is_complete());
    let reported: Vec<&str> = report.completed.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(reported, PINNED_IDS);
}
