//! The retry/quarantine state machine that drives a campaign grid to
//! terminal outcomes, checkpointing as it goes.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use smartbalance::{default_workers, panic_message, parallel_indexed, JobResult};
use telemetry::live::{CampaignProgress, ObsSnapshot, SnapshotCell};
use telemetry::TelemetryHandle;

use crate::flight::{AttemptOutcome, FlightRecord};
use crate::job::CampaignJob;
use crate::journal::{CheckpointJournal, JournalRecord};
use crate::report::{CampaignReport, CompletedCell, PoisonedCell, CAMPAIGN_SCHEMA_VERSION};

/// Fault-tolerance policy for one campaign run.
///
/// The watchdog budgets are *simulation* quantities (epochs, slices) —
/// deterministic functions of the cell itself — rather than wall-clock
/// timeouts, which smartlint `D2` bans because they would make the
/// retry ladder, and therefore the resumed report, machine-dependent.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Extra tries after a first failure before quarantine. The seed
    /// is identical on every try: the ladder exists to shake off
    /// environmental flakiness, and a deterministic failure simply
    /// exhausts it with identical outcomes, which keeps the attempt
    /// count — and the report bytes — reproducible.
    pub max_retries: u32,
    /// Hard epoch budget per cell: the spec's own `max_epochs` is
    /// clamped to this, and a cell that hits the clamp with tasks
    /// still live counts as hung (failure). `None` disables the
    /// watchdog and records incomplete cells as ordinary results.
    pub max_epochs_per_job: Option<u64>,
    /// Slice budget per cell, classified after the run from
    /// `stats.total_slices`; exceeding it counts as a failure.
    pub max_slices_per_job: Option<u64>,
    /// Journal checkpoint cadence: one atomic flush after every this
    /// many resolved cells, plus one for a partial tail at the end of
    /// the run. Workers keep executing cells during a flush. Smaller =
    /// less lost work on a kill; larger = fewer fsyncs. Clamped to at
    /// least 1.
    pub flush_every: usize,
    /// Worker threads; 0 = the suite's default.
    pub workers: usize,
    /// Graceful-shutdown knob, checked at start-up and after every
    /// journal flush. Once the path exists no new cell is claimed:
    /// cells already running finish and are journaled, the journal is
    /// flushed and the run returns a partial (interrupted) report.
    pub stop_file: Option<PathBuf>,
    /// Executes at most this many cells this run, then reports
    /// interrupted — the deterministic stand-in for "the process died
    /// mid-campaign" in tests and the CI kill-resume drill.
    pub max_cells_this_run: Option<usize>,
    /// Flight-recorder depth: each attempt retains at most this many
    /// recent epoch spans; the final failed attempt's ring lands in the
    /// quarantine record. Purely forensic — the ring caps memory, it
    /// never changes what executes.
    pub flight_recorder_epochs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_retries: 2,
            max_epochs_per_job: None,
            max_slices_per_job: None,
            flush_every: 8,
            workers: 0,
            stop_file: None,
            max_cells_this_run: None,
            flight_recorder_epochs: 32,
        }
    }
}

impl CampaignConfig {
    fn stop_requested(&self) -> bool {
        self.stop_file.as_ref().is_some_and(|p| p.exists())
    }
}

/// A campaign: a grid of content-addressed cells, a fault-tolerance
/// policy, and the checkpoint journal that makes the whole thing
/// killable.
#[derive(Debug)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
    config: CampaignConfig,
    journal: CheckpointJournal,
    observers: Observers,
}

/// Where a run reports as it goes: the telemetry hub and the live
/// snapshot mailbox, each optional. Kept apart from the journal so the
/// orchestrating thread can publish while it holds the journal
/// mutably.
#[derive(Debug, Default)]
struct Observers {
    telemetry: Option<TelemetryHandle>,
    snapshots: Option<Arc<SnapshotCell>>,
}

/// What a worker tells the orchestrating thread.
enum Event {
    /// The worker claimed the cell at this grid index.
    Claimed(usize),
    /// A claimed cell reached its terminal outcome.
    Resolved(JournalRecord),
}

impl Campaign {
    /// Assembles a campaign over `jobs` with `config`, resuming from
    /// whatever `journal` already holds.
    pub fn new(jobs: Vec<CampaignJob>, config: CampaignConfig, journal: CheckpointJournal) -> Self {
        Campaign {
            jobs,
            config,
            journal,
            observers: Observers::default(),
        }
    }

    /// Attaches a telemetry hub; the runner records the
    /// `sb_campaign_*` counters (completed/retried/quarantined/
    /// resumed) on it from the orchestrating thread, incrementally
    /// after every cell.
    pub fn attach_telemetry(&mut self, hub: TelemetryHandle) {
        self.observers.telemetry = Some(hub);
    }

    /// Attaches a live-snapshot mailbox: the runner publishes an
    /// [`ObsSnapshot`] (progress + rendered Prometheus page) into it at
    /// start-up, after every resolved cell, after every journal flush
    /// and at the end. The publish is a single `Arc` swap — the run
    /// never blocks on whoever reads the mailbox.
    pub fn publish_snapshots(&mut self, cell: Arc<SnapshotCell>) {
        self.observers.snapshots = Some(cell);
    }

    /// Read access to the checkpoint journal (tests and reporting).
    pub fn journal(&self) -> &CheckpointJournal {
        &self.journal
    }

    /// Runs every cell not already checkpointed to a terminal outcome
    /// and builds the report from the journal — so replayed and freshly
    /// executed cells are indistinguishable in the output.
    ///
    /// Execution is a pipeline: worker threads claim pending cells in
    /// grid order, one at a time, and never wait for each other, while
    /// the calling thread journals and publishes each outcome as it
    /// arrives and checkpoints the journal every
    /// [`CampaignConfig::flush_every`] resolved cells without pausing
    /// the workers. Returns `Err` only on journal I/O failure (after
    /// the workers have joined); cell failures are data, not errors.
    pub fn run(&mut self) -> io::Result<CampaignReport> {
        if let Some(hub) = &self.observers.telemetry {
            hub.borrow_mut().record_campaign_started();
        }
        let workers = if self.config.workers == 0 {
            default_workers()
        } else {
            self.config.workers
        };
        let jobs = &self.jobs;
        let ids = parallel_indexed(jobs.len(), workers, |i| jobs[i].id());
        let pending: Vec<usize> = (0..jobs.len())
            .filter(|&i| !self.journal.contains(&ids[i]))
            .collect();
        let resumed_cells = jobs.len() - pending.len();
        if resumed_cells > 0 {
            if let Some(hub) = &self.observers.telemetry {
                hub.borrow_mut()
                    .record_campaign_resumed(resumed_cells as u64);
            }
        }

        let mut progress = self.initial_progress(&ids, pending.len(), resumed_cells);
        self.observers.publish(&progress);

        let budget = if self.config.stop_requested() {
            0
        } else {
            self.config.max_cells_this_run.unwrap_or(usize::MAX)
        };
        let work = &pending[..budget.min(pending.len())];
        let executed_cells = self.execute(work, &ids, workers, &mut progress)?;

        self.observers.publish(&progress);
        let interrupted = executed_cells < pending.len();
        Ok(self.build_report(&ids, interrupted, resumed_cells, executed_cells))
    }

    /// Drives `work` (grid indices, in grid order) through the worker
    /// pool. Each worker claims the next cell from an atomic counter
    /// and sends a start message and then the terminal record; this
    /// thread folds every record into telemetry and `progress`,
    /// journals and publishes it, and flushes after every
    /// `flush_every` of them. A stop request (checked after each
    /// flush) or a flush error closes the queue: no new cell is
    /// claimed, and the cells in flight finish and are journaled.
    /// Returns the number of cells executed, or the flush error once
    /// the workers have joined.
    fn execute(
        &mut self,
        work: &[usize],
        ids: &[String],
        workers: usize,
        progress: &mut CampaignProgress,
    ) -> io::Result<usize> {
        let flush_every = self.config.flush_every.max(1);
        let (jobs, config) = (&self.jobs, &self.config);
        let claim = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(work.len()) {
                let (tx, claim) = (tx.clone(), &claim);
                // smartlint: allow(taint-path, "pipelined cell pool: records are keyed by id in the journal's BTreeMap and the report is built in grid order, so completion order never reaches an output byte")
                scope.spawn(move || {
                    // smartlint: allow(worker-capture, "atomic claim counter hands each work-list cell to exactly one worker; outcomes are keyed by id and reported in grid order")
                    while let Some(&index) = work.get(claim.fetch_add(1, Ordering::Relaxed)) {
                        if tx.send(Event::Claimed(index)).is_err() {
                            break;
                        }
                        let record = execute_cell(&jobs[index], &ids[index], config);
                        if tx.send(Event::Resolved(record)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            let mut executed = 0;
            let mut flushed = Ok(());
            for event in rx {
                let record = match event {
                    Event::Claimed(index) => {
                        progress.current_cells.push(ids[index].clone());
                        continue;
                    }
                    Event::Resolved(record) => record,
                };
                self.observers.record_outcome(&record);
                fold_into_progress(progress, &record);
                self.journal.insert(record);
                self.observers.publish(progress);
                executed += 1;
                if executed % flush_every == 0 && flushed.is_ok() {
                    flushed = checkpoint(&self.journal, progress, &self.observers);
                    if flushed.is_err() || config.stop_requested() {
                        // Close the queue: every later claim lands past the end.
                        claim.fetch_max(work.len(), Ordering::Relaxed);
                    }
                }
            }
            if executed % flush_every != 0 && flushed.is_ok() {
                flushed = checkpoint(&self.journal, progress, &self.observers);
            }
            flushed.map(|()| executed)
        })
    }

    /// The progress payload at the start of a run: grid size, resumed
    /// outcomes replayed from the journal, and journal load state.
    fn initial_progress(
        &self,
        ids: &[String],
        pending: usize,
        resumed_cells: usize,
    ) -> CampaignProgress {
        let mut progress = CampaignProgress {
            cells_total: self.jobs.len() as u64,
            cells_pending: pending as u64,
            resumed_cells: resumed_cells as u64,
            journal_records: self.journal.len() as u64,
            journal_skipped_lines: self.journal.skipped_lines() as u64,
            ..CampaignProgress::default()
        };
        for id in ids {
            match self.journal.get(id) {
                Some(JournalRecord::Completed { attempts, .. }) => {
                    progress.cells_completed += 1;
                    progress.retries_total += u64::from(attempts.saturating_sub(1));
                }
                Some(JournalRecord::Quarantined { attempts, .. }) => {
                    progress.cells_quarantined += 1;
                    progress.retries_total += u64::from(attempts.saturating_sub(1));
                }
                None => {}
            }
        }
        progress
    }

    /// The report over the grid, in grid order, from the journal.
    /// `ids[k]` is the id of `self.jobs[k]`. Every cell's index comes
    /// from the current grid, not from the record that resolved it, so
    /// a reordered grid replays into the report a fresh run of it
    /// would produce.
    fn build_report(
        &self,
        ids: &[String],
        interrupted: bool,
        resumed_cells: usize,
        executed_cells: usize,
    ) -> CampaignReport {
        let mut completed = Vec::new();
        let mut poisoned = Vec::new();
        let mut retries_total = 0u64;
        // Walk the grid in index order so the report layout never
        // depends on completion order or journal key order.
        for (job, id) in self.jobs.iter().zip(ids) {
            match self.journal.get(id) {
                Some(JournalRecord::Completed {
                    attempts, result, ..
                }) => {
                    retries_total += u64::from(attempts.saturating_sub(1));
                    let mut result = (**result).clone();
                    result.job_index = job.index;
                    completed.push(CompletedCell {
                        id: id.clone(),
                        index: job.index,
                        attempts: *attempts,
                        result,
                    });
                }
                Some(JournalRecord::Quarantined {
                    attempts,
                    error,
                    attempts_log,
                    flight,
                    ..
                }) => {
                    retries_total += u64::from(attempts.saturating_sub(1));
                    poisoned.push(PoisonedCell {
                        id: id.clone(),
                        index: job.index,
                        attempts: *attempts,
                        error: error.clone(),
                        attempts_log: attempts_log.clone(),
                        flight: flight.as_deref().cloned(),
                    });
                }
                None => {}
            }
        }
        CampaignReport {
            schema: CAMPAIGN_SCHEMA_VERSION,
            cells: self.jobs.len(),
            interrupted,
            resumed_cells,
            executed_cells,
            retries_total,
            completed,
            poisoned,
        }
    }
}

impl Observers {
    /// Counts a freshly resolved cell on the hub, if one is attached.
    fn record_outcome(&self, record: &JournalRecord) {
        let Some(hub) = &self.telemetry else {
            return;
        };
        let mut hub = hub.borrow_mut();
        match record {
            JournalRecord::Completed { attempts, .. } => {
                hub.record_campaign_completed(u64::from(*attempts));
            }
            JournalRecord::Quarantined { attempts, .. } => {
                hub.record_campaign_quarantined(u64::from(*attempts));
            }
        }
    }

    /// Publishes the current progress (plus a freshly rendered
    /// Prometheus page from the attached hub) into the snapshot
    /// mailbox, if one is attached. A no-op otherwise.
    fn publish(&self, progress: &CampaignProgress) {
        let Some(cell) = &self.snapshots else {
            return;
        };
        let mut progress = progress.clone();
        progress.finalize_eta();
        let prometheus = match &self.telemetry {
            Some(hub) => hub.borrow().registry().prometheus_text(),
            None => String::new(),
        };
        cell.publish(ObsSnapshot {
            progress,
            prometheus,
        });
    }
}

/// Flushes the journal, then records and publishes the flush stats.
fn checkpoint(
    journal: &CheckpointJournal,
    progress: &mut CampaignProgress,
    observers: &Observers,
) -> io::Result<()> {
    let bytes = journal.flush()?;
    progress.journal_flushes += 1;
    progress.journal_bytes_last = bytes as u64;
    progress.journal_records = journal.len() as u64;
    observers.publish(progress);
    Ok(())
}

/// Folds one freshly resolved cell into the live progress payload.
fn fold_into_progress(progress: &mut CampaignProgress, record: &JournalRecord) {
    progress.current_cells.retain(|id| id != record.id());
    progress.executed_this_run += 1;
    progress.cells_pending = progress.cells_pending.saturating_sub(1);
    progress.retries_total += u64::from(record.attempts().saturating_sub(1));
    progress.last_cell_id = record.id().to_owned();
    match record {
        JournalRecord::Completed { result, .. } => {
            progress.cells_completed += 1;
            progress.wall_s_sum += result.wall_s;
            progress.wall_cells += 1;
        }
        JournalRecord::Quarantined { .. } => {
            progress.cells_quarantined += 1;
        }
    }
}

/// Drives one cell to a terminal outcome: panic isolation, the
/// deterministic budget watchdog, and the bounded retry ladder. Every
/// attempt runs with a capacity-capped telemetry hub (the flight
/// recorder); attaching one is bit-transparent, so results are
/// byte-identical to an unrecorded run, and on quarantine the final
/// attempt's ring plus the full attempt log land in the record.
fn execute_cell(job: &CampaignJob, id: &str, config: &CampaignConfig) -> JournalRecord {
    let mut suite_job = job.to_suite_job();
    if let Some(cap) = config.max_epochs_per_job {
        suite_job.spec.max_epochs = suite_job.spec.max_epochs.min(cap);
    }
    let max_attempts = config.max_retries.saturating_add(1);
    let mut attempts_log: Vec<AttemptOutcome> = Vec::new();
    let mut last_flight = FlightRecord::default();
    for attempt in 1..=max_attempts {
        let hub = telemetry::shared();
        hub.borrow_mut()
            .set_span_capacity(config.flight_recorder_epochs);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            suite_job.execute_recorded(job.index, &hub)
        }));
        let error = match outcome {
            Ok(result) => match budget_violation(&result, config) {
                None => {
                    return JournalRecord::Completed {
                        id: id.to_owned(),
                        index: job.index,
                        attempts: attempt,
                        result: Box::new(result),
                    }
                }
                Some(error) => error,
            },
            Err(payload) => panic_message(payload.as_ref()),
        };
        last_flight = FlightRecord::from_hub(&hub.borrow());
        attempts_log.push(AttemptOutcome { attempt, error });
    }
    let error = attempts_log
        .last()
        .map(|a| a.error.clone())
        .unwrap_or_default();
    JournalRecord::Quarantined {
        id: id.to_owned(),
        index: job.index,
        attempts: max_attempts,
        error,
        attempts_log: Some(attempts_log),
        flight: Some(Box::new(last_flight)),
    }
}

/// Classifies a completed run against the sim-budget watchdog. Both
/// checks are pure functions of the deterministic simulation, so a
/// budget verdict is identical on every machine and every retry.
fn budget_violation(result: &JobResult, config: &CampaignConfig) -> Option<String> {
    if config.max_epochs_per_job.is_some() && !result.result.completed {
        return Some(format!(
            "epoch budget exhausted: cell stopped at epoch {} with tasks still live",
            result.result.epochs
        ));
    }
    if let Some(max_slices) = config.max_slices_per_job {
        let used = result.result.stats.total_slices;
        if used > max_slices {
            return Some(format!("slice budget exceeded: {used} > {max_slices}"));
        }
    }
    None
}
