//! The campaign's serializable outcome summary.

use serde::Serialize;
use smartbalance::JobResult;

use crate::flight::{AttemptOutcome, FlightRecord};

/// Schema version stamped into every report (and BENCH_campaign.json).
/// v2: quarantined cells carry the retry ladder's per-attempt outcomes
/// and the flight recorder's last-N epoch spans.
pub const CAMPAIGN_SCHEMA_VERSION: u32 = 2;

/// One cell that ran to completion.
#[derive(Debug, Clone, Serialize)]
pub struct CompletedCell {
    /// Content-addressed cell identity.
    pub id: String,
    /// Grid index.
    pub index: usize,
    /// Total tries consumed (1 = first-try success).
    pub attempts: u32,
    /// The measurements, exactly as the suite produced them.
    pub result: JobResult,
}

/// One cell quarantined after exhausting its retry ladder.
#[derive(Debug, Clone, Serialize)]
pub struct PoisonedCell {
    /// Content-addressed cell identity.
    pub id: String,
    /// Grid index.
    pub index: usize,
    /// Total tries consumed.
    pub attempts: u32,
    /// The final failure: panic payload or budget violation.
    pub error: String,
    /// Every rung of the retry ladder, in attempt order. `None` only
    /// for cells replayed from a pre-v2 journal.
    pub attempts_log: Option<Vec<AttemptOutcome>>,
    /// Flight-recorder forensics from the final failed attempt: the
    /// last-N epoch spans (sense health, degrade rung, annealer
    /// trajectory). `None` only for cells replayed from a pre-v2
    /// journal.
    pub flight: Option<FlightRecord>,
}

/// The outcome of one [`crate::Campaign::run`] call: every cell of the
/// grid accounted for as completed, poisoned, or (when interrupted)
/// still pending. Cells are listed in grid order, so the report layout
/// is independent of completion order, worker count and journal state.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Report schema version ([`CAMPAIGN_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Total cells in the campaign grid.
    pub cells: usize,
    /// Whether the run stopped before the grid was exhausted (stop-file
    /// request or a per-run cell budget).
    pub interrupted: bool,
    /// Cells skipped this run because the journal already carried
    /// their outcome — run-shape bookkeeping, zeroed by
    /// [`CampaignReport::canonicalized`].
    pub resumed_cells: usize,
    /// Cells executed (not replayed) this run — run-shape bookkeeping,
    /// zeroed by [`CampaignReport::canonicalized`].
    pub executed_cells: usize,
    /// Total retries across the whole grid, derived from the journal's
    /// attempt counts — identical for resumed and uninterrupted runs
    /// because the ladder is deterministic.
    pub retries_total: u64,
    /// Completed cells, in grid order.
    pub completed: Vec<CompletedCell>,
    /// Quarantined cells, in grid order.
    pub poisoned: Vec<PoisonedCell>,
}

impl CampaignReport {
    /// Whether every cell reached a terminal outcome.
    pub fn is_complete(&self) -> bool {
        self.completed.len() + self.poisoned.len() == self.cells
    }

    /// Strips run-shape artifacts so that any two runs over the same
    /// grid — one machine or another, interrupted-and-resumed or
    /// straight through — serialize byte-identically: per-job
    /// wall-clock is zeroed and the resume/executed bookkeeping reset.
    /// The simulation payload (`result`, seeds, attempt counts) is
    /// untouched; it is already deterministic.
    pub fn canonicalized(&self) -> Self {
        let mut canon = self.clone();
        canon.interrupted = false;
        canon.resumed_cells = 0;
        canon.executed_cells = 0;
        for cell in &mut canon.completed {
            cell.result.wall_s = 0.0;
        }
        canon
    }
}
