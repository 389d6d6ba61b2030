//! Live snapshot plumbing between the campaign runner and the
//! observability daemon (`obsd`).
//!
//! The campaign runner is the *producer*: at start-up, after every
//! finished cell, after every journal flush and at the end it assembles
//! an [`ObsSnapshot`] (progress figures + a rendered Prometheus text
//! page) and [`SnapshotCell::publish`]es it. The HTTP server in `crates/obsd` is the *consumer*: each request
//! handler calls [`SnapshotCell::latest`] and serves whatever was most
//! recently published. The cell holds an `Arc` swap behind a `Mutex`
//! whose critical section is a single pointer clone/store, so the
//! simulation side never blocks on the network side — a slow or stalled
//! scraper can at worst hold a stale `Arc` alive.
//!
//! Nothing in this module reads a clock or draws randomness: snapshots
//! are pure functions of recorded campaign state (the only wall-clock
//! input, `wall_s_sum`, is the same sanctioned execution metadata that
//! `CampaignReport::canonicalized` zeroes before fingerprinting). That
//! state is recorded in completion order, which follows thread timing,
//! so intermediate snapshots (`last_cell_id`, `current_cells`,
//! `wall_s_sum`) differ from run to run; the final tallies (cells,
//! retries, flushes, records) do not. Wall-clock *reads* live
//! exclusively in `obsd`, outside the graph-derived simulation scope.

use serde::Serialize;
use std::sync::{Arc, Mutex, PoisonError};

/// Progress of a running campaign, as served by `GET /progress`.
///
/// Counter fields mirror the `sb_campaign_*` registry series; journal
/// fields describe the checkpoint stream; `eta_s` is derived from
/// completed-cell wall times by [`CampaignProgress::finalize_eta`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CampaignProgress {
    /// Total cells in the grid.
    pub cells_total: u64,
    /// Cells completed so far (including resumed ones).
    pub cells_completed: u64,
    /// Cells quarantined so far (including resumed ones).
    pub cells_quarantined: u64,
    /// Cells not yet resolved.
    pub cells_pending: u64,
    /// Cells skipped on resume because the journal carried outcomes.
    pub resumed_cells: u64,
    /// Cells executed by this process (excludes resumed cells).
    pub executed_this_run: u64,
    /// Retries spent across all executed cells.
    pub retries_total: u64,
    /// Ids of the cells a worker has claimed and not yet resolved, in
    /// claim order: at most one per worker, empty once the run ends.
    pub current_cells: Vec<String>,
    /// Id of the most recently resolved cell, in completion order
    /// (empty before the first).
    pub last_cell_id: String,
    /// Journal flushes performed by this process.
    pub journal_flushes: u64,
    /// Bytes written by the most recent journal flush.
    pub journal_bytes_last: u64,
    /// Records held in the journal at the last flush.
    pub journal_records: u64,
    /// Malformed journal lines tolerated while resuming.
    pub journal_skipped_lines: u64,
    /// Sum of wall-clock seconds over cells completed by this process.
    pub wall_s_sum: f64,
    /// Number of cells contributing to `wall_s_sum`.
    pub wall_cells: u64,
    /// Estimated seconds of work remaining (0 until a cell completes).
    pub eta_s: f64,
}

impl CampaignProgress {
    /// Derives `eta_s` as mean completed-cell wall time × pending
    /// cells. Call after the wall/pending fields are filled in.
    pub fn finalize_eta(&mut self) {
        if self.wall_cells > 0 {
            let mean_wall = self.wall_s_sum / cells_as_f64(self.wall_cells);
            self.eta_s = mean_wall * cells_as_f64(self.cells_pending);
        }
    }
}

/// One published observation: the progress payload plus the Prometheus
/// text page rendered from the campaign hub's registry at publish time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// Campaign progress, serialized into `GET /progress`.
    pub progress: CampaignProgress,
    /// Prometheus text exposition, served verbatim by `GET /metrics`.
    pub prometheus: String,
}

/// The single-slot mailbox the runner publishes [`ObsSnapshot`]s into.
///
/// `publish` and `latest` each hold the lock only long enough to swap
/// or clone one `Arc`; readers keep the previous snapshot alive for as
/// long as they need without blocking the writer.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    slot: Mutex<Arc<ObsSnapshot>>,
}

impl SnapshotCell {
    /// An empty cell holding a default (all-zero) snapshot.
    pub fn fresh() -> Self {
        SnapshotCell::default()
    }

    /// Replaces the published snapshot.
    pub fn publish(&self, snapshot: ObsSnapshot) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Arc::new(snapshot);
    }

    /// The most recently published snapshot.
    pub fn latest(&self) -> Arc<ObsSnapshot> {
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Widens a cell count for averaging (exact below 2^53).
fn cells_as_f64(n: u64) -> f64 {
    n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_returns_the_most_recent_publication() {
        let cell = SnapshotCell::fresh();
        assert_eq!(cell.latest().progress.cells_total, 0);
        let mut snap = ObsSnapshot::default();
        snap.progress.cells_total = 6;
        snap.progress.cells_completed = 2;
        snap.prometheus = "sb_campaign_completed_total 2\n".to_string();
        cell.publish(snap.clone());
        let latest = cell.latest();
        assert_eq!(*latest, snap);
        snap.progress.cells_completed = 3;
        cell.publish(snap.clone());
        assert_eq!(cell.latest().progress.cells_completed, 3);
        assert_eq!(latest.progress.cells_completed, 2, "old Arc stays valid");
    }

    #[test]
    fn eta_is_mean_wall_time_times_pending() {
        let mut p = CampaignProgress {
            cells_pending: 4,
            wall_s_sum: 6.0,
            wall_cells: 3,
            ..CampaignProgress::default()
        };
        p.finalize_eta();
        assert!((p.eta_s - 8.0).abs() < 1e-12);
        let mut empty = CampaignProgress::default();
        empty.finalize_eta();
        assert!(empty.eta_s.abs() < 1e-12, "no completed cells → eta 0");
    }

    #[test]
    fn progress_serializes_every_field() {
        let p = CampaignProgress {
            cells_total: 6,
            current_cells: vec!["cell-a".to_string()],
            ..CampaignProgress::default()
        };
        let json = serde_json::to_string(&p).expect("progress serializes");
        assert!(json.contains("\"cells_total\":6"), "{json}");
        assert!(json.contains("\"current_cells\""), "{json}");
        assert!(json.contains("\"eta_s\""), "{json}");
    }
}
