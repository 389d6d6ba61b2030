//! Crash forensics for quarantined cells: the retry ladder's
//! per-attempt outcomes and the flight recorder's last-N epoch spans.
//!
//! Every cell attempt runs with a telemetry hub whose span history is
//! capped ([`telemetry::Telemetry::set_span_capacity`]), turning it
//! into a fixed-size ring of recent [`EpochObs`] records. When a cell
//! exhausts its retries, the final attempt's ring is drained into the
//! quarantine record — so a poisoned cell carries the sense health,
//! degrade rung and annealer trajectory of its last epochs instead of
//! just a panic string. Both payloads are pure functions of the seeded
//! simulation, so they are byte-identical across machines, retries and
//! kill/resume cycles.

use serde::{Deserialize, Serialize};
use telemetry::EpochObs;

/// One rung of a cell's retry ladder that ended in failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttemptOutcome {
    /// 1-based attempt index (1 = the first try).
    pub attempt: u32,
    /// Why the attempt failed: the panic payload rendered as text, or
    /// the budget watchdog's violation message.
    pub error: String,
}

/// The flight recorder's dump: the newest epoch spans of the final
/// failed attempt, oldest first.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Retained spans, in epoch order. Empty when the cell failed
    /// before closing a single epoch (e.g. a constructor panic).
    pub spans: Vec<EpochObs>,
    /// Spans evicted from the ring before the failure — how much
    /// history ran off the end of the recorder.
    pub dropped_epochs: u64,
}

impl FlightRecord {
    /// Drains a hub's retained span history into a record.
    pub fn from_hub(hub: &telemetry::Telemetry) -> Self {
        FlightRecord {
            spans: hub.spans(),
            dropped_epochs: hub.dropped_spans(),
        }
    }
}
