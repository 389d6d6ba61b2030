//! Exporters: per-epoch JSONL, Chrome `trace_events` JSON and the
//! Prometheus text snapshot (the latter lives on
//! [`crate::registry::MetricsRegistry`]). All output is a pure function of
//! recorded simulation state — byte-identical across reruns.

use crate::span::EpochObs;
use serde::Serialize;
use std::collections::BTreeMap;

/// One event in Chrome's `trace_events` JSON array format. Serializes
/// directly to the schema `chrome://tracing` and Perfetto load: a bare
/// JSON array of objects with `name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ChromeEvent {
    /// Event name shown on the timeline slice.
    pub name: String,
    /// Comma-free category tag (used for filtering in the viewer).
    pub cat: String,
    /// Phase: `"X"` for complete (duration) events, `"i"` for instants.
    pub ph: String,
    /// Timestamp in microseconds (simulation ns / 1000).
    pub ts: f64,
    /// Duration in microseconds; 0 for instant events.
    pub dur: f64,
    /// Process lane; we use 0 for the control loop, 1 for cores.
    pub pid: u64,
    /// Thread lane within the process (e.g. core index).
    pub tid: u64,
    /// Free-form annotations shown in the event detail pane.
    pub args: BTreeMap<String, String>,
}

impl ChromeEvent {
    /// A complete (`ph:"X"`) event spanning `[start_ns, end_ns]`.
    pub fn complete(name: &str, cat: &str, start_ns: u64, end_ns: u64, pid: u64, tid: u64) -> Self {
        ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "X".to_string(),
            ts: ns_to_us(start_ns),
            dur: ns_to_us(end_ns.saturating_sub(start_ns)),
            pid,
            tid,
            args: BTreeMap::new(),
        }
    }

    /// An instant (`ph:"i"`) event at `at_ns`.
    pub fn instant(name: &str, cat: &str, at_ns: u64, pid: u64, tid: u64) -> Self {
        ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: "i".to_string(),
            ts: ns_to_us(at_ns),
            dur: 0.0,
            pid,
            tid,
            args: BTreeMap::new(),
        }
    }

    /// Adds one `args` annotation and returns the event (builder style).
    pub fn with_arg(mut self, key: &str, value: String) -> Self {
        self.args.insert(key.to_string(), value);
        self
    }
}

/// Simulation nanoseconds → trace microseconds.
pub fn ns_to_us(ns: u64) -> f64 {
    crate::ns_as_f64(ns) / 1000.0
}

/// Serializes events as a Chrome/Perfetto-loadable JSON array.
/// (The array form of the `trace_events` format needs no wrapper
/// object.) Serialization of these plain structs cannot fail; an
/// empty string is returned on the impossible error path.
pub fn chrome_trace_json(events: &[ChromeEvent]) -> String {
    serde_json::to_string(&events.to_vec()).unwrap_or_default()
}

/// Serializes spans as JSONL: one `EpochObs` JSON object per line.
pub fn spans_jsonl<'a>(spans: impl IntoIterator<Item = &'a EpochObs>) -> String {
    let mut out = String::new();
    for span in spans {
        out.push_str(&serde_json::to_string(span).unwrap_or_default());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_events_serialize_to_trace_schema() {
        let ev = ChromeEvent::complete("epoch 3", "epoch", 1_000, 61_000, 0, 0)
            .with_arg("mode", "full".to_string());
        let json = chrome_trace_json(&[ev]);
        assert!(json.starts_with('['), "bare array format: {json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1"));
        assert!(json.contains("\"dur\":60"));
        assert!(json.contains("\"mode\":\"full\""));
        // Well-formed: the JSON parser reads it back as a one-event array.
        let back: serde_json::Value = serde_json::from_str(&json).expect("parses");
        assert!(matches!(&back, serde_json::Value::Array(events) if events.len() == 1));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let spans = vec![EpochObs::begin(0, 0), EpochObs::begin(1, 60)];
        let text = spans_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let _: EpochObs = serde_json::from_str(line).expect("line parses");
        }
    }
}
