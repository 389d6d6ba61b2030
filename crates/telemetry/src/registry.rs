//! Deterministic metrics registry: counters, gauges and fixed-bucket
//! histograms keyed by pre-rendered `name{label="value"}` strings.
//!
//! Every container is a [`BTreeMap`], so iteration order — and
//! therefore every exporter's byte stream — is a pure function of the
//! recorded values. No interior mutability, no wall clock, no hashing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a metric key from a static name and a label set, e.g.
/// `labeled("sb_migrations_rejected_total", &[("reason", "offline_core")])`
/// → `sb_migrations_rejected_total{reason="offline_core"}`.
///
/// Labels are emitted in the order given; callers pass them in a fixed
/// order so the same logical series always maps to the same key.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{v}\"");
    }
    key.push('}');
    key
}

/// A fixed-bucket histogram: bucket upper bounds are chosen at first
/// observation and never change, so counts are reproducible regardless
/// of observation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending. `counts` has one extra slot
    /// for observations above the last bound (the `+Inf` bucket).
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values land in the `+Inf`
    /// bucket but are excluded from `sum` to keep it finite.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        if let Some(c) = self.counts.get_mut(slot) {
            *c += 1;
        }
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// `(upper_bound, cumulative_count)` pairs in Prometheus bucket
    /// convention; the final `+Inf` bucket is implicit (== `count`).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        self.bounds
            .iter()
            .zip(self.counts.iter())
            .map(|(b, c)| {
                acc += c;
                (*b, acc)
            })
            .collect()
    }
}

/// The registry: three ordered namespaces (counters, gauges,
/// histograms). Keys are rendered with [`labeled`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter at `key`, creating it at zero first;
    /// the sum saturates at `u64::MAX`.
    pub fn counter_add(&mut self, key: &str, delta: u64) {
        let counter = self.counters.entry(key.to_string()).or_insert(0);
        *counter = counter.saturating_add(delta);
    }

    /// Sets the gauge at `key` to `value` (last write wins).
    pub fn gauge_set(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Observes `value` in the histogram at `key`, creating it with
    /// `bounds` on first use. Later calls ignore `bounds`.
    pub fn histogram_observe(&mut self, key: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(key.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Current counter value (0 when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// The histogram at `key`, if any observation was recorded.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus text-exposition snapshot. Series appear in sorted key
    /// order; histograms expand to cumulative `_bucket{le=...}` lines
    /// plus `_sum` and `_count`. Byte-deterministic for a given state.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.counters {
            let _ = writeln!(out, "{key} {value}");
        }
        for (key, value) in &self.gauges {
            let _ = writeln!(out, "{key} {value}");
        }
        for (key, hist) in &self.histograms {
            for (bound, cumulative) in hist.cumulative_buckets() {
                let _ = writeln!(out, "{key}_bucket{{le=\"{bound}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{key}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{key}_sum {}", hist.sum());
            let _ = writeln!(out, "{key}_count {}", hist.count());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_renders_keys() {
        assert_eq!(labeled("sb_epochs_total", &[]), "sb_epochs_total");
        assert_eq!(
            labeled("sb_x", &[("reason", "offline_core"), ("mode", "full")]),
            "sb_x{reason=\"offline_core\",mode=\"full\"}"
        );
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_bounds(&[0.1, 0.5, 1.0]);
        h.observe(0.1); // first bucket (inclusive)
        h.observe(0.3);
        h.observe(2.0); // +Inf overflow
        h.observe(f64::NAN); // +Inf, excluded from sum
        assert_eq!(h.count(), 4);
        assert_eq!(h.cumulative_buckets(), vec![(0.1, 1), (0.5, 2), (1.0, 2)]);
        assert!((h.sum() - 2.4).abs() < 1e-12);
    }

    #[test]
    fn prometheus_text_is_sorted_and_stable() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("sb_b_total", 2);
        reg.counter_add("sb_a_total", 1);
        reg.gauge_set("sb_rung", 1.0);
        reg.histogram_observe("sb_err", &[0.5], 0.25);
        let text = reg.prometheus_text();
        let again = reg.clone().prometheus_text();
        assert_eq!(text, again);
        let a = text.find("sb_a_total 1").expect("a present");
        let b = text.find("sb_b_total 2").expect("b present");
        assert!(a < b, "counters sorted");
        assert!(text.contains("sb_err_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("sb_err_count 1"));
    }
}
