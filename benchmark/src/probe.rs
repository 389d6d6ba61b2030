//! The traced run's instruments: a timing `LoadBalancer` wrapper with a
//! shadow replay of the rebalance stages, in-memory spans written out
//! as Chrome trace JSON, and the per-layer accumulator.
//!
//! Every clock read lives here, in the benchmark, around calls into the
//! library crates; nothing inside the simulation reads a clock.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use archsim::Platform;
use kernelsim::{Allocation, EpochReport, LoadBalancer, System};
use smartbalance::{anneal, build_matrices, AnnealParams, Goal, Objective, PredictorSet, Sensor};
use telemetry::{chrome_trace_json, ChromeEvent, TelemetryHandle};

use crate::run::{pct, Metric};
use crate::stats::{mean, median, ratio};

/// Spans kept per run; later spans are counted, not stored, so a long
/// traced run stays bounded in memory.
const SPAN_CAP: usize = 20_000;

/// Epochs per traced round that get epoch/rebalance/stage spans.
const EPOCH_SPANS: usize = 200;

/// Host-time spans, kept in memory and written once at exit.
pub struct Spans {
    base: Instant,
    events: Vec<ChromeEvent>,
    dropped: u64,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            base: Instant::now(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The recorder's time origin.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        ns_since(self.base, Instant::now())
    }

    /// Records `[start_ns, end_ns]` as a complete event.
    pub fn push(&mut self, name: &str, cat: &str, start_ns: u64, end_ns: u64) {
        if self.events.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.events
            .push(ChromeEvent::complete(name, cat, start_ns, end_ns, 0, 0));
    }

    /// Spans recorded and spans dropped at the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.events.len(), self.dropped)
    }

    /// The spans as a Perfetto-loadable `trace_events` array.
    pub fn to_json(&self) -> String {
        chrome_trace_json(&self.events)
    }
}

/// Nanoseconds from `base` to `t`.
pub fn ns_since(base: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(base).as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Re-runs SmartBalance's sense, predict and anneal stages on the
/// reports the real balancer sees, timing each. The logic follows
/// `InstrumentedSmart` of the bench crate, copied so the benchmark
/// depends on library crates only. It never feeds back into the run.
pub struct Shadow {
    sensor: Sensor,
    /// `None` replays sensing only (the sharded balancer anneals per
    /// cluster, so a flat predict/anneal replay would time other work).
    predictors: Option<PredictorSet>,
    seed: u32,
}

impl Shadow {
    /// The predictor set a full shadow uses: SmartBalance's default
    /// training corpus and seed.
    pub fn train(platform: &Platform) -> PredictorSet {
        PredictorSet::train(platform, 400, 0xDAC_2015)
    }

    /// A shadow of all three stages, predicting with `predictors`.
    pub fn full(predictors: PredictorSet) -> Self {
        Shadow {
            sensor: Sensor::new(100_000),
            predictors: Some(predictors),
            seed: 0x5A17_B0B5,
        }
    }

    /// A shadow of the sense stage only.
    pub fn sense_only() -> Self {
        Shadow {
            sensor: Sensor::new(100_000),
            predictors: None,
            seed: 0x5A17_B0B5,
        }
    }

    /// Replays the stages on `report`; returns their host ns.
    fn replay(&mut self, platform: &Platform, report: &EpochReport) -> [u64; 3] {
        let t0 = Instant::now();
        let mut senses = self.sensor.sense(platform, report);
        senses.retain(|s| !s.kernel_thread);
        let sense = elapsed_ns(t0);
        let Some(predictors) = &self.predictors else {
            return [sense, 0, 0];
        };
        if senses.is_empty() {
            return [sense, 0, 0];
        }
        let t1 = Instant::now();
        let matrices = build_matrices(platform, &senses, predictors);
        let predict = elapsed_ns(t1);
        let t2 = Instant::now();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let params = AnnealParams::scaled_for(platform.num_cores(), senses.len());
        let objective = Objective::new(&matrices, Goal::EnergyEfficiency);
        black_box(anneal(&objective, &initial, params, self.seed));
        self.seed = self
            .seed
            .wrapping_mul(0x0019_660D)
            .wrapping_add(0x3C6E_F35F);
        [sense, predict, elapsed_ns(t2)]
    }
}

/// One timed `rebalance` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Start, ns since the span origin.
    pub start_ns: u64,
    /// Host ns inside the wrapped balancer's `rebalance`.
    pub rebalance_ns: u64,
    /// Host ns of the shadow's sense, predict and anneal replays.
    pub shadow_ns: [u64; 3],
}

/// Wraps a balancer and times every `rebalance` call; with a shadow it
/// also replays the SmartBalance stages on the same report, outside
/// the timed call. Decisions pass through untouched.
pub struct TimedBalancer {
    inner: Box<dyn LoadBalancer>,
    shadow: Option<Shadow>,
    base: Instant,
    /// Every call, in epoch order.
    pub calls: Vec<Call>,
}

impl TimedBalancer {
    /// Wraps `inner`; `base` is the span origin for call timestamps.
    pub fn new(inner: Box<dyn LoadBalancer>, shadow: Option<Shadow>, base: Instant) -> Self {
        TimedBalancer {
            inner,
            shadow,
            base,
            calls: Vec::new(),
        }
    }
}

impl LoadBalancer for TimedBalancer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let t0 = Instant::now();
        let out = self.inner.rebalance(platform, report);
        let rebalance_ns = elapsed_ns(t0);
        let shadow_ns = match &mut self.shadow {
            Some(shadow) => shadow.replay(platform, report),
            None => [0; 3],
        };
        self.calls.push(Call {
            start_ns: ns_since(self.base, t0),
            rebalance_ns,
            shadow_ns,
        });
        out
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.inner.attach_telemetry(handle);
    }
}

/// Raw per-layer observations of traced work: timings are pooled over
/// every traced round, counts are summed over the runs of one round
/// (the cells of a campaign) and must agree between rounds.
#[derive(Debug, Default, Clone)]
pub struct LayerData {
    /// `run_epoch` host ns minus the rebalance and shadow time, per epoch.
    pub epoch_self_ns: Vec<f64>,
    /// Last-decile over first-decile mean self time, per run.
    pub growth: Vec<f64>,
    /// Host ns per `rebalance` call.
    pub rebalance_ns: Vec<f64>,
    /// Summed shadow sense/predict/anneal ns.
    pub shadow_ns: [f64; 3],
    /// Summed host ns of whole epochs.
    pub epoch_ns: f64,
    /// Slices the traced work dispatched.
    pub slices: f64,
    /// `1 - Σcell_wall / (workers × wall)` per campaign.
    pub campaign_overhead: Vec<f64>,
    /// Summed host ms of the journal flush replay, per campaign.
    pub flush_ms: Vec<f64>,
    /// Bytes of the campaign's last journal flush, per campaign (cell
    /// records carry their wall time, so the size varies slightly).
    pub journal_bytes: Vec<f64>,
    /// Host µs of one Prometheus render, per sample.
    pub render_us: Vec<f64>,
    /// Deterministic counts, keyed by metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl LayerData {
    /// Observations of one simulated run: per-epoch host ns from the
    /// epoch loop, the wrapper's calls, and the system and hub after
    /// the run.
    pub fn from_run(
        sys: &System,
        timed: &TimedBalancer,
        epoch_ns: &[f64],
        hub: &TelemetryHandle,
    ) -> Self {
        assert_eq!(
            epoch_ns.len(),
            timed.calls.len(),
            "one rebalance call per epoch"
        );
        let epoch_self_ns: Vec<f64> = epoch_ns
            .iter()
            .zip(&timed.calls)
            .map(|(e, c)| e - (c.rebalance_ns + c.shadow_ns.iter().sum::<u64>()) as f64)
            .collect();
        let mut data = LayerData {
            growth: growth(&epoch_self_ns).into_iter().collect(),
            epoch_self_ns,
            rebalance_ns: timed.calls.iter().map(|c| c.rebalance_ns as f64).collect(),
            epoch_ns: epoch_ns.iter().sum(),
            slices: sys.total_slices() as f64,
            ..LayerData::default()
        };
        for c in &timed.calls {
            for (sum, ns) in data.shadow_ns.iter_mut().zip(c.shadow_ns) {
                *sum += ns as f64;
            }
        }
        let totals = sys.migration_totals();
        let cache = sys.estimate_cache();
        let hub = hub.borrow();
        let mut counts = vec![
            ("kernelsim.tasks_total", sys.tasks().len() as u64),
            ("kernelsim.live_tasks", sys.live_tasks() as u64),
            ("kernelsim.migrations.requested", totals.requested),
            ("kernelsim.migrations.applied", totals.migrated),
            ("kernelsim.migrations.rejected", totals.rejected),
            ("archsim.memo.hits", cache.hits()),
            ("archsim.memo.misses", cache.misses()),
        ];
        for row in hub.stage_profile() {
            if let Some(&(_, name)) = STAGE_WORK.iter().find(|(stage, _)| *stage == row.stage) {
                counts.push((name, row.work));
            }
        }
        data.counts = counts.into_iter().collect();
        data
    }

    /// Folds another run of the same round in (counts add up).
    pub fn add_run(&mut self, other: LayerData) {
        self.epoch_self_ns.extend(other.epoch_self_ns);
        self.growth.extend(other.growth);
        self.rebalance_ns.extend(other.rebalance_ns);
        for (a, b) in self.shadow_ns.iter_mut().zip(other.shadow_ns) {
            *a += b;
        }
        self.epoch_ns += other.epoch_ns;
        self.slices += other.slices;
        self.campaign_overhead.extend(other.campaign_overhead);
        self.flush_ms.extend(other.flush_ms);
        self.journal_bytes.extend(other.journal_bytes);
        self.render_us.extend(other.render_us);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// Pools the timings of repeated traced rounds. Counts are taken
    /// from the first round; `false` when a later round disagrees.
    pub fn pool_rounds(rounds: Vec<LayerData>) -> (LayerData, bool) {
        let mut it = rounds.into_iter();
        let mut pooled = it.next().unwrap_or_default();
        let mut agree = true;
        for r in it {
            agree &= r.counts == pooled.counts;
            let counts = std::mem::take(&mut pooled.counts);
            pooled.add_run(LayerData {
                counts: BTreeMap::new(),
                ..r
            });
            pooled.counts = counts;
        }
        (pooled, agree)
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. Percentiles
    /// with too few samples read 0 and add to `problems`.
    pub fn metrics(&self, trace_overhead: f64, problems: &mut Vec<String>) -> Vec<Metric> {
        let us = |name, samples: &[f64], p, problems: &mut Vec<String>| {
            Metric::new(name, pct(problems, name, samples, p) / 1e3, "us")
        };
        let count = |k: &str| self.counts.get(k).copied().unwrap_or(0) as f64;
        let counted = |name: &'static str| Metric::new(name, count(name), "count");
        let calls = self.rebalance_ns.len() as f64;
        let rebalance_total: f64 = self.rebalance_ns.iter().sum();
        let stage_us: Vec<f64> = self
            .shadow_ns
            .iter()
            .map(|ns| ratio(*ns, calls) / 1e3)
            .collect();
        let mut out = vec![
            us(
                "kernelsim.epoch_self_us_p50",
                &self.epoch_self_ns,
                50,
                problems,
            ),
            Metric::new(
                "kernelsim.ns_per_slice",
                ratio(self.epoch_self_ns.iter().sum(), self.slices),
                "ns",
            ),
            Metric::new("kernelsim.epoch_self_growth", median(&self.growth), "ratio"),
            counted("kernelsim.tasks_total"),
            Metric::new(
                "kernelsim.live_task_frac",
                ratio(
                    count("kernelsim.live_tasks"),
                    count("kernelsim.tasks_total"),
                ),
                "ratio",
            ),
            counted("kernelsim.migrations.requested"),
            counted("kernelsim.migrations.applied"),
            counted("kernelsim.migrations.rejected"),
            Metric::new(
                "kernelsim.apply_success_ratio",
                ratio(
                    count("kernelsim.migrations.applied"),
                    count("kernelsim.migrations.requested"),
                ),
                "ratio",
            ),
            counted("archsim.memo.hits"),
            counted("archsim.memo.misses"),
            Metric::new(
                "archsim.memo.hit_ratio",
                ratio(
                    count("archsim.memo.hits"),
                    count("archsim.memo.hits") + count("archsim.memo.misses"),
                ),
                "ratio",
            ),
            us("core.rebalance_us_p50", &self.rebalance_ns, 50, problems),
            us("core.rebalance_us_p90", &self.rebalance_ns, 90, problems),
            Metric::new(
                "core.rebalance_frac",
                ratio(rebalance_total, self.epoch_ns),
                "ratio",
            ),
            Metric::new("core.sense_us", stage_us[0], "us"),
            Metric::new("core.predict_us", stage_us[1], "us"),
            Metric::new("core.anneal_us", stage_us[2], "us"),
            Metric::new(
                "core.rebalance_other_us",
                ratio(rebalance_total, calls) / 1e3 - stage_us.iter().sum::<f64>(),
                "us",
            ),
        ];
        out.extend(STAGE_WORK.iter().map(|&(_, name)| counted(name)));
        out.extend([
            Metric::new(
                "campaign.overhead_frac",
                median(&self.campaign_overhead),
                "ratio",
            ),
            Metric::new("campaign.flush_ms_total", median(&self.flush_ms), "ms"),
            counted("campaign.flushes"),
            Metric::new(
                "campaign.journal_bytes",
                median(&self.journal_bytes),
                "bytes",
            ),
            Metric::new(
                "telemetry.snapshot_render_us",
                median(&self.render_us),
                "us",
            ),
            counted("telemetry.snapshot_publishes"),
            Metric::new("bench.trace_overhead_frac", trace_overhead, "ratio"),
        ]);
        out
    }
}

/// `telemetry`'s rebalance stages and the metric of each one's work.
const STAGE_WORK: [(&str, &str); 5] = [
    ("sense", "core.stage.sense.work"),
    ("predict", "core.stage.predict.work"),
    ("anneal", "core.stage.anneal.work"),
    ("exchange", "core.stage.exchange.work"),
    ("apply", "core.stage.apply.work"),
];

/// Last-decile over first-decile mean of `self_ns`, when the run has
/// at least ten epochs.
fn growth(self_ns: &[f64]) -> Option<f64> {
    let decile = self_ns.len() / 10;
    if decile == 0 {
        return None;
    }
    let first = mean(&self_ns[..decile]);
    let last = mean(&self_ns[self_ns.len() - decile..]);
    Some(ratio(last, first))
}

/// Host µs of one Prometheus text render of the hub's registry (the
/// median of five renders).
pub fn render_us(hub: &telemetry::Telemetry) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(hub.registry().prometheus_text());
            elapsed_ns(t) as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// Spans for the first [`EPOCH_SPANS`] epochs of a traced run: each
/// epoch, its rebalance call, and the shadow stages that followed it.
pub fn epoch_spans(spans: &mut Spans, epochs: &[(u64, u64)], calls: &[Call]) {
    for (i, (&(start, dur), call)) in epochs.iter().zip(calls).take(EPOCH_SPANS).enumerate() {
        spans.push(&format!("epoch {i}"), "epoch", start, start + dur);
        let end = call.start_ns + call.rebalance_ns;
        spans.push("rebalance", "rebalance", call.start_ns, end);
        let mut t = end;
        for (stage, ns) in ["sense", "predict", "anneal"].iter().zip(call.shadow_ns) {
            if ns > 0 {
                spans.push(stage, "stage", t, t + ns);
                t += ns;
            }
        }
    }
}
