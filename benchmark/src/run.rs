//! What every workload shares: the round, the epoch loop of the three
//! single-system workloads, and the untraced and traced runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use archsim::WorkloadCharacteristics;
use kernelsim::{LoadBalancer, System};
use smartbalance::{panic_message, splitmix64};
use workloads::{Phase, SleepPattern, SyntheticGenerator, WorkloadProfile};

use crate::host::{Clock, Laps};
use crate::probe::{epoch_spans, ns_since, render_us, LayerData, Shadow, Spans, TimedBalancer};
use crate::stats::{median, peak_rss_mb, percentile, ratio, Fingerprint, Reservoir};

/// What one round of a workload measured.
#[derive(Debug)]
pub struct Round {
    /// Seconds of the round's set-up (platform, predictor training,
    /// spawns, grid build) at the reference host speed.
    pub setup_s: f64,
    /// Seconds of the timed phase at the reference host speed.
    pub wall_s: f64,
    /// Host seconds of the timed phase, as measured.
    pub host_wall_s: f64,
    /// Ms per simulated epoch of an untraced round at the reference
    /// host speed: per epoch, or per spec of a campaign (fig4-campaign).
    pub epoch_ms: Vec<f64>,
    /// Scheduling slices the round dispatched.
    pub slices: u64,
    /// Simulated instructions per joule.
    pub ips_per_w: f64,
    /// Hash of the simulated outcome.
    pub fingerprint: u64,
    /// Units of work attempted (one round, or the cells of a campaign).
    pub attempted: u64,
    /// Units that failed.
    pub failed: u64,
    /// Broken invariants of the simulated outcome.
    pub problems: Vec<String>,
    /// Per-cell host ms and the smart/vanilla ratio (fig4-campaign).
    pub cells: Option<Cells>,
    /// Per-layer observations (traced rounds only).
    pub layers: Option<LayerData>,
}

/// The campaign-only results of a fig4-campaign round.
#[derive(Debug)]
pub struct Cells {
    /// Host ms of each completed cell.
    pub cell_ms: Vec<f64>,
    /// Mean smart/vanilla IPS/W over the grid's pairs.
    pub gain_vs_vanilla: f64,
}

/// A benchmark workload: rounds of identical simulated work.
pub trait Workload {
    /// Epoch-time samples an untraced round yields.
    fn samples_per_round(&self) -> usize;

    /// Runs one round: its set-up, timed on its own, then the timed
    /// phase. With `spans`, the round is traced.
    fn round(&mut self, spans: Option<&mut Spans>) -> Round;
}

/// The workload generator seed for benchmark seed `seed`: the seed is
/// mixed first, since the synthetic generator ORs a constant into its
/// state and would map nearby seeds to one stream.
pub fn input_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt)
}

/// The set-up and timed phase of a round whose `laps` are its set-up
/// followed by the laps of its timed phase: the set-up and the timed
/// phase at the reference host speed, and the timed phase's host
/// seconds.
pub fn phases(laps: &Laps) -> (f64, f64, f64) {
    let setup_s = laps.scaled.first().copied().unwrap_or(0.0);
    let rest = |v: &[f64]| v.iter().skip(1).sum::<f64>();
    (setup_s, rest(&laps.scaled), rest(&laps.host))
}

/// Relative range by which the seed moves every task parameter of a
/// fixed task set. Fully random draws change the work of a round with
/// the seed: on `hotloop`, simulated IPS/W moved ±25% between seeds, and
/// on `scale-1024` a round's wall time followed its slices, which moved
/// ±8%.
const JITTER: f64 = 0.1;

/// `profile` with every characteristic and its sleep pattern scaled by
/// an independent factor in `[1 - JITTER, 1 + JITTER)`.
pub fn jittered(profile: &WorkloadProfile, gen: &mut SyntheticGenerator) -> WorkloadProfile {
    let mut j = |x: f64| x * gen.range(1.0 - JITTER, 1.0 + JITTER);
    let phases = profile
        .phases()
        .iter()
        .map(|p| {
            let c = &p.characteristics;
            let c = WorkloadCharacteristics {
                ilp: j(c.ilp),
                mem_share: j(c.mem_share),
                branch_share: j(c.branch_share),
                data_working_set_kib: j(c.data_working_set_kib),
                code_working_set_kib: j(c.code_working_set_kib),
                branch_entropy: j(c.branch_entropy),
                data_pages: j(c.data_pages),
                code_pages: j(c.code_pages),
                mlp: j(c.mlp),
            };
            Phase::new(c.clamped(), p.instructions)
        })
        .collect();
    let out = WorkloadProfile::new(profile.name(), phases);
    match profile.sleep_pattern() {
        Some(s) => out.with_sleep(SleepPattern::new(
            (j(s.burst_instructions as f64) as u64).max(1),
            j(s.sleep_ns as f64) as u64,
        )),
        None => out,
    }
}

/// Runs `epochs` epochs of `sys` under `balancer`, one `step` per
/// epoch, on `clock`, whose first lap was the round's set-up. Untraced,
/// every `chunk` epochs are one lap and give one sample of ms per
/// epoch. Traced, every epoch is a lap, and the system and balancer
/// also get a telemetry hub and the balancer is wrapped in the timing
/// wrapper (with `shadow`).
pub fn run_sim(
    mut clock: Clock,
    sys: &mut System,
    balancer: Box<dyn LoadBalancer>,
    epochs: u64,
    chunk: u64,
    trace: Option<(&mut Spans, Option<Shadow>)>,
    step: &mut dyn FnMut(&mut System, &mut dyn LoadBalancer, u64),
) -> Round {
    let (laps, epoch_ms, layers) = match trace {
        None => {
            let mut balancer = balancer;
            for e in 0..epochs {
                step(sys, balancer.as_mut(), e);
                if (e + 1) % chunk == 0 {
                    clock.lap();
                }
            }
            let laps = clock.finish();
            let epoch_ms = laps.scaled[1..]
                .iter()
                .map(|s| s * 1e3 / chunk as f64)
                .collect();
            (laps, epoch_ms, None)
        }
        Some((spans, shadow)) => {
            let hub = telemetry::shared();
            sys.set_telemetry(hub.clone());
            let base = spans.base();
            let mut timed = TimedBalancer::new(balancer, shadow, base);
            timed.attach_telemetry(&hub);
            let mut marks = Vec::with_capacity(epochs as usize);
            for e in 0..epochs {
                let t = Instant::now();
                step(sys, &mut timed, e);
                let dur = ns_since(t, Instant::now());
                marks.push((ns_since(base, t), dur));
                clock.lap();
            }
            let laps = clock.finish();
            let epoch_ns: Vec<f64> = marks.iter().map(|&(_, d)| d as f64).collect();
            let mut layers = LayerData::from_run(sys, &timed, &epoch_ns, &hub);
            layers.render_us.push(render_us(&hub.borrow()));
            epoch_spans(spans, &marks, &timed.calls);
            (laps, Vec::new(), Some(layers))
        }
    };
    let (setup_s, wall_s, host_wall_s) = phases(&laps);
    let stats = sys.stats();
    let mut fp = Fingerprint::default();
    fp.outcome(&stats);
    fp.word(sys.tasks().len() as u64);
    let mut problems = Vec::new();
    let per_core: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
    if per_core != stats.total_instructions || stats.total_instructions == 0 {
        problems.push(format!(
            "instructions: {} in total, {per_core} summed over cores",
            stats.total_instructions
        ));
    }
    if !(stats.total_energy_j.is_finite() && stats.total_energy_j > 0.0) {
        problems.push(format!("energy not positive: {} J", stats.total_energy_j));
    }
    let t = stats.migration_totals;
    if t.migrated + t.rejected > t.requested {
        problems.push(format!(
            "migrations: {} applied + {} rejected > {} requested",
            t.migrated, t.rejected, t.requested
        ));
    }
    Round {
        setup_s,
        wall_s,
        host_wall_s,
        epoch_ms,
        slices: stats.total_slices,
        ips_per_w: stats.instructions_per_joule(),
        fingerprint: fp.value(),
        attempted: 1,
        failed: 0,
        problems,
        cells: None,
        layers,
    }
}

/// One measured value, as printed and as written to JSON.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// The fingerprint every round agreed on (the first round's when
    /// they did not).
    pub fingerprint: u64,
    /// Rounds run, warm-up included.
    pub rounds: usize,
    /// Units attempted over all rounds.
    pub attempted: u64,
    /// Units failed over all rounds.
    pub failed: u64,
    /// Every broken check; empty means correct.
    pub problems: Vec<String>,
}

/// The rounds of one run, with failures and fingerprints checked.
#[derive(Default)]
struct Rounds {
    ok: Vec<Round>,
    report: Report,
}

impl Rounds {
    fn run(&mut self, w: &mut dyn Workload, mut spans: Option<&mut Spans>) -> Option<usize> {
        self.report.rounds += 1;
        let begin = spans.as_ref().map(|s| s.now_ns());
        let outcome = catch_unwind(AssertUnwindSafe(|| w.round(spans.as_deref_mut())));
        if let (Some(s), Some(begin)) = (spans, begin) {
            s.push("round", "round", begin, s.now_ns());
        }
        match outcome {
            Ok(round) => {
                let r = &mut self.report;
                if r.rounds == 1 {
                    r.fingerprint = round.fingerprint;
                } else if round.fingerprint != r.fingerprint {
                    r.problems.push(format!(
                        "round {} fingerprint {:016x} differs from {:016x}",
                        r.rounds, round.fingerprint, r.fingerprint
                    ));
                }
                r.attempted += round.attempted;
                r.failed += round.failed;
                r.problems.extend(round.problems.iter().cloned());
                self.ok.push(round);
                Some(self.ok.len() - 1)
            }
            Err(payload) => {
                let r = &mut self.report;
                r.attempted += 1;
                r.failed += 1;
                r.problems.push(format!(
                    "round {} panicked: {}",
                    r.rounds,
                    panic_message(payload.as_ref())
                ));
                None
            }
        }
    }
}

/// A percentile for a report; a problem, and 0, when the samples are
/// too few to support it.
pub fn pct(problems: &mut Vec<String>, name: &str, samples: &[f64], p: u32) -> f64 {
    percentile(samples, p).unwrap_or_else(|| {
        problems.push(format!("{name}: {} samples are too few", samples.len()));
        0.0
    })
}

/// Rounds an untraced run times at least, warm-up not counted.
const MIN_ROUNDS: usize = 3;

/// The untraced run: a warm-up round, then rounds until `seconds` of
/// timed work, at least [`MIN_ROUNDS`] of them and enough epoch samples
/// for a p90.
pub fn measure(w: &mut dyn Workload, seconds: f64) -> Report {
    let mut rounds = Rounds::default();
    rounds.run(w, None);
    // Peak memory of one round in a fresh process, as a user running
    // the workload once gets it. Later rounds reuse a heap whose glibc
    // mmap and trim thresholds the earlier rounds' frees have raised, and
    // the peak over them jumped by ~30% at random (task-churn: 9.1 to
    // 11.7 MB, in about one 20-second run in five).
    let peak_rss = peak_rss_mb().unwrap_or(0.0);
    let first_timed = rounds.ok.len();
    let need = 100usize
        .div_ceil(w.samples_per_round().max(1))
        .max(MIN_ROUNDS);
    let mut epoch_ms = Reservoir::default();
    let mut cell_ms = Reservoir::default();
    let start = Instant::now();
    for timed in 0.. {
        if timed >= need && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if let Some(i) = rounds.run(w, None) {
            let round = &mut rounds.ok[i];
            epoch_ms.extend(std::mem::take(&mut round.epoch_ms));
            if let Some(cells) = &mut round.cells {
                cell_ms.extend(std::mem::take(&mut cells.cell_ms));
            }
        }
    }
    let Rounds { ok, mut report } = rounds;
    let timed = &ok[first_timed.min(ok.len())..];
    let of_rounds = |f: &dyn Fn(&Round) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
    let p = &mut report.problems;
    let mut m = vec![
        Metric::new(
            "setup_s",
            median(&ok.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            "s",
        ),
        Metric::new("wall_s", of_rounds(&|r| r.wall_s), "s"),
        Metric::new("host_wall_s", of_rounds(&|r| r.host_wall_s), "s"),
        Metric::new(
            "slices_per_s",
            of_rounds(&|r| r.slices as f64 / r.wall_s),
            "1/s",
        ),
        Metric::new(
            "epoch_ms_p50",
            pct(p, "epoch_ms_p50", epoch_ms.values(), 50),
            "ms",
        ),
        Metric::new(
            "epoch_ms_p90",
            pct(p, "epoch_ms_p90", epoch_ms.values(), 90),
            "ms",
        ),
        Metric::new(
            "ips_per_w",
            ok.first().map_or(0.0, |r| r.ips_per_w),
            "instr/J",
        ),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    if let Some(cells) = timed.iter().find_map(|r| r.cells.as_ref()) {
        m.extend([
            Metric::new(
                "cell_ms_p50",
                pct(p, "cell_ms_p50", cell_ms.values(), 50),
                "ms",
            ),
            Metric::new(
                "cell_ms_p90",
                pct(p, "cell_ms_p90", cell_ms.values(), 90),
                "ms",
            ),
            Metric::new(
                "cells_per_s",
                of_rounds(&|r| r.attempted as f64 / r.wall_s),
                "1/s",
            ),
            Metric::new("gain_vs_vanilla", cells.gain_vs_vanilla, "ratio"),
        ]);
    }
    m.push(Metric::new(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    ));
    report.metrics = m;
    report
}

/// The traced run: a warm-up round, then untraced and traced rounds in
/// turn until `seconds` have passed and at least 100 rebalance calls
/// were traced. Per-layer timings pool over the traced rounds.
pub fn measure_traced(w: &mut dyn Workload, seconds: f64, spans: &mut Spans) -> Report {
    let mut rounds = Rounds::default();
    rounds.run(w, None);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        untraced.extend(rounds.run(w, None));
        traced.extend(rounds.run(w, Some(&mut *spans)));
        let calls: usize = traced
            .iter()
            .filter_map(|&i| rounds.ok[i].layers.as_ref())
            .map(|l| l.rebalance_ns.len())
            .sum();
        let enough = calls >= 100 && !untraced.is_empty();
        // Failed rounds are already reported; stop retrying them.
        if (enough && start.elapsed().as_secs_f64() >= seconds) || rounds.report.failed >= 4 {
            break;
        }
    }
    let Rounds { mut ok, mut report } = rounds;
    let wall = |ix: &[usize]| median(&ix.iter().map(|&i| ok[i].wall_s).collect::<Vec<_>>());
    let overhead = ratio(wall(&traced), wall(&untraced)) - 1.0;
    let layers: Vec<LayerData> = traced.iter().filter_map(|&i| ok[i].layers.take()).collect();
    let (pooled, agree) = LayerData::pool_rounds(layers);
    if !agree {
        report
            .problems
            .push("per-layer counts differ between traced rounds".into());
    }
    report.metrics = pooled.metrics(overhead, &mut report.problems);
    report
}
