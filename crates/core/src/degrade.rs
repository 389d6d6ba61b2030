//! Graceful sensing degradation: the mode ladder and prediction
//! quarantine that keep the balancer useful when its inputs rot.
//!
//! SmartBalance's closed loop assumes trustworthy counters and power
//! readings. Real sensor fabrics fail — counters stick, samples drop,
//! power rails read zero — and a controller that keeps annealing over
//! garbage characterization matrices is worse than the vanilla
//! balancer it replaced. This module provides the defense layers:
//!
//! * [`DegradeMode`] — a three-rung ladder of progressively less
//!   sensing-dependent policies:
//!
//!   ```text
//!   Full        sense → predict → anneal          (the paper's loop)
//!     │ ▲
//!     ▼ │       predictions distrusted: place threads greedily by
//!   PredictFree measured IPS/Watt and static core efficiency only
//!     │ ▲
//!     ▼ │       sensing itself distrusted: weight-equalizing spread,
//!   LoadOnly    CFS-style, using nothing but run-queue load
//!   ```
//!
//! * [`DegradeController`] — hysteresis over per-epoch
//!   [`SenseHealth`](crate::sense::SenseHealth)-derived signals:
//!   demotion is fail-fast (straight to the target rung after a short
//!   bad streak), promotion is cautious (one rung at a time after a
//!   longer good streak), so a flapping sensor cannot make the policy
//!   thrash.
//!
//! * [`QuarantineTracker`] — per-thread EWMA of the *identity-pair*
//!   prediction residual (predicting a thread's IPC on the core type
//!   it was just measured on should roughly reproduce the
//!   measurement). Threads whose residual blows past the threshold
//!   are quarantined: their signatures are no longer trusted to
//!   propose cross-core moves.
//!
//! * [`predict_free_greedy`] — the middle rung's allocator: a
//!   deterministic first-fit-decreasing pass that packs threads onto
//!   the statically most-efficient online cores without touching the
//!   regression predictors.

use std::collections::BTreeMap;

use archsim::{CoreId, Platform};
use kernelsim::{affinity_allows, Allocation, TaskId};
use serde::{Deserialize, Serialize};

use crate::sense::ThreadSense;

/// Rung of the degradation ladder, ordered from most to least
/// sensing-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeMode {
    /// The paper's full closed loop: sense → predict → anneal.
    #[default]
    Full,
    /// Predictors distrusted; greedy IPS/Watt placement on measured
    /// throughput and static core efficiency only.
    PredictFree,
    /// Sensing distrusted entirely; load-only CFS-style spread.
    LoadOnly,
}

impl DegradeMode {
    /// Ladder position: 0 = `Full` (healthiest), 2 = `LoadOnly`.
    pub fn rank(self) -> u8 {
        match self {
            DegradeMode::Full => 0,
            DegradeMode::PredictFree => 1,
            DegradeMode::LoadOnly => 2,
        }
    }

    /// The rung with the given rank (clamped to the ladder).
    fn from_rank(rank: u8) -> Self {
        match rank {
            0 => DegradeMode::Full,
            1 => DegradeMode::PredictFree,
            _ => DegradeMode::LoadOnly,
        }
    }

    /// Stable lowercase name for logs and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            DegradeMode::Full => "full",
            DegradeMode::PredictFree => "predict-free",
            DegradeMode::LoadOnly => "load-only",
        }
    }
}

/// EWMA relative identity-pair residual above which a thread's
/// predictions are quarantined (released below half of this).
const QUARANTINE_RESIDUAL: f64 = 0.6;

/// EWMA smoothing factor for the residual tracker.
const RESIDUAL_ALPHA: f64 = 0.5;

/// Fraction of live threads quarantined at which `Full` demotes to
/// `PredictFree`.
const QUARANTINE_DEMOTE_FRAC: f64 = 0.35;

/// Fraction of sensing candidates left *blind* (ran long enough to be
/// measured, yet no fresh sample survived validation and no replayable
/// cached signature remained — the sensing stage fell back to the
/// neutral prior) at which the policy demotes straight to `LoadOnly`.
/// Invalid samples covered by a cache replay do not count (a replayed
/// signature is still a usable one), and neither do threads that merely
/// didn't run this epoch: runtime starvation is a scheduling fact, not a
/// sensing failure.
const BLIND_DEMOTE_FRAC: f64 = 0.5;

/// Tuning knobs for the degradation ladder's hysteresis and the
/// signature cache. The ladder's thresholds are fixed: a thread is
/// quarantined above an EWMA residual of 0.6 (smoothing 0.5) and
/// released below 0.3; `Full` demotes to `PredictFree` once 35 % of the
/// candidates are quarantined, and straight to `LoadOnly` once 50 % are
/// blind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// Consecutive unhealthy epochs before demoting (fail fast).
    pub demote_after: u32,
    /// Consecutive healthy epochs before promoting one rung
    /// (recover cautiously).
    pub promote_after: u32,
    /// Staleness TTL for cached thread signatures, in epochs: a
    /// signature older than this is dropped instead of replayed.
    pub signature_ttl_epochs: u64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            demote_after: 2,
            promote_after: 4,
            signature_ttl_epochs: 16,
        }
    }
}

/// One epoch's health signals, as seen by the [`DegradeController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochHealth {
    /// Live threads the sensing stage processed.
    pub candidates: usize,
    /// Fresh samples rejected as invalid (insane features, non-finite
    /// or non-positive rates) — diagnostic; an invalid sample covered
    /// by a cache replay exerts no ladder pressure.
    pub invalid: usize,
    /// Threads that ran but the sensing stage could say nothing about:
    /// no valid fresh sample and no unexpired cached signature, so they
    /// run on the neutral prior (see `SenseHealth::blind`).
    pub blind: usize,
    /// Threads currently under prediction quarantine.
    pub quarantined: usize,
}

impl EpochHealth {
    /// Fraction of candidates with no usable signature at all.
    pub fn blind_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.blind as f64 / self.candidates as f64
        }
    }

    /// Fraction of candidates under prediction quarantine.
    pub fn quarantined_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.quarantined as f64 / self.candidates as f64
        }
    }
}

/// Hysteresis state machine walking the [`DegradeMode`] ladder.
///
/// Demotions jump straight to the indicated rung after
/// `demote_after` consecutive unhealthy epochs; promotions climb one
/// rung at a time after `promote_after` consecutive epochs healthy
/// enough for a higher rung. Streak counters reset whenever the
/// pressure direction changes, so alternating good/bad epochs hold
/// the current rung instead of oscillating.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeController {
    config: DegradeConfig,
    mode: DegradeMode,
    demote_streak: u32,
    promote_streak: u32,
    transitions: u64,
}

impl DegradeController {
    /// Creates the controller at the `Full` rung.
    pub fn new(config: DegradeConfig) -> Self {
        assert!(
            config.demote_after >= 1 && config.promote_after >= 1,
            "hysteresis windows must be at least one epoch"
        );
        DegradeController {
            config,
            mode: DegradeMode::Full,
            demote_streak: 0,
            promote_streak: 0,
            transitions: 0,
        }
    }

    /// The rung the given health signals call for, ignoring hysteresis.
    /// Replay-covered corruption is *not* pressure: the loop only steps
    /// down when threads are flying blind (signatures expired or never
    /// established) or their predictions are quarantined.
    fn target_for(&self, health: &EpochHealth) -> DegradeMode {
        if health.blind_frac() >= BLIND_DEMOTE_FRAC {
            DegradeMode::LoadOnly
        } else if health.quarantined_frac() >= QUARANTINE_DEMOTE_FRAC {
            DegradeMode::PredictFree
        } else {
            DegradeMode::Full
        }
    }

    /// Feeds one epoch of health signals; returns the mode to use for
    /// this epoch's balancing decision.
    pub fn step(&mut self, health: &EpochHealth) -> DegradeMode {
        let target = self.target_for(health);
        if target.rank() > self.mode.rank() {
            self.promote_streak = 0;
            self.demote_streak += 1;
            if self.demote_streak >= self.config.demote_after {
                // Fail fast: jump straight to the rung the signals
                // demand rather than degrading gradually.
                self.mode = target;
                self.transitions += 1;
                self.demote_streak = 0;
            }
        } else if target.rank() < self.mode.rank() {
            self.demote_streak = 0;
            self.promote_streak += 1;
            if self.promote_streak >= self.config.promote_after {
                // Recover cautiously: one rung per good streak.
                self.mode = DegradeMode::from_rank(self.mode.rank() - 1);
                self.transitions += 1;
                self.promote_streak = 0;
            }
        } else {
            self.demote_streak = 0;
            self.promote_streak = 0;
        }
        self.mode
    }

    /// Current rung.
    pub fn mode(&self) -> DegradeMode {
        self.mode
    }

    /// Total rung changes since construction (both directions).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// Per-thread EWMA of the relative identity-pair prediction residual.
///
/// For a fresh measurement of thread `i` on core type `r`, predicting
/// `ips` for the *same* type `r` from the thread's own signature
/// should approximately reproduce the measurement. A large sustained
/// residual means either the signature or the measurement is corrupt —
/// either way, cross-core predictions derived from it cannot be
/// trusted, so the thread is quarantined until the residual decays
/// below half the threshold.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuarantineTracker {
    /// Per tracked thread: the residual EWMA and whether the thread is
    /// quarantined.
    tracked: BTreeMap<TaskId, (f64, bool)>,
}

impl QuarantineTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        QuarantineTracker::default()
    }

    /// Folds one epoch of senses into the residual EWMAs and updates
    /// the quarantine set. `rows` holds each sense's
    /// [`PredictorSet::predict_ipc_by_type`](crate::predict::PredictorSet::predict_ipc_by_type)
    /// row, flat, `platform.num_types()` entries per sense in sense
    /// order; the identity prediction is the entry of the sense's own
    /// core type. Only fresh, positively-measured samples contribute;
    /// replayed or prior-backed senses leave the residual untouched.
    /// Threads absent from `senses` are forgotten.
    pub fn observe(&mut self, platform: &Platform, senses: &[ThreadSense], rows: &[f64]) {
        let q = platform.num_types();
        // Rebuilt from this epoch's senses: an entry moves over only
        // for a thread that is still sensed, so exited threads drop
        // out and the quarantine fraction tracks the live population.
        let mut previous = std::mem::take(&mut self.tracked);
        for (i, sense) in senses.iter().enumerate() {
            let prev = previous.remove(&sense.task);
            let entry = if sense.fresh && sense.measured_ips > 0.0 {
                let src = platform.core_type(sense.core);
                let predicted_ips = rows[i * q + src.0] * platform.type_config(src).freq_hz;
                let rel = (predicted_ips - sense.measured_ips).abs() / sense.measured_ips.max(1.0);
                let (ewma, mut flagged) = match prev {
                    Some((residual, flagged)) => (
                        RESIDUAL_ALPHA * rel + (1.0 - RESIDUAL_ALPHA) * residual,
                        flagged,
                    ),
                    None => (rel, false),
                };
                if ewma > QUARANTINE_RESIDUAL {
                    flagged = true;
                } else if ewma < QUARANTINE_RESIDUAL / 2.0 {
                    flagged = false;
                }
                Some((ewma, flagged))
            } else {
                prev
            };
            if let Some(entry) = entry {
                self.tracked.insert(sense.task, entry);
            }
        }
    }

    /// Whether this thread's predictions are currently distrusted.
    pub fn is_quarantined(&self, task: TaskId) -> bool {
        self.tracked.get(&task).is_some_and(|&(_, q)| q)
    }

    /// Number of threads currently under quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.tracked.values().filter(|&&(_, q)| q).count()
    }

    /// Quarantined thread ids, in ascending order.
    pub fn quarantined_tasks(&self) -> Vec<TaskId> {
        self.tracked
            .iter()
            .filter(|(_, &(_, q))| q)
            .map(|(&t, _)| t)
            .collect()
    }
}

/// The `PredictFree` rung's allocator: deterministic
/// first-fit-decreasing packing onto the statically most
/// IPS-per-Watt-efficient online cores.
///
/// Threads are placed in descending utilization order (task id breaks
/// ties) onto the most efficient online, affinity-allowed core with
/// remaining utilization capacity; when nothing has room, onto the
/// online allowed core with the most remaining capacity; when no
/// online core is allowed at all, the thread stays put. Only actual
/// moves are emitted.
pub fn predict_free_greedy(
    platform: &Platform,
    senses: &[ThreadSense],
    online: &[bool],
) -> Option<Allocation> {
    let n = platform.num_cores();
    if senses.is_empty() || !(0..n).any(|j| online.get(j).copied().unwrap_or(true)) {
        return None;
    }
    let is_online = |j: usize| online.get(j).copied().unwrap_or(true);
    // Static per-core efficiency from the datasheet peaks; no
    // predictor involvement by construction.
    let efficiency: Vec<f64> = (0..n)
        .map(|j| {
            let cfg = platform.type_config(platform.core_type(CoreId(j)));
            cfg.peak_ips() / cfg.peak_power_w.max(1e-9)
        })
        .collect();
    // Cores from most to least efficient, index breaking ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        efficiency[b]
            .partial_cmp(&efficiency[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut by_demand: Vec<&ThreadSense> = senses.iter().collect();
    by_demand.sort_by(|a, b| {
        b.utilization
            .partial_cmp(&a.utilization)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.task.0.cmp(&b.task.0))
    });

    let mut capacity = vec![1.0f64; n];
    let mut alloc = Allocation::new();
    for sense in by_demand {
        let demand = sense.utilization.clamp(0.0, 1.0);
        let fits = order
            .iter()
            .copied()
            .filter(|&j| is_online(j) && affinity_allows(sense.allowed, CoreId(j)))
            .find(|&j| capacity[j] >= demand);
        let target = fits.or_else(|| {
            (0..n)
                .filter(|&j| is_online(j) && affinity_allows(sense.allowed, CoreId(j)))
                .max_by(|&a, &b| {
                    capacity[a]
                        .partial_cmp(&capacity[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
        });
        let Some(j) = target else {
            continue; // no online core allowed: stay put
        };
        capacity[j] -= demand;
        if j != sense.core.0 {
            alloc.assign(sense.task, CoreId(j));
        }
    }

    if alloc.is_empty() {
        None
    } else {
        Some(alloc)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::predict::PredictorSet;
    use crate::sense::Features;

    fn healthy() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 0,
            blind: 0,
            quarantined: 0,
        }
    }

    fn mostly_blind() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 6,
            blind: 6,
            quarantined: 0,
        }
    }

    fn mostly_quarantined() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 0,
            blind: 0,
            quarantined: 5,
        }
    }

    #[test]
    fn healthy_stream_stays_full() {
        let mut c = DegradeController::new(DegradeConfig::default());
        for _ in 0..50 {
            assert_eq!(c.step(&healthy()), DegradeMode::Full);
        }
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn invalid_storm_demotes_straight_to_load_only() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        // demote_after - 1 bad epochs: still Full.
        for _ in 0..cfg.demote_after - 1 {
            assert_eq!(c.step(&mostly_blind()), DegradeMode::Full);
        }
        // One more: jump straight past PredictFree.
        assert_eq!(c.step(&mostly_blind()), DegradeMode::LoadOnly);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn quarantine_pressure_demotes_one_rung() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        for _ in 0..cfg.demote_after {
            c.step(&mostly_quarantined());
        }
        assert_eq!(c.mode(), DegradeMode::PredictFree);
    }

    #[test]
    fn recovery_climbs_one_rung_per_good_streak() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        for _ in 0..cfg.demote_after {
            c.step(&mostly_blind());
        }
        assert_eq!(c.mode(), DegradeMode::LoadOnly);
        // First good streak: only one rung up, not straight to Full.
        for _ in 0..cfg.promote_after - 1 {
            assert_eq!(c.step(&healthy()), DegradeMode::LoadOnly);
        }
        assert_eq!(c.step(&healthy()), DegradeMode::PredictFree);
        // Second good streak completes the recovery.
        for _ in 0..cfg.promote_after - 1 {
            assert_eq!(c.step(&healthy()), DegradeMode::PredictFree);
        }
        assert_eq!(c.step(&healthy()), DegradeMode::Full);
        assert_eq!(c.transitions(), 3);
    }

    #[test]
    fn promotion_climbs_exactly_one_rung_per_streak_for_every_window() {
        // Property sweep over the hysteresis windows: from LoadOnly, a
        // healthy stream must spend exactly `promote_after` epochs on
        // each rung, pass through PredictFree exactly once (never
        // LoadOnly → Full directly), and then hold Full forever.
        for promote_after in 1..=8u32 {
            for demote_after in 1..=4u32 {
                let cfg = DegradeConfig {
                    promote_after,
                    demote_after,
                    ..DegradeConfig::default()
                };
                let mut c = DegradeController::new(cfg);
                for _ in 0..demote_after {
                    c.step(&mostly_blind());
                }
                assert_eq!(c.mode(), DegradeMode::LoadOnly);
                let before = c.transitions();

                let ladder: Vec<DegradeMode> = (0..promote_after * 2 + 16)
                    .map(|_| c.step(&healthy()))
                    .collect();
                // Each step climbs at most one rank — PredictFree is
                // never skipped on the way back up.
                let mut prev = DegradeMode::LoadOnly.rank();
                for mode in &ladder {
                    assert!(
                        mode.rank() <= prev && prev - mode.rank() <= 1,
                        "promotion skipped a rung: {prev} -> {} (promote_after {promote_after})",
                        mode.rank()
                    );
                    prev = mode.rank();
                }
                // Exactly promote_after epochs on each intermediate
                // rung, then Full for the rest of the stream.
                let on_load_only = ladder
                    .iter()
                    .filter(|m| **m == DegradeMode::LoadOnly)
                    .count();
                let on_predict_free = ladder
                    .iter()
                    .filter(|m| **m == DegradeMode::PredictFree)
                    .count();
                // promote_after - 1 epochs still LoadOnly; the
                // promote_after-th step returns PredictFree.
                assert_eq!(on_load_only, (promote_after - 1) as usize);
                assert_eq!(on_predict_free, promote_after as usize);
                assert_eq!(ladder.last(), Some(&DegradeMode::Full));
                assert_eq!(c.transitions() - before, 2, "exactly two promotions");
            }
        }
    }

    #[test]
    fn flapping_health_does_not_thrash() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        // Alternating good/bad epochs never complete either streak.
        for _ in 0..40 {
            c.step(&mostly_blind());
            c.step(&healthy());
        }
        assert_eq!(c.mode(), DegradeMode::Full);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn empty_epoch_is_neutral() {
        let h = EpochHealth::default();
        assert_eq!(h.blind_frac(), 0.0);
        assert_eq!(h.quarantined_frac(), 0.0);
        let mut c = DegradeController::new(DegradeConfig::default());
        assert_eq!(c.step(&h), DegradeMode::Full);
    }

    fn sense(task: usize, core: usize, util: f64) -> ThreadSense {
        // A plausible balanced-thread signature (cf. the sensing
        // stage's neutral prior) so identity predictions are sane.
        let features: Features = [
            2.0, 0.01, 0.05, 0.30, 0.15, 0.05, 0.001, 0.005, 1.0, 1.0, 0.05,
        ];
        ThreadSense {
            task: TaskId(task),
            core: CoreId(core),
            features,
            measured_ips: 1e9,
            measured_power_w: 1.0,
            utilization: util,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: true,
        }
    }

    #[test]
    fn greedy_prefers_efficient_online_cores() {
        let platform = Platform::quad_heterogeneous();
        // In the quad platform the little cores are the most
        // IPS/Watt-efficient; a lone small thread on a big core should
        // be pulled there.
        let effs: Vec<f64> = (0..platform.num_cores())
            .map(|j| {
                let cfg = platform.type_config(platform.core_type(CoreId(j)));
                cfg.peak_ips() / cfg.peak_power_w
            })
            .collect();
        let best = (0..platform.num_cores())
            .max_by(|&a, &b| effs[a].partial_cmp(&effs[b]).unwrap())
            .unwrap();
        let src = (best + 1) % platform.num_cores();
        let senses = vec![sense(0, src, 0.5)];
        let alloc =
            predict_free_greedy(&platform, &senses, &vec![true; platform.num_cores()]).unwrap();
        assert_eq!(alloc.core_of(TaskId(0)), Some(CoreId(best)));
    }

    #[test]
    fn greedy_never_targets_offline_cores() {
        let platform = Platform::quad_heterogeneous();
        let n = platform.num_cores();
        let mut online = vec![true; n];
        // Everything offline except core 2.
        for (j, o) in online.iter_mut().enumerate() {
            *o = j == 2;
        }
        let senses: Vec<ThreadSense> = (0..4).map(|i| sense(i, 0, 0.9)).collect();
        let alloc = predict_free_greedy(&platform, &senses, &online).unwrap();
        for (_, core) in alloc.iter() {
            assert_eq!(core, CoreId(2));
        }
    }

    #[test]
    fn greedy_respects_affinity() {
        let platform = Platform::quad_heterogeneous();
        let mut s = sense(0, 1, 0.5);
        s.allowed = 0b0010; // pinned to core 1
        let alloc = predict_free_greedy(&platform, &[s], &vec![true; platform.num_cores()]);
        assert!(alloc.is_none(), "pinned thread already home: no moves");
    }

    #[test]
    fn greedy_with_no_online_allowed_core_stays_put() {
        let platform = Platform::quad_heterogeneous();
        let mut s = sense(0, 1, 0.5);
        s.allowed = 0b0010;
        let mut online = vec![true; platform.num_cores()];
        online[1] = false; // the only allowed core is offline
        assert!(predict_free_greedy(&platform, &[s], &online).is_none());
    }

    #[test]
    fn quarantine_tracks_identity_residual() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 150, 0xDAC_2015);
        let mut q = QuarantineTracker::new();

        // A self-consistent sense: measured ips equals the identity
        // prediction, residual ~0 → never quarantined.
        let mut good = sense(0, 0, 0.5);
        let src = platform.core_type(good.core);
        let ipc = predictors.predict_ipc(&good.features, src, src);
        good.measured_ips = ipc * platform.type_config(src).freq_hz;

        // A corrupted sense: measurement wildly off the prediction.
        let mut bad = sense(1, 1, 0.5);
        bad.measured_ips = 1e3;

        // Each sense's prediction row, as the balancer's preamble
        // hands them over: flat, one row per sense in sense order.
        let rows_of = |senses: &[ThreadSense]| -> Vec<f64> {
            senses
                .iter()
                .flat_map(|s| {
                    predictors.predict_ipc_by_type(&s.features, platform.core_type(s.core))
                })
                .collect()
        };
        for _ in 0..4 {
            q.observe(&platform, &[good, bad], &rows_of(&[good, bad]));
        }
        assert!(!q.is_quarantined(TaskId(0)));
        assert!(q.is_quarantined(TaskId(1)));
        assert_eq!(q.quarantined_count(), 1);
        assert_eq!(q.quarantined_tasks(), vec![TaskId(1)]);

        // Healing: the bad thread starts measuring consistently; the
        // EWMA decays and the quarantine releases.
        let src1 = platform.core_type(bad.core);
        let ipc1 = predictors.predict_ipc(&bad.features, src1, src1);
        bad.measured_ips = ipc1 * platform.type_config(src1).freq_hz;
        // The EWMA halves each epoch (alpha 0.5); decaying a ~1e6
        // relative residual below the release threshold takes a while.
        for _ in 0..40 {
            q.observe(&platform, &[good, bad], &rows_of(&[good, bad]));
        }
        assert!(!q.is_quarantined(TaskId(1)), "residual decayed below half");

        // Exited threads are forgotten.
        q.observe(&platform, &[good], &rows_of(&[good]));
        assert_eq!(q.quarantined_count(), 0);
        assert!(!q.is_quarantined(TaskId(1)));
    }

    /// A replayed sense keeps its thread's residual and flag, a fresh
    /// one updates them, and only a thread missing from the senses is
    /// forgotten.
    #[test]
    fn replayed_senses_keep_their_quarantine_state() {
        let platform = Platform::quad_heterogeneous();
        let q = platform.num_types();
        let mut tracker = QuarantineTracker::new();
        // Identity rows of 1.0 IPC against a wildly lower measurement.
        let mut bad = sense(1, 1, 0.5);
        bad.measured_ips = 1e3;
        let never_fresh = ThreadSense {
            fresh: false,
            ..sense(2, 2, 0.5)
        };
        let rows = vec![1.0; 2 * q];
        tracker.observe(&platform, &[bad, never_fresh], &rows);
        assert_eq!(tracker.quarantined_tasks(), vec![TaskId(1)]);
        let quarantined = tracker.clone();

        // Replayed with rows that would clear the residual: untouched.
        let replayed = ThreadSense {
            fresh: false,
            ..bad
        };
        tracker.observe(&platform, &[replayed, never_fresh], &vec![0.0; 2 * q]);
        assert_eq!(tracker, quarantined, "a replay leaves the entry as it was");
        assert_eq!(tracker.quarantined_count(), 1);

        // Gone for an epoch: forgotten, so it restarts unflagged.
        tracker.observe(&platform, &[never_fresh], &rows[..q]);
        assert!(!tracker.is_quarantined(TaskId(1)));
        assert_eq!(tracker, QuarantineTracker::new());
    }

    #[test]
    fn mode_names_and_ranks_are_stable() {
        assert_eq!(DegradeMode::Full.name(), "full");
        assert_eq!(DegradeMode::PredictFree.name(), "predict-free");
        assert_eq!(DegradeMode::LoadOnly.name(), "load-only");
        assert!(DegradeMode::Full.rank() < DegradeMode::PredictFree.rank());
        assert!(DegradeMode::PredictFree.rank() < DegradeMode::LoadOnly.rank());
    }
}
