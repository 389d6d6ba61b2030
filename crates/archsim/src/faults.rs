//! Deterministic, seeded sensor fault injection.
//!
//! SmartBalance is a closed-loop controller: every decision rests on
//! counter samples and power readings that, on real silicon (paper
//! Section 6.4's Odroid-XU3-class sensors), are sometimes wrong —
//! counters stick, samples get lost, ADCs are noisy, registers
//! saturate, power rails drop out. This module provides the fault model
//! the rest of the stack is hardened against:
//!
//! * [`FaultKind`] — the five per-core, per-channel fault primitives;
//! * [`FaultPlan`] — a declarative schedule of [`FaultEvent`]s
//!   (inject/clear a fault on a core, or on all cores, at epoch N);
//! * [`FaultHarness`] — the interpreter: advances through the plan
//!   epoch by epoch and corrupts readings *deterministically* (all
//!   randomness is a stateless hash of `(seed, epoch, core, channel,
//!   salt)`, so corrupted values are independent of read order and
//!   bit-reproducible across runs).
//!
//! The scheduler (`kernelsim::System::set_fault_plan`) passes every
//! task and core row of each epoch report through the harness before
//! the balancer sees it; its own accounts keep the ground truth. With
//! an empty plan the harness is *quiescent*: every read passes through
//! untouched (bit-identical) and no random draws are made.

use crate::counters::CounterSample;

/// One fault primitive with its intensity parameter.
///
/// Probabilities are per core-epoch (for stuck / power dropout) or per
/// sample (for drops); `sigma` bounds the relative error of every noisy
/// reading; `cap` clamps raw counter values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The counter bank freezes: with probability `prob` per
    /// core-epoch, counters stop advancing (the epoch's deltas read as
    /// zero).
    StuckCounters {
        /// Probability in `[0, 1]` that an epoch's counters are stuck.
        prob: f64,
    },
    /// A whole sample is lost in transit: with probability `prob` per
    /// sample, counters and energy read as zero.
    DroppedSamples {
        /// Probability in `[0, 1]` that a sample is dropped.
        prob: f64,
    },
    /// Bounded multiplicative noise: every counter field and energy
    /// reading is scaled by `1 + sigma * u` with `u` uniform in
    /// `[-1, 1]` (clamped at zero from below).
    Noise {
        /// Maximum relative error, `>= 0`.
        sigma: f64,
    },
    /// Counter registers saturate: every counter field is clamped at
    /// `cap`.
    Saturation {
        /// Saturation value, `> 0`.
        cap: u64,
    },
    /// The per-core power sensor drops out: with probability `prob` per
    /// core-epoch, energy reads as zero while counters stay intact.
    PowerDropout {
        /// Probability in `[0, 1]` that an epoch's power rail is out.
        prob: f64,
    },
}

impl FaultKind {
    /// The channel class this fault occupies (used by clear events).
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::StuckCounters { .. } => FaultClass::Stuck,
            FaultKind::DroppedSamples { .. } => FaultClass::Drop,
            FaultKind::Noise { .. } => FaultClass::Noise,
            FaultKind::Saturation { .. } => FaultClass::Saturation,
            FaultKind::PowerDropout { .. } => FaultClass::Power,
        }
    }

    fn validate(&self) {
        match *self {
            FaultKind::StuckCounters { prob }
            | FaultKind::DroppedSamples { prob }
            | FaultKind::PowerDropout { prob } => {
                assert!(
                    (0.0..=1.0).contains(&prob),
                    "fault probability must be in [0, 1], got {prob}"
                );
            }
            FaultKind::Noise { sigma } => {
                assert!(
                    sigma.is_finite() && sigma >= 0.0,
                    "noise sigma must be finite and >= 0, got {sigma}"
                );
            }
            FaultKind::Saturation { cap } => {
                assert!(cap > 0, "saturation cap must be > 0");
            }
        }
    }
}

/// A fault channel, for [`FaultAction::Clear`] events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Stuck-at counters.
    Stuck,
    /// Dropped samples.
    Drop,
    /// Multiplicative noise.
    Noise,
    /// Counter saturation.
    Saturation,
    /// Power-sensor dropout.
    Power,
    /// Every channel at once.
    All,
}

/// What a [`FaultEvent`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Activate a fault (replacing any active fault of the same class).
    Inject(FaultKind),
    /// Deactivate the given class of fault.
    Clear(FaultClass),
}

/// One scheduled fault transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Epoch index at which the action takes effect (inclusive).
    pub epoch: u64,
    /// Target core, or `None` for all cores.
    pub core: Option<usize>,
    /// What happens.
    pub action: FaultAction,
}

/// A declarative schedule of fault events.
///
/// # Examples
///
/// ```
/// use archsim::{FaultClass, FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .inject(4, None, FaultKind::StuckCounters { prob: 0.2 })
///     .inject(4, Some(1), FaultKind::PowerDropout { prob: 1.0 })
///     .clear(12, None, FaultClass::All);
/// assert_eq!(plan.events().len(), 3);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::new().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the harness stays quiescent forever).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` on `core` (`None` = all cores) from `epoch` on.
    ///
    /// # Panics
    ///
    /// Panics if the fault parameters are out of range (probability
    /// outside `[0, 1]`, negative/non-finite sigma, zero cap).
    pub fn inject(mut self, epoch: u64, core: Option<usize>, kind: FaultKind) -> Self {
        kind.validate();
        self.events.push(FaultEvent {
            epoch,
            core,
            action: FaultAction::Inject(kind),
        });
        self
    }

    /// Schedules a clear of `class` on `core` (`None` = all cores) at
    /// `epoch`.
    pub fn clear(mut self, epoch: u64, core: Option<usize>, class: FaultClass) -> Self {
        self.events.push(FaultEvent {
            epoch,
            core,
            action: FaultAction::Clear(class),
        });
        self
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Telemetry of what the harness actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Plan events applied so far.
    pub events_applied: u64,
    /// Core-epochs during which counters were stuck.
    pub stuck_core_epochs: u64,
    /// Core-epochs during which the power sensor was out.
    pub power_dropout_core_epochs: u64,
    /// Individual samples dropped by [`FaultHarness::corrupt_reading`].
    pub dropped_samples: u64,
    /// Individual samples altered in any way by
    /// [`FaultHarness::corrupt_reading`].
    pub corrupted_samples: u64,
}

/// Active fault configuration of one core, plus the flags resolved for
/// the current epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CoreFaultState {
    stuck_prob: f64,
    drop_prob: f64,
    noise_sigma: f64,
    saturation_cap: Option<u64>,
    power_dropout_prob: f64,
    /// Counters are frozen this epoch (drawn once per epoch).
    stuck_now: bool,
    /// Power sensor is out this epoch (drawn once per epoch).
    power_out_now: bool,
}

impl CoreFaultState {
    fn apply(&mut self, action: FaultAction) {
        match action {
            FaultAction::Inject(kind) => match kind {
                FaultKind::StuckCounters { prob } => self.stuck_prob = prob,
                FaultKind::DroppedSamples { prob } => self.drop_prob = prob,
                FaultKind::Noise { sigma } => self.noise_sigma = sigma,
                FaultKind::Saturation { cap } => self.saturation_cap = Some(cap),
                FaultKind::PowerDropout { prob } => self.power_dropout_prob = prob,
            },
            FaultAction::Clear(class) => {
                if matches!(class, FaultClass::Stuck | FaultClass::All) {
                    self.stuck_prob = 0.0;
                }
                if matches!(class, FaultClass::Drop | FaultClass::All) {
                    self.drop_prob = 0.0;
                }
                if matches!(class, FaultClass::Noise | FaultClass::All) {
                    self.noise_sigma = 0.0;
                }
                if matches!(class, FaultClass::Saturation | FaultClass::All) {
                    self.saturation_cap = None;
                }
                if matches!(class, FaultClass::Power | FaultClass::All) {
                    self.power_dropout_prob = 0.0;
                }
            }
        }
    }

    /// No fault configured on any channel (epoch flags are then all
    /// false by construction).
    fn is_clean(&self) -> bool {
        self.stuck_prob == 0.0
            && self.drop_prob == 0.0
            && self.noise_sigma == 0.0
            && self.saturation_cap.is_none()
            && self.power_dropout_prob == 0.0
    }
}

/// Draw channels: mixed into the hash so the same `(epoch, core, salt)`
/// never shares a draw across fault kinds.
const CH_STUCK: u64 = 0x51;
const CH_DROP: u64 = 0xD0;
const CH_NOISE: u64 = 0x40;
const CH_POWER: u64 = 0xA0;

/// splitmix64 finalizer: the stateless bit mixer behind every draw.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rebuilds a [`CounterSample`] field by field; `f` receives the value
/// and a stable field index (used to decorrelate per-field noise draws).
fn map_fields(s: CounterSample, mut f: impl FnMut(u64, u64) -> u64) -> CounterSample {
    CounterSample {
        cy_busy: f(s.cy_busy, 0),
        cy_idle: f(s.cy_idle, 1),
        cy_mem_stall: f(s.cy_mem_stall, 2),
        cy_sleep: f(s.cy_sleep, 3),
        instructions: f(s.instructions, 4),
        mem_instructions: f(s.mem_instructions, 5),
        branch_instructions: f(s.branch_instructions, 6),
        branch_mispredicts: f(s.branch_mispredicts, 7),
        l1i_accesses: f(s.l1i_accesses, 8),
        l1i_misses: f(s.l1i_misses, 9),
        l1d_accesses: f(s.l1d_accesses, 10),
        l1d_misses: f(s.l1d_misses, 11),
        itlb_accesses: f(s.itlb_accesses, 12),
        itlb_misses: f(s.itlb_misses, 13),
        dtlb_accesses: f(s.dtlb_accesses, 14),
        dtlb_misses: f(s.dtlb_misses, 15),
    }
}

/// The fault-plan interpreter.
///
/// Owns the per-core fault state machine; [`advance_to_epoch`] applies
/// due plan events and resolves the per-epoch probabilistic flags, then
/// [`corrupt_reading`] filters individual `(counters, energy)` samples.
/// All draws hash `(seed, epoch, core, channel, salt)` — no mutable RNG
/// state — so corruption is identical regardless of how many reads
/// happen or in which order.
///
/// [`advance_to_epoch`]: FaultHarness::advance_to_epoch
/// [`corrupt_reading`]: FaultHarness::corrupt_reading
#[derive(Debug, Clone, PartialEq)]
pub struct FaultHarness {
    seed: u64,
    /// Plan events, stable-sorted by epoch.
    events: Vec<FaultEvent>,
    /// Index of the first event not yet applied.
    cursor: usize,
    /// Current epoch (set by `advance_to_epoch`).
    epoch: u64,
    cores: Vec<CoreFaultState>,
    stats: FaultStats,
}

impl FaultHarness {
    /// Builds a harness over `plan` for a machine with `num_cores`.
    pub fn new(plan: FaultPlan, seed: u64, num_cores: usize) -> Self {
        let mut events = plan.events;
        events.sort_by_key(|e| e.epoch);
        FaultHarness {
            seed,
            events,
            cursor: 0,
            epoch: 0,
            cores: vec![CoreFaultState::default(); num_cores],
            stats: FaultStats::default(),
        }
    }

    /// Harness telemetry so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// `true` when no core has any active fault this epoch: every read
    /// passes through bit-identical and no draws are made.
    pub fn is_quiescent(&self) -> bool {
        self.cores.iter().all(CoreFaultState::is_clean)
    }

    /// A uniform draw in `[0, 1)`, stateless in `(seed, epoch, core,
    /// channel, salt)`.
    fn unit(&self, core: u64, channel: u64, salt: u64) -> f64 {
        let mut h = mix(self.seed ^ 0x5EED_FA17);
        h = mix(h ^ self.epoch);
        h = mix(h ^ ((core << 16) | channel));
        h = mix(h ^ salt);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Applies every plan event due at or before `epoch` and resolves
    /// the per-epoch probabilistic flags (stuck, power dropout) for
    /// each core.
    pub fn advance_to_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        while self.cursor < self.events.len() && self.events[self.cursor].epoch <= epoch {
            let ev = self.events[self.cursor];
            self.cursor += 1;
            self.stats.events_applied += 1;
            match ev.core {
                Some(c) => {
                    if c < self.cores.len() {
                        self.cores[c].apply(ev.action);
                    }
                }
                None => {
                    for s in &mut self.cores {
                        s.apply(ev.action);
                    }
                }
            }
        }
        for c in 0..self.cores.len() {
            let s = self.cores[c];
            let stuck = s.stuck_prob > 0.0 && self.unit(c as u64, CH_STUCK, 0) < s.stuck_prob;
            let power = s.power_dropout_prob > 0.0
                && self.unit(c as u64, CH_POWER, 0) < s.power_dropout_prob;
            let st = &mut self.cores[c];
            st.stuck_now = stuck;
            st.power_out_now = power;
            self.stats.stuck_core_epochs += stuck as u64;
            self.stats.power_dropout_core_epochs += power as u64;
        }
    }

    /// Bounded multiplicative perturbation of `v`, keyed on the field
    /// index (stateless, half-up rounded, clamped at zero). Zero stays
    /// zero, so empty samples remain empty.
    fn noisy_field(&self, core: u64, sigma: f64, salt: u64, field: u64, v: u64) -> u64 {
        if v == 0 {
            return 0;
        }
        let u = 2.0 * self.unit(core, CH_NOISE, (salt << 5) | field) - 1.0;
        let scaled = v as f64 * (1.0 + sigma * u);
        if scaled <= 0.0 {
            0
        } else {
            (scaled + 0.5) as u64
        }
    }

    /// Passes one `(counters, energy)` sample of `core` through the
    /// active fault pipeline. `salt` identifies the sample within the
    /// epoch (e.g. a task id; use distinct salts for distinct samples so
    /// per-sample faults decorrelate). Quiescent cores return the inputs
    /// untouched without drawing.
    pub fn corrupt_reading(
        &mut self,
        core: usize,
        salt: u64,
        sample: CounterSample,
        energy_j: f64,
    ) -> (CounterSample, f64) {
        let s = self.cores[core];
        if s.is_clean() {
            return (sample, energy_j);
        }
        let mut c = sample;
        let mut e = energy_j;
        let mut touched = false;
        // Stuck counters: the bank froze, so this epoch's delta is zero.
        if s.stuck_now {
            c = CounterSample::default();
            touched = true;
        }
        // Dropped sample: everything (counters and energy) is lost.
        if s.drop_prob > 0.0 && self.unit(core as u64, CH_DROP, salt) < s.drop_prob {
            c = CounterSample::default();
            e = 0.0;
            self.stats.dropped_samples += 1;
            touched = true;
        }
        if s.noise_sigma > 0.0 {
            c = map_fields(c, |v, f| {
                self.noisy_field(core as u64, s.noise_sigma, salt, f, v)
            });
            let u = 2.0 * self.unit(core as u64, CH_NOISE, (salt << 5) | 31) - 1.0;
            e = (e * (1.0 + s.noise_sigma * u)).max(0.0);
            touched = true;
        }
        if let Some(cap) = s.saturation_cap {
            c = map_fields(c, |v, _| v.min(cap));
            touched = true;
        }
        if s.power_out_now {
            e = 0.0;
            touched = true;
        }
        if touched {
            self.stats.corrupted_samples += 1;
        }
        (c, e)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn sample() -> CounterSample {
        CounterSample {
            cy_busy: 600,
            cy_idle: 400,
            cy_mem_stall: 200,
            instructions: 2_000,
            mem_instructions: 500,
            branch_instructions: 200,
            branch_mispredicts: 10,
            l1i_accesses: 2_000,
            l1i_misses: 20,
            l1d_accesses: 500,
            l1d_misses: 25,
            itlb_accesses: 2_000,
            itlb_misses: 2,
            dtlb_accesses: 500,
            dtlb_misses: 5,
            ..Default::default()
        }
    }

    #[test]
    fn empty_plan_is_quiescent_and_identity() {
        let mut h = FaultHarness::new(FaultPlan::new(), 7, 4);
        for epoch in 0..8 {
            h.advance_to_epoch(epoch);
            assert!(h.is_quiescent());
            let (c, e) = h.corrupt_reading(2, 11, sample(), 0.125);
            assert_eq!(c, sample());
            assert_eq!(e, 0.125);
        }
        assert_eq!(h.stats(), FaultStats::default());
    }

    #[test]
    fn stuck_zeroes_epoch_deltas() {
        let plan = FaultPlan::new().inject(3, Some(1), FaultKind::StuckCounters { prob: 1.0 });
        let mut h = FaultHarness::new(plan, 7, 4);
        h.advance_to_epoch(2);
        let (c, _) = h.corrupt_reading(1, 0, sample(), 1.0);
        assert_eq!(c, sample());
        h.advance_to_epoch(3);
        let (c, _) = h.corrupt_reading(0, 0, sample(), 1.0);
        assert_eq!(c, sample(), "fault is per-core");
        let (c, e) = h.corrupt_reading(1, 0, sample(), 1.0);
        assert!(c.is_empty(), "stuck counters deliver zero deltas");
        assert_eq!(e, 1.0, "stuck-at does not touch the power sensor");
        assert!(h.stats().stuck_core_epochs >= 1);
    }

    #[test]
    fn clear_restores_identity() {
        let plan = FaultPlan::new()
            .inject(0, None, FaultKind::Noise { sigma: 0.5 })
            .clear(5, None, FaultClass::All);
        let mut h = FaultHarness::new(plan, 9, 2);
        h.advance_to_epoch(0);
        assert!(!h.is_quiescent());
        h.advance_to_epoch(5);
        assert!(h.is_quiescent());
        let (c, e) = h.corrupt_reading(0, 1, sample(), 2.5);
        assert_eq!(c, sample());
        assert_eq!(e, 2.5);
    }

    #[test]
    fn noise_is_bounded_and_deterministic() {
        let plan = FaultPlan::new().inject(0, None, FaultKind::Noise { sigma: 0.3 });
        let mut h1 = FaultHarness::new(plan.clone(), 42, 1);
        let mut h2 = FaultHarness::new(plan, 42, 1);
        h1.advance_to_epoch(1);
        h2.advance_to_epoch(1);
        let (c1, e1) = h1.corrupt_reading(0, 5, sample(), 1.0);
        // Read order / count must not matter: h2 does extra reads first.
        let _ = h2.corrupt_reading(0, 9, sample(), 1.0);
        let (c2, e2) = h2.corrupt_reading(0, 5, sample(), 1.0);
        assert_eq!(c1, c2, "draws are stateless in (epoch, core, salt)");
        assert_eq!(e1, e2);
        let s = sample();
        let check = |orig: u64, noisy: u64| {
            let lo = (orig as f64 * 0.7 - 1.0).floor();
            let hi = (orig as f64 * 1.3 + 1.0).ceil();
            assert!(
                (noisy as f64) >= lo && (noisy as f64) <= hi,
                "noisy value {noisy} outside [{lo}, {hi}] of {orig}"
            );
        };
        check(s.instructions, c1.instructions);
        check(s.cy_busy, c1.cy_busy);
        assert!((0.7..=1.3).contains(&e1));
        assert_eq!(c1.cy_sleep, 0, "zero fields stay zero under noise");
    }

    #[test]
    fn saturation_caps_every_field() {
        let plan = FaultPlan::new().inject(0, Some(0), FaultKind::Saturation { cap: 100 });
        let mut h = FaultHarness::new(plan, 1, 1);
        h.advance_to_epoch(0);
        let (c, _) = h.corrupt_reading(0, 0, sample(), 1.0);
        assert_eq!(c.instructions, 100);
        assert_eq!(c.l1i_accesses, 100);
        assert_eq!(c.l1d_misses, 25, "values under the cap pass through");
    }

    #[test]
    fn dropped_samples_decorrelate_by_salt() {
        let plan = FaultPlan::new().inject(0, None, FaultKind::DroppedSamples { prob: 0.5 });
        let mut h = FaultHarness::new(plan, 1234, 1);
        h.advance_to_epoch(0);
        let mut dropped = 0;
        let n = 200;
        for salt in 0..n {
            let (c, _) = h.corrupt_reading(0, salt, sample(), 1.0);
            dropped += c.is_empty() as u64;
        }
        assert!(
            dropped > n / 5 && dropped < n * 4 / 5,
            "drop rate {dropped}/{n} wildly off 50%"
        );
        assert_eq!(h.stats().dropped_samples, dropped);
    }

    #[test]
    #[should_panic(expected = "fault probability")]
    fn plan_rejects_bad_probability() {
        let _ = FaultPlan::new().inject(0, None, FaultKind::DroppedSamples { prob: 1.5 });
    }
}
