//! The **sense** phase (paper Section 4.1): turn the epoch's raw
//! per-thread counter samples into per-thread workload signatures — the
//! characterization vector `X_ij` the predictor consumes — plus the
//! measured throughput/power on the thread's current core (Eq. 4–5).
//!
//! Threads that slept through an epoch produce no reliable counters, so
//! the sensor keeps a per-thread cache of the last good signature (the
//! closed loop's memory) and marks such samples as stale.

use std::collections::HashMap;

use archsim::{CoreId, CounterSample, Platform};
use kernelsim::{EpochReport, TaskId};
use serde::{Deserialize, Serialize};

/// Number of features in the characterization vector: the paper's ten
/// Table 4 columns (`FR, mr_$i, mr_$d, I_msh, I_bsh, mr_b, mr_itlb,
/// mr_dtlb, ipc_src, const`) plus the memory-stall CPI derived from the
/// `cy_mem_stall` counter (see DESIGN.md: real PMUs expose this event
/// class, and it disambiguates memory-level parallelism, which the ten
/// original counters cannot).
pub const NUM_FEATURES: usize = 11;

/// Human-readable feature names, in vector order (the first ten match
/// Table 4's columns).
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "FR", "mr_$i", "mr_$d", "I_msh", "I_bsh", "mr_b", "mr_itlb", "mr_dtlb", "ipc_src", "const",
    "cpi_mem",
];

/// A thread's characterization vector `X_ij`.
pub type Features = [f64; NUM_FEATURES];

/// Builds the characterization vector from a counter sample taken on a
/// core running at `src_freq_hz`.
///
/// # Examples
///
/// ```
/// use archsim::CounterSample;
/// use smartbalance::sense::{features_from_counters, NUM_FEATURES};
///
/// let f = features_from_counters(
///     &CounterSample { instructions: 100, cy_busy: 50, cy_idle: 50, ..Default::default() },
///     2.0e9,
/// );
/// assert_eq!(f.len(), NUM_FEATURES);
/// assert_eq!(f[0], 2.0); // FR in GHz
/// assert_eq!(f[8], 1.0); // IPC
/// assert_eq!(f[9], 1.0); // const
/// ```
pub fn features_from_counters(c: &CounterSample, src_freq_hz: f64) -> Features {
    let mut f = [
        src_freq_hz / 1e9,
        c.l1i_miss_rate(),
        c.l1d_miss_rate(),
        c.mem_share(),
        c.branch_share(),
        c.branch_miss_rate(),
        c.itlb_miss_rate(),
        c.dtlb_miss_rate(),
        c.ipc(),
        1.0,
        c.mem_stall_cpi(),
    ];
    // No NaN/Inf may ever enter a regression matrix, whatever the
    // counters (or the frequency) claim.
    for v in &mut f {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    f
}

/// Sanity-checks a characterization vector: every component finite,
/// rates/shares within physical bounds. Vectors failing this must not
/// reach the predictor (corrupted sensors produce them routinely).
pub fn features_are_sane(f: &Features) -> bool {
    if f.iter().any(|v| !v.is_finite()) {
        return false;
    }
    let fr = f[0];
    let ipc = f[8];
    let cpi_mem = f[10];
    // Miss rates and instruction shares are ratios in [0, 1].
    let rates_ok = f[1..=7].iter().all(|&r| (0.0..=1.0).contains(&r));
    rates_ok
        && fr > 0.0
        && fr <= 100.0
        && (0.0..=64.0).contains(&ipc)
        && (0.0..=1e3).contains(&cpi_mem)
}

/// One thread's sensed state for an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadSense {
    /// Thread id.
    pub task: TaskId,
    /// Core the thread currently sits on.
    pub core: CoreId,
    /// Characterization vector measured on `core`.
    pub features: Features,
    /// Measured throughput on `core` (`ips_ij`, Eq. 4), instr/s.
    pub measured_ips: f64,
    /// Measured power on `core` (`p_ij`, Eq. 5), watts.
    pub measured_power_w: f64,
    /// CPU demand over the epoch in `(0, 1]`.
    pub utilization: f64,
    /// CFS load weight.
    pub weight: u64,
    /// Whether this is a kernel thread.
    pub kernel_thread: bool,
    /// CPU-affinity mask (bit `j` = core `j` allowed).
    pub allowed: u64,
    /// `false` when the signature is replayed from the cache because
    /// the thread did not run long enough this epoch.
    pub fresh: bool,
}

/// Per-epoch tally of how the sensing stage classified its inputs —
/// the degraded-mode controller's view of sensing health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SenseHealth {
    /// Live threads processed.
    pub candidates: usize,
    /// Samples accepted as fresh measurements.
    pub fresh: usize,
    /// Samples that ran long enough but failed sanity validation
    /// (NaN/Inf/out-of-range features, zero instructions, bad power).
    pub invalid: usize,
    /// Threads served from the signature cache.
    pub replayed: usize,
    /// Cache entries discarded because they exceeded the staleness TTL.
    pub expired: usize,
    /// Threads that fell back to the neutral prior.
    pub priors: usize,
    /// Threads that ran long enough to be measured yet still ended on
    /// the neutral prior — sensing is genuinely broken for them, not
    /// merely starved of runtime. This is the degradation signal: a
    /// thread that barely ran contributes little to the epoch either
    /// way, but a running thread with no usable data means the loop is
    /// flying blind.
    pub blind: usize,
}

/// A cached signature plus the epoch it was measured in.
#[derive(Debug, Clone, Copy)]
struct CachedSense {
    sense: ThreadSense,
    fresh_epoch: u64,
}

/// The sensing stage with its per-thread signature cache.
#[derive(Debug, Clone)]
pub struct Sensor {
    /// Minimum runtime for a sample to be considered reliable, ns.
    min_runtime_ns: u64,
    /// Relative 1-sigma noise applied to measured power (0 = ideal
    /// sensors, the default).
    power_noise_sigma: f64,
    noise_state: u64,
    /// How many epochs a cached signature may be replayed before it is
    /// considered stale and discarded (default: forever).
    ttl_epochs: u64,
    cache: HashMap<TaskId, CachedSense>,
    health: SenseHealth,
}

impl Sensor {
    /// Creates a sensor that trusts samples with at least
    /// `min_runtime_ns` of execution behind them (SmartBalance uses
    /// 100 µs).
    pub fn new(min_runtime_ns: u64) -> Self {
        Sensor {
            min_runtime_ns,
            power_noise_sigma: 0.0,
            noise_state: 0x9E37_79B9_7F4A_7C15,
            ttl_epochs: u64::MAX,
            cache: HashMap::new(),
            health: SenseHealth::default(),
        }
    }

    /// Builder: limits how many epochs a cached signature may be
    /// replayed before the thread falls back to the neutral prior.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    pub fn with_signature_ttl(mut self, epochs: u64) -> Self {
        assert!(epochs > 0, "signature TTL must be at least one epoch");
        self.ttl_epochs = epochs;
        self
    }

    /// How the sensing stage classified its inputs in the most recent
    /// [`Sensor::sense`] call.
    pub fn health(&self) -> SenseHealth {
        self.health
    }

    /// Builder: corrupts measured per-thread power with multiplicative
    /// noise of relative standard deviation `sigma` (deterministic,
    /// seeded) — models the imperfect per-core power sensors of real
    /// boards (paper Section 6.4 cites the Odroid-XU3's).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_power_noise(mut self, sigma: f64, seed: u64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        self.power_noise_sigma = sigma;
        self.noise_state = seed | 1;
        self
    }

    /// xorshift64* uniform in [0, 1).
    fn uniform(&mut self) -> f64 {
        let mut x = self.noise_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.noise_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Applies multiplicative noise (Irwin–Hall approximate normal).
    fn noisy_power(&mut self, truth: f64) -> f64 {
        if self.power_noise_sigma == 0.0 {
            return truth;
        }
        let normal: f64 = ((0..4).map(|_| self.uniform()).sum::<f64>() - 2.0) * 3f64.sqrt();
        (truth * (1.0 + self.power_noise_sigma * normal)).max(0.0)
    }

    /// Number of threads with cached signatures.
    pub fn cached_threads(&self) -> usize {
        self.cache.len()
    }

    /// Processes an epoch report into per-thread senses, refreshing the
    /// cache for every thread that ran long enough *and* produced a
    /// sample that passes sanity validation. Invalid samples (NaN/Inf
    /// or out-of-range features, zero instructions, non-positive power
    /// — the signature of corrupted sensors) fall back to the last-good
    /// cached signature, subject to the staleness TTL, and then to the
    /// neutral prior. Exited threads are dropped from both the output
    /// and the cache.
    pub fn sense(&mut self, platform: &Platform, report: &EpochReport) -> Vec<ThreadSense> {
        let mut out = Vec::with_capacity(report.tasks.len());
        let mut health = SenseHealth::default();
        for t in &report.tasks {
            if !t.alive {
                self.cache.remove(&t.task);
                continue;
            }
            health.candidates += 1;
            let utilization = t.utilization.clamp(1.0e-3, 1.0);
            let ran = t.runtime_ns >= self.min_runtime_ns;
            let mut sense = None;
            if ran {
                let freq = platform.core_config(t.core).freq_hz;
                let features = features_from_counters(&t.counters, freq);
                let ips = t.ips();
                let power = t.power_w();
                let valid = features_are_sane(&features)
                    && t.counters.instructions > 0
                    && ips > 0.0
                    && power > 0.0;
                if valid {
                    health.fresh += 1;
                    sense = Some(ThreadSense {
                        task: t.task,
                        core: t.core,
                        features,
                        measured_ips: ips,
                        measured_power_w: self.noisy_power(power),
                        utilization,
                        weight: t.weight,
                        kernel_thread: t.kernel_thread,
                        allowed: t.allowed,
                        fresh: true,
                    });
                } else {
                    health.invalid += 1;
                }
            }
            if sense.is_none() {
                if let Some(cached) = self.cache.get(&t.task) {
                    if report.epoch.saturating_sub(cached.fresh_epoch) <= self.ttl_epochs {
                        // Replay the last good signature; the thread may
                        // have been migrated since, so only positional
                        // fields update.
                        health.replayed += 1;
                        sense = Some(ThreadSense {
                            core: t.core,
                            utilization,
                            weight: t.weight,
                            allowed: t.allowed,
                            fresh: false,
                            ..cached.sense
                        });
                    } else {
                        health.expired += 1;
                        self.cache.remove(&t.task);
                    }
                }
            }
            let sense = sense.unwrap_or_else(|| {
                // Never (or too long ago) sampled: neutral prior (a
                // light, average thread); the closed loop will refine
                // it once trustworthy samples return.
                health.priors += 1;
                if ran {
                    health.blind += 1;
                }
                ThreadSense {
                    task: t.task,
                    core: t.core,
                    features: default_features(platform.core_config(t.core).freq_hz),
                    measured_ips: 0.0,
                    measured_power_w: 0.0,
                    utilization,
                    weight: t.weight,
                    kernel_thread: t.kernel_thread,
                    allowed: t.allowed,
                    fresh: false,
                }
            });
            if sense.fresh {
                self.cache.insert(
                    t.task,
                    CachedSense {
                        sense,
                        fresh_epoch: report.epoch,
                    },
                );
            }
            out.push(sense);
        }
        self.health = health;
        out
    }
}

/// Neutral prior features for a never-sampled thread on a core running
/// at `src_freq_hz`.
fn default_features(src_freq_hz: f64) -> Features {
    [
        src_freq_hz / 1e9,
        0.01, // mr_$i
        0.05, // mr_$d
        0.30, // I_msh
        0.15, // I_bsh
        0.05, // mr_b
        0.001,
        0.005,
        1.0,  // ipc
        1.0,  // const
        0.05, // cpi_mem
    ]
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use kernelsim::{CoreEpochStats, TaskEpochStats};

    fn report_with(tasks: Vec<TaskEpochStats>) -> EpochReport {
        EpochReport {
            epoch: 0,
            duration_ns: 60_000_000,
            now_ns: 60_000_000,
            tasks,
            cores: vec![
                CoreEpochStats {
                    core: CoreId(0),
                    counters: CounterSample::default(),
                    busy_ns: 0,
                    sleep_ns: 0,
                    energy_j: 0.0,
                    online: true,
                };
                4
            ],
        }
    }

    fn running_task(id: usize, core: usize, runtime_ns: u64) -> TaskEpochStats {
        TaskEpochStats {
            task: TaskId(id),
            core: CoreId(core),
            counters: CounterSample {
                instructions: 1_000_000,
                mem_instructions: 300_000,
                branch_instructions: 150_000,
                branch_mispredicts: 7_500,
                cy_busy: 500_000,
                cy_idle: 500_000,
                l1i_accesses: 1_000_000,
                l1i_misses: 1_000,
                l1d_accesses: 300_000,
                l1d_misses: 15_000,
                itlb_accesses: 1_000_000,
                itlb_misses: 10,
                dtlb_accesses: 300_000,
                dtlb_misses: 1_500,
                ..Default::default()
            },
            runtime_ns,
            energy_j: 1.0e-3,
            utilization: runtime_ns as f64 / 60.0e6,
            alive: true,
            kernel_thread: false,
            weight: 1024,
            allowed: u64::MAX,
        }
    }

    #[test]
    fn fresh_sample_extracts_features() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        let senses = sensor.sense(
            &platform,
            &report_with(vec![running_task(0, 0, 30_000_000)]),
        );
        assert_eq!(senses.len(), 1);
        let s = &senses[0];
        assert!(s.fresh);
        assert_eq!(s.features[0], 2.0, "Huge core runs at 2 GHz");
        assert!((s.features[3] - 0.3).abs() < 1e-9, "I_msh");
        assert!((s.features[8] - 1.0).abs() < 1e-9, "ipc");
        assert!((s.measured_ips - 1_000_000.0 / 30.0e-3).abs() < 1.0);
        assert!((s.measured_power_w - 1.0e-3 / 30.0e-3).abs() < 1e-9);
        assert_eq!(sensor.cached_threads(), 1);
    }

    #[test]
    fn short_run_replays_cache() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        sensor.sense(
            &platform,
            &report_with(vec![running_task(0, 0, 30_000_000)]),
        );
        // Next epoch: the thread barely ran and moved to core 2.
        let mut t = running_task(0, 2, 10_000);
        t.utilization = 0.0;
        let senses = sensor.sense(&platform, &report_with(vec![t]));
        let s = &senses[0];
        assert!(!s.fresh);
        assert_eq!(s.core, CoreId(2), "position updates even for stale data");
        assert_eq!(s.features[0], 2.0, "signature still from the Huge-core run");
        assert!(s.utilization >= 1.0e-3, "utilization floor");
    }

    #[test]
    fn unknown_thread_gets_neutral_prior() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        let senses = sensor.sense(&platform, &report_with(vec![running_task(7, 3, 10)]));
        let s = &senses[0];
        assert!(!s.fresh);
        assert_eq!(s.measured_ips, 0.0);
        assert_eq!(s.features[9], 1.0);
        assert_eq!(sensor.cached_threads(), 0, "priors are not cached");
    }

    #[test]
    fn power_noise_is_bounded_and_deterministic() {
        let platform = Platform::quad_heterogeneous();
        let make = || Sensor::new(100_000).with_power_noise(0.05, 42);
        let mut a = make();
        let mut b = make();
        let r = report_with(vec![running_task(0, 0, 30_000_000)]);
        let sa = a.sense(&platform, &r);
        let sb = b.sense(&platform, &r);
        assert_eq!(sa[0].measured_power_w, sb[0].measured_power_w);
        // Noise perturbs but does not destroy the measurement.
        let truth = 1.0e-3 / 30.0e-3;
        let rel = (sa[0].measured_power_w - truth).abs() / truth;
        assert!(rel < 0.5, "noise out of bounds: {rel}");
    }

    #[test]
    fn zero_noise_is_exact() {
        let platform = Platform::quad_heterogeneous();
        let mut s = Sensor::new(100_000).with_power_noise(0.0, 1);
        let r = report_with(vec![running_task(0, 0, 30_000_000)]);
        let out = s.sense(&platform, &r);
        assert_eq!(out[0].measured_power_w, 1.0e-3 / 30.0e-3);
    }

    #[test]
    #[should_panic(expected = "sigma must be >= 0")]
    fn negative_noise_rejected() {
        let _ = Sensor::new(0).with_power_noise(-0.1, 1);
    }

    #[test]
    fn all_zero_sample_yields_finite_features() {
        // A task that never ran (or whose counters were wiped by a
        // fault) must produce an all-finite vector — nothing here may
        // ever poison a regression matrix.
        let f = features_from_counters(&CounterSample::default(), 2.0e9);
        assert!(f.iter().all(|v| v.is_finite()));
        assert_eq!(f[8], 0.0, "zero-cycle epoch has zero IPC");
        assert!(features_are_sane(&f));
        // Even a nonsensical frequency cannot smuggle in a NaN.
        let g = features_from_counters(&CounterSample::default(), f64::NAN);
        assert!(g.iter().all(|v| v.is_finite()));
        assert!(!features_are_sane(&g), "FR = 0 is not a sane vector");
    }

    #[test]
    fn features_are_sane_rejects_corruption() {
        let good = features_from_counters(&running_task(0, 0, 1).counters, 2.0e9);
        assert!(features_are_sane(&good));
        let mut bad = good;
        bad[2] = f64::INFINITY;
        assert!(!features_are_sane(&bad));
        let mut bad = good;
        bad[5] = 1.5; // a miss *rate* above 1
        assert!(!features_are_sane(&bad));
        let mut bad = good;
        bad[8] = 1.0e6; // physically impossible IPC
        assert!(!features_are_sane(&bad));
    }

    #[test]
    fn invalid_fresh_sample_falls_back_to_cache() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        sensor.sense(
            &platform,
            &report_with(vec![running_task(0, 0, 30_000_000)]),
        );
        // The thread ran long enough, but its counters were wiped by a
        // stuck sensor: zero instructions ⇒ invalid measurement.
        let mut t = running_task(0, 0, 30_000_000);
        t.counters = CounterSample::default();
        let senses = sensor.sense(&platform, &report_with(vec![t]));
        let s = &senses[0];
        assert!(!s.fresh, "corrupted sample must not be trusted");
        assert!(s.measured_ips > 0.0, "last-good signature replayed");
        assert!(
            (s.features[1] - 0.001).abs() < 1e-12,
            "replayed mr_$i, not the prior's"
        );
        let h = sensor.health();
        assert_eq!((h.candidates, h.invalid, h.replayed), (1, 1, 1));
    }

    #[test]
    fn stale_cache_entries_expire() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000).with_signature_ttl(2);
        sensor.sense(
            &platform,
            &report_with(vec![running_task(0, 0, 30_000_000)]),
        );
        // Epochs 1..=2: short runs, replayed from cache.
        for epoch in 1..=2u64 {
            let mut r = report_with(vec![running_task(0, 0, 10)]);
            r.epoch = epoch;
            let s = sensor.sense(&platform, &r);
            assert!(!s[0].fresh);
            assert!(s[0].measured_ips > 0.0, "replayed at epoch {epoch}");
        }
        // Epoch 3: TTL exceeded — the signature is too old to trust.
        let mut r = report_with(vec![running_task(0, 0, 10)]);
        r.epoch = 3;
        let s = sensor.sense(&platform, &r);
        assert!(!s[0].fresh);
        assert_eq!(
            s[0].measured_ips, 0.0,
            "neutral prior replaces the expired signature"
        );
        assert_eq!(sensor.health().expired, 1);
        assert_eq!(sensor.cached_threads(), 0);
    }

    #[test]
    fn blind_counts_running_threads_only() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        // Task 0 ran a full slice but its counters were wiped (a stuck
        // sensor) and it has no cache: genuinely blind. Task 1 barely
        // ran at all: starved, not blind — scheduling, not sensing.
        let mut wiped = running_task(0, 0, 30_000_000);
        wiped.counters = CounterSample::default();
        let starved = running_task(1, 1, 10);
        let senses = sensor.sense(&platform, &report_with(vec![wiped, starved]));
        assert!(senses.iter().all(|s| !s.fresh));
        let h = sensor.health();
        assert_eq!(h.priors, 2, "both fall back to the neutral prior");
        assert_eq!(h.blind, 1, "only the running thread is blind");
        assert_eq!(h.invalid, 1);
    }

    #[test]
    fn dead_threads_are_dropped() {
        let platform = Platform::quad_heterogeneous();
        let mut sensor = Sensor::new(100_000);
        sensor.sense(
            &platform,
            &report_with(vec![running_task(0, 0, 30_000_000)]),
        );
        assert_eq!(sensor.cached_threads(), 1);
        let mut t = running_task(0, 0, 5_000_000);
        t.alive = false;
        let senses = sensor.sense(&platform, &report_with(vec![t]));
        assert!(senses.is_empty());
        assert_eq!(sensor.cached_threads(), 0);
    }
}
