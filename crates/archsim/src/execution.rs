//! Slice execution: turn "thread with characteristics `w` ran for `τ`
//! nanoseconds on core `c`" into committed instructions, synthesized
//! hardware-counter deltas and an activity factor for the power model.
//!
//! This is the substitute for Gem5's cycle-by-cycle execution: the
//! scheduler (kernelsim) decides *who* runs *where* for *how long*, and
//! this module decides what the hardware would have observed.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use crate::core_type::CoreConfig;
use crate::counters::{count_to_f64, CounterSample};
use crate::pipeline::{estimate, PipelineEstimate};
use crate::workload::WorkloadCharacteristics;

/// Outcome of executing one scheduling slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionSlice {
    /// Committed instructions during the slice.
    pub instructions: u64,
    /// Synthesized hardware-counter deltas for the slice.
    pub counters: CounterSample,
    /// Achieved IPC.
    pub ipc: f64,
    /// Activity factor in `[0, 1]` for the dynamic-power model.
    pub activity: f64,
    /// Slice duration in nanoseconds (echoed back for convenience).
    pub duration_ns: u64,
}

impl ExecutionSlice {
    /// Average throughput over the slice in instructions per second.
    pub fn ips(&self) -> f64 {
        if self.duration_ns == 0 {
            0.0
        } else {
            count_to_f64(self.instructions) / (count_to_f64(self.duration_ns) * 1e-9)
        }
    }
}

/// Executes `workload` on `core` for `duration_ns` nanoseconds and
/// returns the committed work and counter deltas.
///
/// Deterministic: the same inputs always produce the same slice (there
/// is no internal randomness; phase noise belongs to the workload
/// generator, not the architecture model).
///
/// # Examples
///
/// ```
/// use archsim::{run_slice, CoreConfig, WorkloadCharacteristics};
///
/// let w = WorkloadCharacteristics::balanced();
/// let s = run_slice(&w, &CoreConfig::big(), 1_000_000); // 1 ms
/// assert!(s.instructions > 0);
/// assert_eq!(s.counters.instructions, s.instructions);
/// ```
pub fn run_slice(
    workload: &WorkloadCharacteristics,
    core: &CoreConfig,
    duration_ns: u64,
) -> ExecutionSlice {
    let est = estimate(workload, core);
    synthesize(workload, core, &est, duration_ns)
}

/// Rounds a non-negative event count to the nearest integer, half up.
/// `f64::round()` is a libm call on baseline x86-64 and this routine
/// runs ~14 times per synthesized slice; one add plus a truncating
/// cast keeps slice synthesis out of the hot-loop profile.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "the sanctioned f64->u64 rounding helper; inputs are non-negative counts"
)]
fn round_count(x: f64) -> u64 {
    (x + 0.5) as u64
}

/// Rounds a non-negative quantity up to the next integer; companion to
/// [`round_count`] for deadline-style values where rounding down would
/// report completion before the last instruction retires.
#[inline]
#[expect(
    clippy::as_conversions,
    reason = "the sanctioned f64->u64 ceiling helper; inputs are non-negative durations"
)]
fn ceil_count(x: f64) -> u64 {
    x.ceil() as u64
}

/// Builds the slice result from a pre-computed pipeline estimate; split
/// out so callers that sweep durations can amortize the model
/// evaluation.
pub fn synthesize(
    workload: &WorkloadCharacteristics,
    core: &CoreConfig,
    est: &PipelineEstimate,
    duration_ns: u64,
) -> ExecutionSlice {
    let w = workload.clamped();
    let cycles = count_to_f64(duration_ns) * 1e-9 * core.freq_hz;
    let instructions_f = est.ipc * cycles;
    let instructions = round_count(instructions_f);

    // Busy = cycles the retirement stage made forward progress at base
    // rate; the remainder of the active time is stall (idle) cycles.
    let busy = (instructions_f / est.base_ipc).min(cycles);
    let idle = (cycles - busy).max(0.0);

    let mem_instructions = round_count(instructions_f * w.mem_share);
    let branch_instructions = round_count(instructions_f * w.branch_share);

    let cy_idle = round_count(idle);
    let counters = CounterSample {
        cy_busy: round_count(busy),
        cy_idle,
        cy_mem_stall: round_count(instructions_f * est.cpi_mem_stall).min(cy_idle),
        cy_sleep: 0,
        instructions,
        mem_instructions,
        branch_instructions,
        branch_mispredicts: round_count(count_to_f64(branch_instructions) * est.branch_miss_rate),
        l1i_accesses: instructions,
        l1i_misses: round_count(instructions_f * est.l1i_miss_rate),
        l1d_accesses: mem_instructions,
        l1d_misses: round_count(count_to_f64(mem_instructions) * est.l1d_miss_rate),
        itlb_accesses: instructions,
        itlb_misses: round_count(instructions_f * est.itlb_miss_rate),
        dtlb_accesses: mem_instructions,
        dtlb_misses: round_count(count_to_f64(mem_instructions) * est.dtlb_miss_rate),
    };

    ExecutionSlice {
        instructions,
        counters,
        ipc: est.ipc,
        activity: est.activity,
        duration_ns,
    }
}

/// Nanoseconds needed on `core` to commit `instructions` instructions of
/// the given workload (the inverse of [`run_slice`]); used by the
/// scheduler to detect thread completion inside a slice.
pub fn time_to_complete_ns(
    workload: &WorkloadCharacteristics,
    core: &CoreConfig,
    instructions: u64,
) -> u64 {
    let est = estimate(workload, core);
    time_to_complete_ns_with(&est, core.freq_hz, instructions)
}

/// [`time_to_complete_ns`] from a pre-computed pipeline estimate; the
/// memoized scheduler hot path calls this so completion detection costs
/// one division instead of a full model evaluation. The throughput is
/// floored at 1 IPS so the division can never produce infinity.
#[expect(
    clippy::as_conversions,
    reason = "sentinel near-u64::MAX budgets exceed the exact f64 range; a completion-time upper bound tolerates that rounding"
)]
pub fn time_to_complete_ns_with(est: &PipelineEstimate, freq_hz: f64, instructions: u64) -> u64 {
    let ips = (est.ipc * freq_hz).max(1.0);
    ceil_count(instructions as f64 / ips * 1e9)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn zero_duration_is_empty() {
        let s = run_slice(&WorkloadCharacteristics::balanced(), &CoreConfig::big(), 0);
        assert_eq!(s.instructions, 0);
        assert!(s.counters.is_empty());
        assert_eq!(s.ips(), 0.0);
    }

    #[test]
    fn counters_consistent_with_instructions() {
        let w = WorkloadCharacteristics::balanced();
        let s = run_slice(&w, &CoreConfig::huge(), 10_000_000);
        assert_eq!(s.counters.instructions, s.instructions);
        assert!(s.counters.mem_instructions < s.instructions);
        assert!(s.counters.l1d_misses <= s.counters.l1d_accesses);
        assert!(s.counters.branch_mispredicts <= s.counters.branch_instructions);
        assert!(s.counters.itlb_misses <= s.counters.itlb_accesses);
    }

    #[test]
    fn cycles_account_for_duration() {
        let core = CoreConfig::medium(); // 1 GHz: 1 cycle per ns
        let s = run_slice(&WorkloadCharacteristics::memory_bound(), &core, 1_000_000);
        let total = s.counters.cy_busy + s.counters.cy_idle;
        let expected = 1_000_000;
        assert!(
            (total as i64 - expected).abs() <= 2,
            "active cycles {total} should equal wall cycles {expected}"
        );
    }

    #[test]
    fn ips_scales_linearly_with_duration() {
        let w = WorkloadCharacteristics::compute_bound();
        let core = CoreConfig::big();
        let s1 = run_slice(&w, &core, 1_000_000);
        let s2 = run_slice(&w, &core, 2_000_000);
        let ratio = s2.instructions as f64 / s1.instructions as f64;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        assert!((s1.ips() - s2.ips()).abs() / s1.ips() < 0.01);
    }

    #[test]
    fn derived_rates_roundtrip_model_rates() {
        // The counter-derived rates must reproduce the model's rates —
        // this is what makes the predictor's feature vector observable.
        let w = WorkloadCharacteristics::memory_bound();
        let core = CoreConfig::small();
        let est = estimate(&w, &core);
        let s = run_slice(&w, &core, 100_000_000);
        assert!((s.counters.l1d_miss_rate() - est.l1d_miss_rate).abs() < 1e-3);
        assert!((s.counters.branch_miss_rate() - est.branch_miss_rate).abs() < 1e-3);
        assert!((s.counters.mem_share() - w.clamped().mem_share).abs() < 1e-3);
        assert!((s.counters.ipc() - est.ipc).abs() < 0.02);
    }

    #[test]
    fn time_to_complete_roundtrips() {
        let w = WorkloadCharacteristics::balanced();
        let core = CoreConfig::big();
        let t = time_to_complete_ns(&w, &core, 5_000_000);
        let s = run_slice(&w, &core, t);
        let err = (s.instructions as f64 - 5_000_000.0).abs() / 5_000_000.0;
        assert!(err < 0.01, "completed {} in {t} ns", s.instructions);
    }

    #[test]
    fn determinism() {
        let w = WorkloadCharacteristics::branch_bound();
        let core = CoreConfig::medium();
        assert_eq!(run_slice(&w, &core, 123_456), run_slice(&w, &core, 123_456));
    }
}
