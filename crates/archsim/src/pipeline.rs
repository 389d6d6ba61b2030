//! Analytical superscalar pipeline model: combines a workload's
//! intrinsic characteristics with a core configuration to produce the
//! achieved IPC and the per-instruction stall breakdown.
//!
//! The model follows the standard "interval analysis" decomposition:
//!
//! ```text
//! CPI = CPI_base(ILP, width, window) + CPI_l1d + CPI_l1i + CPI_branch + CPI_tlb
//! ```
//!
//! Memory penalties are constant in *time* (nanoseconds), so faster
//! cores pay proportionally more *cycles* per miss — the physical reason
//! memory-bound threads gain little from big cores, which is precisely
//! the asymmetry SmartBalance exploits.

use crate::branch::BranchModel;
use crate::cache::{CacheModel, TlbModel};
use crate::core_type::CoreConfig;
use crate::workload::WorkloadCharacteristics;

/// Average L1-miss service time (mostly private-L2 hits), nanoseconds.
pub const L1_MISS_LATENCY_NS: f64 = 18.0;

/// Average TLB-walk time, nanoseconds.
pub const TLB_WALK_LATENCY_NS: f64 = 40.0;

/// Pipeline-refill depth charged per branch misprediction, cycles,
/// before the width-dependent extra.
pub const BRANCH_BASE_PENALTY_CYCLES: f64 = 8.0;

/// How many ROB entries one unit of ILP needs before the window stops
/// limiting extraction (the `24` in `1 − e^{−window/(24·ILP)}`).
pub const WINDOW_ENTRIES_PER_ILP: f64 = 24.0;

/// Effective instruction-window size of a core: the smallest of the
/// ROB, 4× the IQ and the spare physical registers.
pub fn window_size(core: &CoreConfig) -> f64 {
    f64::from(core.rob_size)
        .min(4.0 * f64::from(core.iq_size))
        .min(f64::from(core.phys_regs.saturating_sub(16)))
        .max(1.0)
}

/// Stall-free base IPC a core sustains for a workload with intrinsic
/// ILP `ilp`: `min(ilp · window_factor, peak_ipc)`.
pub fn base_ipc(ilp: f64, core: &CoreConfig) -> f64 {
    let ilp = ilp.clamp(0.05, 16.0);
    let window_factor = 1.0 - (-window_size(core) / (WINDOW_ENTRIES_PER_ILP * ilp)).exp();
    (ilp * window_factor).min(core.peak_ipc).max(0.05)
}

/// Inverts [`base_ipc`]: the intrinsic ILP consistent with an observed
/// stall-free base IPC on `core` (bisection; exact below the core's
/// peak). A base at or above the peak is *censored* — any sufficiently
/// high ILP explains it — and maps to a representative high value
/// (6.0), which is the predictor's only irreducible uncertainty when
/// extrapolating from a weak core to a strong one.
///
/// The bisection takes 48 steps, but calls [`base_ipc`] only at the
/// mids whose outcome `settled_bounds` has not already proven.
pub fn ilp_for_base_ipc(base: f64, core: &CoreConfig) -> f64 {
    if base >= core.peak_ipc * 0.995 {
        return 6.0;
    }
    let (below, above) = settled_bounds(base, core);
    let (mut lo, mut hi) = (0.05f64, 16.0f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if mid <= below || (mid < above && base_ipc(mid, core) < base) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Relative margin of [`settled_bounds`]: `d = 2⁻³⁹·x/slope`.
const SETTLE_MARGIN: f64 = 1.0 / (1u64 << 39) as f64;

/// Newton steps [`window_crossing`] may take before it gives up.
const NEWTON_STEPS: usize = 8;

/// A Newton step at most this fraction of `u` ends the iteration.
const NEWTON_SETTLED: f64 = 1.0 / (1u64 << 24) as f64;

/// Where [`ilp_for_base_ipc`]'s bisection outcome is already proven:
/// every mid at or below the first bound has `base_ipc(mid) < base`,
/// every mid at or above the second has `base_ipc(mid) ≥ base`, and
/// only mids strictly between them need evaluating. `(−∞, ∞)` when no
/// bracket could be proven, so every mid is evaluated.
///
/// On `[0.05, 16]` `base_ipc` clamps the curve `f(x) = x·(1 −
/// e^{−c/x})`, `c = window_size/24`, which is increasing and concave,
/// and its float evaluation is within `E(x) = x·2⁻⁵¹` of `f(x)` (two
/// roundings in `c/x`, `exp` within an ulp, then `1 − e` and the
/// product), so `f ± E` are increasing too (`f' > 10⁻⁶` there). With
/// `x` the crossing [`window_crossing`] finds, `s` the slope at its
/// last iterate (within `2⁻²⁴·x` of `x`) and `d = 2⁻³⁹·x/s`,
/// the witnesses `a = x − d` and `b = x + d` must evaluate to
/// `base_ipc(a) < base ≤ base_ipc(b)`. Then for a mid `≤ a − d` the
/// exact curve lies at least `d·f'(a) ≥ d·s` below `f(a)`, and for a
/// mid `≥ b + d` at least `d·f'(b + d) ≥ d·s/1.07` above `f(b)` (`f'`
/// falls no faster than `x⁻²`, and `d ≤ x/64`). Both rises are at least
/// 2¹⁰ times the `2.05·E(x)` the two float evaluations can lose, so the
/// mid's float value falls on the witness's side of `base`: the
/// outcome does not depend on Newton's accuracy, which only decides
/// how many mids stay open. A margin fixed in absolute terms instead
/// fails on the flat part of a narrow window, where `f'` is tiny.
fn settled_bounds(base: f64, core: &CoreConfig) -> (f64, f64) {
    const OPEN: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);
    let c = window_size(core) / WINDOW_ENTRIES_PER_ILP;
    if !(base > 0.05 && base < c) {
        return OPEN;
    }
    let Some((x, slope)) = window_crossing(base, c) else {
        return OPEN;
    };
    let d = x * SETTLE_MARGIN / slope;
    let (a, b) = (x - d, x + d);
    let (below, above) = (a - d, b + d);
    let proven = d > 0.0
        && d <= x / 64.0
        && below > 0.05
        && above < 16.0
        && base_ipc(a, core) < base
        && base_ipc(b, core) >= base;
    if proven {
        (below, above)
    } else {
        OPEN
    }
}

/// Where `x·(1 − e^{−c/x})` crosses `base` (`0 < base < c`), with the
/// curve's slope at the last Newton iterate, or `None` if the steps do
/// not settle. Newton runs in `u = c/x` on `(1 − e^{−u})/u = base/c`,
/// whose left side is convex and decreasing, from the root of
/// `u + 1/(1 + u/2) = c/base`: a lower bound, since `u/(e^u − 1) ≤
/// 1/(1 + u/2)`, so the steps climb monotonically to the crossing.
fn window_crossing(base: f64, c: f64) -> Option<(f64, f64)> {
    let r = c / base;
    let mut u = 0.5 * (r - 2.0 + (r * r + 4.0 * r - 4.0).sqrt());
    for _ in 0..NEWTON_STEPS {
        let e = (-u).exp();
        let slope = 1.0 - e * (1.0 + u);
        let step = ((1.0 - e) / u - base / c) * u * u / slope;
        u += step;
        if step.abs() <= u * NEWTON_SETTLED {
            return Some((c / u, slope));
        }
    }
    None
}

/// Result of evaluating the pipeline model for one (workload, core)
/// pair: the achieved IPC and the stall/rate breakdown needed to
/// synthesize hardware-counter values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineEstimate {
    /// Achieved instructions per cycle.
    pub ipc: f64,
    /// Base (stall-free) IPC the front end could sustain.
    pub base_ipc: f64,
    /// L1D miss rate used (misses / data access).
    pub l1d_miss_rate: f64,
    /// L1I miss rate used (misses / fetch).
    pub l1i_miss_rate: f64,
    /// Branch misprediction rate used (mispredicts / branch).
    pub branch_miss_rate: f64,
    /// I-TLB miss rate used.
    pub itlb_miss_rate: f64,
    /// D-TLB miss rate used.
    pub dtlb_miss_rate: f64,
    /// Activity factor in `[0, 1]`: achieved IPC relative to the core's
    /// peak; drives the dynamic-power model.
    pub activity: f64,
    /// Data-memory stall component of the CPI (cycles per instruction
    /// waiting on L1D misses); drives the `cy_mem_stall` counter.
    pub cpi_mem_stall: f64,
}

/// Evaluates the analytical pipeline model for `workload` running on a
/// core of configuration `core`.
///
/// # Examples
///
/// ```
/// use archsim::{estimate, CoreConfig, WorkloadCharacteristics};
///
/// let w = WorkloadCharacteristics::compute_bound();
/// let on_huge = estimate(&w, &CoreConfig::huge());
/// let on_small = estimate(&w, &CoreConfig::small());
/// // A compute-bound workload runs at much higher IPC on the wide core.
/// assert!(on_huge.ipc > 2.0 * on_small.ipc);
/// ```
pub fn estimate(workload: &WorkloadCharacteristics, core: &CoreConfig) -> PipelineEstimate {
    let w = workload.clamped();

    // --- Front-end / window limit -------------------------------------
    // The instruction window limits how much of the intrinsic ILP the
    // core can extract; `peak_ipc` folds in structural-hazard
    // efficiency at full width.
    let base_ipc = base_ipc(w.ilp, core);

    // --- Miss rates ----------------------------------------------------
    let l1d = CacheModel::new(f64::from(core.l1d_kib));
    let l1i = CacheModel::new(f64::from(core.l1i_kib));
    let itlb = TlbModel::new(core.itlb_entries);
    let dtlb = TlbModel::new(core.dtlb_entries);
    let bp = BranchModel::new(core.branch_predictor_strength);

    let l1d_mr = l1d.miss_rate(w.data_working_set_kib);
    let l1i_mr = l1i.miss_rate(w.code_working_set_kib);
    let itlb_mr = itlb.miss_rate(w.code_pages);
    let dtlb_mr = dtlb.miss_rate(w.data_pages);
    let br_mr = bp.miss_rate(w.branch_entropy);

    // --- Stall components (cycles per instruction) ---------------------
    let miss_penalty_cycles = L1_MISS_LATENCY_NS * 1e-9 * core.freq_hz;
    let tlb_penalty_cycles = TLB_WALK_LATENCY_NS * 1e-9 * core.freq_hz;
    let mispredict_penalty_cycles = BRANCH_BASE_PENALTY_CYCLES + f64::from(core.issue_width);

    // Data misses overlap according to the workload's MLP.
    let cpi_l1d = w.mem_share * l1d_mr * miss_penalty_cycles / w.mlp;
    // Instruction fetch misses serialize the front end but fetch groups
    // amortize them across the issue width.
    let cpi_l1i = l1i_mr * miss_penalty_cycles / f64::from(core.issue_width).max(1.0);
    let cpi_branch = w.branch_share * br_mr * mispredict_penalty_cycles;
    let cpi_tlb = (w.mem_share * dtlb_mr + itlb_mr) * tlb_penalty_cycles;

    let cpi = 1.0 / base_ipc + cpi_l1d + cpi_l1i + cpi_branch + cpi_tlb;
    let ipc = 1.0 / cpi;

    PipelineEstimate {
        ipc,
        base_ipc,
        l1d_miss_rate: l1d_mr,
        l1i_miss_rate: l1i_mr,
        branch_miss_rate: br_mr,
        itlb_miss_rate: itlb_mr,
        dtlb_miss_rate: dtlb_mr,
        activity: (ipc / core.peak_ipc).clamp(0.0, 1.0),
        cpi_mem_stall: cpi_l1d,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::core_type::CoreConfig;

    fn all_cores() -> [CoreConfig; 4] {
        [
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
        ]
    }

    #[test]
    fn ideal_workload_approaches_peak_ipc() {
        // High-ILP cache-resident workload should reach close to the
        // calibrated peak on every core.
        let w = WorkloadCharacteristics {
            ilp: 8.0,
            mem_share: 0.05,
            branch_share: 0.02,
            data_working_set_kib: 4.0,
            code_working_set_kib: 4.0,
            branch_entropy: 0.0,
            data_pages: 4.0,
            code_pages: 2.0,
            mlp: 8.0,
        };
        for core in all_cores() {
            let est = estimate(&w, &core);
            assert!(
                est.ipc > 0.85 * core.peak_ipc && est.ipc <= core.peak_ipc * 1.001,
                "{}: ipc {} vs peak {}",
                core.name,
                est.ipc,
                core.peak_ipc
            );
        }
    }

    #[test]
    fn compute_bound_prefers_wide_cores() {
        let w = WorkloadCharacteristics::compute_bound();
        let ipc: Vec<f64> = all_cores().iter().map(|c| estimate(&w, c).ipc).collect();
        assert!(
            ipc[0] > ipc[1] && ipc[1] > ipc[2] && ipc[2] > ipc[3],
            "{ipc:?}"
        );
        // And in absolute throughput (IPS) the gap widens with frequency.
        let ips: Vec<f64> = all_cores()
            .iter()
            .zip(&ipc)
            .map(|(c, i)| i * c.freq_hz)
            .collect();
        assert!(ips[0] / ips[3] > 5.0, "huge should be >5x small: {ips:?}");
    }

    #[test]
    fn memory_bound_gains_little_from_wide_cores() {
        let w = WorkloadCharacteristics::memory_bound();
        let cores = all_cores();
        let huge = estimate(&w, &cores[0]);
        let small = estimate(&w, &cores[3]);
        let ips_ratio = (huge.ipc * cores[0].freq_hz) / (small.ipc * cores[3].freq_hz);
        // Throughput still higher on Huge, but nowhere near the
        // compute-bound gap (and far below the 9.2x peak-IPS ratio).
        assert!(ips_ratio > 1.0 && ips_ratio < 5.0, "ratio {ips_ratio}");
    }

    #[test]
    fn miss_rates_differ_across_core_types() {
        // The predictor learns from exactly this asymmetry: the same
        // workload exhibits different counter signatures per core type.
        let w = WorkloadCharacteristics::balanced();
        let cores = all_cores();
        let on_huge = estimate(&w, &cores[0]);
        let on_small = estimate(&w, &cores[3]);
        assert!(on_small.l1d_miss_rate > on_huge.l1d_miss_rate);
        assert!(on_small.branch_miss_rate > on_huge.branch_miss_rate);
    }

    #[test]
    fn ipc_positive_and_bounded_for_extremes() {
        let worst = WorkloadCharacteristics {
            ilp: 0.5,
            mem_share: 0.7,
            branch_share: 0.2,
            data_working_set_kib: 65_536.0,
            code_working_set_kib: 4_096.0,
            branch_entropy: 1.0,
            data_pages: 1.0e6,
            code_pages: 1.0e5,
            mlp: 1.0,
        };
        for core in all_cores() {
            let est = estimate(&worst, &core);
            assert!(est.ipc > 0.0 && est.ipc <= core.peak_ipc);
            assert!(est.activity >= 0.0 && est.activity <= 1.0);
        }
    }

    #[test]
    fn ipc_monotone_in_ilp() {
        // With everything else fixed, more intrinsic parallelism never
        // hurts — on any core type.
        for core in all_cores() {
            let mut prev = 0.0;
            for ilp in [0.5, 1.0, 2.0, 4.0, 6.0, 8.0] {
                let w = WorkloadCharacteristics {
                    ilp,
                    ..WorkloadCharacteristics::balanced()
                };
                let ipc = estimate(&w, &core).ipc;
                assert!(ipc >= prev - 1e-12, "{}: ilp {ilp}", core.name);
                prev = ipc;
            }
        }
    }

    #[test]
    fn ipc_monotone_in_working_set_pressure() {
        for core in all_cores() {
            let mut prev = f64::MAX;
            for ws in [4.0, 32.0, 128.0, 1024.0, 8192.0] {
                let w = WorkloadCharacteristics {
                    data_working_set_kib: ws,
                    data_pages: ws / 3.0,
                    ..WorkloadCharacteristics::balanced()
                };
                let ipc = estimate(&w, &core).ipc;
                assert!(ipc <= prev + 1e-12, "{}: ws {ws}", core.name);
                prev = ipc;
            }
        }
    }

    #[test]
    fn base_ipc_inversion_roundtrips_below_peak() {
        for core in all_cores() {
            for ilp in [0.5, 1.0, 1.5, 2.5] {
                let base = base_ipc(ilp, &core);
                if base < core.peak_ipc * 0.99 {
                    let back = ilp_for_base_ipc(base, &core);
                    assert!(
                        (back - ilp).abs() < 1e-6,
                        "{}: ilp {ilp} -> base {base} -> {back}",
                        core.name
                    );
                }
            }
        }
    }

    /// The 48-step bisection that evaluates `base_ipc` at every mid:
    /// the oracle `ilp_for_base_ipc` must equal bit for bit.
    fn ilp_by_full_bisection(base: f64, core: &CoreConfig) -> f64 {
        if base >= core.peak_ipc * 0.995 {
            return 6.0;
        }
        let (mut lo, mut hi) = (0.05f64, 16.0f64);
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            if base_ipc(mid, core) < base {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The six calibrated core types, a narrow window whose curve
    /// flattens out below the peak (`c` = 8/24 against a 0.9 peak) and
    /// a very wide one.
    fn oracle_cores() -> Vec<CoreConfig> {
        let narrow = CoreConfig {
            name: "Narrow".to_owned(),
            rob_size: 8,
            iq_size: 4,
            phys_regs: 24,
            peak_ipc: 0.9,
            ..CoreConfig::small()
        };
        let wide = CoreConfig {
            name: "Wide".to_owned(),
            issue_width: 16,
            iq_size: 512,
            rob_size: 2048,
            phys_regs: 4096,
            peak_ipc: 12.0,
            ..CoreConfig::huge()
        };
        vec![
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
            CoreConfig::a15_like(),
            CoreConfig::a7_like(),
            narrow,
            wide,
        ]
    }

    /// `ilp_for_base_ipc` against the full bisection on 10⁶ bases per
    /// core: exactly 0.05 and the 4 095 floats above it, then in turn
    /// uniform draws in (0.05, 0.995·peak), draws within 10⁶ ulps below
    /// 0.995·peak, draws within 2²⁰ ulps of `base_ipc(16)`, and
    /// `base_ipc(x)` for `x` uniform in [1, 16], where a narrow
    /// window's curve is flat. One thread per core.
    #[test]
    fn bracketed_inversion_equals_the_full_bisection_bitwise() {
        fn check(core: &CoreConfig, seed: u64) {
            let mut state = seed;
            let mut draw = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let top = core.peak_ipc * 0.995;
            let plateau = base_ipc(16.0, core);
            for k in 0..1_000_000u64 {
                let unit = (draw() >> 11) as f64 / (1u64 << 53) as f64;
                let base = match k {
                    0..4096 => f64::from_bits(0.05f64.to_bits() + k),
                    _ => match k % 4 {
                        0 => 0.05 + (top - 0.05) * unit,
                        1 => f64::from_bits(top.to_bits() - 1 - draw() % 1_000_000),
                        2 => f64::from_bits(plateau.to_bits() + draw() % (1 << 21) - (1 << 20)),
                        _ => base_ipc(1.0 + 15.0 * unit, core),
                    },
                };
                assert_eq!(
                    ilp_for_base_ipc(base, core).to_bits(),
                    ilp_by_full_bisection(base, core).to_bits(),
                    "{}: base {base:e}",
                    core.name
                );
            }
        }
        let cores = oracle_cores();
        std::thread::scope(|s| {
            for (k, core) in cores.iter().enumerate() {
                s.spawn(move || check(core, 0x0dac_2015 + k as u64));
            }
        });
    }

    #[test]
    fn censored_base_maps_to_high_ilp() {
        let small = CoreConfig::small();
        assert_eq!(ilp_for_base_ipc(small.peak_ipc, &small), 6.0);
    }

    #[test]
    fn activity_tracks_relative_ipc() {
        let w = WorkloadCharacteristics::balanced();
        let core = CoreConfig::big();
        let est = estimate(&w, &core);
        assert!((est.activity - est.ipc / core.peak_ipc).abs() < 1e-12);
    }
}
