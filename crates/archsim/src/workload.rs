//! Micro-architecture-facing workload description.
//!
//! The analytical core model does not interpret real instruction streams;
//! instead each workload (phase) is described by the intrinsic
//! characteristics that determine how it performs on a given core:
//! available instruction-level parallelism, instruction mix, working-set
//! sizes and branch predictability. These are the same quantities a
//! cycle-accurate simulation of a real binary would *exhibit* through the
//! hardware counters of [`crate::CounterSample`].

use serde::{Deserialize, Serialize};

/// Intrinsic, core-independent characteristics of a workload phase.
///
/// All fields are *properties of the code+input*, not of any core; the
/// pipeline/cache/branch models in this crate combine them with a
/// [`crate::CoreConfig`] to produce core-dependent IPC and miss rates.
///
/// # Examples
///
/// ```
/// use archsim::WorkloadCharacteristics;
///
/// let compute = WorkloadCharacteristics::compute_bound();
/// let memory = WorkloadCharacteristics::memory_bound();
/// assert!(compute.ilp > memory.ilp);
/// assert!(compute.mem_share < memory.mem_share);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCharacteristics {
    /// Available instruction-level parallelism: the mean number of
    /// independent instructions per cycle an infinitely wide machine
    /// could sustain. Typical range `1.0..=8.0`.
    pub ilp: f64,
    /// Fraction of committed instructions that are loads/stores
    /// (`0.0..=0.7`).
    pub mem_share: f64,
    /// Fraction of committed instructions that are branches
    /// (`0.0..=0.4`).
    pub branch_share: f64,
    /// Data working-set size in KiB; drives the L1D miss rate.
    pub data_working_set_kib: f64,
    /// Instruction working-set (hot code footprint) in KiB; drives the
    /// L1I miss rate.
    pub code_working_set_kib: f64,
    /// Branch-outcome entropy in `[0, 1]`: 0 = perfectly predictable,
    /// 1 = random outcomes. Drives the misprediction rate.
    pub branch_entropy: f64,
    /// Number of distinct data pages touched; drives the D-TLB miss rate.
    pub data_pages: f64,
    /// Number of distinct code pages touched; drives the I-TLB miss rate.
    pub code_pages: f64,
    /// Memory-level parallelism: mean number of overlapping outstanding
    /// misses (`1.0..=8.0`); higher values hide miss latency.
    pub mlp: f64,
}

impl WorkloadCharacteristics {
    /// A highly parallel, cache-resident compute kernel (e.g. the
    /// blackscholes inner loop): benefits strongly from wide cores.
    pub fn compute_bound() -> Self {
        WorkloadCharacteristics {
            ilp: 6.0,
            mem_share: 0.18,
            branch_share: 0.05,
            data_working_set_kib: 12.0,
            code_working_set_kib: 6.0,
            branch_entropy: 0.05,
            data_pages: 24.0,
            code_pages: 4.0,
            mlp: 4.0,
        }
    }

    /// A pointer-chasing, cache-hostile phase (e.g. canneal): sees little
    /// benefit from wide issue, so it belongs on small cores.
    pub fn memory_bound() -> Self {
        WorkloadCharacteristics {
            ilp: 1.4,
            mem_share: 0.45,
            branch_share: 0.15,
            data_working_set_kib: 512.0,
            code_working_set_kib: 10.0,
            branch_entropy: 0.35,
            data_pages: 512.0,
            code_pages: 8.0,
            mlp: 1.2,
        }
    }

    /// A branchy control-dominated phase (e.g. a parser or the x264
    /// entropy coder).
    pub fn branch_bound() -> Self {
        WorkloadCharacteristics {
            ilp: 2.2,
            mem_share: 0.25,
            branch_share: 0.30,
            data_working_set_kib: 48.0,
            code_working_set_kib: 40.0,
            branch_entropy: 0.55,
            data_pages: 80.0,
            code_pages: 32.0,
            mlp: 2.0,
        }
    }

    /// A balanced mixed phase; the default.
    pub fn balanced() -> Self {
        WorkloadCharacteristics {
            ilp: 3.0,
            mem_share: 0.30,
            branch_share: 0.15,
            data_working_set_kib: 64.0,
            code_working_set_kib: 24.0,
            branch_entropy: 0.25,
            data_pages: 96.0,
            code_pages: 16.0,
            mlp: 2.5,
        }
    }

    /// Clamps every field into its documented valid range, returning the
    /// sanitized characteristics. Useful after arithmetic blending.
    pub fn clamped(mut self) -> Self {
        self.ilp = self.ilp.clamp(0.5, 8.0);
        self.mem_share = self.mem_share.clamp(0.0, 0.7);
        self.branch_share = self.branch_share.clamp(0.0, 0.4);
        // Keep mem + branch share <= 0.9 so some plain ALU work remains.
        let excess = (self.mem_share + self.branch_share - 0.9).max(0.0);
        if excess > 0.0 {
            self.mem_share -= excess / 2.0;
            self.branch_share -= excess / 2.0;
        }
        self.data_working_set_kib = self.data_working_set_kib.clamp(1.0, 65_536.0);
        self.code_working_set_kib = self.code_working_set_kib.clamp(1.0, 4_096.0);
        self.branch_entropy = self.branch_entropy.clamp(0.0, 1.0);
        self.data_pages = self.data_pages.clamp(1.0, 1.0e6);
        self.code_pages = self.code_pages.clamp(1.0, 1.0e5);
        self.mlp = self.mlp.clamp(1.0, 8.0);
        self
    }
}

impl Default for WorkloadCharacteristics {
    fn default() -> Self {
        Self::balanced()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn presets_are_within_clamp_range() {
        for w in [
            WorkloadCharacteristics::compute_bound(),
            WorkloadCharacteristics::memory_bound(),
            WorkloadCharacteristics::branch_bound(),
            WorkloadCharacteristics::balanced(),
        ] {
            assert_eq!(w, w.clamped(), "preset must already be sane: {w:?}");
        }
    }

    #[test]
    fn clamp_bounds_extreme_values() {
        let w = WorkloadCharacteristics {
            ilp: 100.0,
            mem_share: 0.9,
            branch_share: 0.9,
            data_working_set_kib: -5.0,
            code_working_set_kib: 0.0,
            branch_entropy: 2.0,
            data_pages: 0.0,
            code_pages: -1.0,
            mlp: 0.0,
        }
        .clamped();
        assert_eq!(w.ilp, 8.0);
        assert!(w.mem_share + w.branch_share <= 0.9 + 1e-12);
        assert_eq!(w.data_working_set_kib, 1.0);
        assert_eq!(w.branch_entropy, 1.0);
        assert_eq!(w.mlp, 1.0);
    }
}
