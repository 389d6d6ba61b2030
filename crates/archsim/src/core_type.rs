//! Heterogeneous core-type definitions (paper Table 2).
//!
//! A *core type* is a unique combination of micro-architectural features
//! (`issue width`, `LQ/SQ`, `IQ`, `ROB`, register-file size, L1 cache
//! sizes) plus a nominal operating point (frequency, voltage). Two cores
//! with identical micro-architecture but different nominal frequency are
//! distinct core types, exactly as Section 3 of the paper defines them.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a core *type* (`r ∈ R` in the paper).
///
/// Indexes into a [`Platform`]'s core-type table.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CoreTypeId(pub usize);

impl fmt::Display for CoreTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type{}", self.0)
    }
}

/// Identifier of a physical core (`c ∈ C` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Static configuration of one core type: the parameter vector
/// `X = {x1..x7}` of paper Table 2 plus the nominal operating point.
///
/// # Examples
///
/// ```
/// use archsim::CoreConfig;
///
/// let huge = CoreConfig::huge();
/// assert_eq!(huge.issue_width, 8);
/// assert!((huge.freq_hz - 2.0e9).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Human-readable label ("Huge", "Big", ...).
    pub name: String,
    /// Superscalar issue width (`x1`).
    pub issue_width: u32,
    /// Load-queue size (`x2`, first half of "LQ/SQ").
    pub lq_size: u32,
    /// Store-queue size (`x2`, second half of "LQ/SQ").
    pub sq_size: u32,
    /// Instruction-queue size (`x3`).
    pub iq_size: u32,
    /// Reorder-buffer size (`x4`).
    pub rob_size: u32,
    /// Physical integer/float registers (`x5`).
    pub phys_regs: u32,
    /// L1 instruction cache size in KiB (`x6`).
    pub l1i_kib: u32,
    /// L1 data cache size in KiB (`x7`).
    pub l1d_kib: u32,
    /// Instruction-TLB entries (derived: scales with the core class).
    pub itlb_entries: u32,
    /// Data-TLB entries (derived: scales with the core class).
    pub dtlb_entries: u32,
    /// Branch-predictor strength in [0, 1]; bigger cores ship bigger
    /// history tables, so they mispredict less for the same workload.
    pub branch_predictor_strength: f64,
    /// Nominal clock frequency in Hz (`F`).
    pub freq_hz: f64,
    /// Supply voltage in volts (`V_DD`).
    pub vdd: f64,
    /// Die area in mm² (Table 2 "Area", used by the leakage model).
    pub area_mm2: f64,
    /// Peak sustainable IPC on an ideal workload (Table 2 "Peak
    /// Throughput"); the pipeline model is calibrated against this.
    pub peak_ipc: f64,
    /// Peak total power in watts (Table 2 "Peak Power"); the power model
    /// is calibrated against this.
    pub peak_power_w: f64,
}

impl CoreConfig {
    /// The 8-wide "Huge" core of paper Table 2 (2 GHz, 1.0 V).
    pub fn huge() -> Self {
        CoreConfig {
            name: "Huge".to_owned(),
            issue_width: 8,
            lq_size: 32,
            sq_size: 32,
            iq_size: 64,
            rob_size: 192,
            phys_regs: 256,
            l1i_kib: 64,
            l1d_kib: 64,
            itlb_entries: 128,
            dtlb_entries: 128,
            branch_predictor_strength: 0.95,
            freq_hz: 2.0e9,
            vdd: 1.0,
            area_mm2: 11.99,
            peak_ipc: 4.18,
            peak_power_w: 8.62,
        }
    }

    /// The 4-wide "Big" core of paper Table 2 (1.5 GHz, 0.8 V).
    pub fn big() -> Self {
        CoreConfig {
            name: "Big".to_owned(),
            issue_width: 4,
            lq_size: 16,
            sq_size: 16,
            iq_size: 32,
            rob_size: 128,
            phys_regs: 128,
            l1i_kib: 32,
            l1d_kib: 32,
            itlb_entries: 64,
            dtlb_entries: 64,
            branch_predictor_strength: 0.90,
            freq_hz: 1.5e9,
            vdd: 0.8,
            area_mm2: 5.08,
            peak_ipc: 2.60,
            peak_power_w: 1.41,
        }
    }

    /// The 2-wide "Medium" core of paper Table 2 (1 GHz, 0.7 V).
    pub fn medium() -> Self {
        CoreConfig {
            name: "Medium".to_owned(),
            issue_width: 2,
            lq_size: 8,
            sq_size: 8,
            iq_size: 16,
            rob_size: 64,
            phys_regs: 64,
            l1i_kib: 16,
            l1d_kib: 16,
            itlb_entries: 32,
            dtlb_entries: 32,
            branch_predictor_strength: 0.85,
            freq_hz: 1.0e9,
            vdd: 0.7,
            area_mm2: 3.04,
            peak_ipc: 1.31,
            peak_power_w: 0.53,
        }
    }

    /// The single-issue "Small" core of paper Table 2 (500 MHz, 0.6 V).
    pub fn small() -> Self {
        CoreConfig {
            name: "Small".to_owned(),
            issue_width: 1,
            lq_size: 8,
            sq_size: 8,
            iq_size: 16,
            rob_size: 64,
            phys_regs: 64,
            l1i_kib: 16,
            l1d_kib: 16,
            itlb_entries: 32,
            dtlb_entries: 32,
            branch_predictor_strength: 0.80,
            freq_hz: 0.5e9,
            vdd: 0.6,
            area_mm2: 2.27,
            peak_ipc: 0.91,
            peak_power_w: 0.095,
        }
    }

    /// An A15-class "big" core for the big.LITTLE comparison platform
    /// (Section 6.1): 3-wide out-of-order at 1.6 GHz.
    pub fn a15_like() -> Self {
        CoreConfig {
            name: "bigA15".to_owned(),
            issue_width: 3,
            lq_size: 16,
            sq_size: 16,
            iq_size: 48,
            rob_size: 128,
            phys_regs: 128,
            l1i_kib: 32,
            l1d_kib: 32,
            itlb_entries: 64,
            dtlb_entries: 64,
            branch_predictor_strength: 0.92,
            freq_hz: 1.6e9,
            vdd: 0.9,
            area_mm2: 4.5,
            peak_ipc: 2.1,
            peak_power_w: 1.8,
        }
    }

    /// An A7-class "little" core for the big.LITTLE comparison platform
    /// (Section 6.1): 2-wide in-order at 1.0 GHz.
    pub fn a7_like() -> Self {
        CoreConfig {
            name: "littleA7".to_owned(),
            issue_width: 2,
            lq_size: 8,
            sq_size: 8,
            iq_size: 8,
            rob_size: 32,
            phys_regs: 48,
            l1i_kib: 16,
            l1d_kib: 16,
            itlb_entries: 32,
            dtlb_entries: 32,
            branch_predictor_strength: 0.82,
            freq_hz: 1.0e9,
            vdd: 0.7,
            area_mm2: 1.3,
            peak_ipc: 1.1,
            peak_power_w: 0.35,
        }
    }

    /// Derives the configuration of the *same micro-architecture* at a
    /// different voltage/frequency operating point — paper Section 3:
    /// "even if the cores are identical in terms of microarchitecture
    /// but associated with different nominal frequencies, they can be
    /// considered as distinct core types."
    ///
    /// Peak IPC is a micro-architectural property and stays unchanged;
    /// peak power rescales with the standard CMOS model (dynamic
    /// ∝ V²·f, leakage ∝ V), assuming the same ~25 % leakage share at
    /// the nominal point the power model calibrates with.
    ///
    /// # Panics
    ///
    /// Panics unless `freq_hz` and `vdd` are strictly positive and
    /// finite.
    pub fn at_operating_point(&self, freq_hz: f64, vdd: f64) -> CoreConfig {
        assert!(
            freq_hz.is_finite() && freq_hz > 0.0 && vdd.is_finite() && vdd > 0.0,
            "operating point must be positive, got {freq_hz} Hz @ {vdd} V"
        );
        const LEAK_SHARE: f64 = 0.25; // matches mcpat::LEAKAGE_FRACTION
        let dyn_scale = (vdd / self.vdd).powi(2) * (freq_hz / self.freq_hz);
        let leak_scale = vdd / self.vdd;
        let peak_power_w =
            self.peak_power_w * ((1.0 - LEAK_SHARE) * dyn_scale + LEAK_SHARE * leak_scale);
        CoreConfig {
            name: format!("{}@{:.0}MHz", self.name, freq_hz / 1e6),
            freq_hz,
            vdd,
            peak_power_w,
            ..self.clone()
        }
    }

    /// Builds a DVFS ladder: one derived [`CoreConfig`] (≡ one core
    /// *type*) per `(freq_hz, vdd)` operating point.
    pub fn dvfs_ladder(&self, points: &[(f64, f64)]) -> Vec<CoreConfig> {
        points
            .iter()
            .map(|&(f, v)| self.at_operating_point(f, v))
            .collect()
    }

    /// Peak throughput in instructions per second (`peak_ipc * F`).
    pub fn peak_ips(&self) -> f64 {
        self.peak_ipc * self.freq_hz
    }
}

/// A concrete machine: `n` cores, each referencing one of `q` core types
/// (the map `γ : C → R` of Section 3).
///
/// # Examples
///
/// ```
/// use archsim::Platform;
///
/// // The paper's primary evaluation platform: one core of each type.
/// let p = Platform::quad_heterogeneous();
/// assert_eq!(p.num_cores(), 4);
/// assert_eq!(p.num_types(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Platform {
    types: Vec<CoreConfig>,
    /// `gamma[j]` is the type of core `c_j`.
    gamma: Vec<CoreTypeId>,
}

impl Platform {
    /// Builds a platform from a core-type table and a per-core type
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` references a type index outside `types`, or if
    /// either argument is empty.
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; deserialization returns the same check as an error"
    )]
    pub fn new(types: Vec<CoreConfig>, gamma: Vec<CoreTypeId>) -> Self {
        Self::checked(types, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Platform::new`]'s checks, failing with a message that names
    /// the offending field.
    fn checked(types: Vec<CoreConfig>, gamma: Vec<CoreTypeId>) -> Result<Self, String> {
        if types.is_empty() {
            return Err("types: platform needs at least one core type".into());
        }
        if gamma.is_empty() {
            return Err("gamma: platform needs at least one core".into());
        }
        if let Some((j, t)) = gamma.iter().enumerate().find(|(_, t)| t.0 >= types.len()) {
            return Err(format!(
                "gamma[{j}]: core type index {} out of range ({} types)",
                t.0,
                types.len()
            ));
        }
        Ok(Platform { types, gamma })
    }

    /// The paper's primary evaluation platform: a quad-core MPSoC with
    /// one Huge, one Big, one Medium and one Small core (4 core types).
    pub fn quad_heterogeneous() -> Self {
        Platform::new(
            vec![
                CoreConfig::huge(),
                CoreConfig::big(),
                CoreConfig::medium(),
                CoreConfig::small(),
            ],
            vec![CoreTypeId(0), CoreTypeId(1), CoreTypeId(2), CoreTypeId(3)],
        )
    }

    /// The Section 6.1 comparison platform: an octa-core big.LITTLE with
    /// 4 A15-class and 4 A7-class cores (2 core types).
    pub fn octa_big_little() -> Self {
        Platform::new(
            vec![CoreConfig::a15_like(), CoreConfig::a7_like()],
            vec![
                CoreTypeId(0),
                CoreTypeId(0),
                CoreTypeId(0),
                CoreTypeId(0),
                CoreTypeId(1),
                CoreTypeId(1),
                CoreTypeId(1),
                CoreTypeId(1),
            ],
        )
    }

    /// A scalability platform with `n` cores cycling through the four
    /// Table 2 core types (used for Fig. 7(b)/Fig. 8 sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn scaled_heterogeneous(n: usize) -> Self {
        assert!(n > 0, "platform needs at least one core");
        let types = vec![
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
        ];
        let gamma = (0..n).map(|j| CoreTypeId(j % 4)).collect();
        Platform::new(types, gamma)
    }

    /// A server-scale platform of `clusters` contiguous homogeneous
    /// clusters with `cores_per_cluster` cores each; cluster `c` uses
    /// Table 2 core type `c % 4`. This is the clustered variant of
    /// [`Platform::scaled_heterogeneous`] for the 256–4096-core
    /// regime: contiguous same-type runs give the hierarchical
    /// balancer real migration domains instead of the per-core type
    /// cycling of the flat scaling platform.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero, `cores_per_cluster`
    /// exceeds 64 (per-cluster affinity masks are 64-bit), or the
    /// total exceeds 4096 cores.
    pub fn clustered_heterogeneous(clusters: usize, cores_per_cluster: usize) -> Self {
        assert!(clusters > 0, "platform needs at least one cluster");
        assert!(cores_per_cluster > 0, "clusters need at least one core");
        assert!(
            cores_per_cluster <= 64,
            "cluster-local affinity masks are 64-bit: at most 64 cores per cluster"
        );
        assert!(
            clusters * cores_per_cluster <= 4096,
            "supported scale tops out at 4096 cores"
        );
        let types = vec![
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
        ];
        let gamma = (0..clusters * cores_per_cluster)
            .map(|j| CoreTypeId((j / cores_per_cluster) % 4))
            .collect();
        Platform::new(types, gamma)
    }

    /// Number of physical cores `n`.
    pub fn num_cores(&self) -> usize {
        self.gamma.len()
    }

    /// Number of core types `q`.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The type of core `c` (the map `γ`).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn core_type(&self, c: CoreId) -> CoreTypeId {
        self.gamma[c.0]
    }

    /// Configuration of core `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn core_config(&self, c: CoreId) -> &CoreConfig {
        &self.types[self.gamma[c.0].0]
    }

    /// Configuration of core type `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn type_config(&self, r: CoreTypeId) -> &CoreConfig {
        &self.types[r.0]
    }

    /// Iterator over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.gamma.len()).map(CoreId)
    }

    /// Iterator over `(CoreTypeId, &CoreConfig)` for all core types.
    pub fn types(&self) -> impl Iterator<Item = (CoreTypeId, &CoreConfig)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, t)| (CoreTypeId(i), t))
    }

    /// All cores of the given type.
    pub fn cores_of_type(&self, r: CoreTypeId) -> Vec<CoreId> {
        self.cores().filter(|&c| self.core_type(c) == r).collect()
    }

    /// Replaces the configuration of core type `r` in place — the
    /// platform half of a DVFS transition. Derive `config` from the
    /// type's nominal configuration with
    /// [`CoreConfig::at_operating_point`], never from its current one:
    /// chained rescales would compound the power model's rounding and
    /// leakage-share assumption.
    ///
    /// Callers that cache anything derived from the old configuration
    /// (pipeline estimates, calibrated power models) must invalidate it;
    /// `kernelsim::System::set_operating_point` wraps this with exactly
    /// that bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn set_type_config(&mut self, r: CoreTypeId, config: CoreConfig) {
        self.types[r.0] = config;
    }
}

/// Deserializes through [`Platform::new`]'s checks, which a derived
/// impl would skip (the vendored serde has no `try_from` attribute).
impl Deserialize for Platform {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let types = field(v, "types")?;
        let gamma = field(v, "gamma")?;
        Platform::checked(types, gamma).map_err(serde::Error::new)
    }
}

/// Deserializes field `name` of `v`, naming it in the error.
fn field<T: Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
    T::deserialize_value(v.map_get(name)).map_err(|e| serde::Error::new(format!("{name}: {e}")))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn table2_parameters_match_paper() {
        let h = CoreConfig::huge();
        let b = CoreConfig::big();
        let m = CoreConfig::medium();
        let s = CoreConfig::small();
        assert_eq!(
            [h.issue_width, b.issue_width, m.issue_width, s.issue_width],
            [8, 4, 2, 1]
        );
        assert_eq!(
            [h.rob_size, b.rob_size, m.rob_size, s.rob_size],
            [192, 128, 64, 64]
        );
        assert_eq!(
            [h.iq_size, b.iq_size, m.iq_size, s.iq_size],
            [64, 32, 16, 16]
        );
        assert_eq!(
            [h.l1d_kib, b.l1d_kib, m.l1d_kib, s.l1d_kib],
            [64, 32, 16, 16]
        );
        assert_eq!([h.vdd, b.vdd, m.vdd, s.vdd], [1.0, 0.8, 0.7, 0.6]);
        assert_eq!(
            [
                h.peak_power_w,
                b.peak_power_w,
                m.peak_power_w,
                s.peak_power_w
            ],
            [8.62, 1.41, 0.53, 0.095]
        );
    }

    #[test]
    fn peak_ips_is_ipc_times_freq() {
        let h = CoreConfig::huge();
        assert!((h.peak_ips() - 4.18 * 2.0e9).abs() < 1.0);
    }

    #[test]
    fn quad_platform_has_one_core_per_type() {
        let p = Platform::quad_heterogeneous();
        for r in 0..4 {
            assert_eq!(p.cores_of_type(CoreTypeId(r)).len(), 1);
        }
    }

    #[test]
    fn octa_big_little_clusters() {
        let p = Platform::octa_big_little();
        assert_eq!(p.num_cores(), 8);
        assert_eq!(p.num_types(), 2);
        assert_eq!(p.cores_of_type(CoreTypeId(0)).len(), 4);
        assert_eq!(p.cores_of_type(CoreTypeId(1)).len(), 4);
    }

    #[test]
    fn scaled_platform_cycles_types() {
        let p = Platform::scaled_heterogeneous(10);
        assert_eq!(p.num_cores(), 10);
        assert_eq!(p.core_type(CoreId(0)), CoreTypeId(0));
        assert_eq!(p.core_type(CoreId(5)), CoreTypeId(1));
        assert_eq!(p.core_type(CoreId(9)), CoreTypeId(1));
    }

    #[test]
    fn clustered_platform_has_contiguous_homogeneous_runs() {
        let p = Platform::clustered_heterogeneous(6, 8);
        assert_eq!(p.num_cores(), 48);
        assert_eq!(p.num_types(), 4);
        for c in 0..6 {
            let first = CoreId(c * 8);
            assert_eq!(p.core_type(first), CoreTypeId(c % 4));
            for j in 1..8 {
                assert_eq!(p.core_type(CoreId(c * 8 + j)), p.core_type(first));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 cores per cluster")]
    fn oversized_cluster_rejected() {
        Platform::clustered_heterogeneous(2, 65);
    }

    #[test]
    #[should_panic(expected = "4096")]
    fn oversized_platform_rejected() {
        Platform::clustered_heterogeneous(100, 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn platform_rejects_bad_gamma() {
        Platform::new(vec![CoreConfig::small()], vec![CoreTypeId(3)]);
    }

    #[test]
    fn core_ids_display() {
        assert_eq!(CoreId(3).to_string(), "cpu3");
        assert_eq!(CoreTypeId(1).to_string(), "type1");
    }

    #[test]
    fn operating_point_scales_power_not_ipc() {
        let big = CoreConfig::big(); // 1.5 GHz @ 0.8 V, 1.41 W
        let slow = big.at_operating_point(0.75e9, 0.65);
        assert_eq!(slow.peak_ipc, big.peak_ipc, "µarch unchanged");
        assert_eq!(slow.issue_width, big.issue_width);
        assert!(slow.peak_power_w < big.peak_power_w / 2.0, "V²f savings");
        assert!(slow.peak_ips() < big.peak_ips());
        assert!(slow.name.contains("750MHz"));
        // Identity point is a no-op in the physics.
        let same = big.at_operating_point(big.freq_hz, big.vdd);
        assert!((same.peak_power_w - big.peak_power_w).abs() < 1e-12);
    }

    #[test]
    fn dvfs_ladder_is_more_efficient_when_slower() {
        // Energy per instruction at peak = P / IPS must decrease as the
        // operating point drops (the whole point of DVFS).
        let ladder = CoreConfig::big().dvfs_ladder(&[(1.5e9, 0.8), (1.0e9, 0.7), (0.6e9, 0.6)]);
        assert_eq!(ladder.len(), 3);
        let epi: Vec<f64> = ladder
            .iter()
            .map(|c| c.peak_power_w / c.peak_ips())
            .collect();
        assert!(epi[0] > epi[1] && epi[1] > epi[2], "{epi:?}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_operating_point_rejected() {
        CoreConfig::big().at_operating_point(0.0, 0.8);
    }

    #[test]
    fn set_type_config_replaces_in_place() {
        let mut p = Platform::quad_heterogeneous();
        let before = p.type_config(CoreTypeId(1)).clone();
        p.set_type_config(CoreTypeId(1), before.at_operating_point(0.75e9, 0.65));
        let after = p.type_config(CoreTypeId(1)).clone();
        assert_eq!(after, before.at_operating_point(0.75e9, 0.65));
        assert_eq!(
            p.core_config(CoreId(1)),
            &after,
            "gamma still maps core 1 to type 1"
        );
        assert_eq!(p.type_config(CoreTypeId(0)), &CoreConfig::huge());
        assert_eq!(p.type_config(CoreTypeId(3)), &CoreConfig::small());
    }
}
