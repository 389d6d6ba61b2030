//! The **predict** phase (paper Section 4.2.2): fill in the unmeasured
//! entries of `S(k)` and `P(k)`.
//!
//! Performance: `ipĉ_il = Θ_{γ(c_j)→γ(c_l)} · X'_ij` (Eq. 8) — a linear
//! model per ordered core-type pair, trained offline with least squares
//! (producing our equivalent of Table 4). Following the paper's
//! observation that counter-derived characteristics are "correlatable"
//! across core types, the regression operates on a *mechanistically
//! transformed* feature vector: the raw counters are first inverted
//! through the known micro-architectural models (cache/TLB capacity
//! laws, branch-predictor law, base-IPC window law — the OS knows every
//! core's configuration) to recover the workload's intrinsic signature,
//! which is then re-projected onto the destination core type. The
//! linear layer on top corrects the residual biases (chiefly ILP
//! censoring when a weak source core caps the observable base IPC).
//! DESIGN.md documents this as a deliberate strengthening over raw-
//! counter regression, in the spirit of the PIE predictor the paper
//! cites.
//!
//! Power: `p̂_il = α1·ipĉ_il + α0` (Eq. 9) — per-core-type linear
//! interpolation of power against IPC, with `α0, α1` from offline
//! profiling.

use archsim::branch::BranchModel;
use archsim::cache::{CacheModel, TlbModel};
use archsim::pipeline::{ilp_for_base_ipc, L1_MISS_LATENCY_NS};
use archsim::{estimate, run_slice, CoreConfig, CoreTypeId, Platform, WorkloadCharacteristics};
use mcpat::CorePowerModel;
use workloads::SyntheticGenerator;

use crate::sense::{features_from_counters, Features};

/// Duration of each offline profiling slice used for training, ns.
const TRAIN_SLICE_NS: u64 = 10_000_000;

/// Ridge regularization added to the normal equations, which keeps the
/// solve well-posed when transformed features are collinear.
const RIDGE_LAMBDA: f64 = 1.0e-6;

/// Number of entries in the transformed regression basis (one Θ column
/// each — our Table 4 analogue).
pub const NUM_COEFFS: usize = 10;

/// Names of the Θ coefficients, in order.
pub const COEFF_NAMES: [&str; NUM_COEFFS] = [
    "cpi_mech",
    "ipc_src",
    "cpi_src",
    "I_msh",
    "I_bsh",
    "mr_$d@dst",
    "mr_b@dst",
    "mlp_est",
    "FR",
    "const",
];

/// Degrades a feature vector to the *sparse sensing* counter set
/// (paper Section 6.4: platforms without TLB-miss counters or
/// memory-stall events): TLB rates and the memory-stall CPI are
/// replaced by fixed priors, so both training and prediction see the
/// same reduced information. Used to quantify what the extra counters
/// buy (the robustness study of the `paper` bench binary).
pub fn degrade_to_sparse(features: &mut Features) {
    features[6] = 5.0e-4; // mr_itlb prior
    features[7] = 5.0e-3; // mr_dtlb prior
    features[10] = -1.0; // cpi_mem sentinel: unavailable
}

/// Per-core-type power-vs-IPC interpolation coefficients (Eq. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCoeffs {
    /// Slope: watts per unit IPC.
    pub alpha1: f64,
    /// Intercept: watts at zero IPC (leakage + clock floor).
    pub alpha0: f64,
}

/// Reconstructs the workload's intrinsic characteristics from its
/// counter signature on a known source core — the inversion step of the
/// predictor. Every inversion is exact (up to counter quantization)
/// except the intrinsic ILP, which is censored when the source core's
/// peak IPC caps the observable base IPC.
pub fn infer_workload(features: &Features, src: &CoreConfig) -> WorkloadCharacteristics {
    let [_fr, mr_i, mr_d, msh, bsh, mr_b, mr_itlb, mr_dtlb, ipc_src, _one, cpi_mem] = *features;

    let ws_d = CacheModel::new(f64::from(src.l1d_kib)).working_set_for(mr_d);
    let ws_i = CacheModel::new(f64::from(src.l1i_kib)).working_set_for(mr_i);
    let pages_d = TlbModel::new(src.dtlb_entries).pages_for(mr_dtlb);
    let pages_i = TlbModel::new(src.itlb_entries).pages_for(mr_itlb);
    let entropy = BranchModel::new(src.branch_predictor_strength).entropy_for(mr_b);

    // MLP from the memory-stall counter: stall_mem = msh·mr_d·pen/mlp.
    // A negative cpi_mem is the sparse-sensing sentinel (counter not
    // available): fall back to the population prior.
    let pen_src = L1_MISS_LATENCY_NS * 1e-9 * src.freq_hz;
    let unoverlapped = msh * mr_d * pen_src;
    let mlp = if cpi_mem > 1.0e-9 {
        (unoverlapped / cpi_mem).clamp(1.0, 8.0)
    } else {
        2.5
    };

    // Base CPI: measured CPI minus the modelled stall components.
    let probe = WorkloadCharacteristics {
        ilp: 1.0, // placeholder; stalls don't depend on it
        mem_share: msh,
        branch_share: bsh,
        data_working_set_kib: ws_d,
        code_working_set_kib: ws_i,
        branch_entropy: entropy,
        data_pages: pages_d,
        code_pages: pages_i,
        mlp,
    }
    .clamped();
    let probe_est = estimate(&probe, src);
    let probe_stalls = 1.0 / probe_est.ipc - 1.0 / probe_est.base_ipc;
    let cpi_src = 1.0 / ipc_src.max(0.02);
    let base_cpi = (cpi_src - probe_stalls).clamp(1.0 / src.peak_ipc, 20.0);
    let ilp = ilp_for_base_ipc(1.0 / base_cpi, src);

    WorkloadCharacteristics { ilp, ..probe }.clamped()
}

/// The transformed regression basis for one (inverted signature, dst)
/// pair. The inversion ([`infer_workload`]) is by far the expensive
/// half of the transform — an estimate plus an iterative ILP solve —
/// and depends only on (signature, src), so callers sweeping
/// destination types invert once and project per type.
fn transform_with(
    w: &WorkloadCharacteristics,
    features: &Features,
    dst: &CoreConfig,
) -> [f64; NUM_COEFFS] {
    let mech = estimate(w, dst);
    let ipc_src = features[8].max(0.02);
    [
        1.0 / mech.ipc,
        ipc_src,
        1.0 / ipc_src,
        features[3],
        features[4],
        mech.l1d_miss_rate,
        mech.branch_miss_rate,
        w.mlp,
        features[0],
        1.0,
    ]
}

/// Trained predictor set: one Θ row per ordered core-type pair plus
/// per-type power coefficients.
///
/// # Examples
///
/// ```
/// use archsim::Platform;
/// use smartbalance::predict::PredictorSet;
///
/// let platform = Platform::quad_heterogeneous();
/// let predictors = PredictorSet::train(&platform, 200, 42);
/// assert_eq!(predictors.num_types(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorSet {
    /// Per-type core configurations (needed to transform features).
    type_configs: Vec<CoreConfig>,
    /// Θ coefficients, indexed `src * num_types + dst`.
    theta: Vec<[f64; NUM_COEFFS]>,
    /// Per-type power coefficients.
    power: Vec<PowerCoeffs>,
    /// Whether the predictor was trained on (and expects) the sparse
    /// counter set.
    sparse: bool,
}

impl PredictorSet {
    /// Trains predictors for every ordered core-type pair of `platform`
    /// on a synthetic corpus of `corpus_size` workloads (seeded, fully
    /// reproducible). This is the paper's offline profiling step.
    ///
    /// # Panics
    ///
    /// Panics if `corpus_size < NUM_COEFFS` (underdetermined fit).
    pub fn train(platform: &Platform, corpus_size: usize, seed: u64) -> Self {
        Self::train_with_sparsity(platform, corpus_size, seed, false)
    }

    /// Like [`PredictorSet::train`], but optionally with the *sparse*
    /// counter set (Section 6.4): features are degraded via
    /// [`degrade_to_sparse`] both here and at prediction time.
    ///
    /// # Panics
    ///
    /// Panics if `corpus_size < NUM_COEFFS` (underdetermined fit).
    pub fn train_with_sparsity(
        platform: &Platform,
        corpus_size: usize,
        seed: u64,
        sparse: bool,
    ) -> Self {
        assert!(
            corpus_size >= NUM_COEFFS,
            "need at least {NUM_COEFFS} training samples, got {corpus_size}"
        );
        let q = platform.num_types();
        let corpus = SyntheticGenerator::new(seed).corpus(corpus_size);
        let type_configs: Vec<CoreConfig> = platform.types().map(|(_, cfg)| cfg.clone()).collect();

        // Per source type: the raw signature of every corpus workload.
        let mut signatures: Vec<Vec<Features>> = Vec::with_capacity(q);
        for cfg in &type_configs {
            signatures.push(
                corpus
                    .iter()
                    .map(|w| {
                        let slice = run_slice(w, cfg, TRAIN_SLICE_NS);
                        let mut f = features_from_counters(&slice.counters, cfg.freq_hz);
                        if sparse {
                            degrade_to_sparse(&mut f);
                        }
                        f
                    })
                    .collect(),
            );
        }

        // Per destination type: the regression target, the true CPI of
        // every corpus workload there, shared by the q source fits.
        let targets: Vec<Vec<f64>> = type_configs
            .iter()
            .map(|cfg| corpus.iter().map(|w| 1.0 / estimate(w, cfg).ipc).collect())
            .collect();

        let mut theta = vec![[0.0; NUM_COEFFS]; q * q];
        for src in 0..q {
            // Invert each signature once per source type; the q
            // destination fits below share the inversions.
            let inversions: Vec<WorkloadCharacteristics> = signatures[src]
                .iter()
                .map(|f| infer_workload(f, &type_configs[src]))
                .collect();
            for (dst, ys) in targets.iter().enumerate() {
                let xs: Vec<[f64; NUM_COEFFS]> = inversions
                    .iter()
                    .zip(signatures[src].iter())
                    .map(|(w, f)| transform_with(w, f, &type_configs[dst]))
                    .collect();
                theta[src * q + dst] = least_squares(&xs, ys);
            }
        }

        let power = type_configs.iter().map(fit_power_coeffs).collect();

        PredictorSet {
            type_configs,
            theta,
            power,
            sparse,
        }
    }

    /// Whether this predictor expects the sparse counter set.
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }

    /// Number of core types covered.
    pub fn num_types(&self) -> usize {
        self.type_configs.len()
    }

    /// The core-type configurations the set was trained on, in type
    /// order: a platform whose types equal these gets the same set.
    pub(crate) fn type_configs(&self) -> &[CoreConfig] {
        &self.type_configs
    }

    /// The Θ coefficient row for predicting from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either type index is out of range.
    pub fn theta(&self, src: CoreTypeId, dst: CoreTypeId) -> &[f64; NUM_COEFFS] {
        assert!(src.0 < self.num_types() && dst.0 < self.num_types());
        &self.theta[src.0 * self.num_types() + dst.0]
    }

    /// Power coefficients of core type `r`.
    pub fn power_coeffs(&self, r: CoreTypeId) -> PowerCoeffs {
        self.power[r.0]
    }

    /// Predicts the IPC a thread with signature `features` (sampled on
    /// a `src`-type core) would achieve on a `dst`-type core (Eq. 8),
    /// clamped to the physical range `[0.02, peak_ipc(dst)]`.
    ///
    /// Predicting for several destinations? [`Self::predict_ipc_by_type`]
    /// computes the whole row for the cost of little more than one call.
    pub fn predict_ipc(&self, features: &Features, src: CoreTypeId, dst: CoreTypeId) -> f64 {
        let mut features = *features;
        if self.sparse {
            degrade_to_sparse(&mut features);
        }
        let w = infer_workload(&features, &self.type_configs[src.0]);
        self.ipc_from_inversion(&w, &features, src, dst)
    }

    /// Predicts the IPC on *every* core type at once: one entry per
    /// destination type, indexed by `CoreTypeId`. The expensive
    /// signature inversion is shared across the row, so filling a full
    /// characterization matrix costs one inversion per thread instead
    /// of one per (thread, core) cell. Each entry is bit-identical to
    /// the corresponding [`Self::predict_ipc`] call.
    ///
    /// SmartBalance calls this once per sensed thread per epoch, and
    /// not at all for a thread whose signature and source core type
    /// repeat last epoch's: the quarantine residual and every
    /// characterization row read that one shared row.
    pub fn predict_ipc_by_type(&self, features: &Features, src: CoreTypeId) -> Vec<f64> {
        let mut features = *features;
        if self.sparse {
            degrade_to_sparse(&mut features);
        }
        let w = infer_workload(&features, &self.type_configs[src.0]);
        (0..self.num_types())
            .map(|d| self.ipc_from_inversion(&w, &features, src, CoreTypeId(d)))
            .collect()
    }

    /// Eq. 8 from an already-degraded signature and its inversion.
    fn ipc_from_inversion(
        &self,
        w: &WorkloadCharacteristics,
        features: &Features,
        src: CoreTypeId,
        dst: CoreTypeId,
    ) -> f64 {
        let row = self.theta(src, dst);
        let x = transform_with(w, features, &self.type_configs[dst.0]);
        let cpi: f64 = row.iter().zip(x.iter()).map(|(a, b)| a * b).sum();
        (1.0 / cpi.max(1.0e-3)).clamp(0.02, self.type_configs[dst.0].peak_ipc)
    }

    /// Predicts the average power (watts) of a thread running at `ipc`
    /// on a `dst`-type core (Eq. 9).
    pub fn predict_power_w(&self, ipc: f64, dst: CoreTypeId) -> f64 {
        let c = self.power[dst.0];
        (c.alpha1 * ipc + c.alpha0).max(0.0)
    }
}

/// Fits `p = α1·ipc + α0` for one core type by sampling the calibrated
/// power model over an IPC grid (offline profiling, Eq. 9).
fn fit_power_coeffs(cfg: &CoreConfig) -> PowerCoeffs {
    let model = CorePowerModel::calibrated(cfg);
    let n = 32;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for k in 0..n {
        let ipc = cfg.peak_ipc * (k as f64 + 0.5) / n as f64;
        let p = model.active_power_w(ipc / cfg.peak_ipc);
        sx += ipc;
        sy += p;
        sxx += ipc * ipc;
        sxy += ipc * p;
    }
    let nf = n as f64;
    let denom = nf * sxx - sx * sx;
    let alpha1 = (nf * sxy - sx * sy) / denom;
    let alpha0 = (sy - alpha1 * sx) / nf;
    PowerCoeffs { alpha1, alpha0 }
}

/// Ordinary least squares with ridge regularization: solves
/// `(XᵀX + λI) β = Xᵀy`.
fn least_squares(xs: &[[f64; NUM_COEFFS]], ys: &[f64]) -> [f64; NUM_COEFFS] {
    debug_assert_eq!(xs.len(), ys.len());
    let d = NUM_COEFFS;
    let mut ata = [[0.0f64; NUM_COEFFS]; NUM_COEFFS];
    let mut atb = [0.0f64; NUM_COEFFS];
    for (x, &y) in xs.iter().zip(ys.iter()) {
        for r in 0..d {
            atb[r] += x[r] * y;
            for c in r..d {
                ata[r][c] += x[r] * x[c];
            }
        }
    }
    #[allow(clippy::needless_range_loop)]
    for r in 0..d {
        for c in 0..r {
            ata[r][c] = ata[c][r];
        }
        ata[r][r] += RIDGE_LAMBDA;
    }
    solve_linear(&mut ata, &mut atb);
    atb
}

/// In-place Gaussian elimination with partial pivoting; the solution
/// lands in `b`.
#[allow(clippy::needless_range_loop)]
fn solve_linear(a: &mut [[f64; NUM_COEFFS]; NUM_COEFFS], b: &mut [f64; NUM_COEFFS]) {
    let n = NUM_COEFFS;
    for col in 0..n {
        let mut pivot = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1.0e-12 {
            continue; // degenerate direction: leave coefficient at 0
        }
        for r in col + 1..n {
            let f = a[r][col] / diag;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    for col in (0..n).rev() {
        let diag = a[col][col];
        if diag.abs() < 1.0e-12 {
            b[col] = 0.0;
            continue;
        }
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a[col][c] * b[c];
        }
        b[col] = acc / diag;
    }
}

/// Mean absolute relative prediction error of `predictors` across a
/// workload corpus, for one ordered type pair. Returns `(ipc_error,
/// power_error)`, each on a `[0, 1]` scale (0.042 ≡ 4.2 %).
pub fn evaluate_pair(
    predictors: &PredictorSet,
    platform: &Platform,
    corpus: &[WorkloadCharacteristics],
    src: CoreTypeId,
    dst: CoreTypeId,
) -> (f64, f64) {
    let src_cfg = platform.type_config(src);
    let dst_cfg = platform.type_config(dst);
    let power_model = CorePowerModel::calibrated(dst_cfg);
    let mut ipc_err = 0.0;
    let mut pow_err = 0.0;
    for w in corpus {
        let slice = run_slice(w, src_cfg, TRAIN_SLICE_NS);
        let feats = features_from_counters(&slice.counters, src_cfg.freq_hz);
        let truth = estimate(w, dst_cfg);
        let pred_ipc = predictors.predict_ipc(&feats, src, dst);
        ipc_err += (pred_ipc - truth.ipc).abs() / truth.ipc.max(1e-9);
        let true_power = power_model.active_power_w(truth.activity);
        let pred_power = predictors.predict_power_w(pred_ipc, dst);
        pow_err += (pred_power - true_power).abs() / true_power.max(1e-9);
    }
    let n = corpus.len().max(1) as f64;
    (ipc_err / n, pow_err / n)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    fn trained() -> (Platform, PredictorSet) {
        let platform = Platform::quad_heterogeneous();
        let p = PredictorSet::train(&platform, 400, 2024);
        (platform, p)
    }

    #[test]
    fn linear_solver_recovers_known_system() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let beta = [0.5, -2.0, 1.0, 0.0, 3.0, -1.0, 0.25, 0.75, -0.5, 2.0];
        let mut g = SyntheticGenerator::new(5);
        for _ in 0..200 {
            let mut x = [0.0; NUM_COEFFS];
            for v in x.iter_mut() {
                *v = g.range(-1.0, 1.0);
            }
            x[NUM_COEFFS - 1] = 1.0;
            let y: f64 = x.iter().zip(beta.iter()).map(|(a, b)| a * b).sum();
            xs.push(x);
            ys.push(y);
        }
        let fit = least_squares(&xs, &ys);
        for (got, want) in fit.iter().zip(beta.iter()) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    #[test]
    fn workload_inversion_roundtrips() {
        // infer_workload must recover the intrinsic characteristics
        // from the counter signature (ILP exactly when uncensored).
        let platform = Platform::quad_heterogeneous();
        let src = platform.type_config(CoreTypeId(0)); // Huge: rarely censors
        let mut g = SyntheticGenerator::new(31);
        for _ in 0..50 {
            let w = g.characteristics();
            let slice = run_slice(&w, src, TRAIN_SLICE_NS);
            let feats = features_from_counters(&slice.counters, src.freq_hz);
            let got = infer_workload(&feats, src);
            let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-9);
            assert!(
                rel(got.mem_share, w.mem_share) < 0.05,
                "msh {got:?} vs {w:?}"
            );
            assert!(
                rel(got.data_working_set_kib, w.data_working_set_kib) < 0.25,
                "ws {} vs {}",
                got.data_working_set_kib,
                w.data_working_set_kib
            );
            assert!(rel(got.mlp, w.mlp) < 0.15, "mlp {} vs {}", got.mlp, w.mlp);
            if w.ilp < 5.0 {
                assert!(rel(got.ilp, w.ilp) < 0.25, "ilp {} vs {}", got.ilp, w.ilp);
            }
        }
    }

    #[test]
    fn cross_type_prediction_error_is_small() {
        // The paper reports ~4.2 % average IPC error across PARSEC; we
        // assert <6 % mean and <15 % per pair on a held-out corpus.
        let (platform, pred) = trained();
        let corpus = SyntheticGenerator::new(777).corpus(150);
        let mut total = 0.0;
        let mut pairs = 0;
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                let (e_ipc, _) =
                    evaluate_pair(&pred, &platform, &corpus, CoreTypeId(s), CoreTypeId(d));
                assert!(e_ipc < 0.15, "{s}->{d}: ipc err {e_ipc}");
                total += e_ipc;
                pairs += 1;
            }
        }
        let mean = total / pairs as f64;
        assert!(mean < 0.06, "mean ipc err {mean}");
    }

    #[test]
    fn power_prediction_tracks_mcpat() {
        let (platform, pred) = trained();
        for (r, cfg) in platform.types() {
            let model = CorePowerModel::calibrated(cfg);
            for k in 1..=4 {
                let ipc = cfg.peak_ipc * k as f64 / 4.0;
                let truth = model.active_power_w(ipc / cfg.peak_ipc);
                let got = pred.predict_power_w(ipc, r);
                assert!(
                    (got - truth).abs() / truth < 0.01,
                    "{}: ipc {ipc}: {got} vs {truth}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn identity_pair_is_nearly_exact() {
        let (platform, pred) = trained();
        let corpus = SyntheticGenerator::new(99).corpus(60);
        for t in 0..4 {
            let (e_ipc, _) = evaluate_pair(&pred, &platform, &corpus, CoreTypeId(t), CoreTypeId(t));
            assert!(e_ipc < 0.02, "{t}->{t}: ipc err {e_ipc}");
        }
    }

    #[test]
    fn predictions_clamped_to_physical_range() {
        let (platform, pred) = trained();
        let feats = [100.0; crate::sense::NUM_FEATURES];
        for d in 0..4 {
            let ipc = pred.predict_ipc(&feats, CoreTypeId(0), CoreTypeId(d));
            assert!(ipc <= platform.type_config(CoreTypeId(d)).peak_ipc);
            assert!(ipc >= 0.02);
        }
    }

    #[test]
    fn row_prediction_matches_single_calls_bitwise() {
        let (platform, pred) = trained();
        let w = WorkloadCharacteristics::memory_bound();
        let src_cfg = platform.type_config(CoreTypeId(2));
        let slice = run_slice(&w, src_cfg, TRAIN_SLICE_NS);
        let feats = features_from_counters(&slice.counters, src_cfg.freq_hz);
        let row = pred.predict_ipc_by_type(&feats, CoreTypeId(2));
        assert_eq!(row.len(), 4);
        for (d, &ipc) in row.iter().enumerate() {
            let single = pred.predict_ipc(&feats, CoreTypeId(2), CoreTypeId(d));
            assert_eq!(
                single.to_bits(),
                ipc.to_bits(),
                "shared-inversion row must be bit-identical (dst {d})"
            );
        }
    }

    #[test]
    fn training_is_deterministic() {
        let platform = Platform::quad_heterogeneous();
        let a = PredictorSet::train(&platform, 100, 9);
        let b = PredictorSet::train(&platform, 100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn ips_conversion_uses_dst_frequency() {
        // The matrices turn a predicted IPC into throughput at the
        // destination type's clock: ipŝ = ipĉ · F_dst.
        let (platform, pred) = trained();
        let w = WorkloadCharacteristics::balanced();
        let src_cfg = platform.type_config(CoreTypeId(0));
        let slice = run_slice(&w, src_cfg, TRAIN_SLICE_NS);
        let feats = features_from_counters(&slice.counters, src_cfg.freq_hz);
        let sense = crate::sense::ThreadSense {
            task: kernelsim::TaskId(0),
            core: archsim::CoreId(0),
            features: feats,
            measured_ips: 0.0,
            measured_power_w: 0.0,
            utilization: 1.0,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: false,
        };
        let m = crate::estimate::build_matrices(&platform, &[sense], &pred);
        let ipc = pred.predict_ipc(&feats, CoreTypeId(0), CoreTypeId(3));
        assert!((m.ips(0, 3) - ipc * 0.5e9).abs() < 1.0);
    }

    #[test]
    fn parsec_prediction_error_matches_paper_band() {
        // Fig. 6's claim: ~4.2 % IPC error and ~5 % power error across
        // PARSEC. Our analytical substrate lands in the same band.
        let (platform, pred) = trained();
        let mut corpus = Vec::new();
        for p in workloads::parsec::all() {
            for ph in p.phases() {
                corpus.push(ph.characteristics);
            }
        }
        let mut total_ipc = 0.0;
        let mut total_pow = 0.0;
        let mut pairs = 0;
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                let (e_ipc, e_pow) =
                    evaluate_pair(&pred, &platform, &corpus, CoreTypeId(s), CoreTypeId(d));
                total_ipc += e_ipc;
                total_pow += e_pow;
                pairs += 1;
            }
        }
        let mean_ipc = total_ipc / pairs as f64;
        let mean_pow = total_pow / pairs as f64;
        assert!(mean_ipc < 0.08, "mean PARSEC ipc err {mean_ipc}");
        assert!(mean_pow < 0.08, "mean PARSEC power err {mean_pow}");
    }

    #[test]
    #[should_panic(expected = "training samples")]
    fn too_small_corpus_rejected() {
        PredictorSet::train(&Platform::quad_heterogeneous(), 3, 1);
    }

    #[test]
    fn sparse_mode_costs_accuracy_but_stays_sane() {
        let platform = Platform::quad_heterogeneous();
        let full = PredictorSet::train_with_sparsity(&platform, 300, 7, false);
        let sparse = PredictorSet::train_with_sparsity(&platform, 300, 7, true);
        assert!(!full.is_sparse());
        assert!(sparse.is_sparse());
        let corpus = SyntheticGenerator::new(21).corpus(80);
        let (e_full, _) = evaluate_pair(&full, &platform, &corpus, CoreTypeId(1), CoreTypeId(3));
        let (e_sparse, _) =
            evaluate_pair(&sparse, &platform, &corpus, CoreTypeId(1), CoreTypeId(3));
        assert!(
            e_sparse >= e_full,
            "fewer counters cannot improve accuracy: {e_sparse} vs {e_full}"
        );
        assert!(e_sparse < 0.5, "sparse predictions stay usable: {e_sparse}");
    }

    #[test]
    fn theta_is_dominated_by_the_mechanistic_term() {
        // The Table 4 structural check: the cpi_mech coefficient
        // carries the prediction (≈1) in every *cross*-type pair.
        // Identity pairs are excluded: there `cpi_src` is an exact
        // duplicate of the target, so the solver may split the weight
        // arbitrarily between the two collinear columns.
        let (_platform, pred) = trained();
        for s in 0..4 {
            for d in 0..4 {
                if s == d {
                    continue;
                }
                let row = pred.theta(CoreTypeId(s), CoreTypeId(d));
                assert!(
                    (row[0] - 1.0).abs() < 0.35,
                    "{s}->{d}: cpi_mech coefficient {} strays from 1",
                    row[0]
                );
            }
        }
    }

    #[test]
    fn power_coeffs_match_calibrated_model() {
        let (platform, pred) = trained();
        for (r, cfg) in platform.types() {
            let c = pred.power_coeffs(r);
            let model = CorePowerModel::calibrated(cfg);
            // Intercept = leakage + clock floor; slope recovers the
            // activity-proportional dynamic power per unit IPC.
            let expected_intercept = model.active_power_w(0.0);
            assert!(
                (c.alpha0 - expected_intercept).abs() / expected_intercept < 1e-6,
                "{}: α0 {} vs {}",
                cfg.name,
                c.alpha0,
                expected_intercept
            );
            let expected_slope =
                (model.active_power_w(1.0) - model.active_power_w(0.0)) / cfg.peak_ipc;
            assert!(
                (c.alpha1 - expected_slope).abs() / expected_slope < 1e-6,
                "{}: α1 {} vs {}",
                cfg.name,
                c.alpha1,
                expected_slope
            );
        }
    }

    #[test]
    fn degrade_to_sparse_is_idempotent() {
        let mut f = [0.5; crate::sense::NUM_FEATURES];
        degrade_to_sparse(&mut f);
        let once = f;
        degrade_to_sparse(&mut f);
        assert_eq!(once, f);
        assert_eq!(f[10], -1.0, "cpi_mem sentinel set");
    }

    /// A fixed grid of 288 synthetic signatures sampled on a core of
    /// frequency `freq_hz`: IPCs from deep stall to above every peak,
    /// light to heavy data-miss traffic, the sparse-sensing sentinel
    /// and two measured memory-stall CPIs.
    fn golden_signatures(freq_hz: f64) -> Vec<Features> {
        let mut out = Vec::new();
        for ipc in [0.05, 0.2, 0.45, 0.8, 1.2, 1.8, 2.7, 4.1] {
            for mr_d in [0.002, 0.03, 0.12] {
                for msh in [0.15, 0.4] {
                    for cpi_mem in [-1.0, 0.02, 0.6] {
                        for mr_b in [0.01, 0.08] {
                            out.push([
                                freq_hz / 1e9,
                                0.01,
                                mr_d,
                                msh,
                                0.12,
                                mr_b,
                                5.0e-4,
                                4.0e-3,
                                ipc,
                                1.0,
                                cpi_mem,
                            ]);
                        }
                    }
                }
            }
        }
        out
    }

    /// A hash of trained predictor sets (every Θ row and the power
    /// coefficients) and of `predict_ipc_by_type` rows from every
    /// source type over [`golden_signatures`]: the quad platform with
    /// the dense and the sparse counter set and
    /// `clustered_heterogeneous(4, 4)`, each at three training seeds
    /// and the default corpus. The constant was recorded before the
    /// bracketed ILP bisection and the per-destination training
    /// targets; any change to the training or prediction arithmetic
    /// moves it.
    #[test]
    fn training_and_rows_match_the_recorded_golden_hash() {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        };
        let corpus = crate::SmartBalanceConfig::default().train_corpus;
        let quad = Platform::quad_heterogeneous();
        let sets = [
            (quad.clone(), false),
            (quad, true),
            (Platform::clustered_heterogeneous(4, 4), false),
        ];
        let mut rows = 0;
        for (platform, sparse) in &sets {
            for seed in [1, 42, 0xDAC_2015] {
                let p = PredictorSet::train_with_sparsity(platform, corpus, seed, *sparse);
                for v in p.theta.iter().flatten() {
                    mix(v.to_bits());
                }
                for c in &p.power {
                    mix(c.alpha1.to_bits());
                    mix(c.alpha0.to_bits());
                }
                for (src, cfg) in platform.types() {
                    for f in golden_signatures(cfg.freq_hz) {
                        for ipc in p.predict_ipc_by_type(&f, src) {
                            mix(ipc.to_bits());
                        }
                        rows += 1;
                    }
                }
            }
        }
        assert_eq!(rows, 3 * 3 * 4 * 288);
        assert_eq!(
            hash, 0x2fde_d5ae_1bf2_dd69,
            "golden hash over {rows} rows and 9 trained sets"
        );
    }
}
