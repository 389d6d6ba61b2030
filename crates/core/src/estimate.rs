//! The **estimate** phase glue: combine per-thread measurements on the
//! current core (sense) with cross-core-type predictions (predict) into
//! the `S(k)` / `P(k)` characterization matrices the optimizer consumes
//! (paper Section 4.2, Fig. 2 steps 2–3). Each thread gets one entry
//! per core type, which every core of that type reads; the flat
//! annealer, the sharded balancer's cluster sub-problems and its
//! exchange all start from the one instance built here.

#![cfg_attr(not(test), warn(clippy::as_conversions))]

use archsim::{CoreTypeId, Platform};
use mcpat::CorePowerModel;

use crate::matrices::CharacterizationMatrices;
use crate::predict::PredictorSet;
use crate::sense::ThreadSense;

/// Builds `S(k)` and `P(k)` for the given sensed threads.
///
/// For every thread, the entry of its current core type carries the
/// *measured* values (same type ⇒ same micro-architecture and operating
/// point); every other type is filled with the Θ/α predictions of
/// Eq. 8–9. Threads whose sample is stale or a prior, or not finite
/// and positive, fall back to prediction everywhere.
///
/// # Examples
///
/// ```
/// use archsim::Platform;
/// use smartbalance::estimate::build_matrices;
/// use smartbalance::predict::PredictorSet;
///
/// let platform = Platform::quad_heterogeneous();
/// let predictors = PredictorSet::train(&platform, 100, 1);
/// let m = build_matrices(&platform, &[], &predictors);
/// assert_eq!(m.num_threads(), 0);
/// assert_eq!(m.num_cores(), 4);
/// ```
pub fn build_matrices(
    platform: &Platform,
    senses: &[ThreadSense],
    predictors: &PredictorSet,
) -> CharacterizationMatrices {
    let q = platform.num_types();
    let mut rows = Vec::with_capacity(senses.len() * q);
    for sense in senses {
        let row = predictors.predict_ipc_by_type(&sense.features, platform.core_type(sense.core));
        rows.extend_from_slice(&row[..q]);
    }
    build_matrices_with_rows(platform, senses, &rows, predictors)
}

/// [`build_matrices`] from already predicted rows: `rows` holds each
/// sensed thread's [`PredictorSet::predict_ipc_by_type`] row, flat,
/// `platform.num_types()` entries per thread in sense order. Sleep
/// power comes from the platform's current operating points.
pub(crate) fn build_matrices_with_rows(
    platform: &Platform,
    senses: &[ThreadSense],
    rows: &[f64],
    predictors: &PredictorSet,
) -> CharacterizationMatrices {
    let core_types = platform.cores().map(|c| platform.core_type(c)).collect();
    let sleep_power: Vec<f64> = platform
        .cores()
        .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
        .collect();
    let tasks = senses.iter().map(|s| s.task).collect();
    let mut m = CharacterizationMatrices::new(tasks, core_types, sleep_power);

    let stride = platform.num_types();
    for (i, sense) in senses.iter().enumerate() {
        let src_type = platform.core_type(sense.core);
        // Non-finite or non-positive measurements (corrupt sensors that
        // slipped past the sensing stage) fall back to prediction.
        let has_measurement = sense.fresh
            && sense.measured_ips.is_finite()
            && sense.measured_ips > 0.0
            && sense.measured_power_w.is_finite()
            && sense.measured_power_w > 0.0;
        for t in (0..m.num_type_entries()).map(CoreTypeId) {
            if has_measurement && t == src_type {
                m.set_type(
                    i,
                    t,
                    sense.measured_ips,
                    sense.measured_power_w.max(1e-6),
                    true,
                );
                continue;
            }
            let ipc = rows[i * stride + t.0];
            let mut ips = ipc * platform.type_config(t).freq_hz;
            if !ips.is_finite() {
                // A corrupt signature can drive the regression to
                // NaN/Inf; a zero-throughput entry merely makes the
                // core look unattractive instead of poisoning the
                // objective arithmetic.
                ips = 0.0;
            }
            let mut p = predictors.predict_power_w(ipc, t);
            if !p.is_finite() {
                p = 0.0;
            }
            m.set_type(i, t, ips, p.max(1e-6), false);
        }
        m.set_utilization(i, sense.utilization);
        m.set_allowed(i, sense.allowed);
    }
    m
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::sense::{features_from_counters, ThreadSense};
    use archsim::{run_slice, CoreConfig, CoreId, WorkloadCharacteristics};
    use kernelsim::TaskId;

    fn sense_for(
        platform: &Platform,
        core: CoreId,
        w: &WorkloadCharacteristics,
        fresh: bool,
    ) -> ThreadSense {
        let cfg = platform.core_config(core);
        let slice = run_slice(w, cfg, 10_000_000);
        ThreadSense {
            task: TaskId(0),
            core,
            features: features_from_counters(&slice.counters, cfg.freq_hz),
            measured_ips: slice.ips(),
            measured_power_w: 1.0,
            utilization: 0.9,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh,
        }
    }

    #[test]
    fn measured_column_used_for_own_type() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(1), &w, true);
        let m = build_matrices(&platform, &[s], &predictors);
        assert!(m.is_measured(0, 1), "own core column is measured");
        assert!(!m.is_measured(0, 0));
        assert!(!m.is_measured(0, 3));
        assert_eq!(m.ips(0, 1), s.measured_ips);
        assert_eq!(m.power(0, 1), 1.0);
        assert!((m.utilization(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn stale_sense_predicts_everywhere() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(1), &w, false);
        let m = build_matrices(&platform, &[s], &predictors);
        for j in 0..4 {
            assert!(!m.is_measured(0, j));
            assert!(m.ips(0, j) > 0.0);
            assert!(m.power(0, j) > 0.0);
        }
    }

    #[test]
    fn non_finite_measurements_fall_back_to_prediction() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let mut s = sense_for(&platform, CoreId(1), &w, true);
        s.measured_ips = f64::NAN;
        let m = build_matrices(&platform, &[s], &predictors);
        assert!(!m.is_measured(0, 1), "NaN measurement is not trusted");
        for j in 0..4 {
            assert!(m.ips(0, j).is_finite());
            assert!(m.power(0, j).is_finite() && m.power(0, j) > 0.0);
        }
        // Zero measured power is equally distrusted.
        s.measured_ips = 1e9;
        s.measured_power_w = 0.0;
        let m2 = build_matrices(&platform, &[s], &predictors);
        assert!(!m2.is_measured(0, 1));
    }

    #[test]
    fn corrupt_features_never_poison_the_matrices() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let mut s = sense_for(&platform, CoreId(1), &w, false);
        // An adversarial signature that slipped past validation.
        s.features = [f64::INFINITY; crate::sense::NUM_FEATURES];
        let m = build_matrices(&platform, &[s], &predictors);
        for j in 0..4 {
            assert!(m.ips(0, j).is_finite(), "col {j}");
            assert!(m.power(0, j).is_finite() && m.power(0, j) > 0.0, "col {j}");
        }
    }

    #[test]
    fn predictions_are_plausible_across_types() {
        // A compute-bound thread sensed on the Medium core should be
        // predicted much faster on Huge and slower on Small.
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 400, 3);
        let w = WorkloadCharacteristics::compute_bound();
        let s = sense_for(&platform, CoreId(2), &w, true);
        let m = build_matrices(&platform, &[s], &predictors);
        assert!(
            m.ips(0, 0) > 2.0 * m.ips(0, 2),
            "Huge >> Medium for compute"
        );
        assert!(m.ips(0, 3) < m.ips(0, 2), "Small < Medium");
        assert!(m.power(0, 0) > m.power(0, 3) * 10.0, "power gap is extreme");
    }

    /// `Platform::new` allows core types no core uses, here types 1
    /// and 3 of four: every core still reads its own type's entry, a
    /// measurement on the current type or its thread's prediction row.
    #[test]
    fn types_no_core_uses_leave_every_core_its_own_entry() {
        let types = vec![
            CoreConfig::huge(),
            CoreConfig::big(),
            CoreConfig::medium(),
            CoreConfig::small(),
        ];
        let gamma = vec![CoreTypeId(2), CoreTypeId(0), CoreTypeId(2)];
        let platform = Platform::new(types, gamma);
        let predictors = PredictorSet::train(&platform, 200, 3);
        let senses = [
            sense_for(
                &platform,
                CoreId(1),
                &WorkloadCharacteristics::compute_bound(),
                true,
            ),
            sense_for(
                &platform,
                CoreId(2),
                &WorkloadCharacteristics::memory_bound(),
                false,
            ),
        ];
        let m = build_matrices(&platform, &senses, &predictors);
        for (i, s) in senses.iter().enumerate() {
            let src = platform.core_type(s.core);
            let row = predictors.predict_ipc_by_type(&s.features, src);
            for j in 0..3 {
                let t = platform.core_type(CoreId(j));
                let measured = s.fresh && t == src;
                assert_eq!(m.is_measured(i, j), measured, "({i},{j})");
                let (ips, power) = if measured {
                    (s.measured_ips, s.measured_power_w)
                } else {
                    let ipc = row[t.0];
                    let power = predictors.predict_power_w(ipc, t).max(1e-6);
                    (ipc * platform.type_config(t).freq_hz, power)
                };
                assert_eq!((m.ips(i, j), m.power(i, j)), (ips, power), "({i},{j})");
            }
        }
    }

    #[test]
    fn same_type_columns_share_measurement() {
        // On big.LITTLE, both little cores must get the measured value.
        let platform = Platform::octa_big_little();
        let predictors = PredictorSet::train(&platform, 200, 4);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(5), &w, true); // a little core
        let m = build_matrices(&platform, &[s], &predictors);
        for j in 4..8 {
            assert!(m.is_measured(0, j), "core {j} is same type as source");
            assert_eq!(m.ips(0, j), s.measured_ips);
        }
        for j in 0..4 {
            assert!(!m.is_measured(0, j));
        }
    }
}
