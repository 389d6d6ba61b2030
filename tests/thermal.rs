//! Thermal-awareness integration tests: the ω-derating extension built
//! on the RC thermal tracker (paper hook: "ω_j ... can be tuned to
//! give preference to certain cores or core types").

use archsim::{CoreId, Platform, WorkloadCharacteristics};
use kernelsim::{System, SystemConfig};
use mcpat::{ThermalModel, AMBIENT_C};
use smartbalance::{PredictorSet, SmartBalance, SmartBalanceConfig, ThermalConfig};
use workloads::WorkloadProfile;

fn hot_workload() -> Vec<WorkloadProfile> {
    (0..4)
        .map(|i| {
            WorkloadProfile::uniform(
                format!("hot{i}"),
                WorkloadCharacteristics::compute_bound(),
                u64::MAX / 8,
            )
        })
        .collect()
}

#[test]
fn thermal_tracker_follows_the_run() {
    let platform = Platform::quad_heterogeneous();
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    for (i, p) in hot_workload().into_iter().enumerate() {
        sys.spawn_on(p, CoreId(i % 4));
    }
    let cfg = SmartBalanceConfig {
        thermal: Some(ThermalConfig::default()),
        ..SmartBalanceConfig::default()
    };
    let mut policy = SmartBalance::with_config(&platform, cfg);
    for _ in 0..10 {
        sys.run_epoch(&mut policy);
    }
    // Busy cores must be above ambient; the tracker is exposed.
    let mut any_warm = false;
    for c in platform.cores() {
        let t = policy.temperature_c(c).expect("thermal enabled");
        assert!(t >= AMBIENT_C - 1e-9);
        if t > AMBIENT_C + 2.0 {
            any_warm = true;
        }
    }
    assert!(any_warm, "sustained load must heat something up");
}

#[test]
fn thermal_weights_steer_load_off_a_hot_core() {
    // With an aggressive (low) thermal limit, the Huge core saturates
    // its budget quickly; a thermally-weighted balancer should use it
    // less than a thermally-blind one over a sustained run.
    let platform = Platform::quad_heterogeneous();
    let run = |thermal: Option<ThermalConfig>| {
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        for (i, p) in hot_workload().into_iter().enumerate() {
            sys.spawn_on(p, CoreId(i % 4));
        }
        let cfg = SmartBalanceConfig {
            thermal,
            ..SmartBalanceConfig::default()
        };
        let mut policy = SmartBalance::with_config(&platform, cfg);
        for _ in 0..30 {
            sys.run_epoch(&mut policy);
        }
        sys.stats().per_core[0].busy_ns // Huge-core usage
    };
    let blind = run(None);
    let aware = run(Some(ThermalConfig {
        soft_limit_c: 45.0,
        hard_limit_c: 60.0,
    }));
    assert!(
        aware <= blind,
        "thermal derating must not increase hot-core usage: {aware} vs {blind}"
    );
}

#[test]
fn a_shared_predictor_set_keeps_thermal_tracking() {
    // The same thermal policy twice: training its own predictors, and
    // around a set trained elsewhere. Both track temperature, and the
    // runs match bit for bit.
    let platform = Platform::quad_heterogeneous();
    let cfg = SmartBalanceConfig {
        thermal: Some(ThermalConfig {
            soft_limit_c: 45.0,
            hard_limit_c: 60.0,
        }),
        ..SmartBalanceConfig::default()
    };
    let shared = PredictorSet::train(&platform, cfg.train_corpus, cfg.train_seed);
    let run = |mut policy: SmartBalance| {
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        for (i, p) in hot_workload().into_iter().enumerate() {
            sys.spawn_on(p, CoreId(i % 4));
        }
        for _ in 0..20 {
            sys.run_epoch(&mut policy);
        }
        let temps: Vec<u64> = platform
            .cores()
            .map(|c| policy.temperature_c(c).expect("thermal enabled").to_bits())
            .collect();
        (sys.stats(), temps)
    };
    let (own_stats, own_temps) = run(SmartBalance::with_config(&platform, cfg.clone()));
    let (shared_stats, shared_temps) = run(SmartBalance::with_predictors(&platform, cfg, shared));
    assert!(
        own_temps
            .iter()
            .any(|&t| f64::from_bits(t) > AMBIENT_C + 2.0),
        "sustained load must heat something up"
    );
    assert_eq!(shared_temps, own_temps, "same temperature trajectory");
    assert_eq!(shared_stats, own_stats, "same run");
}

#[test]
fn disabled_thermal_mode_reports_none() {
    let platform = Platform::quad_heterogeneous();
    let policy = SmartBalance::new(&platform);
    assert!(policy.temperature_c(CoreId(0)).is_none());
}

#[test]
fn rc_model_time_constant_behaviour() {
    // One epoch (60 ms) is a fraction of τ = 150 ms: temperature moves
    // ~33 % of the way to steady state.
    let platform = Platform::quad_heterogeneous();
    let mut t = ThermalModel::new(&platform);
    let steady = t.steady_state_c(CoreId(0), 8.62);
    let after_one = t.step(CoreId(0), 8.62, 60_000_000);
    let expected = AMBIENT_C + (steady - AMBIENT_C) * (1.0 - (-0.06f64 / 0.15).exp());
    assert!((after_one - expected).abs() < 1e-9);
}
