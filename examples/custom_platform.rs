//! Defining your own platform and optimization goal.
//!
//! The paper's pitch is *generality*: unlike IKS/GTS, SmartBalance
//! handles any number of core types without re-engineering. This
//! example builds the three-type platform of the paper's Fig. 1 (Big
//! A15-class / Medium A11-class / Little A7-class), trains predictors
//! for it, and runs the same workload under two different optimization
//! goals — energy efficiency and raw throughput — with tuned per-core
//! weights ω.
//!
//! ```sh
//! cargo run --release -p smartbalance --example custom_platform
//! ```

use archsim::{CoreConfig, CoreTypeId, Platform};
use smartbalance::{
    run_experiment_with, ExperimentSpec, Goal, Policy, SmartBalance, SmartBalanceConfig,
};

/// An A11-class middle core between the stock A15/A7 presets.
fn a11_like() -> CoreConfig {
    CoreConfig {
        name: "midA11".to_owned(),
        issue_width: 2,
        lq_size: 12,
        sq_size: 12,
        iq_size: 24,
        rob_size: 64,
        phys_regs: 96,
        l1i_kib: 32,
        l1d_kib: 32,
        itlb_entries: 48,
        dtlb_entries: 48,
        branch_predictor_strength: 0.88,
        freq_hz: 1.3e9,
        vdd: 0.8,
        area_mm2: 2.6,
        peak_ipc: 1.6,
        peak_power_w: 0.9,
    }
}

fn main() {
    // Fig. 1(b)'s "aggressively heterogeneous" 3-type hexa-core: 2 big,
    // 2 medium, 2 little — a configuration GTS cannot express.
    let platform = Platform::new(
        vec![CoreConfig::a15_like(), a11_like(), CoreConfig::a7_like()],
        vec![
            CoreTypeId(0),
            CoreTypeId(0),
            CoreTypeId(1),
            CoreTypeId(1),
            CoreTypeId(2),
            CoreTypeId(2),
        ],
    );

    let mut profiles = Vec::new();
    for name in ["x264_H_crew", "streamcluster", "swaptions"] {
        let bench = workloads::parsec::by_name(name).expect("known benchmark");
        profiles.extend(ExperimentSpec::parallelize(&bench.scaled(0.3), 2));
    }
    let spec = ExperimentSpec::new("custom", platform.clone(), profiles);

    println!("goal               instr/J      GIPS   avg W   migrations");
    for (label, goal, weights) in [
        ("energy", Goal::EnergyEfficiency, None),
        ("throughput", Goal::Throughput, None),
        // Prefer the medium cores (e.g. thermally constrained bigs):
        // ω = 0.5 on the big pair.
        (
            "energy+weights",
            Goal::EnergyEfficiency,
            Some(vec![0.5, 0.5, 1.0, 1.0, 1.0, 1.0]),
        ),
    ] {
        let cfg = SmartBalanceConfig {
            goal,
            core_weights: weights,
            ..SmartBalanceConfig::default()
        };
        let mut policy = SmartBalance::with_config(&platform, cfg);
        let r = run_experiment_with(&spec, &mut policy, None);
        println!(
            "{:<16} {:>9.3e} {:>9.3} {:>7.3} {:>12}",
            label,
            r.energy_efficiency(),
            r.stats.throughput_ips() / 1e9,
            r.stats.avg_power_w(),
            r.stats.migrations,
        );
    }

    // Baseline for context.
    let mut vanilla = Policy::Vanilla.build(&platform, None);
    let r = run_experiment_with(&spec, vanilla.as_mut(), None);
    println!(
        "{:<16} {:>9.3e} {:>9.3} {:>7.3} {:>12}",
        "vanilla",
        r.energy_efficiency(),
        r.stats.throughput_ips() / 1e9,
        r.stats.avg_power_w(),
        r.stats.migrations,
    );
}
