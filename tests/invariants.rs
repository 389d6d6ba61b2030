//! Cross-crate invariants: the DESIGN.md invariant list, exercised
//! over 64 deterministic pseudo-random cases per property (seeded
//! `SyntheticGenerator` sweeps stand in for proptest, which is
//! unavailable in the offline build environment).

use archsim::{run_slice, CoreConfig, CoreId, CoreTypeId, Platform, WorkloadCharacteristics};
use kernelsim::{NullBalancer, System, SystemConfig, TaskId};
use smartbalance::fixed::{fx_exp_neg, Fx, Randi};
use smartbalance::{anneal, AnnealParams, CharacterizationMatrices, Goal, Objective};
use workloads::{SyntheticGenerator, WorkloadProfile};

/// Cases per property — matches the proptest case count this harness
/// replaced.
const CASES: u64 = 64;

/// A generator seeded per (property, case) so properties are
/// independent and every run is identical.
fn case_gen(property: u64, case: u64) -> SyntheticGenerator {
    SyntheticGenerator::new((property << 32) ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1)
}

fn gen_characteristics(gen: &mut SyntheticGenerator) -> WorkloadCharacteristics {
    WorkloadCharacteristics {
        ilp: gen.range(0.5, 8.0),
        mem_share: gen.range(0.0, 0.6),
        branch_share: gen.range(0.0, 0.35),
        data_working_set_kib: gen.range(1.0, 8192.0),
        code_working_set_kib: gen.range(1.0, 512.0),
        branch_entropy: gen.range(0.0, 1.0),
        data_pages: gen.range(1.0, 10_000.0),
        code_pages: gen.range(1.0, 1_000.0),
        mlp: gen.range(1.0, 8.0),
    }
    .clamped()
}

fn gen_core(gen: &mut SyntheticGenerator) -> CoreConfig {
    match gen.below(6) {
        0 => CoreConfig::huge(),
        1 => CoreConfig::big(),
        2 => CoreConfig::medium(),
        3 => CoreConfig::small(),
        4 => CoreConfig::a15_like(),
        _ => CoreConfig::a7_like(),
    }
}

#[test]
fn key_types_serde_roundtrip() {
    // The library's data types are serializable (C-SERDE); verify the
    // roundtrips actually preserve the values users would persist.
    let platform = Platform::quad_heterogeneous();
    let json = serde_json::to_string(&platform).expect("serialize platform");
    let back: Platform = serde_json::from_str(&json).expect("deserialize platform");
    assert_eq!(back, platform);

    let w = WorkloadCharacteristics::memory_bound();
    let back: WorkloadCharacteristics =
        serde_json::from_str(&serde_json::to_string(&w).expect("ser")).expect("de");
    assert_eq!(back, w);

    let profile = workloads::parsec::bodytrack();
    let back: WorkloadProfile =
        serde_json::from_str(&serde_json::to_string(&profile).expect("ser")).expect("de");
    assert_eq!(back, profile);

    let params = AnnealParams::scaled_for(8, 16);
    let back: AnnealParams =
        serde_json::from_str(&serde_json::to_string(&params).expect("ser")).expect("de");
    // JSON float text rounds the last ULP; compare with tolerance.
    assert_eq!(back.max_iter, params.max_iter);
    assert!((back.dperturb - params.dperturb).abs() < 1e-12);
    assert!((back.daccept - params.daccept).abs() < 1e-12);

    let predictors = smartbalance::PredictorSet::train(&platform, 20, 1);
    let back: smartbalance::PredictorSet =
        serde_json::from_str(&serde_json::to_string(&predictors).expect("ser")).expect("de");
    // Float text rounds ULPs; check structure and behaviour instead.
    assert_eq!(back.num_types(), predictors.num_types());
    assert_eq!(back.is_sparse(), predictors.is_sparse());
    let feats = [1.5, 0.01, 0.05, 0.3, 0.15, 0.05, 1e-3, 5e-3, 1.0, 1.0, 0.05];
    for s in 0..4 {
        for d in 0..4 {
            let a = predictors.predict_ipc(&feats, CoreTypeId(s), CoreTypeId(d));
            let b = back.predict_ipc(&feats, CoreTypeId(s), CoreTypeId(d));
            assert!((a - b).abs() < 1e-9, "{s}->{d}: {a} vs {b}");
        }
    }
}

/// archsim: IPC is positive, bounded by peak, and counters are
/// internally consistent for any workload × core × duration.
#[test]
fn slice_counters_always_consistent() {
    for case in 0..CASES {
        let mut gen = case_gen(1, case);
        let w = gen_characteristics(&mut gen);
        let core = gen_core(&mut gen);
        let dur = 1_000 + gen.below(100_000_000 - 1_000);
        let s = run_slice(&w, &core, dur);
        assert!(
            s.ipc > 0.0 && s.ipc <= core.peak_ipc * 1.001,
            "case {case}: ipc {} vs peak {}",
            s.ipc,
            core.peak_ipc
        );
        assert!((0.0..=1.0).contains(&s.activity), "case {case}");
        let c = &s.counters;
        assert!(c.l1d_misses <= c.l1d_accesses, "case {case}");
        assert!(c.l1i_misses <= c.l1i_accesses, "case {case}");
        assert!(c.branch_mispredicts <= c.branch_instructions, "case {case}");
        assert!(c.itlb_misses <= c.itlb_accesses, "case {case}");
        assert!(c.dtlb_misses <= c.dtlb_accesses, "case {case}");
        assert!(c.mem_instructions <= c.instructions, "case {case}");
        assert!(c.branch_instructions <= c.instructions, "case {case}");
        assert!(c.cy_mem_stall <= c.cy_idle, "case {case}");
    }
}

/// mcpat: power is monotone in activity and bounded by the calibrated
/// peak for every core type.
#[test]
fn power_monotone_and_bounded() {
    for case in 0..CASES {
        let mut gen = case_gen(2, case);
        let core = gen_core(&mut gen);
        let a = gen.range(0.0, 1.0);
        let b = gen.range(0.0, 1.0);
        let model = mcpat::CorePowerModel::calibrated(&core);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            model.active_power_w(lo) <= model.active_power_w(hi) + 1e-12,
            "case {case}"
        );
        assert!(
            model.active_power_w(hi) <= core.peak_power_w * 1.000001,
            "case {case}"
        );
        assert!(
            model.power_w(mcpat::PowerState::Sleeping) < model.active_power_w(0.0),
            "case {case}"
        );
    }
}

/// fixed point: e^-x stays within tolerance of the float result.
#[test]
fn fx_exp_matches_float() {
    for case in 0..CASES {
        let mut gen = case_gen(3, case);
        let x = gen.range(0.0, 11.0);
        let got = fx_exp_neg(Fx::from_f64(x)).to_f64();
        let want = (-x).exp();
        assert!(
            (got - want).abs() < 0.01 * want.max(0.05),
            "case {case}: exp(-{x}) = {want}, fx gave {got}"
        );
    }
}

/// fixed point: randi_range never leaves its interval.
#[test]
fn randi_range_in_bounds() {
    for case in 0..CASES {
        let mut gen = case_gen(4, case);
        let seed = gen.below(1 << 32) as u32;
        let lo = gen.below(200) as i64 - 100;
        let span = 1 + gen.below(999) as i64;
        let mut r = Randi::new(seed);
        for _ in 0..100 {
            let v = r.randi_range(lo, lo + span);
            assert!(
                v >= lo && v < lo + span,
                "case {case}: {v} ∉ [{lo}, {})",
                lo + span
            );
        }
    }
}

/// annealer: for any random matrices and initial allocation, the
/// result is a valid allocation no worse than the initial one.
#[test]
fn anneal_valid_and_never_worse() {
    for case in 0..CASES {
        let mut gen = case_gen(5, case);
        let seed = gen.below(1 << 32) as u32;
        let n = 2 + gen.below(6) as usize;
        let m = 1 + gen.below(11) as usize;
        let mut mat = CharacterizationMatrices::new(
            (0..m).map(TaskId).collect(),
            (0..n).map(CoreTypeId).collect(),
            vec![0.01; n],
        );
        for i in 0..m {
            for j in 0..n {
                mat.set(i, j, gen.range(0.05e9, 4.0e9), gen.range(0.05, 9.0), false);
            }
            mat.set_utilization(i, gen.range(0.05, 1.0));
        }
        let initial: Vec<usize> = (0..m).map(|i| i % n).collect();
        let objective = Objective::new(&mat, Goal::EnergyEfficiency);
        let out = anneal(&objective, &initial, AnnealParams::cooled(150), seed);
        assert_eq!(out.allocation.len(), m, "case {case}");
        for &c in &out.allocation {
            assert!(c < n, "case {case}");
        }
        assert!(
            out.objective >= out.initial_objective - 1e-12,
            "case {case}"
        );
        // And the reported objective matches a fresh evaluation.
        let fresh = objective.evaluate(&out.allocation);
        assert!((fresh - out.objective).abs() < 1e-9, "case {case}");
    }
}

/// kernelsim: total instructions across tasks equal total across
/// cores, for random task sets.
#[test]
fn task_and_core_ledgers_agree() {
    for case in 0..CASES {
        let mut gen = case_gen(6, case);
        let tasks = 1 + gen.below(9) as usize;
        let platform = Platform::quad_heterogeneous();
        let mut sys = System::new(platform, SystemConfig::default());
        for i in 0..tasks {
            let interactive = gen.below(2) == 0;
            sys.spawn(gen.profile(format!("t{i}"), 3, 200_000_000, interactive));
        }
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let task_instr: u64 = report.tasks.iter().map(|t| t.counters.instructions).sum();
        let core_instr: u64 = report.cores.iter().map(|c| c.counters.instructions).sum();
        assert_eq!(task_instr, core_instr, "case {case}");
        let task_energy: f64 = report.tasks.iter().map(|t| t.energy_j).sum();
        let core_energy: f64 = report.cores.iter().map(|c| c.energy_j).sum();
        // Core energy additionally includes sleep energy.
        assert!(core_energy >= task_energy - 1e-12, "case {case}");
    }
}

/// kernelsim: migration preserves tasks (none lost or duplicated) for
/// random allocations.
#[test]
fn migration_preserves_tasks() {
    for case in 0..CASES {
        let mut gen = case_gen(7, case);
        let moves = 1 + gen.below(19) as usize;
        let platform = Platform::quad_heterogeneous();
        let mut sys = System::new(platform, SystemConfig::default());
        let ids: Vec<TaskId> = (0..6)
            .map(|i| {
                sys.spawn(WorkloadProfile::uniform(
                    format!("t{i}"),
                    WorkloadCharacteristics::balanced(),
                    u64::MAX / 8,
                ))
            })
            .collect();
        for _ in 0..moves {
            let mut alloc = kernelsim::Allocation::new();
            for &id in &ids {
                alloc.assign(id, CoreId(gen.below(4) as usize));
            }
            sys.apply_allocation(&alloc);
            sys.run_period();
        }
        // Every task exists exactly once and sits on a valid core.
        assert_eq!(sys.tasks().len(), 6, "case {case}");
        for t in sys.tasks() {
            assert!(t.core().0 < 4, "case {case}");
        }
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        assert_eq!(report.tasks.len(), 6, "case {case}");
    }
}

/// The core a brute-force scan over every task ever spawned picks for
/// a new task: the first online core with the least live weight.
fn brute_force_least_loaded(sys: &System) -> CoreId {
    let cores = sys.platform().num_cores();
    (0..cores)
        .map(CoreId)
        .filter(|&c| sys.core_online(c))
        .min_by_key(|&c| {
            sys.tasks()
                .iter()
                .filter(|t| t.core() == c && !t.is_exited())
                .map(kernelsim::Task::weight)
                .sum::<u64>()
        })
        .expect("an online core")
}

/// kernelsim: the live set behind every per-epoch walk agrees with
/// brute-force scans of the whole task table, under churn (short tasks
/// replaced as they exit, some with non-default nice values) and a
/// core hotplugged off and on.
#[test]
fn live_set_matches_brute_force_scans_under_churn() {
    const POPULATION: usize = 8;
    for case in 0..CASES / 8 {
        let mut gen = case_gen(8, case);
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut nb = NullBalancer;
        let epoch_ns = sys.config().epoch_ns();
        for epoch in 0..60u64 {
            while sys.live_tasks() < POPULATION {
                let id = sys.next_task_id();
                let instructions = 5_000_000 + gen.below(80_000_000);
                let profile = gen.profile(
                    format!("t{}", id.0),
                    4,
                    instructions,
                    id.0.is_multiple_of(3),
                );
                if gen.below(4) == 0 {
                    let nice = gen.below(11) as i32 - 5;
                    let core = brute_force_least_loaded(&sys);
                    sys.spawn_task(kernelsim::Task::new(id, profile, core).with_nice(nice));
                } else {
                    let expected = brute_force_least_loaded(&sys);
                    let spawned = sys.spawn(profile);
                    assert_eq!(
                        sys.task(spawned).core(),
                        expected,
                        "case {case} epoch {epoch}"
                    );
                }
            }
            if epoch % 5 == 4 {
                let online = sys.core_online(CoreId(2));
                sys.set_core_online(CoreId(2), !online);
            }
            let report = sys.run_epoch(&mut nb);
            let ids: Vec<TaskId> = report.tasks.iter().map(|t| t.task).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "case {case} epoch {epoch}: report ids not ascending"
            );
            let alive: Vec<TaskId> = report
                .tasks
                .iter()
                .filter(|t| t.alive)
                .map(|t| t.task)
                .collect();
            let brute_alive: Vec<TaskId> = sys
                .tasks()
                .iter()
                .filter(|t| !t.is_exited())
                .map(|t| t.id())
                .collect();
            assert_eq!(alive, brute_alive, "case {case} epoch {epoch}");
            let exited: Vec<TaskId> = report
                .tasks
                .iter()
                .filter(|t| !t.alive)
                .map(|t| t.task)
                .collect();
            let start = report.now_ns - epoch_ns;
            let brute_exited: Vec<TaskId> = sys
                .tasks()
                .iter()
                .filter(|t| {
                    t.exited_at_ns()
                        .is_some_and(|at| start < at && at <= report.now_ns)
                })
                .map(|t| t.id())
                .collect();
            assert_eq!(exited, brute_exited, "case {case} epoch {epoch}");
            let stats = sys.stats();
            assert_eq!(sys.live_tasks(), brute_alive.len(), "case {case}");
            assert_eq!(stats.live_tasks, brute_alive.len(), "case {case}");
            assert_eq!(
                stats.completed_tasks,
                sys.tasks().iter().filter(|t| t.is_exited()).count(),
                "case {case} epoch {epoch}"
            );
        }
        assert!(
            sys.tasks().len() > 4 * POPULATION,
            "case {case}: premise, the run churned ({} tasks)",
            sys.tasks().len()
        );
    }
}
