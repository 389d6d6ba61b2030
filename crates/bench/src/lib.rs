//! # smartbalance-bench — evaluation harness
//!
//! Shared infrastructure for the binaries that regenerate every table
//! and figure of the paper's evaluation (Section 6). Each binary
//! prints paper-style tables to stdout. `paper --json <path>` also
//! writes the raw rows of its figures as one JSON record, committed as
//! `results/paper.json` and pinned byte for byte by `tests/paper.rs`.
//!
//! | Target | Reproduces |
//! |--------|------------|
//! | `paper` | Table 2, Fig. 4 (a, b), Fig. 5, Fig. 6, Table 4, Fig. 8 and the sensing-robustness study, in that order |
//! | `timings` | Fig. 7 (a) stage times of the real `SmartBalance`, Fig. 7 (b) optimizer scalability and the Section 4.3 design-choice ablations 1–5, in that order (wall-clock, serial) |
//!
//! `run`, `chaos`, `obsreport` and `campaign` are tools with reports
//! of their own: one experiment, the fault sweep, the observability
//! bundle and the resumable sweep. Every binary checks its arguments
//! with [`reject_unknown_args`], reads its options through
//! [`flag_value`] and [`parse_flag`] and writes files through
//! [`write_report`], so a misspelled or malformed flag or an
//! unwritable path panics naming the argument, the value or the path.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::TaskId;
use serde::Serialize;
use smartbalance::{
    anneal, AnnealOutcome, AnnealParams, CharacterizationMatrices, ExperimentSpec, ExperimentSuite,
    Goal, Objective, Policy, PredictorSet, SuiteProgress, SuiteReport,
};
use workloads::{ImbConfig, MixId, SyntheticGenerator, WorkloadProfile};

/// Scale factor applied to benchmark profiles so a full evaluation run
/// stays in the tens of simulated seconds.
pub const RUN_SCALE: f64 = 0.6;

/// Thread counts evaluated in Fig. 4 ("2, 4, and 8 threads of each
/// benchmark").
pub const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Builds the Fig. 4(a) workload list: the nine interactive
/// micro-benchmark configurations.
pub fn imb_workloads() -> Vec<(String, WorkloadProfile)> {
    ImbConfig::all_nine()
        .into_iter()
        .map(|c| (c.name(), c.profile()))
        .collect()
}

/// Builds the Fig. 4(b) workload list: PARSEC benchmarks plus the
/// Table 3 mixes. A mix entry bundles all member profiles.
pub fn parsec_workloads() -> Vec<(String, Vec<WorkloadProfile>)> {
    let mut out: Vec<(String, Vec<WorkloadProfile>)> = workloads::parsec::all()
        .into_iter()
        .map(|p| (p.name().to_owned(), vec![p]))
        .collect();
    for mix in MixId::ALL {
        out.push((mix.name(), mix.members()));
    }
    out
}

/// Builds an experiment spec for one named workload bundle at a given
/// parallelization level.
pub fn spec_for(
    label: &str,
    platform: &Platform,
    bundle: &[WorkloadProfile],
    threads: usize,
) -> ExperimentSpec {
    let mut profiles = Vec::new();
    for p in bundle {
        profiles.extend(ExperimentSpec::parallelize(&p.scaled(RUN_SCALE), threads));
    }
    ExperimentSpec::new(format!("{label}/{threads}t"), platform.clone(), profiles)
}

/// Progress hook for interactive binaries: one line per finished job
/// on stderr, keeping stdout clean for the tables.
pub fn stderr_progress(p: &SuiteProgress) {
    eprintln!(
        "  [{}/{}] {} {:?} ({:.2} s)",
        p.completed, p.total, p.experiment, p.policy, p.wall_s
    );
}

/// Queues the full workload × threads × policies grid onto a fresh
/// [`ExperimentSuite`] and runs it. Jobs are pushed grouped by
/// `(label, threads)` key — one chunk of `policies.len()` jobs per key,
/// policies in the given order — and the keys are returned alongside
/// the report so callers can zip `report.jobs.chunks(policies.len())`
/// back to their workloads.
pub fn run_policy_grid(
    platform: &Platform,
    bundles: &[(String, Vec<WorkloadProfile>)],
    threads: &[usize],
    policies: &[Policy],
) -> (SuiteReport, Vec<(String, usize)>) {
    let mut suite = ExperimentSuite::new().on_progress(stderr_progress);
    let mut keys = Vec::new();
    for (label, bundle) in bundles {
        for &t in threads {
            keys.push((label.clone(), t));
            let spec = spec_for(label, platform, bundle, t);
            for &p in policies {
                suite.push(spec.clone(), p);
            }
        }
    }
    (suite.run(), keys)
}

/// Prints the suite's wall-clock and throughput footer.
pub fn print_suite_summary(report: &SuiteReport) {
    println!(
        "suite: {} jobs on {} workers in {:.2} s ({:.2} jobs/s, {:.1}x vs serial)",
        report.jobs.len(),
        report.workers,
        report.wall_s,
        report.throughput_jobs_per_s(),
        report.speedup()
    );
}

/// One row of a comparison table.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Workload label.
    pub label: String,
    /// Parallelization level.
    pub threads: usize,
    /// Baseline policy name.
    pub baseline: String,
    /// Baseline energy efficiency, instructions/joule.
    pub baseline_eff: f64,
    /// SmartBalance energy efficiency, instructions/joule.
    pub smart_eff: f64,
    /// `smart_eff / baseline_eff` (Fig. 4/5's y-axis).
    pub ratio: f64,
}

/// Pretty-prints comparison rows followed by the average gain.
pub fn print_rows(title: &str, rows: &[ComparisonRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<16} {:>3}  {:>14} {:>14} {:>8}",
        "workload", "thr", "baseline", "smartbalance", "ratio"
    );
    for r in rows {
        println!(
            "{:<16} {:>3}  {:>12.4e} {:>12.4e} {:>8.3}",
            r.label, r.threads, r.baseline_eff, r.smart_eff, r.ratio
        );
    }
    let avg: f64 = rows.iter().map(|r| r.ratio).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "average gain: {:+.1} % (paper reports the corresponding figure's headline here)",
        (avg - 1.0) * 100.0
    );
}

/// Checks `args` (without `argv[0]`) against the flags a tool reads:
/// `valued` and `switches` list them, separated by spaces, and each
/// valued flag takes the argument after it.
///
/// # Panics
///
/// With `<flag> needs a value`, as [`flag_value`], when a valued flag
/// is last or followed by another `--` argument, and with `<tool>:
/// unexpected arguments [...]` naming every argument that is neither a
/// flag nor a value, so a misspelled flag fails before the tool runs
/// instead of leaving an option at its default.
pub fn reject_unknown_args(tool: &str, args: &[String], valued: &str, switches: &str) {
    let mut unexpected = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if valued.split_whitespace().any(|flag| flag == arg) {
            if rest.next().is_none_or(|value| value.starts_with("--")) {
                panic!("{arg} needs a value");
            }
        } else if !switches.split_whitespace().any(|switch| switch == arg) {
            unexpected.push(arg);
        }
    }
    assert!(
        unexpected.is_empty(),
        "{tool}: unexpected arguments {unexpected:?}; it reads [{valued}] with a value, [{switches}] alone"
    );
}

/// The value that follows `flag` in `args`, or `None` when `flag` is
/// absent.
///
/// # Panics
///
/// With `<flag> needs a value` when `flag` is the last argument or is
/// followed by another `--` argument.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let pos = args.iter().position(|a| a == flag)?;
    match args.get(pos + 1) {
        Some(value) if !value.starts_with("--") => Some(value),
        _ => panic!("{flag} needs a value"),
    }
}

/// The value that follows `flag` in `args`, parsed as a `T`; `None`
/// when `flag` is absent.
///
/// # Panics
///
/// As [`flag_value`], and with `<flag>: cannot parse "<value>"` when
/// the value does not parse as a `T`.
pub fn parse_flag<T>(args: &[String], flag: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(args, flag).map(|value| {
        value
            .parse()
            .unwrap_or_else(|e| panic!("{flag}: cannot parse {value:?}: {e}"))
    })
}

/// Writes `contents` to `path`.
///
/// # Panics
///
/// With `write <path>: <error>` when the file cannot be written.
pub fn write_report(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Fails now, as [`write_report`] would at the end of a run, when
/// `path` cannot be written. An existing file is opened for appending
/// and left as it is; a missing one is created and removed again.
///
/// # Panics
///
/// With `write <path>: <error>`.
pub fn ensure_writable(path: impl AsRef<Path>) {
    let path = path.as_ref();
    let existed = path.exists();
    let probe = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path);
    probe.unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    if !existed {
        let _ = std::fs::remove_file(path);
    }
}

/// Writes any serializable value to `path` as pretty JSON when the
/// `--json <path>` flag is present in `args`.
///
/// # Panics
///
/// As [`flag_value`] and [`write_report`].
pub fn maybe_dump_json<T: Serialize>(args: &[String], value: &T) {
    let Some(path) = flag_value(args, "--json") else {
        return;
    };
    let json = serde_json::to_string_pretty(value).expect("serialize rows");
    write_report(path, json);
    println!("(rows written to {path})");
}

/// Ground-truth and Θ-predicted characterization matrices of one
/// scenario, the input of the prediction-vs-oracle ablation: eight
/// synthetic threads on the quad heterogeneous platform, each
/// signature sampled on the Big core.
pub struct AblationMatrices {
    /// Exact model evaluation of every (thread, core) pair.
    pub oracle: CharacterizationMatrices,
    /// What the trained predictors infer from each Big-core signature.
    pub predicted: CharacterizationMatrices,
}

/// Builds [`AblationMatrices`] from fixed seeds.
pub fn ablation_matrices() -> AblationMatrices {
    let platform = Platform::quad_heterogeneous();
    let predictors = PredictorSet::train(&platform, 400, 11);
    let mut gen = SyntheticGenerator::new(13);
    let workloads: Vec<_> = (0..8).map(|_| gen.characteristics()).collect();

    let mut oracle = CharacterizationMatrices::new(
        (0..8).map(TaskId).collect(),
        platform.cores().map(|c| platform.core_type(c)).collect(),
        platform
            .cores()
            .map(|c| mcpat::CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect(),
    );
    let mut predicted = oracle.clone();
    let src_ty = CoreTypeId(1);
    let src_cfg = platform.type_config(src_ty);
    for (i, w) in workloads.iter().enumerate() {
        let slice = archsim::run_slice(w, src_cfg, 10_000_000);
        let feats = smartbalance::sense::features_from_counters(&slice.counters, src_cfg.freq_hz);
        for j in 0..platform.num_cores() {
            let cfg = platform.core_config(CoreId(j));
            let est = archsim::estimate(w, cfg);
            let power = mcpat::CorePowerModel::calibrated(cfg).active_power_w(est.activity);
            oracle.set(i, j, est.ipc * cfg.freq_hz, power, true);
            let dst_ty = platform.core_type(CoreId(j));
            let ipc = predictors.predict_ipc(&feats, src_ty, dst_ty);
            let power = predictors.predict_power_w(ipc, dst_ty);
            predicted.set(i, j, ipc * cfg.freq_hz, power, false);
        }
    }
    AblationMatrices { oracle, predicted }
}

/// Algorithm 1 as the prediction-vs-oracle ablation runs it: every
/// thread starts on core 0, with the budget for 4 cores × 8 threads
/// and a fixed seed.
pub fn ablation_anneal(objective: &Objective<'_>) -> AnnealOutcome {
    anneal(objective, &[0; 8], AnnealParams::scaled_for(4, 8), 21)
}

/// The share of the oracle allocation's objective lost by annealing on
/// predicted matrices instead: `1 − J(predicted) / J(oracle)`, both
/// allocations scored under the oracle matrices.
pub fn prediction_gap(m: &AblationMatrices) -> f64 {
    let oracle = Objective::new(&m.oracle, Goal::EnergyEfficiency);
    let predicted = Objective::new(&m.predicted, Goal::EnergyEfficiency);
    let best = ablation_anneal(&oracle).objective;
    1.0 - oracle.evaluate(&ablation_anneal(&predicted).allocation) / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_lists_complete() {
        assert_eq!(imb_workloads().len(), 9);
        let parsec = parsec_workloads();
        assert_eq!(parsec.len(), 16, "10 benchmarks + 6 mixes");
        assert!(parsec.iter().any(|(n, _)| n == "Mix6"));
    }

    #[test]
    fn spec_builder_parallelizes() {
        let platform = Platform::quad_heterogeneous();
        let bundle = vec![workloads::parsec::blackscholes()];
        let spec = spec_for("bs", &platform, &bundle, 4);
        assert_eq!(spec.profiles.len(), 4);
        assert_eq!(spec.name, "bs/4t");
    }

    #[test]
    fn policy_grid_chunks_align_with_keys() {
        let platform = Platform::quad_heterogeneous();
        let tiny = WorkloadProfile::uniform(
            "tiny",
            archsim::WorkloadCharacteristics::balanced(),
            2_000_000,
        );
        let bundles = vec![
            ("a".to_owned(), vec![tiny.clone()]),
            ("b".to_owned(), vec![tiny]),
        ];
        let policies = [Policy::None, Policy::Vanilla];
        let (report, keys) = run_policy_grid(&platform, &bundles, &[2], &policies);
        assert_eq!(keys.len(), 2);
        assert_eq!(report.jobs.len(), keys.len() * policies.len());
        for ((label, threads), chunk) in keys.iter().zip(report.jobs.chunks(policies.len())) {
            for (job, policy) in chunk.iter().zip(policies) {
                assert_eq!(job.policy, policy);
                assert_eq!(job.result.experiment, format!("{label}/{threads}t"));
            }
        }
    }

    #[test]
    fn predicted_matrices_anneal_within_two_percent_of_the_oracle() {
        let gap = prediction_gap(&ablation_matrices());
        assert!((0.0..0.02).contains(&gap), "prediction gap {gap:.4}");
    }

    #[test]
    #[should_panic(expected = "/nonexistent/dir/x.json")]
    fn json_dump_to_an_unwritable_path_panics() {
        let args = ["--json".to_owned(), "/nonexistent/dir/x.json".to_owned()];
        maybe_dump_json(&args, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn json_flag_without_a_path_panics() {
        maybe_dump_json(&["--json".to_owned()], &[1, 2, 3]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn flags_read_their_values() {
        let a = args(&["--smoke", "--threads", "4", "--scale", "0.5"]);
        assert_eq!(flag_value(&a, "--threads"), Some("4"));
        assert_eq!(flag_value(&a, "--policy"), None);
        assert_eq!(parse_flag::<usize>(&a, "--threads"), Some(4));
        assert_eq!(parse_flag::<f64>(&a, "--scale"), Some(0.5));
        assert_eq!(parse_flag::<u64>(&a, "--max-epochs"), None);
    }

    #[test]
    #[should_panic(expected = "--prom needs a value")]
    fn flag_as_the_last_argument_panics() {
        flag_value(&args(&["--json", "a.json", "--prom"]), "--prom");
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn flag_followed_by_another_flag_panics() {
        flag_value(&args(&["--smoke", "--json", "--prom", "p.prom"]), "--json");
    }

    #[test]
    #[should_panic(expected = "--flush-every: cannot parse \"abc\"")]
    fn flag_value_that_does_not_parse_panics() {
        parse_flag::<usize>(&args(&["--flush-every", "abc"]), "--flush-every");
    }

    #[test]
    #[should_panic(expected = "write /nonexistent/dir/r.json: ")]
    fn report_write_failure_names_the_path() {
        write_report("/nonexistent/dir/r.json", "{}");
    }

    #[test]
    #[should_panic(expected = "run: unexpected arguments [\"--polcy\", \"gts\"]")]
    fn a_misspelled_flag_is_rejected() {
        let a = args(&["--scale", "0.02", "--polcy", "gts"]);
        reject_unknown_args("run", &a, "--policy --scale", "");
    }

    #[test]
    fn flag_values_and_switches_are_accepted() {
        // `0.5` and `gts` follow valued flags, so they are values, not
        // unknown arguments; `--smoke` is a switch.
        let a = args(&["--scale", "0.5", "--smoke", "--policy", "gts"]);
        reject_unknown_args("run", &a, "--policy --scale", "--smoke");
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn a_valued_flag_without_its_value_is_rejected() {
        reject_unknown_args("paper", &args(&["--json"]), "--json", "");
    }

    #[test]
    fn a_writability_check_changes_no_file() {
        let dir = std::env::temp_dir().join(format!("sb-writable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (missing, existing) = (dir.join("missing"), dir.join("existing"));
        std::fs::write(&existing, "{}").expect("write");
        ensure_writable(&missing);
        ensure_writable(&existing);
        assert!(!missing.exists(), "the probe leaves no file behind");
        assert_eq!(std::fs::read_to_string(&existing).expect("read"), "{}");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
