//! Scope-derivation soundness, cross-crate call paths and analyzer
//! determinism.
//!
//! The headline regression here: before the call graph existed, rule
//! scope for D1/D2/C1 was pinned by hand-maintained path lists (and
//! PR 7/PR 8 each had to grow them by hand). Those lists are deleted;
//! this test re-states them as a historical record and asserts the
//! *derived* scope is a superset, so the migration cannot have shrunk
//! coverage.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use smartlint::output::{render_json, render_sarif, Report, REPORT_VERSION};
use smartlint::{analyze_file_set, analyze_workspace, Analysis, SourceFile};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn analyze() -> Analysis {
    analyze_workspace(&workspace_root()).expect("workspace analyzes")
}

/// The D1/D2 path lists smartlint enforced before scope was derived
/// from the call graph, kept verbatim as the coverage floor.
const RETIRED_D_SCOPE: &[&str] = &[
    "crates/archsim/src/",
    "crates/kernelsim/src/",
    "crates/mcpat/src/",
    "crates/workloads/src/",
    "crates/core/src/",
    "crates/smartlint/src/",
    "crates/telemetry/src/",
    "crates/campaign/src/",
];

/// The retired C1 scope: campaign checkpoint code.
const RETIRED_C_SCOPE: &[&str] = &["crates/campaign/src/"];

#[test]
fn derived_scope_is_a_superset_of_the_retired_hand_pinned_lists() {
    let analysis = analyze();
    let scope = &analysis.scope;
    assert!(
        !scope.assume_all,
        "the real workspace must derive scope from its roots, not assume-all"
    );
    for unit in RETIRED_D_SCOPE {
        let probe = format!("{unit}probe.rs");
        assert!(
            scope.d1_applies(&probe),
            "derived D1 scope lost {unit} (was hand-pinned); d_units = {:?}",
            scope.d_units
        );
        assert!(
            scope.d2_applies(&probe),
            "derived D2 scope lost {unit} (was hand-pinned); d_units = {:?}",
            scope.d_units
        );
    }
    for unit in RETIRED_C_SCOPE {
        let probe = format!("{unit}probe.rs");
        assert!(
            scope.c1_applies(&probe),
            "derived C1 scope lost {unit} (was hand-pinned); c_units = {:?}",
            scope.c_units
        );
    }
}

#[test]
fn live_observability_plane_stays_outside_sim_scope() {
    // The obsd HTTP server and its wall-clock uptime timer live on a
    // scrape-serving thread that no simulation root ever calls into.
    // The derived scope must prove that: if obsd ever leaked into the
    // D1/D2 units, the endpoint's `Instant::now()` would (correctly)
    // start failing the determinism rules.
    let analysis = analyze();
    let scope = &analysis.scope;
    assert!(
        !scope.d_units.contains("crates/obsd/src/"),
        "obsd must not be reachable from any simulation root; d_units = {:?}",
        scope.d_units
    );
    assert!(
        !scope.d1_applies("crates/obsd/src/lib.rs"),
        "D1 must not apply to the scrape server"
    );
    assert!(
        !scope.d2_applies("crates/obsd/src/lib.rs"),
        "D2 must not apply to the scrape server (it owns the uptime clock)"
    );
    let obsd_findings: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| f.file.starts_with("crates/obsd/"))
        .collect();
    assert!(
        obsd_findings.is_empty(),
        "the live plane must lint clean: {obsd_findings:?}"
    );
}

#[test]
fn every_named_simulation_root_is_discovered() {
    let analysis = analyze();
    let roots = &analysis.scope.roots;
    for needle in [
        "System::run_epoch",
        "::rebalance",
        "SuiteJob::execute",
        "Campaign::run",
        "analyze_workspace",
    ] {
        assert!(
            roots.iter().any(|r| r.contains(needle)),
            "root {needle} missing from {roots:?}"
        );
    }
    assert!(
        roots.iter().filter(|r| r.contains("::rebalance")).count() >= 5,
        "every LoadBalancer impl (gts, iks, sharded, smart, vanilla, null) roots the graph: {roots:?}"
    );
}

#[test]
fn taint_crosses_crate_boundaries_through_lib_name_imports() {
    let files = vec![
        SourceFile {
            path: "crates/kernelsim/src/system.rs".to_string(),
            source: "impl System {\n    pub fn run_epoch(&mut self) { crate::stats::tick(); }\n}\n"
                .to_string(),
        },
        SourceFile {
            path: "crates/kernelsim/src/stats.rs".to_string(),
            source: "pub fn tick() { smartbalance::sense::observe(); }\n".to_string(),
        },
        SourceFile {
            path: "crates/core/src/sense.rs".to_string(),
            source: "pub fn observe() { let _ = std::time::Instant::now(); }\n".to_string(),
        },
    ];
    let mut names = BTreeMap::new();
    names.insert("crates/core/src/".to_string(), "smartbalance".to_string());
    let analysis = analyze_file_set(&files, &names);
    let sinks = &analysis.findings;
    assert_eq!(sinks.len(), 1, "one finding per sink: {sinks:?}");
    assert_eq!(sinks[0].rule, "D2");
    assert_eq!(sinks[0].file, "crates/core/src/sense.rs");
    assert_eq!(
        sinks[0].trace.len(),
        3,
        "run_epoch -> tick -> observe, crossing the kernelsim/core boundary: {:?}",
        sinks[0].trace
    );
    assert!(sinks[0].trace[0].contains("System::run_epoch"));
    assert!(
        analysis.scope.d2_applies("crates/core/src/whatever.rs"),
        "reachability pulls the core crate into D2 scope"
    );
}

#[test]
fn worker_pool_rules_follow_spawns_across_files() {
    let files = vec![
        SourceFile {
            path: "crates/core/src/pool.rs".to_string(),
            source: "pub fn parallel(count: usize, f: impl Fn(usize)) {\n    std::thread::scope(|s| { s.spawn(|| f(0)); });\n    let _ = count;\n}\n"
                .to_string(),
        },
        SourceFile {
            path: "crates/core/src/user.rs".to_string(),
            source: "use crate::pool::parallel;\npub fn run(shared: &std::sync::Mutex<Vec<u64>>) {\n    parallel(4, |k| {\n        shared.lock().ok();\n        let _ = k;\n    });\n}\n"
                .to_string(),
        },
    ];
    let analysis = analyze_file_set(&files, &BTreeMap::new());
    assert!(
        analysis
            .findings
            .iter()
            .any(|f| f.rule == "W1" && f.file == "crates/core/src/user.rs" && f.line == 4),
        "the closure handed to a spawn-reaching fn in another file is a worker region: {:?}",
        analysis.findings
    );
}

#[test]
fn closures_handed_to_the_kernelsim_pool_are_worker_closures() {
    // The pool lives in kernelsim and smartbalance re-exports it; a
    // closure handed to it from `crates/core` through either path is
    // a worker closure, and the pool's own source lints clean.
    let read = |rel: &str| {
        let path = workspace_root().join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let user = "crates/core/src/balance/sharded.rs";
    let files = vec![
        SourceFile {
            path: "crates/kernelsim/src/pool.rs".to_string(),
            source: read("crates/kernelsim/src/pool.rs"),
        },
        SourceFile {
            path: "crates/core/src/lib.rs".to_string(),
            source: "pub use kernelsim::{parallel_indexed, parallel_map};\n".to_string(),
        },
        SourceFile {
            path: user.to_string(),
            source: read("crates/smartlint/fixtures/pool_user.rs"),
        },
    ];
    let mut names = BTreeMap::new();
    names.insert("crates/core/src/".to_string(), "smartbalance".to_string());
    names.insert("crates/kernelsim/src/".to_string(), "kernelsim".to_string());
    let got: Vec<(String, String, u32)> = analyze_file_set(&files, &names)
        .findings
        .into_iter()
        .map(|f| (f.rule, f.file, f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("W1".to_string(), user.to_string(), 11),
            ("F2".to_string(), user.to_string(), 19),
        ],
        "the unannotated atomic and the captured f64 fold must both fire"
    );
}

#[test]
fn analyzer_output_is_byte_identical_across_runs() {
    let report = |a: &Analysis| Report {
        version: REPORT_VERSION,
        files_scanned: a.files_scanned,
        roots: a.scope.roots.clone(),
        findings: a.findings.clone(),
    };
    let first = analyze();
    let second = analyze();
    assert_eq!(
        render_json(&report(&first)),
        render_json(&report(&second)),
        "JSON report must be byte-identical across runs"
    );
    assert_eq!(
        render_sarif(&report(&first)),
        render_sarif(&report(&second)),
        "SARIF report must be byte-identical across runs"
    );
}
