//! Per-rule fixture tests: every rule has one deliberately-bad fixture
//! that must produce exactly the expected findings, and one clean
//! fixture that must produce none. The `t1_*` pair checks the call
//! path a sink finding carries.

use smartlint::rules::analyze_source;

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Run a fixture under a virtual workspace path and return `(rule, line)`
/// pairs in source order.
fn findings(name: &str, virtual_path: &str) -> Vec<(String, u32)> {
    analyze_source(virtual_path, &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn d1_bad_flags_every_escape_of_hash_order() {
    let got = findings("d1_bad.rs", "crates/core/src/sense.rs");
    assert_eq!(
        got,
        vec![("D1".to_string(), 9), ("D1".to_string(), 12)],
        "iter() in a for-loop and keys() must both be flagged"
    );
}

#[test]
fn d1_good_is_clean() {
    assert!(findings("d1_good.rs", "crates/core/src/sense.rs").is_empty());
}

#[test]
fn d2_bad_flags_wall_clock_and_env() {
    let got = findings("d2_bad.rs", "crates/kernelsim/src/system.rs");
    let rules: Vec<&str> = got.iter().map(|(r, _)| r.as_str()).collect();
    assert_eq!(rules, vec!["D2", "D2"], "findings: {got:?}");
    assert_eq!(got[0].1, 4, "Instant::now");
    assert_eq!(got[1].1, 5, "env::var");
}

#[test]
fn d2_good_is_clean() {
    assert!(findings("d2_good.rs", "crates/kernelsim/src/system.rs").is_empty());
}

#[test]
fn c1_bad_flags_every_raw_checkpoint_write() {
    let got = findings("c1_bad.rs", "crates/campaign/src/journal.rs");
    assert_eq!(
        got,
        vec![
            ("C1".to_string(), 6),
            ("C1".to_string(), 10),
            ("C1".to_string(), 14),
            ("C1".to_string(), 18),
        ],
        "File::create, OpenOptions, fs::write and write_all must each be flagged"
    );
}

#[test]
fn c1_good_is_clean() {
    assert!(findings("c1_good.rs", "crates/campaign/src/journal.rs").is_empty());
}

#[test]
fn a0_bad_flags_malformed_annotations() {
    let got = findings("a0_bad.rs", "crates/archsim/src/pipeline.rs");
    assert_eq!(
        got,
        vec![("A0".to_string(), 5), ("A0".to_string(), 10)],
        "missing reason and unknown key must each be an A0 finding"
    );
}

#[test]
fn annotations_suppress_only_their_own_line_and_rule() {
    // The annotation sits on line 2 and covers the clock read on line
    // 3; the clock read on line 4 stays flagged, and a retired rule key
    // is itself an A0 finding.
    let src = "pub fn f() -> u64 {\n    // smartlint: allow(nondeterminism, \"metadata only\")\n    let a = std::time::Instant::now();\n    let b = std::time::Instant::now();\n    // smartlint: allow(panic, \"retired key\")\n    0\n}\n";
    let got: Vec<(String, u32)> = analyze_source("crates/kernelsim/src/system.rs", src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    assert_eq!(got, vec![("D2".to_string(), 4), ("A0".to_string(), 5)]);
}

#[test]
fn w1_bad_flags_shared_state_in_worker_closures() {
    let got = findings("w1_bad.rs", "crates/core/src/pool.rs");
    assert_eq!(
        got,
        vec![("W1".to_string(), 10), ("W1".to_string(), 12)],
        "the atomic counter and the lock inside the spawned closure must both be flagged"
    );
}

#[test]
fn w1_good_is_clean() {
    assert!(
        findings("w1_good.rs", "crates/core/src/pool.rs").is_empty(),
        "annotated merge points are the sanctioned surface"
    );
}

#[test]
fn f2_bad_flags_captured_accumulation_in_worker_closures() {
    let got = findings("f2_bad.rs", "crates/core/src/pool.rs");
    assert_eq!(
        got,
        vec![("F2".to_string(), 9), ("F2".to_string(), 19)],
        "compound assignment to a captured f64 and a fold over captured data must both be flagged"
    );
}

#[test]
fn f2_good_is_clean() {
    assert!(
        findings("f2_good.rs", "crates/core/src/pool.rs").is_empty(),
        "closure-local accumulators are fine"
    );
}

#[test]
fn t1_bad_reports_the_root_to_sink_call_path() {
    let all = analyze_source("crates/kernelsim/src/system.rs", &fixture("t1_bad.rs"));
    let got: Vec<(String, u32)> = all.iter().map(|f| (f.rule.clone(), f.line)).collect();
    assert_eq!(
        got,
        vec![("D2".to_string(), 17)],
        "the sink is reported once, under its own rule"
    );
    let trace = &all[0].trace;
    assert_eq!(trace.len(), 3, "run_epoch -> sense -> stamp: {trace:?}");
    assert!(trace[0].contains("System::run_epoch"), "{trace:?}");
    assert!(trace[1].contains("sense"), "{trace:?}");
    assert!(trace[2].contains("stamp"), "{trace:?}");
}

#[test]
fn t1_good_is_clean() {
    assert!(
        findings("t1_good.rs", "crates/kernelsim/src/system.rs").is_empty(),
        "the simulated clock is a pure function of explicit state"
    );
}
