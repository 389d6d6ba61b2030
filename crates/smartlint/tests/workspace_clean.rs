//! The self-clean gate: running smartlint over the live workspace must
//! produce zero findings. This is the same check CI runs via
//! `cargo run -p smartlint -- --deny`. A second test pins the lexical
//! policy smartlint does not enforce itself — casts, panics, `f32` and
//! crate headers — to its rustc and clippy configuration.

use smartlint::analyze_workspace;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The lint names the file's `cfg_attr(not(test), warn(...))`
/// attributes switch on.
fn warned_outside_tests(source: &str) -> Vec<String> {
    let flat: String = source.split_whitespace().collect();
    flat.split("cfg_attr(not(test),warn(")
        .skip(1)
        .flat_map(|attr| attr[..attr.find(')').unwrap_or(0)].split(','))
        .map(str::to_string)
        .collect()
}

#[test]
fn workspace_has_no_unbaselined_findings() {
    let analysis = analyze_workspace(&workspace_root()).expect("workspace walk succeeds");

    assert!(
        analysis.files_scanned > 20,
        "walker found only {} files — scope bug?",
        analysis.files_scanned
    );
    let findings: Vec<String> = analysis
        .findings
        .iter()
        .map(|f| format!("{} {}:{} {}", f.rule, f.file, f.line, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "workspace is not smartlint-clean:\n{}",
        findings.join("\n")
    );
}

#[test]
fn lexical_policy_is_configured_in_rustc_and_clippy() {
    // Crate headers: forbidden `unsafe`, documented public items.
    let root = read("Cargo.toml");
    let rust_lints = root
        .split("[workspace.lints.rust]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next())
        .unwrap_or("");
    for entry in ["unsafe_code = \"forbid\"", "missing_docs = \"deny\""] {
        assert!(
            rust_lints.contains(entry),
            "[workspace.lints.rust] lacks {entry}"
        );
    }
    // Every member inherits them; every library crate except the bench
    // harness warns on panics outside tests.
    let mut libraries = 0;
    for entry in fs::read_dir(workspace_root().join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        assert!(
            manifest.contains("[lints]\nworkspace = true"),
            "{} does not inherit the workspace lints",
            dir.display()
        );
        if dir.ends_with("bench") {
            continue;
        }
        let root = fs::read_to_string(dir.join("src/lib.rs")).expect("library root");
        let warned = warned_outside_tests(&root);
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
        ] {
            assert!(
                warned.iter().any(|w| w == lint),
                "{}/src/lib.rs does not warn on {lint}: {warned:?}",
                dir.display()
            );
        }
        libraries += 1;
    }
    assert!(libraries >= 9, "found only {libraries} library crates");

    // Bare `as` casts in the counter/energy accounting modules.
    for module in [
        "crates/archsim/src/counters.rs",
        "crates/archsim/src/execution.rs",
        "crates/core/src/estimate.rs",
        "crates/mcpat/src/lib.rs",
    ] {
        assert!(
            warned_outside_tests(&read(module)).contains(&"clippy::as_conversions".to_string()),
            "{module} does not warn on clippy::as_conversions"
        );
    }

    // No `f32` anywhere in the crates.
    let clippy: String = read("crates/clippy.toml").split_whitespace().collect();
    assert!(
        clippy.contains("disallowed-types=[{path=\"f32\""),
        "crates/clippy.toml does not ban f32"
    );
}
