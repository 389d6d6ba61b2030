//! The bench binaries' command lines: a misspelled flag stops a tool
//! before it runs, and `campaign` refuses a report path it could not
//! write before its first cell. Each case runs the built binary in a
//! scratch directory of its own, so a tool that did run would leave
//! its default output files there and not in the checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory for one case.
fn scratch(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tools-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

/// Runs `binary` with `args`, whose first is a misspelled flag, and
/// checks that it fails naming that flag.
fn rejects(binary: &str, args: &[&str]) {
    let case = Path::new(binary).file_stem().expect("a binary name");
    let out = Command::new(binary)
        .args(args)
        .current_dir(scratch(&case.to_string_lossy()))
        .output()
        .unwrap_or_else(|e| panic!("start {binary}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{case:?} {args:?} ran instead of failing; stderr: {stderr}"
    );
    assert!(
        stderr.contains("unexpected arguments") && stderr.contains(&format!("\"{}\"", args[0])),
        "{case:?} {args:?} must name {}; stderr: {stderr}",
        args[0]
    );
}

#[test]
fn every_tool_rejects_a_misspelled_flag() {
    rejects(env!("CARGO_BIN_EXE_run"), &["--polcy", "gts"]);
    rejects(env!("CARGO_BIN_EXE_chaos"), &["--smok"]);
    rejects(env!("CARGO_BIN_EXE_obsreport"), &["--smok"]);
    rejects(
        env!("CARGO_BIN_EXE_campaign"),
        &["--flush-evry", "2", "--smoke"],
    );
    rejects(env!("CARGO_BIN_EXE_fig7"), &["--jsn", "f.json"]);
    rejects(env!("CARGO_BIN_EXE_ablation"), &["--smoke"]);
    rejects(env!("CARGO_BIN_EXE_paper"), &["--set", "imb"]);
}

#[test]
fn campaign_refuses_an_unwritable_report_before_its_first_cell() {
    let dir = scratch("campaign-unwritable");
    let checkpoint = dir.join("journal.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--smoke",
            "--json",
            "/nonexistent/dir/x.json",
            "--checkpoint",
        ])
        .arg(&checkpoint)
        .current_dir(&dir)
        .output()
        .expect("start campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "campaign succeeded; stderr: {stderr}"
    );
    assert!(
        stderr.contains("/nonexistent/dir/x.json"),
        "the failure names the path; stderr: {stderr}"
    );
    let journaled = std::fs::read_to_string(&checkpoint).unwrap_or_default();
    assert_eq!(journaled.lines().count(), 0, "no cell ran: {journaled}");
}
