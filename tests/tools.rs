//! The bench binaries' command lines: a misspelled flag stops a tool
//! before it runs, and `campaign` refuses a report path it could not
//! write, or an address file without an endpoint, before its first
//! cell. Each case runs the built binary in a scratch directory of its
//! own, so a tool that did run would leave its default output files
//! there and not in the checkout.

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
    rejects(env!("CARGO_BIN_EXE_timings"), &["--jsn", "f.json"]);
    rejects(env!("CARGO_BIN_EXE_paper"), &["--set", "imb"]);
}

/// Runs `campaign --smoke --checkpoint journal.jsonl` plus `args` in a
/// scratch directory and checks that it fails before journaling a
/// cell, with a message that contains `named`.
fn campaign_refuses(case: &str, args: &[&str], named: &str) {
    let dir = scratch(case);
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--smoke", "--checkpoint", "journal.jsonl"])
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("start campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "campaign succeeded; stderr: {stderr}"
    );
    assert!(stderr.contains(named), "no {named:?}; stderr: {stderr}");
    let journaled = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap_or_default();
    assert_eq!(journaled.lines().count(), 0, "no cell ran: {journaled}");
}

#[test]
fn campaign_refuses_an_unwritable_report_before_its_first_cell() {
    campaign_refuses(
        "campaign-unwritable",
        &["--json", "/nonexistent/dir/x.json"],
        "/nonexistent/dir/x.json",
    );
}

#[test]
fn campaign_refuses_an_address_file_without_an_endpoint() {
    campaign_refuses(
        "campaign-addr-file",
        &["--json", "c.json", "--metrics-addr-file", "addr.txt"],
        "--metrics-addr-file needs --metrics-addr",
    );
}
