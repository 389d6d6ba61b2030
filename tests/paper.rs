//! Pins the paper record. `paper --json` must write
//! `results/paper.json` byte for byte, and the committed record must
//! keep three of the paper's shapes, so a re-take cannot silently flip
//! one.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Deserialize;
use workloads::MixId;

/// The command that re-takes the record.
const RETAKE: &str =
    "cargo run --release -p smartbalance-bench --bin paper -- --json results/paper.json";

fn committed_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/paper.json")
}

fn committed() -> String {
    let path = committed_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The parts of the record the shape checks read.
#[derive(Deserialize)]
struct Record {
    fig4: Vec<VanillaRow>,
    fig5: Vec<GtsRow>,
    fig6: Vec<ErrorRow>,
}

#[derive(Deserialize)]
struct VanillaRow {
    label: String,
    threads: usize,
    ratio: f64,
}

#[derive(Deserialize)]
struct GtsRow {
    label: String,
    smart_vs_gts: f64,
}

#[derive(Deserialize)]
struct ErrorRow {
    ipc_error_pct: f64,
    power_error_pct: f64,
}

fn record() -> Record {
    serde_json::from_str(&committed()).expect("results/paper.json parses")
}

#[test]
fn paper_json_matches_the_committed_record() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("paper.json");
    let run = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("--json")
        .arg(&out)
        .output()
        .expect("start paper");
    assert!(
        run.status.success(),
        "paper failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let fresh = std::fs::read_to_string(&out).expect("read the fresh record");
    let pinned = committed();
    if fresh != pinned {
        let line = fresh
            .lines()
            .zip(pinned.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(pinned.lines().count()));
        panic!(
            "paper --json no longer writes results/paper.json; first difference at line {}: \
             {:?} written, {:?} pinned. A change that moves a paper number re-takes the file \
             with `{RETAKE}` and says which number moved and why.",
            line + 1,
            fresh.lines().nth(line),
            pinned.lines().nth(line),
        );
    }
}

#[test]
fn smartbalance_beats_vanilla_on_every_mix_and_canneal() {
    // Fig. 4(b): heterogeneous mixes and memory-bound canneal are where
    // per-thread prediction should pay most.
    let mut labels: Vec<String> = MixId::ALL.iter().map(MixId::name).collect();
    labels.push("canneal".to_owned());
    let rows: Vec<VanillaRow> = record()
        .fig4
        .into_iter()
        .filter(|r| labels.contains(&r.label))
        .collect();
    assert_eq!(rows.len(), 3 * labels.len(), "each at 2, 4 and 8 threads");
    for r in &rows {
        assert!(
            r.ratio > 1.0,
            "{} at {} threads: SmartBalance/vanilla {:.3}",
            r.label,
            r.threads,
            r.ratio
        );
    }
}

#[test]
fn smartbalance_beats_gts_on_canneal_and_freqmine() {
    // Fig. 5: GTS up-migrates on utilization alone, blind to the
    // per-thread IPC of memory-bound work.
    let rows = record().fig5;
    for label in ["canneal", "freqmine"] {
        let row = rows
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("no Fig. 5 row for {label}"));
        assert!(
            row.smart_vs_gts > 1.0,
            "{label}: SmartBalance/GTS {:.3}",
            row.smart_vs_gts
        );
    }
}

#[test]
fn mean_prediction_errors_stay_below_five_percent() {
    // Fig. 6: the paper reports 4.2 % (IPC) and 5 % (power).
    let rows = record().fig6;
    assert!(!rows.is_empty());
    let n = rows.len() as f64;
    let ipc = rows.iter().map(|r| r.ipc_error_pct).sum::<f64>() / n;
    let power = rows.iter().map(|r| r.power_error_pct).sum::<f64>() / n;
    assert!(ipc < 5.0, "mean IPC prediction error {ipc:.2} %");
    assert!(power < 5.0, "mean power prediction error {power:.2} %");
}
