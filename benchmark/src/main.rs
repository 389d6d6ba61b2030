//! `sb-benchmark`: the standing benchmark of the SmartBalance
//! reproduction.
//!
//! One process runs one workload: a warm-up round, then identical
//! rounds until `--seconds` of timed work, each timed phase reported
//! as the median over rounds. It prints one `name value unit` line per
//! metric and the run's `fingerprint`, writes the same data as JSON
//! under `benchmark/out/`, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` lists.
//! `--trace 1` runs the traced variant instead: per-layer metrics plus
//! a Chrome trace of spans.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! See `benchmark/README.md` for the workloads, metrics and rules.

mod churn;
mod fig4;
mod host;
mod hotloop;
mod probe;
mod run;
mod scale;
mod stats;

use std::path::{Path, PathBuf};
use std::process::exit;

use serde_json::Value;

use crate::probe::Spans;
use crate::run::{measure, measure_traced, Metric, Report, Workload};

const USAGE: &str = "usage: sb-benchmark --workload <hotloop|fig4-campaign|scale-1024|task-churn> \
                     [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke]";

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 4] = ["hotloop", "fig4-campaign", "scale-1024", "task-churn"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value")).cloned();
        match arg.as_str() {
            "--workload" => out.workload = value("--workload")?,
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

fn workload(args: &Args, out_dir: &Path) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "hotloop" => Box::new(hotloop::Hotloop::new(args.seed, args.smoke)),
        "fig4-campaign" => Box::new(fig4::Fig4::new(args.seed, out_dir.to_path_buf())),
        "scale-1024" => Box::new(scale::Scale::new(args.seed, args.smoke)),
        "task-churn" => Box::new(churn::Churn::new(args.seed, args.smoke)),
        other => unreachable!("parse() accepted workload {other:?}"),
    }
}

/// The fingerprint committed for this workload and seed in
/// `results/baseline.json`, if any.
fn baseline_fingerprint(args: &Args) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/baseline.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
    let Value::Array(runs) = doc.map_get("runs") else {
        return None;
    };
    runs.iter().find_map(|run| {
        let workload = matches!(run.map_get("workload"), Value::Str(w) if *w == args.workload);
        let seed = matches!(run.map_get("seed"), Value::Int(s) if *s as u64 == args.seed)
            || matches!(run.map_get("seed"), Value::UInt(s) if *s == args.seed);
        match run.map_get("fingerprint") {
            Value::Str(fp) if workload && seed => Some(fp.clone()),
            _ => None,
        }
    })
}

/// What a run takes from `BENCHMARK.json`, the one place both are
/// kept: the run length in seconds, and the metrics the last output
/// line carries (`end_to_end`, or `per_layer` when `trace`) as name and
/// unit.
fn benchmark_spec(trace: bool) -> Result<(f64, Vec<(String, String)>), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let seconds = match doc.map_get("run_seconds") {
        Value::UInt(s) => *s as f64,
        Value::Int(s) => *s as f64,
        _ => return Err(format!("{}: no whole run_seconds", path.display())),
    };
    let section = if trace { "per_layer" } else { "end_to_end" };
    let Value::Array(entries) = doc.map_get(section) else {
        return Err(format!("{}: no {section} list", path.display()));
    };
    let listed = entries
        .iter()
        .map(|m| match (m.map_get("name"), m.map_get("unit")) {
            (Value::Str(name), Value::Str(unit)) => Ok((name.clone(), unit.clone())),
            _ => Err(format!(
                "{}: a {section} entry lacks a name or unit",
                path.display()
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok((seconds, listed))
}

/// The `listed` metrics of `report` as a JSON map; a listed metric the
/// run did not measure, or measured in another unit, is a problem.
fn listed_value(report: &Report, listed: &[(String, String)], problems: &mut Vec<String>) -> Value {
    let mut out = Vec::new();
    for (name, unit) in listed {
        match report.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit => out.push((name.clone(), metric_value(m))),
            Some(m) => problems.push(format!("{name} measured in {}, listed in {unit}", m.unit)),
            None => problems.push(format!("{name} is listed but not measured")),
        }
    }
    Value::Map(out)
}

fn metric_value(m: &Metric) -> Value {
    Value::Map(vec![
        ("value".into(), Value::Float(m.value)),
        ("unit".into(), Value::Str(m.unit.into())),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("sb-benchmark: {e}\n{USAGE}");
        exit(2)
    });
    let (run_seconds, listed) = benchmark_spec(args.trace).unwrap_or_else(|e| {
        eprintln!("sb-benchmark: {e}");
        exit(1)
    });
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("sb-benchmark: cannot create {}: {e}", out_dir.display());
        exit(1);
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { run_seconds });
    let mut w = workload(&args, &out_dir);
    let mut spans = Spans::new();
    let mut report = if args.trace {
        measure_traced(w.as_mut(), seconds, &mut spans)
    } else {
        measure(w.as_mut(), seconds)
    };
    let fingerprint = format!("{:016x}", report.fingerprint);
    if !args.smoke {
        if let Some(want) = baseline_fingerprint(&args) {
            if want != fingerprint {
                report.problems.push(format!(
                    "fingerprint {fingerprint} differs from the committed baseline {want}"
                ));
            }
        }
    }
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    let mut missing = Vec::new();
    let last_metrics = listed_value(&report, &listed, &mut missing);
    report.problems.extend(missing);

    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("fingerprint {fingerprint} hash");
    for p in &report.problems {
        eprintln!("sb-benchmark: {p}");
    }
    let correct = report.problems.is_empty();
    let stem = format!(
        "{}-seed{}{}{}",
        args.workload,
        args.seed,
        if args.smoke { "-smoke" } else { "" },
        if args.trace { "-trace" } else { "" }
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::UInt(args.seed)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("trace".into(), Value::Bool(args.trace)),
        ("seconds".into(), Value::Float(seconds)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("rounds".into(), Value::UInt(report.rounds as u64)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("fingerprint".into(), Value::Str(fingerprint)),
        ("correct".into(), Value::Bool(correct)),
        (
            "problems".into(),
            Value::Array(report.problems.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "metrics".into(),
            Value::Map(
                report
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), metric_value(m)))
                    .collect(),
            ),
        ),
    ]);
    let json_path = out_dir.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&doc).expect("a value tree serializes");
    if let Err(e) = std::fs::write(&json_path, text) {
        eprintln!("sb-benchmark: cannot write {}: {e}", json_path.display());
    }
    if args.trace {
        let end = spans.now_ns();
        spans.push(&args.workload, "workload", 0, end);
        let trace_path = out_dir.join(format!("{stem}.trace.json"));
        let (kept, dropped) = spans.counts();
        match std::fs::write(&trace_path, spans.to_json()) {
            Ok(()) => eprintln!(
                "sb-benchmark: {kept} spans ({dropped} dropped) in {}",
                trace_path.display()
            ),
            Err(e) => eprintln!("sb-benchmark: cannot write {}: {e}", trace_path.display()),
        }
    }

    let last = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(report.attempted)),
        ("failed".into(), Value::UInt(report.failed)),
        ("metrics".into(), last_metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&last).expect("a value tree serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_explicit_and_the_short_forms() {
        let a = args(&[
            "--workload",
            "hotloop",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("explicit form parses");
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let b = args(&["--workload", "scale-1024", "--trace", "--smoke"]).expect("short form");
        assert!(b.trace && b.smoke);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "hotloop", "--seconds", "0"]).is_err());
    }

    #[test]
    fn the_last_line_carries_exactly_the_listed_metrics() {
        let (seconds, listed) = benchmark_spec(false).expect("BENCHMARK.json parses");
        assert!(seconds >= 1.0);
        let report = Report {
            metrics: listed
                .iter()
                .map(|(name, unit)| {
                    let name: &'static str = Box::leak(name.clone().into_boxed_str());
                    let unit: &'static str = Box::leak(unit.clone().into_boxed_str());
                    Metric::new(name, 1.0, unit)
                })
                .chain([Metric::new("unlisted", 2.0, "s")])
                .collect(),
            ..Report::default()
        };
        let mut problems = Vec::new();
        let Value::Map(out) = listed_value(&report, &listed, &mut problems) else {
            panic!("a map");
        };
        assert!(problems.is_empty(), "{problems:?}");
        let names: Vec<&str> = out.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, want);

        let wrong = vec![
            ("unlisted".to_string(), "ms".to_string()),
            ("absent".to_string(), "s".to_string()),
        ];
        listed_value(&report, &wrong, &mut problems);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }
}
