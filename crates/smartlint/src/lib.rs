//! # smartlint — workspace static analysis for SmartBalance
//!
//! The workspace's closed sense→predict→balance loop guarantees
//! *bit-reproducible* results: cached-vs-uncached epoch streams are
//! byte-identical, an empty fault plan is bit-transparent, and suite
//! reruns fingerprint identically. Those guarantees rest on invariants
//! no off-the-shelf tool enforces — no unordered-container iteration
//! leaking into reports, no wall-clock, ambient randomness or
//! free-running threads in simulation code, no torn checkpoint writes.
//! Lexical policy (casts, panics, `f32`, crate headers) lives in rustc
//! and clippy configuration instead; smartlint keeps the rules that
//! need its call graph.
//!
//! smartlint is a dependency-free semantic pass: a hand-rolled lexer
//! feeds an item-level [`parser`], a whole-workspace call [`graph`] is
//! built from the parsed items, and rule scope for the sink rules
//! (`D1`, `D2`, `C1`) is *derived* from reachability off the simulation
//! roots rather than declared in path lists. A sink inside a
//! root-reachable fn reports the exact call path from the root; the
//! worker-pool rules (`W1`, `F2`) cover closures handed to
//! spawn-reaching functions. See [`rules::RULES`] for the rule set and
//! `DESIGN.md` for the rationale.
//!
//! Run it locally with:
//!
//! ```text
//! cargo run -p smartlint -- --deny
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::unreachable))]

pub mod graph;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

pub use graph::DerivedScope;
pub use rules::{analyze_source, rule_info, Finding, RuleInfo, RULES};

/// One source file handed to [`analyze_file_set`]: a workspace-relative
/// path (forward slashes) plus its contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: String,
    /// Full file contents.
    pub source: String,
}

/// The outcome of analyzing a workspace tree.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Every finding, in path order — what `--deny` fails on.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The scope the call graph derived (roots found, crate units the
    /// determinism rules covered).
    pub scope: DerivedScope,
}

/// Directories (workspace-relative) that are never scanned.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", ".github"];

/// Analyzes an explicit file set as one workspace: builds the call
/// graph across all files, derives rule scope from root reachability
/// and runs every rule. `crate_names` maps a unit prefix
/// (`crates/core/src/`) to the crate's library name from its
/// `Cargo.toml` (pass an empty map when unknown; directory names still
/// resolve).
pub fn analyze_file_set(files: &[SourceFile], crate_names: &BTreeMap<String, String>) -> Analysis {
    let (findings, scope) = rules::analyze_set(files, crate_names);
    Analysis {
        findings,
        files_scanned: files.len(),
        scope,
    }
}

/// Walks the workspace at `root` and analyzes every tracked `.rs` file
/// as one call graph. Files are visited in sorted path order so output
/// (and JSON/SARIF reports) are deterministic.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let mut paths = Vec::new();
    collect_rust_files(root, root, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for rel in &paths {
        let source =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("failed to read {rel}: {e}"))?;
        files.push(SourceFile {
            path: rel.clone(),
            source,
        });
    }
    let crate_names = collect_crate_names(root)?;
    Ok(analyze_file_set(&files, &crate_names))
}

/// Reads each `crates/*/Cargo.toml` and maps the unit prefix to the
/// declared package name, so `use <lib_name>::…` paths resolve even
/// when the library name differs from the directory name.
fn collect_crate_names(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return Ok(out);
    };
    let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        // First `name = "..."` wins: it's the [package] name; the
        // manifests here carry no other `name` keys before it.
        let lib = text.lines().find_map(|l| {
            let l = l.trim();
            let rest = l.strip_prefix("name")?.trim_start().strip_prefix('=')?;
            let rest = rest.trim();
            rest.strip_prefix('"')?
                .strip_suffix('"')
                .map(str::to_string)
        });
        if let Some(lib) = lib {
            out.insert(format!("crates/{name}/src/"), lib);
        }
    }
    Ok(out)
}

/// Recursively collects workspace-relative `.rs` paths (forward
/// slashes), skipping vendored code, build output and smartlint's own
/// lint fixtures (they are deliberately-bad test data, not sources).
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = workspace_rel(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name)
                || name.starts_with('.')
                || rel == "crates/smartlint/fixtures"
            {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes.
fn workspace_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_vendor_and_fixtures() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let analysis = analyze_workspace(&root).expect("workspace analyzes");
        assert!(analysis.files_scanned > 40, "scans the whole workspace");
        for f in &analysis.findings {
            assert!(!f.file.starts_with("vendor/"), "vendor is skipped: {f:?}");
            assert!(
                !f.file.starts_with("crates/smartlint/fixtures/"),
                "fixtures are skipped: {f:?}"
            );
        }
    }

    #[test]
    fn crate_names_map_units_to_library_names() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
        let names = collect_crate_names(&root).expect("crates/ is readable");
        assert_eq!(
            names.get("crates/core/src/").map(String::as_str),
            Some("smartbalance"),
            "the core crate's library name differs from its directory"
        );
    }
}
