//! The workspace call graph and everything derived from it:
//! reachability from the simulation roots, spawn propagation for the
//! worker-pool rules, and the derived D1/D2/C1 scopes that replaced
//! the old hand-pinned path lists.
//!
//! Resolution policy is *conservative over-approximation*: where the
//! lexical information is ambiguous (method calls, re-exported paths)
//! the graph adds every plausible edge rather than guessing one, so
//! derived scope can only be too large, never too small. Calls into
//! paths the workspace does not define (std, vendored deps) produce no
//! edges — external code cannot re-enter workspace functions.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{CallSite, Callee, ParsedFile};

/// One analyzed file plus the path-derived facts resolution needs.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// `crates/<name>/src/` prefix, when the file is library source.
    /// Files outside `crates/*/src` (tests/, examples/, benches/) hold
    /// `None` and contribute no graph nodes.
    pub unit: Option<String>,
    /// The crate's directory name (`core`, `kernelsim`, ...).
    pub crate_dir: Option<String>,
    /// Module path within the crate, derived from the file path
    /// (`balance/gts.rs` → `["balance", "gts"]`; `lib.rs` → `[]`).
    pub modules: Vec<String>,
    /// The parsed items of the file.
    pub parsed: ParsedFile,
}

impl FileModel {
    /// Builds the model for a parsed file at `path`.
    pub fn new(path: &str, parsed: ParsedFile) -> FileModel {
        let (unit, crate_dir, modules) = split_unit(path);
        FileModel {
            path: path.to_string(),
            unit,
            crate_dir,
            modules,
            parsed,
        }
    }
}

/// Splits `crates/<dir>/src/<mods...>/<file>.rs` into its unit prefix,
/// crate dir and module path.
fn split_unit(path: &str) -> (Option<String>, Option<String>, Vec<String>) {
    let Some(rest) = path.strip_prefix("crates/") else {
        return (None, None, Vec::new());
    };
    let Some(slash) = rest.find('/') else {
        return (None, None, Vec::new());
    };
    let dir = &rest[..slash];
    let Some(in_src) = rest[slash + 1..].strip_prefix("src/") else {
        return (None, None, Vec::new());
    };
    let unit = format!("crates/{dir}/src/");
    let mut modules: Vec<String> = in_src
        .trim_end_matches(".rs")
        .split('/')
        .map(str::to_string)
        .collect();
    match modules.last().map(String::as_str) {
        Some("lib") | Some("main") | Some("mod") => {
            modules.pop();
        }
        _ => {}
    }
    // `src/bin/<name>.rs` binaries are their own crate roots.
    if modules.first().map(String::as_str) == Some("bin") {
        modules.clear();
    }
    (Some(unit), Some(dir.to_string()), modules)
}

/// The simulation roots: the entry points whose transitive callees
/// must stay free of nondeterminism sinks. Each entry matches methods
/// named `.1` whose `impl` self type *or* trait is `.0`, so both the
/// trait declaration and every implementation count.
pub const ROOT_SPECS: &[(&str, &str)] = &[
    ("System", "run_epoch"),
    ("LoadBalancer", "rebalance"),
    ("SuiteJob", "execute"),
    ("Campaign", "run"),
];

/// The analyzer's self-root: smartlint's own workspace pass must obey
/// the same determinism rules (CI asserts its JSON/SARIF output is
/// byte-identical across runs), so its crate stays inside derived
/// scope via this free-function root.
pub const SELF_ROOT: (&str, &str) = ("smartlint", "analyze_workspace");

/// A call-graph node: `(file index, fn index within that file)`.
pub type Node = (usize, usize);

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// The file models, in the caller's order.
    pub files: Vec<FileModel>,
    /// Every fn item in graph files, flattened.
    pub nodes: Vec<Node>,
    node_of: BTreeMap<Node, usize>,
    edges: Vec<BTreeSet<usize>>,
    redges: Vec<BTreeSet<usize>>,
    method_index: BTreeMap<String, Vec<usize>>,
    type_method_index: BTreeMap<(String, String), Vec<usize>>,
    path_index: BTreeMap<String, Vec<usize>>,
    fn_name_index: BTreeMap<String, Vec<usize>>,
    crate_alias: BTreeMap<String, String>,
}

/// Reachability from the roots, with parent links for trace rendering.
#[derive(Debug)]
pub struct Reachability {
    /// Root node indices, in node order.
    pub roots: Vec<usize>,
    /// `reachable[n]` — is node `n` reachable from any root?
    pub reachable: Vec<bool>,
    parent: Vec<Option<usize>>,
}

/// Crate units exempt from the derived determinism scope by policy:
/// `crates/bench` is the sanctioned timing/CLI harness, exactly as it
/// was exempt from the old hand-pinned lists.
pub const EXEMPT_D_UNITS: &[&str] = &["crates/bench/src/"];

/// Binary roots are exempt from D2: a CLI may read clocks, args and
/// env freely.
pub fn is_binary_root(path: &str) -> bool {
    path.ends_with("/main.rs") || path.contains("/src/bin/")
}

/// Whether a `spawn` call site is an *OS thread* spawn rather than the
/// simulator's task-spawn methods (`System::spawn(profile)`): either a
/// `thread`-rooted path (`std::thread::spawn`) or a `.spawn(…)` whose
/// argument is a closure — thread APIs take closures, task spawns take
/// workload profiles.
pub fn is_thread_spawn(parsed: &ParsedFile, call: &CallSite) -> bool {
    if call.callee.name() != "spawn" {
        return false;
    }
    if let Callee::Path(segs) = &call.callee {
        if segs.iter().any(|s| s == "thread") {
            return true;
        }
    }
    parsed.closures.iter().any(|cl| cl.call_tok == call.tok)
}

/// The derived rule scopes: which crate units D1/D2 (determinism) and
/// C1 (checkpoint writes) apply to, computed from root reachability
/// instead of declared by hand.
#[derive(Debug, Clone, Default)]
pub struct DerivedScope {
    /// True when the file set contained no recognized roots (e.g. a
    /// single fixture file): every determinism rule applies everywhere,
    /// which preserves the old fixture-testing contract.
    pub assume_all: bool,
    /// Crate units with at least one root-reachable fn (D1/D2 scope).
    pub d_units: BTreeSet<String>,
    /// Crate units defining `Campaign::run` (C1 scope).
    pub c_units: BTreeSet<String>,
    /// Human-readable root labels (`path:line Type::fn`), sorted.
    pub roots: Vec<String>,
}

impl DerivedScope {
    /// Whether D1 (unordered iteration) applies to `path`.
    pub fn d1_applies(&self, path: &str) -> bool {
        self.in_d_scope(path)
    }

    /// Whether D2 (ambient nondeterminism) applies to `path`.
    pub fn d2_applies(&self, path: &str) -> bool {
        self.in_d_scope(path) && !is_binary_root(path)
    }

    /// Whether C1 (checkpoint writes) applies to `path`.
    pub fn c1_applies(&self, path: &str) -> bool {
        if EXEMPT_D_UNITS.iter().any(|u| path.starts_with(u)) {
            return false;
        }
        self.assume_all || self.c_units.iter().any(|u| path.starts_with(u))
    }

    fn in_d_scope(&self, path: &str) -> bool {
        if EXEMPT_D_UNITS.iter().any(|u| path.starts_with(u)) {
            return false;
        }
        self.assume_all || self.d_units.iter().any(|u| path.starts_with(u))
    }
}

impl Graph {
    /// Builds the graph over `files`. `crate_names` maps a unit prefix
    /// (`crates/core/src/`) to the crate's *library name* from its
    /// `Cargo.toml` (`smartbalance`), so `use smartbalance::…` paths
    /// resolve; the directory name is always registered as an alias
    /// too.
    pub fn build(files: Vec<FileModel>, crate_names: &BTreeMap<String, String>) -> Graph {
        let mut g = Graph {
            files,
            nodes: Vec::new(),
            node_of: BTreeMap::new(),
            edges: Vec::new(),
            redges: Vec::new(),
            method_index: BTreeMap::new(),
            type_method_index: BTreeMap::new(),
            path_index: BTreeMap::new(),
            fn_name_index: BTreeMap::new(),
            crate_alias: BTreeMap::new(),
        };

        for f in &g.files {
            if let (Some(unit), Some(dir)) = (&f.unit, &f.crate_dir) {
                g.crate_alias.insert(dir.replace('-', "_"), unit.clone());
                if let Some(lib) = crate_names.get(unit) {
                    g.crate_alias.insert(lib.replace('-', "_"), unit.clone());
                }
            }
        }

        for (fi, f) in g.files.iter().enumerate() {
            if f.unit.is_none() {
                continue;
            }
            for (ni, item) in f.parsed.fns.iter().enumerate() {
                let id = g.nodes.len();
                g.nodes.push((fi, ni));
                g.node_of.insert((fi, ni), id);
                g.fn_name_index
                    .entry(item.name.clone())
                    .or_default()
                    .push(id);
                let container = item.impl_type.as_ref().or(item.trait_name.as_ref());
                if let Some(ty) = container {
                    g.method_index
                        .entry(item.name.clone())
                        .or_default()
                        .push(id);
                    g.type_method_index
                        .entry((ty.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &item.trait_name {
                        if item.impl_type.is_some() {
                            g.type_method_index
                                .entry((tr.clone(), item.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                }
                // Canonical paths: crate::mods::[Type::]fn, under every
                // alias the crate answers to.
                if let Some(dir) = &f.crate_dir {
                    let mut tail: Vec<String> =
                        f.modules.iter().chain(&item.modules).cloned().collect();
                    if let Some(ty) = container {
                        tail.push(ty.clone());
                    }
                    tail.push(item.name.clone());
                    let mut aliases = vec![dir.replace('-', "_")];
                    if let Some(unit) = &f.unit {
                        if let Some(lib) = crate_names.get(unit) {
                            aliases.push(lib.replace('-', "_"));
                        }
                    }
                    aliases.sort();
                    aliases.dedup();
                    for a in aliases {
                        let key = format!("{a}::{}", tail.join("::"));
                        g.path_index.entry(key).or_default().push(id);
                    }
                }
            }
        }

        g.edges = vec![BTreeSet::new(); g.nodes.len()];
        g.redges = vec![BTreeSet::new(); g.nodes.len()];
        for fi in 0..g.files.len() {
            if g.files[fi].unit.is_none() {
                continue;
            }
            for ci in 0..g.files[fi].parsed.calls.len() {
                let (caller, callee) = {
                    let c = &g.files[fi].parsed.calls[ci];
                    (c.caller, c.callee.clone())
                };
                let Some(caller_fn) = caller else { continue };
                let Some(&from) = g.node_of.get(&(fi, caller_fn)) else {
                    continue;
                };
                for to in g.resolve(fi, caller, &callee) {
                    if to != from {
                        g.edges[from].insert(to);
                        g.redges[to].insert(from);
                    }
                }
            }
        }
        g
    }

    /// Resolves a callee written in file `fi` (inside fn `caller`) to
    /// the workspace nodes it may reach. Empty = external call.
    pub fn resolve(&self, fi: usize, caller: Option<usize>, callee: &Callee) -> BTreeSet<usize> {
        match callee {
            Callee::Method(name) => self
                .method_index
                .get(name)
                .map(|v| v.iter().copied().collect())
                .unwrap_or_default(),
            Callee::Bare(name) => {
                let f = &self.files[fi];
                let same_file: BTreeSet<usize> = f
                    .parsed
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, it)| it.name == *name && it.impl_type.is_none())
                    .filter_map(|(ni, _)| self.node_of.get(&(fi, ni)).copied())
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let mut out = BTreeSet::new();
                for imp in &f.parsed.imports {
                    if imp.alias == *name {
                        out.extend(self.resolve_path(fi, caller, &imp.path, 0));
                    } else if imp.glob {
                        let mut p = imp.path.clone();
                        p.push(name.clone());
                        out.extend(self.resolve_path(fi, caller, &p, 0));
                    }
                }
                out
            }
            Callee::Path(segs) => self.resolve_path(fi, caller, segs, 0),
        }
    }

    fn resolve_path(
        &self,
        fi: usize,
        caller: Option<usize>,
        segs: &[String],
        depth: u32,
    ) -> BTreeSet<usize> {
        if segs.is_empty() || depth > 4 {
            return BTreeSet::new();
        }
        let f = &self.files[fi];
        let mut segs: Vec<String> = segs.to_vec();

        // Normalize crate/self/super/Self prefixes against this file.
        match segs[0].as_str() {
            "crate" => {
                if let Some(dir) = &f.crate_dir {
                    segs[0] = dir.replace('-', "_");
                } else {
                    return BTreeSet::new();
                }
            }
            "self" => {
                if let Some(dir) = &f.crate_dir {
                    let mut abs = vec![dir.replace('-', "_")];
                    abs.extend(f.modules.iter().cloned());
                    abs.extend(segs[1..].iter().cloned());
                    segs = abs;
                } else {
                    return BTreeSet::new();
                }
            }
            "super" => {
                let mut ups = 0;
                while ups < segs.len() && segs[ups] == "super" {
                    ups += 1;
                }
                if let Some(dir) = &f.crate_dir {
                    let keep = f.modules.len().saturating_sub(ups);
                    let mut abs = vec![dir.replace('-', "_")];
                    abs.extend(f.modules[..keep].iter().cloned());
                    abs.extend(segs[ups..].iter().cloned());
                    segs = abs;
                } else {
                    return BTreeSet::new();
                }
            }
            "Self" => {
                let impl_ty = caller
                    .and_then(|ni| f.parsed.fns.get(ni))
                    .and_then(|it| it.impl_type.clone().or_else(|| it.trait_name.clone()));
                if let Some(ty) = impl_ty {
                    segs[0] = ty;
                } else {
                    return BTreeSet::new();
                }
            }
            _ => {}
        }

        // Import-alias splice: `use kernelsim::parallel_indexed as p;
        // p(...)` or `use kernelsim::pool; pool::parallel_indexed(...)`.
        for imp in &f.parsed.imports {
            if !imp.glob && imp.alias == segs[0] {
                let mut spliced = imp.path.clone();
                spliced.extend(segs[1..].iter().cloned());
                if spliced != segs {
                    let hit = self.resolve_path(fi, caller, &spliced, depth + 1);
                    if !hit.is_empty() {
                        return hit;
                    }
                }
            }
        }

        // Exact canonical path.
        if let Some(v) = self.path_index.get(&segs.join("::")) {
            return v.iter().copied().collect();
        }
        // `Type::method` anywhere in the workspace.
        if segs.len() >= 2 {
            let key = (segs[segs.len() - 2].clone(), segs[segs.len() - 1].clone());
            if let Some(v) = self.type_method_index.get(&key) {
                return v.iter().copied().collect();
            }
        }
        // Workspace-crate fallback: the path is rooted in one of our
        // crates but did not resolve exactly (re-export chains); take
        // every fn with the terminal name. Over-approximation by
        // design — std/vendor-rooted paths never reach this arm.
        if self.crate_alias.contains_key(&segs[0]) {
            if let Some(v) = self.fn_name_index.get(&segs[segs.len() - 1]) {
                return v.iter().copied().collect();
            }
        }
        BTreeSet::new()
    }

    /// Root nodes: [`ROOT_SPECS`] matches plus the [`SELF_ROOT`].
    pub fn root_nodes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, &(fi, ni)) in self.nodes.iter().enumerate() {
            let f = &self.files[fi];
            let item = &f.parsed.fns[ni];
            let named = ROOT_SPECS.iter().any(|&(ty, m)| {
                item.name == m
                    && (item.impl_type.as_deref() == Some(ty)
                        || item.trait_name.as_deref() == Some(ty))
            });
            let self_root = item.name == SELF_ROOT.1
                && item.impl_type.is_none()
                && f.crate_dir.as_deref() == Some(SELF_ROOT.0);
            if named || self_root {
                out.push(id);
            }
        }
        out
    }

    /// Multi-source BFS from the roots, recording parents for traces.
    pub fn reach_from_roots(&self) -> Reachability {
        let roots = self.root_nodes();
        let mut reachable = vec![false; self.nodes.len()];
        let mut parent = vec![None; self.nodes.len()];
        let mut q: VecDeque<usize> = VecDeque::new();
        for &r in &roots {
            if !reachable[r] {
                reachable[r] = true;
                q.push_back(r);
            }
        }
        while let Some(n) = q.pop_front() {
            for &m in &self.edges[n] {
                if !reachable[m] {
                    reachable[m] = true;
                    parent[m] = Some(n);
                    q.push_back(m);
                }
            }
        }
        Reachability {
            roots,
            reachable,
            parent,
        }
    }

    /// Spawn-reaching fns: every fn that contains a thread-spawn call
    /// or transitively calls one (reverse closure over the graph).
    pub fn spawnful(&self) -> Vec<bool> {
        let mut flag = vec![false; self.nodes.len()];
        let mut q: VecDeque<usize> = VecDeque::new();
        for (fi, f) in self.files.iter().enumerate() {
            if f.unit.is_none() {
                continue;
            }
            for call in &f.parsed.calls {
                if is_thread_spawn(&f.parsed, call) {
                    if let Some(&n) = call.caller.and_then(|ni| self.node_of.get(&(fi, ni))) {
                        if !flag[n] {
                            flag[n] = true;
                            q.push_back(n);
                        }
                    }
                }
            }
        }
        while let Some(n) = q.pop_front() {
            for &m in &self.redges[n] {
                if !flag[m] {
                    flag[m] = true;
                    q.push_back(m);
                }
            }
        }
        flag
    }

    /// The node for fn `ni` of file `fi`, if it is a graph node.
    pub fn node_id(&self, fi: usize, ni: usize) -> Option<usize> {
        self.node_of.get(&(fi, ni)).copied()
    }

    /// `"path:line [Type::]name"` — the label used in traces and the
    /// scope's root list.
    pub fn node_label(&self, n: usize) -> String {
        let (fi, ni) = self.nodes[n];
        let f = &self.files[fi];
        let item = &f.parsed.fns[ni];
        let container = item.impl_type.as_deref().or(item.trait_name.as_deref());
        match container {
            Some(ty) => format!("{}:{} {}::{}", f.path, item.line, ty, item.name),
            None => format!("{}:{} {}", f.path, item.line, item.name),
        }
    }

    /// The root-to-`n` call chain as labels (root first). Empty when
    /// `n` is unreachable.
    pub fn trace_to(&self, reach: &Reachability, n: usize) -> Vec<String> {
        if !reach.reachable.get(n).copied().unwrap_or(false) {
            return Vec::new();
        }
        let mut chain = vec![n];
        let mut cur = n;
        while let Some(p) = reach.parent[cur] {
            chain.push(p);
            cur = p;
            if chain.len() > self.nodes.len() {
                break;
            }
        }
        chain.reverse();
        chain.into_iter().map(|m| self.node_label(m)).collect()
    }

    /// Derives the rule scopes from reachability (see [`DerivedScope`]).
    pub fn derived_scope(&self, reach: &Reachability) -> DerivedScope {
        let mut scope = DerivedScope {
            assume_all: reach.roots.is_empty(),
            ..DerivedScope::default()
        };
        for (id, &(fi, _)) in self.nodes.iter().enumerate() {
            if reach.reachable[id] {
                if let Some(unit) = &self.files[fi].unit {
                    scope.d_units.insert(unit.clone());
                }
            }
        }
        for &r in &reach.roots {
            let (fi, ni) = self.nodes[r];
            let item = &self.files[fi].parsed.fns[ni];
            let container = item.impl_type.as_deref().or(item.trait_name.as_deref());
            if item.name == "run" && container == Some("Campaign") {
                if let Some(unit) = &self.files[fi].unit {
                    scope.c_units.insert(unit.clone());
                }
            }
            scope.roots.push(self.node_label(r));
        }
        scope.roots.sort();
        scope.roots.dedup();
        scope
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::new(path, parse_file(&lex(src).tokens, &[]))
    }

    fn graph(files: Vec<FileModel>) -> Graph {
        Graph::build(files, &BTreeMap::new())
    }

    #[test]
    fn unit_and_module_paths_derive_from_file_paths() {
        let (unit, dir, mods) = split_unit("crates/core/src/balance/gts.rs");
        assert_eq!(unit.as_deref(), Some("crates/core/src/"));
        assert_eq!(dir.as_deref(), Some("core"));
        assert_eq!(mods, vec!["balance", "gts"]);
        assert_eq!(split_unit("crates/core/src/lib.rs").2, Vec::<String>::new());
        assert_eq!(split_unit("tests/engine_parity.rs").0, None);
        assert_eq!(
            split_unit("crates/bench/src/bin/fig6.rs").2,
            Vec::<String>::new()
        );
    }

    #[test]
    fn cross_crate_calls_resolve_and_reach() {
        let g = graph(vec![
            model(
                "crates/kernelsim/src/system.rs",
                "impl System {\n    pub fn run_epoch(&mut self) { crate::stats::tally(); }\n}\n",
            ),
            model(
                "crates/kernelsim/src/stats.rs",
                "pub fn tally() { helper(); }\nfn helper() {}\n",
            ),
        ]);
        let reach = g.reach_from_roots();
        assert_eq!(reach.roots.len(), 1);
        assert!(reach.reachable.iter().all(|&r| r), "all 3 fns reachable");
        let scope = g.derived_scope(&reach);
        assert!(!scope.assume_all);
        assert!(scope.d1_applies("crates/kernelsim/src/anything.rs"));
        assert!(!scope.d1_applies("crates/mcpat/src/model.rs"));
    }

    #[test]
    fn method_calls_over_approximate_to_every_workspace_method() {
        let g = graph(vec![
            model(
                "crates/core/src/suite.rs",
                "impl SuiteJob {\n    pub fn execute(&self) { self.helper.go(); }\n}\n",
            ),
            model(
                "crates/mcpat/src/model.rs",
                "impl PowerModel {\n    pub fn go(&self) { leak(); }\n}\nfn leak() {}\n",
            ),
        ]);
        let reach = g.reach_from_roots();
        let scope = g.derived_scope(&reach);
        assert!(
            scope.d1_applies("crates/mcpat/src/model.rs"),
            "`.go()` must reach every workspace method named go: {scope:?}"
        );
    }

    #[test]
    fn external_calls_produce_no_edges() {
        let g = graph(vec![model(
            "crates/core/src/suite.rs",
            "impl SuiteJob {\n    pub fn execute(&self) { std::mem::drop(1); Vec::push(&mut v, 1); }\n}\n",
        )]);
        let reach = g.reach_from_roots();
        assert_eq!(
            reach.reachable.iter().filter(|&&r| r).count(),
            1,
            "root only"
        );
    }

    #[test]
    fn spawnful_propagates_to_callers() {
        let g = graph(vec![model(
            "crates/core/src/suite.rs",
            "pub fn pool() { std::thread::scope(|s| { s.spawn(|| {}); }); }\npub fn driver() { pool(); }\npub fn bystander() {}\n",
        )]);
        let spawnful = g.spawnful();
        let by_name = |name: &str| {
            g.nodes
                .iter()
                .position(|&(fi, ni)| g.files[fi].parsed.fns[ni].name == name)
                .map(|id| spawnful[id])
        };
        assert_eq!(by_name("pool"), Some(true));
        assert_eq!(
            by_name("driver"),
            Some(true),
            "transitive caller is spawnful"
        );
        assert_eq!(by_name("bystander"), Some(false));
    }

    #[test]
    fn traces_run_root_to_sink() {
        let g = graph(vec![model(
            "crates/campaign/src/runner.rs",
            "impl Campaign {\n    pub fn run(&mut self) { step(); }\n}\nfn step() { leaf(); }\nfn leaf() {}\n",
        )]);
        let reach = g.reach_from_roots();
        let leaf = g
            .nodes
            .iter()
            .position(|&(fi, ni)| g.files[fi].parsed.fns[ni].name == "leaf")
            .expect("leaf node exists");
        let trace = g.trace_to(&reach, leaf);
        assert_eq!(trace.len(), 3);
        assert!(trace[0].contains("Campaign::run"), "{trace:?}");
        assert!(trace[2].contains("leaf"), "{trace:?}");
        let scope = g.derived_scope(&reach);
        assert!(scope.c1_applies("crates/campaign/src/journal.rs"));
        assert!(!scope.c1_applies("crates/core/src/suite.rs"));
    }

    #[test]
    fn no_roots_means_assume_all() {
        let g = graph(vec![model("crates/core/src/sense.rs", "pub fn f() {}\n")]);
        let scope = g.derived_scope(&g.reach_from_roots());
        assert!(scope.assume_all);
        assert!(scope.d1_applies("crates/anything/src/x.rs"));
        assert!(
            !scope.d2_applies("crates/core/src/main.rs"),
            "binary roots stay exempt"
        );
        assert!(
            !scope.d2_applies("crates/bench/src/harness.rs"),
            "bench stays exempt"
        );
    }
}
