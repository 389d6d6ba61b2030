//! An item-level parser on top of the hand-rolled lexer: just enough
//! structure for whole-workspace reasoning — `fn` items with their
//! `impl`/`trait` containers, `use` imports, intra-workspace call
//! edges, and closure arguments at call sites.
//!
//! The parser is deliberately forgiving and *conservative*: anything
//! it cannot classify precisely it either ignores (external calls,
//! which cannot re-enter the workspace) or over-approximates (method
//! calls, which later resolve to every workspace method of that name).
//! It never fails; the compiler rejects genuinely broken files long
//! before smartlint runs.

use crate::lexer::{Token, TokenKind};

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// signature) with enough context to name and locate it.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Self type of the enclosing `impl` block, if any (`impl Foo` or
    /// `impl Trait for Foo` both record `Foo`).
    pub impl_type: Option<String>,
    /// Trait being implemented (`impl Trait for Foo`) or declared
    /// (`trait Trait { fn … }`), if any.
    pub trait_name: Option<String>,
    /// Inline `mod` path inside the file (excludes the file's module).
    pub modules: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[open_brace, close_brace]` of the body;
    /// `None` for bodiless trait signatures.
    pub body: Option<(usize, usize)>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `name(…)` — resolved through the local module and imports.
    Bare(String),
    /// `a::b::name(…)` — resolved through modules, crates and types.
    Path(Vec<String>),
    /// `.name(…)` — over-approximated to every workspace method of
    /// that name (static dispatch is not recoverable lexically).
    Method(String),
}

impl Callee {
    /// The called function's bare name (the last path segment).
    pub fn name(&self) -> &str {
        match self {
            Callee::Bare(n) | Callee::Method(n) => n,
            Callee::Path(segs) => segs.last().map_or("", String::as_str),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index into [`ParsedFile::fns`] of the enclosing function.
    pub caller: Option<usize>,
    /// The callee as written.
    pub callee: Callee,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
}

/// A closure literal passed as an argument at a call site. These are
/// the regions the worker-pool rules (W1/F2) inspect when the callee
/// is spawn-reaching.
#[derive(Debug, Clone)]
pub struct ClosureArg {
    /// Index into [`ParsedFile::fns`] of the enclosing function.
    pub caller: Option<usize>,
    /// The function the closure is passed to.
    pub callee: Callee,
    /// Token index of the call site's callee name (matches
    /// [`CallSite::tok`]), so a closure can be tied to its exact call.
    pub call_tok: usize,
    /// Token index range `[start, end]` of the closure body.
    pub body: (usize, usize),
    /// Token index range `[start, end]` of the parameter list
    /// (between the pipes).
    pub params: (usize, usize),
    /// 1-based line the closure starts on.
    pub line: u32,
}

/// One `use` binding: `alias` names `path` in this file. A glob import
/// (`use a::b::*`) has an empty alias and `glob = true`.
#[derive(Debug, Clone)]
pub struct Import {
    /// The local name the import binds (empty for globs).
    pub alias: String,
    /// The imported path, as written (may start with `crate`/`super`).
    pub path: Vec<String>,
    /// Whether this is a glob import.
    pub glob: bool,
}

/// The parsed form of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// `use` bindings, in source order.
    pub imports: Vec<Import>,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// Call sites, in source order.
    pub calls: Vec<CallSite>,
    /// Closure arguments at call sites, in source order.
    pub closures: Vec<ClosureArg>,
    /// Token index ranges covered by `use` statements (sink and D2
    /// detectors skip these: a declaration is not an effect).
    pub use_spans: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// Index of the innermost function whose body contains token `tok`.
    pub fn enclosing_fn(&self, tok: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span, idx)
        for (idx, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if tok >= open && tok <= close {
                    let span = close - open;
                    if best.is_none_or(|(s, _)| span < s) {
                        best = Some((span, idx));
                    }
                }
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Whether token index `tok` falls inside a `use` statement.
    pub fn in_use_span(&self, tok: usize) -> bool {
        self.use_spans.iter().any(|&(a, b)| tok >= a && tok <= b)
    }
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == s
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "fn", "impl", "trait", "struct", "enum", "union", "mod", "use",
    "pub", "where", "unsafe", "async", "await", "dyn", "static", "const", "type", "extern",
];

fn in_region(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Finds the token index of the `}` matching the `{` at `open`.
/// Returns the last token index if the file is truncated.
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < tokens.len() {
        if is_punct(&tokens[j], "{") {
            depth += 1;
        } else if is_punct(&tokens[j], "}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Whether the token before `i` puts an `impl`/`trait`/`mod` keyword
/// at item position (rather than, say, `-> impl Iterator`).
fn at_item_position(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = &tokens[i - 1];
    is_punct(prev, "{")
        || is_punct(prev, "}")
        || is_punct(prev, ";")
        || is_punct(prev, "]")
        || is_ident(prev, "pub")
        || is_ident(prev, "unsafe")
        || (is_punct(prev, ")") && i >= 2 && is_ident(&tokens[i - 2], "pub"))
}

/// The container context a `fn` item sits in: `(impl_type, trait_name)`.
type ImplCtx = (Option<String>, Option<String>);

/// Parses one file's token stream. Items whose line falls in a test
/// region are skipped entirely: test code cannot be *called from*
/// runtime code, so it contributes neither graph nodes nor sinks.
pub fn parse_file(tokens: &[Token], test_regions: &[(u32, u32)]) -> ParsedFile {
    let mut pf = ParsedFile::default();
    let mut depth: i64 = 0;
    // (name, depth at declaration) — popped when `}` returns there.
    let mut mod_stack: Vec<(String, i64)> = Vec::new();
    // ((impl_type, trait_name), depth at declaration).
    let mut impl_stack: Vec<(ImplCtx, i64)> = Vec::new();

    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, "{") {
            depth += 1;
        } else if is_punct(t, "}") {
            depth -= 1;
            while mod_stack.last().is_some_and(|&(_, d)| d >= depth) {
                mod_stack.pop();
            }
            while impl_stack.last().is_some_and(|&(_, d)| d >= depth) {
                impl_stack.pop();
            }
        } else if is_ident(t, "use") && at_item_position(tokens, i) {
            let start = i;
            let mut j = i + 1;
            while j < tokens.len() && !is_punct(&tokens[j], ";") {
                j += 1;
            }
            if !in_region(test_regions, t.line) {
                parse_use_tree(&tokens[i + 1..j], &mut pf.imports);
            }
            pf.use_spans.push((start, j));
            i = j + 1;
            continue;
        } else if is_ident(t, "mod")
            && at_item_position(tokens, i)
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|n| is_punct(n, "{"))
        {
            mod_stack.push((tokens[i + 1].text.clone(), depth));
        } else if (is_ident(t, "impl") || is_ident(t, "trait")) && at_item_position(tokens, i) {
            if let Some((ctx, brace)) = parse_impl_header(tokens, i) {
                impl_stack.push((ctx, depth));
                i = brace; // the `{` is processed on the next iteration
                continue;
            }
        } else if is_ident(t, "fn")
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident)
            && !in_region(test_regions, t.line)
        {
            let name = tokens[i + 1].text.clone();
            // Scan the signature for the body `{` or a terminating `;`.
            let mut j = i + 2;
            let mut paren = 0i64;
            let mut body = None;
            while j < tokens.len() {
                let s = &tokens[j];
                if is_punct(s, "(") {
                    paren += 1;
                } else if is_punct(s, ")") {
                    paren -= 1;
                } else if paren == 0 && is_punct(s, ";") {
                    break;
                } else if paren == 0 && is_punct(s, "{") {
                    body = Some((j, match_brace(tokens, j)));
                    break;
                }
                j += 1;
            }
            let (impl_type, trait_name) = impl_stack
                .last()
                .map_or((None, None), |((ty, tr), _)| (ty.clone(), tr.clone()));
            pf.fns.push(FnItem {
                name,
                impl_type,
                trait_name,
                modules: mod_stack.iter().map(|(n, _)| n.clone()).collect(),
                line: t.line,
                body,
            });
            i += 2; // continue inside the signature/body: nested items still parse
            continue;
        }
        i += 1;
    }

    collect_calls(tokens, test_regions, &mut pf);
    collect_closures(tokens, &mut pf);
    pf
}

/// Parses an `impl`/`trait` header starting at token `i` (the
/// keyword). Returns the container context and the index of the body
/// `{`, or `None` if no body brace is found (e.g. `impl Foo;`).
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(ImplCtx, usize)> {
    let is_trait_decl = is_ident(&tokens[i], "trait");
    let mut angle = 0i64;
    let mut current: Option<String> = None;
    let mut first: Option<String> = None;
    let mut saw_for = false;
    let mut in_where = false;
    let mut j = i + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if is_punct(t, "<") {
            angle += 1;
        } else if is_punct(t, ">") {
            // `->` in generic bounds is an arrow, not a close angle.
            if !(j >= 1 && is_punct(&tokens[j - 1], "-")) {
                angle -= 1;
            }
        } else if is_punct(t, "{") && angle <= 0 {
            let (ty, tr) = if is_trait_decl {
                (None, current)
            } else if saw_for {
                (current, first)
            } else {
                (current, None)
            };
            return Some(((ty, tr), j));
        } else if is_punct(t, ";") && angle <= 0 {
            return None;
        } else if angle == 0 && !in_where && t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "for" => {
                    saw_for = true;
                    first = current.take();
                }
                "where" => in_where = true,
                "dyn" | "pub" | "unsafe" | "const" => {}
                _ => current = Some(t.text.clone()),
            }
        }
        j += 1;
    }
    None
}

/// Parses the token slice of a `use` statement body (between `use`
/// and `;`) into flat [`Import`]s, handling `{…}` groups, `as`
/// renames, `self` group members and `*` globs.
fn parse_use_tree(tokens: &[Token], out: &mut Vec<Import>) {
    parse_use_branch(tokens, &mut 0, &[], out);
}

fn parse_use_branch(tokens: &[Token], pos: &mut usize, prefix: &[String], out: &mut Vec<Import>) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut alias: Option<String> = None;
    let mut emitted = false;
    while *pos < tokens.len() {
        let t = &tokens[*pos];
        if is_punct(t, "{") {
            *pos += 1;
            loop {
                parse_use_branch(tokens, pos, &path, out);
                if *pos >= tokens.len() || !is_punct(&tokens[*pos], ",") {
                    break;
                }
                *pos += 1;
            }
            if *pos < tokens.len() && is_punct(&tokens[*pos], "}") {
                *pos += 1;
            }
            emitted = true;
        } else if is_punct(t, "*") {
            out.push(Import {
                alias: String::new(),
                path: path.clone(),
                glob: true,
            });
            *pos += 1;
            emitted = true;
        } else if is_punct(t, ",") || is_punct(t, "}") {
            break;
        } else if is_ident(t, "as") {
            if let Some(a) = tokens.get(*pos + 1) {
                if a.kind == TokenKind::Ident {
                    alias = Some(a.text.clone());
                    *pos += 1;
                }
            }
            *pos += 1;
        } else if t.kind == TokenKind::Ident {
            if t.text == "self" && !path.is_empty() {
                // `use a::b::{self, c}` — `self` binds `b` itself.
            } else if t.text != "pub" {
                path.push(t.text.clone());
            }
            *pos += 1;
        } else {
            // `:` separators and anything unexpected.
            *pos += 1;
        }
    }
    if !emitted && (path.len() > prefix.len() || alias.is_some()) {
        let name = alias.unwrap_or_else(|| path.last().cloned().unwrap_or_default());
        if !name.is_empty() {
            out.push(Import {
                alias: name,
                path,
                glob: false,
            });
        }
    } else if !emitted && !path.is_empty() && path.len() == prefix.len() {
        // `self` leaf: bind the prefix's last segment.
        if let Some(last) = path.last() {
            out.push(Import {
                alias: last.clone(),
                path: path.clone(),
                glob: false,
            });
        }
    }
}

/// Collects call sites: `name(…)`, `a::b::name(…)` and `.name(…)`.
fn collect_calls(tokens: &[Token], test_regions: &[(u32, u32)], pf: &mut ParsedFile) {
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || KEYWORDS.contains(&t.text.as_str())
            || !tokens.get(i + 1).is_some_and(|n| is_punct(n, "("))
            || in_region(test_regions, t.line)
        {
            continue;
        }
        if i >= 1 && (is_ident(&tokens[i - 1], "fn") || is_punct(&tokens[i - 1], "!")) {
            continue;
        }
        let callee = if i >= 1 && is_punct(&tokens[i - 1], ".") {
            Callee::Method(t.text.clone())
        } else if i >= 2 && is_punct(&tokens[i - 1], ":") && is_punct(&tokens[i - 2], ":") {
            // Walk the path backwards: `seg :: seg :: name`.
            let mut segs = vec![t.text.clone()];
            let mut j = i;
            while j >= 3
                && is_punct(&tokens[j - 1], ":")
                && is_punct(&tokens[j - 2], ":")
                && tokens[j - 3].kind == TokenKind::Ident
            {
                segs.insert(0, tokens[j - 3].text.clone());
                j -= 3;
            }
            Callee::Path(segs)
        } else {
            Callee::Bare(t.text.clone())
        };
        pf.calls.push(CallSite {
            caller: None, // filled below, once all fns are known
            callee,
            line: t.line,
            tok: i,
        });
    }
    let spans: Vec<Option<usize>> = pf.calls.iter().map(|c| pf.enclosing_fn(c.tok)).collect();
    for (c, s) in pf.calls.iter_mut().zip(spans) {
        c.caller = s;
    }
}

/// Collects closure literals appearing as call arguments.
fn collect_closures(tokens: &[Token], pf: &mut ParsedFile) {
    let mut found: Vec<ClosureArg> = Vec::new();
    for call in &pf.calls {
        let open = call.tok + 1;
        let close = match_paren(tokens, open);
        let mut j = open + 1;
        let mut paren = 1i64;
        let mut brace = 0i64;
        while j < close {
            let t = &tokens[j];
            if is_punct(t, "(") {
                paren += 1;
            } else if is_punct(t, ")") {
                paren -= 1;
            } else if is_punct(t, "{") {
                brace += 1;
            } else if is_punct(t, "}") {
                brace -= 1;
            } else if paren == 1 && brace == 0 && is_punct(t, "|") && closure_start(tokens, j) {
                // Parameter list: to the next `|` (no nested pipes in
                // closure params).
                let mut p = j + 1;
                while p < close && !is_punct(&tokens[p], "|") {
                    p += 1;
                }
                let params = (j + 1, p.saturating_sub(1).max(j + 1));
                let body_start = p + 1;
                let body_end = if tokens.get(body_start).is_some_and(|b| is_punct(b, "{")) {
                    match_brace(tokens, body_start)
                } else {
                    // Expression body: to the `,` or `)` closing this
                    // argument at the current nesting.
                    let mut e = body_start;
                    let mut ip = 0i64;
                    let mut ib = 0i64;
                    while e < close {
                        let s = &tokens[e];
                        if is_punct(s, "(") || is_punct(s, "[") {
                            ip += 1;
                        } else if is_punct(s, ")") || is_punct(s, "]") {
                            ip -= 1;
                            if ip < 0 {
                                break;
                            }
                        } else if is_punct(s, "{") {
                            ib += 1;
                        } else if is_punct(s, "}") {
                            ib -= 1;
                        } else if ip == 0 && ib == 0 && is_punct(s, ",") {
                            break;
                        }
                        e += 1;
                    }
                    e.saturating_sub(1)
                };
                found.push(ClosureArg {
                    caller: call.caller,
                    callee: call.callee.clone(),
                    call_tok: call.tok,
                    body: (body_start, body_end.max(body_start)),
                    params,
                    line: t.line,
                });
                j = body_end.max(body_start);
            }
            j += 1;
        }
    }
    pf.closures = found;
}

/// Whether the `|` at `j` starts a closure (vs a bitwise/logical or).
fn closure_start(tokens: &[Token], j: usize) -> bool {
    if j == 0 {
        return false;
    }
    let prev = &tokens[j - 1];
    is_punct(prev, "(") || is_punct(prev, ",") || is_ident(prev, "move")
}

/// Finds the token index of the `)` matching the `(` at `open`.
fn match_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < tokens.len() {
        if is_punct(&tokens[j], "(") {
            depth += 1;
        } else if is_punct(&tokens[j], ")") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src).tokens, &[])
    }

    #[test]
    fn fn_items_capture_impl_and_trait_context() {
        let src = "impl LoadBalancer for VanillaBalancer {\n    fn rebalance(&mut self) -> u64 { helper() }\n}\nimpl System {\n    pub fn run_epoch(&mut self) {}\n}\ntrait Stepper {\n    fn step(&mut self);\n    fn kind(&self) -> u64 { 0 }\n}\nfn free() {}\n";
        let pf = parse(src);
        let names: Vec<(String, Option<String>, Option<String>)> = pf
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone(), f.trait_name.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                (
                    "rebalance".into(),
                    Some("VanillaBalancer".into()),
                    Some("LoadBalancer".into())
                ),
                ("run_epoch".into(), Some("System".into()), None),
                ("step".into(), None, Some("Stepper".into())),
                ("kind".into(), None, Some("Stepper".into())),
                ("free".into(), None, None),
            ]
        );
        assert!(pf.fns[2].body.is_none(), "trait sig has no body");
        assert!(pf.fns[3].body.is_some(), "default method has a body");
    }

    #[test]
    fn generic_impl_headers_resolve_the_self_type() {
        let src = "impl<T: Fn() -> u64> Holder<T> {\n    fn get(&self) -> u64 { 0 }\n}\n";
        let pf = parse(src);
        assert_eq!(pf.fns[0].impl_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let src =
            "fn make() -> impl Iterator<Item = u64> {\n    std::iter::once(1)\n}\nfn after() {}\n";
        let pf = parse(src);
        assert_eq!(pf.fns.len(), 2);
        assert!(pf.fns[1].impl_type.is_none());
    }

    #[test]
    fn calls_classify_bare_path_and_method() {
        let src = "fn f() {\n    helper();\n    crate::suite::parallel_indexed(1, 2, work);\n    self.journal.flush();\n}\n";
        let pf = parse(src);
        let callees: Vec<Callee> = pf.calls.iter().map(|c| c.callee.clone()).collect();
        assert_eq!(
            callees,
            vec![
                Callee::Bare("helper".into()),
                Callee::Path(vec![
                    "crate".into(),
                    "suite".into(),
                    "parallel_indexed".into()
                ]),
                Callee::Method("flush".into()),
            ]
        );
        assert_eq!(pf.calls[0].caller, Some(0));
    }

    #[test]
    fn use_trees_flatten_groups_aliases_and_globs() {
        let src = "use std::fs::{self, File};\nuse crate::suite::{parallel_indexed as par, splitmix64};\nuse super::helpers::*;\n";
        let pf = parse(src);
        let got: Vec<(String, String, bool)> = pf
            .imports
            .iter()
            .map(|i| (i.alias.clone(), i.path.join("::"), i.glob))
            .collect();
        assert_eq!(
            got,
            vec![
                ("fs".into(), "std::fs".into(), false),
                ("File".into(), "std::fs::File".into(), false),
                ("par".into(), "crate::suite::parallel_indexed".into(), false),
                (
                    "splitmix64".into(),
                    "crate::suite::splitmix64".into(),
                    false
                ),
                (String::new(), "super::helpers".into(), true),
            ]
        );
        assert_eq!(pf.use_spans.len(), 3);
    }

    #[test]
    fn closures_at_call_sites_are_captured_with_bodies() {
        let src = "fn f(n: usize) {\n    let v = parallel_indexed(n, 4, |i| i * 2);\n    pool(n, move |k| {\n        work(k);\n    });\n    let or = a | b;\n}\n";
        let pf = parse(src);
        assert_eq!(pf.closures.len(), 2, "{:?}", pf.closures);
        assert_eq!(pf.closures[0].callee.name(), "parallel_indexed");
        assert_eq!(pf.closures[1].callee.name(), "pool");
        // `a | b` is not a closure.
    }

    #[test]
    fn test_region_items_are_skipped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() { live(); }\n}\n";
        let regions = crate::rules::test_regions(&lex(src).tokens);
        let pf = parse_file(&lex(src).tokens, &regions);
        assert_eq!(pf.fns.len(), 1);
        assert!(pf.calls.is_empty());
    }
}
