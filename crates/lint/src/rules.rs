//! The rule set, D1–D9.
//!
//! Rules are token matchers over the lexed stream (see [`crate::lexer`])
//! with the structural model from [`crate::parser`]: no type inference,
//! no name resolution beyond the per-function call-site lists. The
//! matchers are deliberately *stricter* than the semantic property they
//! guard — e.g. D2 flags any `std::collections::HashMap` import, not
//! just iterated maps — because the escape hatch is cheap (an adjacent
//! `// lint:allow(Dn): <reason>` forces the author to write down *why*
//! the use is safe) while a missed re-entry of hash-order or NaN
//! nondeterminism costs a probabilistic CI failure months later.
//!
//! D1–D7 are per-file ([`run`]); D8 (hot-path allocation, one-level
//! transitive) and D9 (RNG-domain provenance) need the whole analyzed
//! set and run in [`finalize`].

use crate::lexer::{self, Line, Token, TokenKind};
use crate::parser::{self, is_keyword, FileModel};
use crate::policy::LintConfig;
use crate::Rule;

/// A rule match before suppression is applied.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the anchoring token.
    pub col: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// One fully lexed and parsed file, ready for the matchers.
#[derive(Debug, Clone)]
pub struct AnalyzedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Per-line code/comment split.
    pub lines: Vec<Line>,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Functions, scopes, test regions, call sites.
    pub model: FileModel,
}

/// Lex and parse one file. `whole_file_test` marks files under test-only
/// directories (`tests/`, `benches/`, `proptests/`).
pub fn analyze(rel: &str, src: &str, whole_file_test: bool) -> AnalyzedFile {
    let lex = lexer::tokenize(src);
    let model = parser::parse(&lex.tokens, lex.lines.len(), whole_file_test);
    AnalyzedFile {
        rel: rel.to_string(),
        lines: lex.lines,
        tokens: lex.tokens,
        model,
    }
}

/// Comparator-taking methods whose key function must be total (D1).
const ORDER_SINKS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "binary_search_by",
    "max_by",
    "min_by",
    "select_nth_unstable_by",
];

/// Macros whose invocation aborts the unit (D7).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Does the token at `i` match `text`? (Punct tokens hold their single
/// char as text, so one comparison covers both kinds.)
fn tok_is(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens.get(i).map(|t| t.text == text).unwrap_or(false)
}

/// Does the token sequence `pat` start at `i`?
fn seq_at(tokens: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| tok_is(tokens, i + k, p))
}

/// Index of the matching `)` for the `(` at `open`, if balanced.
fn matching_paren(tokens: &[Token], open: usize) -> Option<usize> {
    if !tok_is(tokens, open, "(") {
        return None;
    }
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Run the per-file rules (D1–D7) over one analyzed file.
pub fn run(file: &AnalyzedFile, cfg: &LintConfig) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    let tokens = &file.tokens;
    let model = &file.model;

    // --- D1 / D5: partial_cmp hazards (apply everywhere, tests too: a
    // NaN panic in a test is a probabilistic CI failure). The sink stack
    // records the paren depth of every ordering sink whose argument list
    // is still open, so a `partial_cmp` anywhere inside a comparator
    // closure is caught without any distance window. ------------------
    let mut depth = 0i32;
    let mut sinks: Vec<i32> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
            if i > 0 {
                let prev = &tokens[i - 1];
                let is_def = i >= 2 && tokens[i - 2].is_ident("fn");
                if prev.kind == TokenKind::Ident
                    && ORDER_SINKS.contains(&prev.text.as_str())
                    && !is_def
                {
                    sinks.push(depth);
                }
            }
        } else if t.is_punct(')') {
            if sinks.last() == Some(&depth) {
                sinks.pop();
            }
            depth -= 1;
        } else if t.is_ident("partial_cmp") {
            // Skip trait definitions/impl headers: `fn partial_cmp(..)`.
            if i > 0 && tokens[i - 1].is_ident("fn") {
                continue;
            }
            if !sinks.is_empty() {
                findings.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::D1,
                    message: "comparator built on `partial_cmp` — NaN makes the order \
                              non-total; key floats with `f64::total_cmp` instead"
                        .into(),
                });
                continue; // D1 subsumes D5 on the same expression.
            }
            // D5: `partial_cmp(...).unwrap()` / `.expect(...)` chains.
            if let Some(close) = matching_paren(tokens, i + 1) {
                if tok_is(tokens, close + 1, ".")
                    && (tok_is(tokens, close + 2, "unwrap") || tok_is(tokens, close + 2, "expect"))
                    && tok_is(tokens, close + 3, "(")
                {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::D5,
                        message: "`partial_cmp(..).unwrap()/.expect(..)` panics on NaN; \
                                  use `f64::total_cmp` or handle the `None`"
                            .into(),
                    });
                }
            }
        }
    }

    // --- Line-scoped rules D2/D3/D4/D6 (non-test code only). ----------
    // Group tokens by line once; every matcher below is a sequence scan
    // over one line's tokens.
    let by_line = tokens_by_line(tokens, file.lines.len());
    for (idx, range) in by_line.iter().enumerate() {
        let line = idx + 1;
        if model.is_test_line(line) {
            continue;
        }
        let lt = &tokens[range.clone()];
        let col_of = |name: &str| -> usize {
            lt.iter()
                .find(|t| t.text == name)
                .map(|t| t.col)
                .unwrap_or(1)
        };

        // D2: std HashMap/HashSet anywhere in non-test code. The import
        // (or a fully-qualified path) is the single anchor per line; an
        // allow there covers the file's uses of that import.
        if find_seq(lt, &["std", ":", ":", "collections"]).is_some() {
            for name in ["HashMap", "HashSet", "hash_map", "hash_set"] {
                if lt.iter().any(|t| t.is_ident(name)) {
                    findings.push(RawFinding {
                        line,
                        col: col_of(name),
                        rule: Rule::D2,
                        message: format!(
                            "`{name}` has nondeterministic iteration order; use \
                             `BTreeMap`/`BTreeSet` (or sort before iterating and \
                             justify with an allow)"
                        ),
                    });
                    break; // one D2 anchor per line
                }
            }
        }

        // D3: ambient nondeterminism — wall clocks, entropy, env vars.
        let d3: Option<(&str, usize)> = if let Some(p) = find_seq(lt, &["Instant", ":", ":", "now"])
        {
            Some(("`Instant::now` reads the wall clock", lt[p].col))
        } else if let Some(t) = lt.iter().find(|t| t.is_ident("SystemTime")) {
            Some(("`SystemTime` reads the wall clock", t.col))
        } else if let Some(t) = lt.iter().find(|t| t.is_ident("UNIX_EPOCH")) {
            Some(("`UNIX_EPOCH` arithmetic reads the wall clock", t.col))
        } else if let Some(t) = lt.iter().find(|t| t.is_ident("thread_rng")) {
            Some(("`thread_rng` draws OS entropy", t.col))
        } else if let Some(t) = lt.iter().find(|t| t.is_ident("from_entropy")) {
            Some(("`from_entropy` draws OS entropy", t.col))
        } else if let Some(p) = find_seq(lt, &["env", ":", ":", "var"]) {
            Some((
                "environment reads vary between hosts/invocations",
                lt[p].col,
            ))
        } else if find_seq(lt, &["use", "std", ":", ":", "time"]).is_some()
            && lt.iter().any(|t| t.is_ident("Instant"))
        {
            Some((
                "importing `std::time::Instant` invites wall-clock reads",
                col_of("Instant"),
            ))
        } else {
            None
        };
        if let Some((why, col)) = d3 {
            findings.push(RawFinding {
                line,
                col,
                rule: Rule::D3,
                message: format!(
                    "{why}; simulation state must be a pure function of \
                     (seed, scenario, scale)"
                ),
            });
        }

        // D4: bare RNG construction outside the derivation layer.
        for tok in ["seed_from_u64", "from_seed", "splitmix64"] {
            if lt.iter().any(|t| t.is_ident(tok)) {
                findings.push(RawFinding {
                    line,
                    col: col_of(tok),
                    rule: Rule::D4,
                    message: format!(
                        "bare `{tok}` RNG construction; derive streams through \
                         `netsim::rng::{{derive_seed, stream}}` so every unit's \
                         randomness is keyed on (seed, domain, unit)"
                    ),
                });
                break;
            }
        }

        // D6: bare output writes. A process death between `create` and
        // the final flush leaves a torn file under its *final* name —
        // exactly what downstream `cmp` gates and resumed runs must
        // never observe.
        for (head, tail, pat) in [
            ("fs", "write", "fs::write"),
            ("File", "create", "File::create"),
        ] {
            if let Some(p) = find_seq(lt, &[head, ":", ":", tail]) {
                findings.push(RawFinding {
                    line,
                    col: lt[p].col,
                    rule: Rule::D6,
                    message: format!(
                        "bare `{pat}` can leave a torn output if the process \
                         dies mid-write; route it through \
                         `wheels_campaign::checkpoint::atomic_write` \
                         (temp file + fsync + rename)"
                    ),
                });
                break;
            }
        }
    }

    // --- D7: panic surface in the fault-tolerant trees. ---------------
    if cfg.d7_applies(&file.rel) {
        run_d7(file, &mut findings);
    }

    findings.sort_by_key(|f| (f.line, f.rule as u8, f.col));
    findings
}

/// D7 panic-surface matchers: `.unwrap(` / `.expect(`, panic-family
/// macros, and panicking slice indexes — in non-test code only. The
/// graceful-degradation invariant (PRs 2/7) says an injected fault must
/// surface as a typed `UnitError` and a degraded unit in the integrity
/// report, never as an abort; any of these sites can turn a contained
/// fault into a process death.
fn run_d7(file: &AnalyzedFile, findings: &mut Vec<RawFinding>) {
    let tokens = &file.tokens;
    let model = &file.model;
    for (i, t) in tokens.iter().enumerate() {
        if model.is_test_line(t.line) {
            continue;
        }
        match t.kind {
            TokenKind::Ident if (t.text == "unwrap" || t.text == "expect") => {
                // Method position only: `.unwrap(` — a local named
                // `expect` or `Option::unwrap` passed as a fn pointer
                // has a different shape.
                if i > 0 && tokens[i - 1].is_punct('.') && tok_is(tokens, i + 1, "(") {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::D7,
                        message: format!(
                            "`.{}(..)` in the fault-tolerant tree aborts the unit on \
                             failure; propagate a typed error \
                             (`CampaignError`/`UnitError`) or justify with an allow",
                            t.text
                        ),
                    });
                }
            }
            TokenKind::Ident if PANIC_MACROS.contains(&t.text.as_str()) => {
                if tok_is(tokens, i + 1, "!") {
                    findings.push(RawFinding {
                        line: t.line,
                        col: t.col,
                        rule: Rule::D7,
                        message: format!(
                            "`{}!` aborts the unit instead of degrading; return a \
                             typed error so the fault surfaces in the integrity \
                             report, or justify with an allow",
                            t.text
                        ),
                    });
                }
            }
            TokenKind::Punct if t.is_punct('[') => {
                // A panicking index is `expr[..]` where expr ends in an
                // identifier, `)`, or `]`. Everything else — `#[attr]`,
                // `vec![..]`, `[u8; 4]` types, slice patterns — has a
                // different preceding token.
                let indexes_expr = i > 0
                    && match &tokens[i - 1] {
                        p if p.is_punct(')') || p.is_punct(']') => true,
                        p if p.kind == TokenKind::Ident => !is_keyword(&p.text),
                        _ => false,
                    };
                if !indexes_expr {
                    continue;
                }
                // `x[..]` (full range) reslices and cannot panic.
                if seq_at(tokens, i + 1, &[".", ".", "]"]) {
                    continue;
                }
                findings.push(RawFinding {
                    line: t.line,
                    col: t.col,
                    rule: Rule::D7,
                    message: "slice/array index panics when out of bounds; use \
                              `.get(..)` and propagate, or justify the invariant \
                              with an allow"
                        .into(),
                });
            }
            _ => {}
        }
    }
}

/// Map each 1-based line to its token index range.
fn tokens_by_line(tokens: &[Token], n_lines: usize) -> Vec<std::ops::Range<usize>> {
    let mut out = vec![0..0; n_lines.max(1)];
    let mut i = 0usize;
    while i < tokens.len() {
        let line = tokens[i].line;
        let start = i;
        while i < tokens.len() && tokens[i].line == line {
            i += 1;
        }
        if line >= 1 && line <= out.len() {
            out[line - 1] = start..i;
        }
    }
    out
}

/// First index in `lt` where the text sequence `pat` starts.
fn find_seq(lt: &[Token], pat: &[&str]) -> Option<usize> {
    if pat.is_empty() || lt.len() < pat.len() {
        return None;
    }
    (0..=lt.len() - pat.len()).find(|&i| pat.iter().enumerate().all(|(k, p)| lt[i + k].text == *p))
}

// ---------------------------------------------------------------------
// Cross-file rules: D8 hot-path allocation, D9 RNG-domain provenance.
// ---------------------------------------------------------------------

/// An RNG domain constant declaration site.
#[derive(Debug, Clone)]
struct RngDecl {
    file: usize,
    name: String,
    line: usize,
    col: usize,
}

/// A `derive_seed`/`stream` call that names a domain constant.
#[derive(Debug, Clone)]
struct RngUse {
    file: usize,
    name: String,
    line: usize,
    col: usize,
    /// Literal `&[..]` key-word count, when statically visible.
    arity: Option<usize>,
}

/// Run the cross-file rules over the whole analyzed set. Returns
/// `(file_index, finding)` pairs so the caller can apply that file's
/// suppressions.
pub fn finalize(files: &[AnalyzedFile], cfg: &LintConfig) -> Vec<(usize, RawFinding)> {
    let mut out = Vec::new();
    run_d8(files, cfg, &mut out);
    run_d9(files, cfg, &mut out);
    out
}

/// D8: functions registered in the hot-path registry may not allocate —
/// directly or through one level of calls. The span-batched hot loops
/// (`ShadowBank::catch_up`, `UeRadio::step`, `evaluate_layer_span`,
/// the CUBIC/BBR ack path, `FleetLoad::fold_span`, the export emitters)
/// earn their speedups by reusing scratch buffers; one stray `format!`
/// erases that silently. The transitive hop resolves callees by name:
/// same file first, then a unique match anywhere in the workspace;
/// ambiguous names are skipped (a lint must not guess).
fn run_d8(files: &[AnalyzedFile], cfg: &LintConfig, out: &mut Vec<(usize, RawFinding)>) {
    if cfg.hotpaths.is_empty() {
        return;
    }
    // Forbidden macro names (`vec!`) vs call paths (`Vec::new`).
    let forbid_macros: Vec<&str> = cfg
        .hotpath_forbid
        .iter()
        .filter_map(|f| f.strip_suffix('!'))
        .collect();
    let forbid_call = |name: &str, qual: &str| -> Option<String> {
        let qualified = if qual.is_empty() {
            None
        } else {
            Some(format!("{qual}::{name}"))
        };
        cfg.hotpath_forbid
            .iter()
            .find(|f| **f == name || Some(**f) == qualified.as_deref())
            .map(|f| f.to_string())
    };

    // Global callee index: bare name -> (file, fn) for unambiguous
    // cross-file resolution.
    let mut by_name: Vec<(&str, usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (gi, g) in f.model.functions.iter().enumerate() {
            by_name.push((g.name.as_str(), fi, gi));
        }
    }
    let resolve = |home: usize, name: &str, method: bool| -> Option<(usize, usize)> {
        let mut same_file = by_name
            .iter()
            .filter(|(n, fi, _)| *fi == home && *n == name);
        if let Some(&(_, fi, gi)) = same_file.next() {
            return Some((fi, gi));
        }
        if method {
            // `receiver.name(..)`: the receiver's type is unknown, so a
            // same-name fn in another file is likely a different type's
            // method — never bind method calls across files.
            return None;
        }
        let mut global = by_name.iter().filter(|(n, _, _)| *n == name);
        match (global.next(), global.next()) {
            (Some(&(_, fi, gi)), None) => Some((fi, gi)),
            _ => None, // zero or ambiguous: skip, never guess
        }
    };

    for (fi, f) in files.iter().enumerate() {
        for hot in f.model.functions.iter() {
            if hot.is_test || !cfg.is_hotpath(&hot.qual, &hot.name) {
                continue;
            }
            // Direct: forbidden calls in the hot body.
            for call in &hot.calls {
                if let Some(what) = forbid_call(&call.name, &call.qual) {
                    out.push((
                        fi,
                        RawFinding {
                            line: call.line,
                            col: 1,
                            rule: Rule::D8,
                            message: format!(
                                "hot path `{}` calls `{what}` — allocation in the \
                                 per-span loop; hoist it into a reused scratch \
                                 buffer or justify with an allow",
                                hot.qual
                            ),
                        },
                    ));
                }
            }
            // Direct: forbidden macros in the hot body.
            let toks = &f.tokens;
            let lo = hot.body.start.min(toks.len());
            let hi = hot.body.end.min(toks.len());
            for i in lo..hi {
                let t = &toks[i];
                if t.kind == TokenKind::Ident
                    && forbid_macros.contains(&t.text.as_str())
                    && tok_is(toks, i + 1, "!")
                {
                    out.push((
                        fi,
                        RawFinding {
                            line: t.line,
                            col: t.col,
                            rule: Rule::D8,
                            message: format!(
                                "hot path `{}` invokes `{}!` — allocation in the \
                                 per-span loop; hoist it into a reused scratch \
                                 buffer or justify with an allow",
                                hot.qual, t.text
                            ),
                        },
                    ));
                }
            }
            // One transitive level: callees that allocate.
            for call in &hot.calls {
                let Some((cfi, cgi)) = resolve(fi, &call.name, call.method) else {
                    continue;
                };
                let callee = &files[cfi].model.functions[cgi];
                if callee.is_test {
                    continue;
                }
                let mut bad: Option<String> = None;
                for inner in &callee.calls {
                    if let Some(what) = forbid_call(&inner.name, &inner.qual) {
                        bad = Some(what);
                        break;
                    }
                }
                if bad.is_none() {
                    let ctoks = &files[cfi].tokens;
                    let clo = callee.body.start.min(ctoks.len());
                    let chi = callee.body.end.min(ctoks.len());
                    for i in clo..chi {
                        let t = &ctoks[i];
                        if t.kind == TokenKind::Ident
                            && forbid_macros.contains(&t.text.as_str())
                            && tok_is(ctoks, i + 1, "!")
                        {
                            bad = Some(format!("{}!", t.text));
                            break;
                        }
                    }
                }
                if let Some(what) = bad {
                    out.push((
                        fi,
                        RawFinding {
                            line: call.line,
                            col: 1,
                            rule: Rule::D8,
                            message: format!(
                                "hot path `{}` calls `{}`, which calls `{what}` \
                                 (one level deep) — allocation on the hot path; \
                                 restructure the callee or justify with an allow",
                                hot.qual, call.name
                            ),
                        },
                    ));
                }
            }
        }
    }
}

/// D9: RNG-domain provenance. Every `derive_seed(seed, DOMAIN_*, ..)` or
/// `stream(seed, DOMAIN_*, ..)` site must name a domain constant that is
/// declared exactly once, in `netsim::rng` — and when the registry pins
/// a key arity for the domain, every literal `&[..]` key slice must have
/// exactly that many words. Two sites absorbing different word counts
/// under one domain is how stream collisions (and silently correlated
/// units) happen; that is a statistics bug the paper's tables would
/// inherit invisibly.
fn run_d9(files: &[AnalyzedFile], cfg: &LintConfig, out: &mut Vec<(usize, RawFinding)>) {
    let prefix = cfg.rng_domain_prefix;
    if prefix.is_empty() {
        return;
    }
    let mut decls: Vec<RngDecl> = Vec::new();
    let mut uses: Vec<RngUse> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || f.model.is_test_line(t.line) {
                continue;
            }
            // Declaration: `const DOMAIN_X: ...`.
            if t.text == "const" {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokenKind::Ident && n.text.starts_with(prefix) {
                        decls.push(RngDecl {
                            file: fi,
                            name: n.text.clone(),
                            line: n.line,
                            col: n.col,
                        });
                    }
                }
                continue;
            }
            // Use: `derive_seed(..., DOMAIN_X, ...)` / `stream(...)`.
            if (t.text == "derive_seed" || t.text == "stream")
                && tok_is(toks, i + 1, "(")
                && !(i > 0 && toks[i - 1].is_ident("fn"))
            {
                if let Some(close) = matching_paren(toks, i + 1) {
                    if let Some(u) = domain_use(toks, i + 1, close, prefix, fi) {
                        uses.push(u);
                    }
                }
            }
        }
    }

    let module = cfg.rng_module;
    let in_module = |fi: usize| files[fi].rel.ends_with(module);
    let have_module = files.iter().any(|f| f.rel.ends_with(module));

    // Declared exactly once, in the declaring module.
    let mut seen: Vec<&RngDecl> = Vec::new();
    for d in &decls {
        if !in_module(d.file) {
            out.push((
                d.file,
                RawFinding {
                    line: d.line,
                    col: d.col,
                    rule: Rule::D9,
                    message: format!(
                        "RNG domain `{}` declared outside `{module}`; all domain \
                         constants live in one module so stream keys cannot collide",
                        d.name
                    ),
                },
            ));
        }
        if let Some(first) = seen.iter().find(|p| p.name == d.name) {
            out.push((
                d.file,
                RawFinding {
                    line: d.line,
                    col: d.col,
                    rule: Rule::D9,
                    message: format!(
                        "RNG domain `{}` redeclared (first declared at {}:{})",
                        d.name, files[first.file].rel, first.line
                    ),
                },
            ));
        } else {
            seen.push(d);
        }
    }

    // Every use names a declared domain (only checkable when the
    // declaring module is part of the analyzed set).
    if have_module {
        for u in &uses {
            if !decls.iter().any(|d| d.name == u.name) {
                out.push((
                    u.file,
                    RawFinding {
                        line: u.line,
                        col: u.col,
                        rule: Rule::D9,
                        message: format!(
                            "RNG domain `{}` is not declared in `{module}`; \
                             derive streams only from registered domains",
                            u.name
                        ),
                    },
                ));
            }
        }
    }

    // Key-arity consistency: the pinned registry arity wins; without a
    // pin, the first literal site anchors and later sites must agree.
    let mut domains: Vec<&str> = uses.iter().map(|u| u.name.as_str()).collect();
    domains.sort_unstable();
    domains.dedup();
    for name in domains {
        let sites: Vec<&RngUse> = uses.iter().filter(|u| u.name == name).collect();
        let expected = cfg
            .pinned_arity(name)
            .or_else(|| sites.iter().find_map(|s| s.arity));
        let Some(expected) = expected else { continue };
        for s in &sites {
            if let Some(n) = s.arity {
                if n != expected {
                    out.push((
                        s.file,
                        RawFinding {
                            line: s.line,
                            col: s.col,
                            rule: Rule::D9,
                            message: format!(
                                "`{name}` derived with {n} key word(s) here but its \
                                 registered arity is {expected}; mismatched key \
                                 shapes collide derived streams"
                            ),
                        },
                    ));
                }
            }
        }
    }
}

/// Extract the domain-constant use from a `derive_seed`/`stream` call
/// spanning tokens `(open..=close)`: the first `prefix`-named ident at
/// argument depth, plus the literal `&[..]` key-word count that follows
/// it (None when the slice is not a literal — `&words` passes through).
fn domain_use(
    tokens: &[Token],
    open: usize,
    close: usize,
    prefix: &str,
    file: usize,
) -> Option<RngUse> {
    let mut domain: Option<usize> = None;
    for j in open + 1..close {
        let t = &tokens[j];
        if t.kind == TokenKind::Ident && t.text.starts_with(prefix) {
            domain = Some(j);
            break;
        }
    }
    let d = domain?;
    let t = &tokens[d];
    // Literal key slice: `, &[ a, b, ... ]` (possibly `[..]` empty).
    let mut arity = None;
    let mut j = d + 1;
    if tok_is(tokens, j, ",") {
        j += 1;
        if tok_is(tokens, j, "&") {
            j += 1;
        }
        if tok_is(tokens, j, "[") {
            let mut depth = 0i32;
            let mut elems = 0usize;
            let mut any = false;
            for t2 in &tokens[j..=close.min(tokens.len() - 1)] {
                if t2.is_punct('[') || t2.is_punct('(') {
                    depth += 1;
                } else if t2.is_punct(']') || t2.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if depth == 1 {
                        any = true;
                        if t2.is_punct(',') {
                            elems += 1;
                        }
                    }
                }
            }
            arity = Some(if any { elems + 1 } else { 0 });
        }
    }
    Some(RngUse {
        file,
        name: t.text.clone(),
        line: t.line,
        col: t.col,
        arity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(rel: &str, src: &str) -> Vec<RawFinding> {
        let cfg = LintConfig::workspace();
        let file = analyze(rel, src, false);
        run(&file, &cfg)
    }

    fn lint(src: &str) -> Vec<RawFinding> {
        lint_at("x.rs", src)
    }

    #[test]
    fn d1_fires_inside_sort_comparator() {
        let f = lint("v.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D1);
    }

    #[test]
    fn d1_fires_across_lines() {
        let f = lint("sites.sort_by(|a, b| {\n    a.od\n        .partial_cmp(&b.od)\n        .expect(\"finite\")\n});");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn d1_not_fooled_by_closed_earlier_sort() {
        // The sort call is already closed; this partial_cmp is a plain
        // D5 chain, not a comparator.
        let f = lint("v.sort_by_key(|x| x.0);\nlet c = a.partial_cmp(&b).unwrap();");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D5);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn d1_has_no_distance_limit() {
        // The old line-lexer used a 240-char window; the token engine
        // tracks the open sink call directly, at any distance.
        let filler = "    let _pad = x + 1;\n".repeat(30);
        let src = format!("v.sort_by(|a, b| {{\n{filler}    a.partial_cmp(b).unwrap()\n}});");
        let f = lint(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D1);
    }

    #[test]
    fn d5_fires_on_bare_unwrap_chain() {
        let f = lint("if a.partial_cmp(&b).unwrap() == Ordering::Less {}");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D5);
    }

    #[test]
    fn trait_impl_definition_is_exempt() {
        let f = lint("fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n    Some(self.cmp(other))\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unwrap_or_is_nan_safe() {
        let f = lint("let o = a.partial_cmp(&b).unwrap_or(Ordering::Equal);");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn safe_partial_cmp_handling_is_clean() {
        let f = lint("match a.partial_cmp(&b) { Some(o) => o, None => Ordering::Equal }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d2_fires_on_import_and_qualified_path() {
        let f = lint("use std::collections::HashMap;\nlet s = std::collections::HashSet::new();");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D2));
    }

    #[test]
    fn d2_ignores_btree_imports() {
        let f = lint("use std::collections::{BTreeMap, BTreeSet, VecDeque};");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d3_fires_on_clock_entropy_env() {
        let f = lint("let t = Instant::now();\nlet s = SystemTime::now();\nlet r = thread_rng();\nlet v = std::env::var(\"X\");");
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D3));
    }

    #[test]
    fn d3_ignores_env_args_and_duration() {
        let f = lint("let a: Vec<String> = std::env::args().collect();\nuse std::time::Duration;");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d4_fires_on_bare_seeding() {
        let f = lint("let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D4);
    }

    #[test]
    fn d4_token_is_word_bounded() {
        let f = lint("let x = my_seed_from_u64_table[0];");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d6_fires_on_bare_write_and_create() {
        let f =
            lint("std::fs::write(&path, json).expect(\"write\");\nlet f = File::create(&tmp)?;");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D6));
    }

    #[test]
    fn d6_token_boundaries_hold() {
        // Different identifiers and different functions must not match.
        let f = lint("let a = dfs::write();\nlet b = fs::write_at();\nlet c = MyFile::create();");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d6_ignores_reads_and_dir_ops() {
        let f = lint(
            "let s = fs::read_to_string(p)?;\nfs::create_dir_all(dir)?;\nlet f = File::open(p)?;",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d6_is_test_exempt() {
        let cfg = LintConfig::workspace();
        let file = analyze("x.rs", "fs::write(&golden, bytes).unwrap();", true);
        let f = run(&file, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let f = lint("// Instant::now and HashMap discussion\nlet s = \"thread_rng seed_from_u64 std::collections::HashMap\";");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_lines_are_exempt_from_d2_d3_d4_but_not_d1() {
        let cfg = LintConfig::workspace();
        let src = "use std::collections::HashMap;\nlet t = Instant::now();\nv.sort_by(|a, b| a.partial_cmp(b).unwrap());";
        let file = analyze("x.rs", src, true);
        let f = run(&file, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D1);
    }

    // --- D7 ----------------------------------------------------------

    fn lint_d7(src: &str) -> Vec<RawFinding> {
        lint_at("crates/campaign/src/x.rs", src)
    }

    #[test]
    fn d7_fires_on_unwrap_expect_in_scope() {
        let f = lint_d7("let a = x.unwrap();\nlet b = y.expect(\"msg\");");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D7));
    }

    #[test]
    fn d7_is_scoped_to_configured_trees() {
        let f = lint_at("crates/radio/src/x.rs", "let a = x.unwrap();");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d7_fires_on_panic_macros() {
        let f = lint_d7("panic!(\"boom\");\nunreachable!();\ntodo!();");
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D7));
    }

    #[test]
    fn d7_fires_on_slice_index() {
        let f = lint_d7("let v = xs[i];\nlet w = grid[r][c];");
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D7));
    }

    #[test]
    fn d7_skips_attrs_types_patterns_and_full_range() {
        let src = "#[derive(Clone)]\nstruct S { a: [u8; 4] }\nfn f(xs: &[u64]) -> &[u64] { &xs[..] }\nlet v = vec![1, 2];\nlet [a, b] = pair;";
        let f = lint_d7(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d7_unwrap_or_variants_are_fine() {
        let f = lint_d7("let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 1);\nlet c = z.unwrap_or_default();");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d7_is_test_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let a = x.unwrap(); panic!(\"in test\"); }\n}\n";
        let f = lint_d7(src);
        assert!(f.is_empty(), "{f:?}");
    }

    // --- D8 ----------------------------------------------------------

    fn d8_cfg() -> LintConfig {
        LintConfig {
            hotpaths: &["Hot::advance", "hot_free"],
            ..LintConfig::workspace()
        }
    }

    fn finalize_one(rel: &str, src: &str, cfg: &LintConfig) -> Vec<RawFinding> {
        let files = vec![analyze(rel, src, false)];
        finalize(&files, cfg).into_iter().map(|(_, f)| f).collect()
    }

    #[test]
    fn d8_fires_on_direct_allocation() {
        let src = "impl Hot {\n    fn advance(&mut self) {\n        let v = Vec::new();\n        let s = format!(\"x\");\n        let t = x.to_string();\n        let w = vec![0u8; 4];\n    }\n}\n";
        let f = finalize_one("x.rs", src, &d8_cfg());
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::D8));
    }

    #[test]
    fn d8_fires_one_level_transitive() {
        let src = "fn hot_free(buf: &mut [u8]) {\n    helper(buf);\n}\nfn helper(buf: &mut [u8]) {\n    let s = format!(\"{}\", buf.len());\n}\n";
        let f = finalize_one("x.rs", src, &d8_cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D8);
        assert_eq!(f[0].line, 2, "attributed to the call site in the hot fn");
        assert!(f[0].message.contains("one level deep"));
    }

    #[test]
    fn d8_ignores_cold_functions_and_clean_hot_paths() {
        let src = "fn cold() { let v = Vec::new(); }\nimpl Hot {\n    fn advance(&mut self) {\n        self.scratch.clear();\n        self.scratch.push(1);\n    }\n}\n";
        let f = finalize_one("x.rs", src, &d8_cfg());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d8_turbofish_collect_is_caught() {
        let src = "fn hot_free(xs: &[u64]) {\n    let v = xs.iter().collect::<Vec<_>>();\n}\n";
        let f = finalize_one("x.rs", src, &d8_cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("collect"));
    }

    #[test]
    fn d8_ambiguous_cross_file_callee_is_skipped() {
        let cfg = d8_cfg();
        let files = vec![
            analyze("a.rs", "fn hot_free() { shared(); }\n", false),
            analyze("b.rs", "fn shared() { let v = Vec::new(); }\n", false),
            analyze("c.rs", "fn shared() { }\n", false),
        ];
        let f = finalize(&files, &cfg);
        assert!(
            f.is_empty(),
            "ambiguous `shared` must not be guessed: {f:?}"
        );
    }

    #[test]
    fn d8_method_calls_never_resolve_across_files() {
        // `w.finish()` is a method on an unknown receiver type; a free
        // `fn finish` in another file must not be bound to it, even
        // when it is the only `finish` in the analyzed set.
        let cfg = d8_cfg();
        let files = vec![
            analyze("a.rs", "fn hot_free() { w.finish(); }\n", false),
            analyze("b.rs", "fn finish() { let s = format!(\"x\"); }\n", false),
        ];
        let f = finalize(&files, &cfg);
        assert!(f.is_empty(), "method call bound across files: {f:?}");
    }

    #[test]
    fn d8_method_calls_still_resolve_same_file() {
        // Same-file resolution keeps working for `self.helper()` calls:
        // the impl is usually in the same module as its helpers.
        let cfg = d8_cfg();
        let files = vec![analyze(
            "a.rs",
            "fn hot_free() { s.helper(); }\nfn helper() { let v = Vec::new(); }\n",
            false,
        )];
        let f = finalize(&files, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn d8_unique_cross_file_callee_is_resolved() {
        let cfg = d8_cfg();
        let files = vec![
            analyze("a.rs", "fn hot_free() {\n    uniquely_named();\n}\n", false),
            analyze(
                "b.rs",
                "fn uniquely_named() { let s = x.to_string(); }\n",
                false,
            ),
        ];
        let f = finalize(&files, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 0, "finding lands in the hot fn's file");
        assert_eq!(f[0].1.line, 2);
    }

    // --- D9 ----------------------------------------------------------

    fn d9_cfg() -> LintConfig {
        LintConfig {
            rng_module: "src/rng.rs",
            rng_arity: &[("DOMAIN_PHONE", 2)],
            ..LintConfig::workspace()
        }
    }

    #[test]
    fn d9_decl_outside_module_fires() {
        let f = finalize_one(
            "src/other.rs",
            "pub const DOMAIN_ROGUE: u64 = 7;\n",
            &d9_cfg(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::D9);
        assert!(f[0].message.contains("outside"));
    }

    #[test]
    fn d9_duplicate_decl_fires() {
        let src = "pub const DOMAIN_A: u64 = 1;\npub const DOMAIN_A: u64 = 2;\n";
        let f = finalize_one("src/rng.rs", src, &d9_cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("redeclared"));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn d9_undeclared_use_fires_when_module_present() {
        let cfg = d9_cfg();
        let files = vec![
            analyze("src/rng.rs", "pub const DOMAIN_A: u64 = 1;\n", false),
            analyze(
                "src/user.rs",
                "let s = derive_seed(seed, DOMAIN_GHOST, &[1]);\n",
                false,
            ),
        ];
        let f = finalize(&files, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, 1);
        assert!(f[0].1.message.contains("not declared"));
    }

    #[test]
    fn d9_undeclared_check_needs_the_module() {
        // A lone file using a domain must not fire: the declaring module
        // simply is not part of this (single-file) analysis.
        let f = finalize_one(
            "src/user.rs",
            "let s = derive_seed(seed, DOMAIN_PHONE, &[a, b]);\n",
            &d9_cfg(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d9_pinned_arity_mismatch_fires() {
        let f = finalize_one(
            "src/user.rs",
            "let s = derive_seed(seed, DOMAIN_PHONE, &[a]);\n",
            &d9_cfg(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("registered arity is 2"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn d9_unpinned_arity_anchors_on_first_site() {
        let src = "fn a() { derive_seed(s, DOMAIN_FREE, &[x]); }\nfn b() { derive_seed(s, DOMAIN_FREE, &[x, y]); }\n";
        let f = finalize_one("src/user.rs", src, &d9_cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn d9_non_literal_slice_is_unknown_arity() {
        let f = finalize_one(
            "src/user.rs",
            "let s = derive_seed(seed, DOMAIN_PHONE, &words);\n",
            &d9_cfg(),
        );
        assert!(
            f.is_empty(),
            "non-literal key slices are not checkable: {f:?}"
        );
    }

    #[test]
    fn d9_stream_sites_are_checked_and_defs_are_not() {
        let cfg = d9_cfg();
        let src = "pub const DOMAIN_A: u64 = 1;\npub fn stream(seed: u64, d: u64, w: &[u64]) -> u64 { 0 }\nfn use_site() { stream(s, DOMAIN_A, &[1, 2, 3]); }\n";
        let f = finalize_one("src/rng.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d9_test_code_is_exempt() {
        let cfg = d9_cfg();
        let src = "pub const DOMAIN_A: u64 = 1;\n#[cfg(test)]\nmod tests {\n    fn t() {\n        derive_seed(s, DOMAIN_A, &[1]);\n        derive_seed(s, DOMAIN_A, &[1, 2]);\n    }\n}\n";
        let f = finalize_one("src/rng.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }
}
