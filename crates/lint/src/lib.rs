//! `wheels-lint` — static analysis for the wheels workspace.
//!
//! Every table and figure this repo reproduces rests on two invariants:
//! output is a pure function of `(seed, scenario, scale)`, byte-identical
//! at any `--jobs`/`--fig-jobs` count and under injected faults; and an
//! injected fault degrades a unit instead of aborting the campaign. The
//! equivalence gates in `ci.sh` prove both *dynamically*; this crate
//! enforces them *at the source level* with a token-level analyzer (a
//! spanned tokenizer in [`lexer`], a lightweight item parser in
//! [`parser`]) so a `HashMap` iteration, a stray `unwrap` in the
//! executor, or an allocation in a hot span loop is caught by review
//! tooling instead of by a probabilistic CI failure. Rules:
//!
//! | rule | guards against |
//! |------|----------------|
//! | D1   | float `partial_cmp` as a sort/min/max/binary-search key     |
//! | D2   | `std::collections::HashMap`/`HashSet` in non-test code      |
//! | D3   | ambient nondeterminism: wall clocks, OS entropy, env vars   |
//! | D4   | RNG construction outside `netsim::rng` stream derivation    |
//! | D5   | `partial_cmp(..).unwrap()/.expect(..)` NaN panics           |
//! | D6   | bare `fs::write`/`File::create` (torn-output hazard)        |
//! | D7   | panic surface (`unwrap`/`expect`/`panic!`/slice index) in   |
//! |      | the fault-tolerant trees (executor, checkpoint, export,     |
//! |      | apps)                                                       |
//! | D8   | allocation in registered hot paths, one call level deep     |
//! | D9   | RNG-domain provenance: `derive_seed`/`stream` sites must    |
//! |      | use domains declared once in `netsim::rng`, at a consistent |
//! |      | key arity                                                   |
//!
//! The D7 scope, the D8 hot-path registry, the D9 domain registry and
//! the built-in allowlist all live in [`policy`]; the linter reads no
//! file but the sources it lints.
//!
//! Suppression is an adjacent `// lint:allow(Dn): <reason>` comment —
//! same line, or a comment-only line directly above the offending code.
//! The reason is mandatory: an allow without one does not suppress.
//! Every unsuppressed finding fails the run.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod parser;
pub mod policy;
pub mod rules;

pub use policy::{LintConfig, BUILTIN_ALLOW, SWEEP};

/// The rules. `D1` < `D2` < ... orders report output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Float `partial_cmp` keying an ordering sink.
    D1,
    /// Hash-ordered std collections in non-test code.
    D2,
    /// Ambient nondeterminism (clocks, entropy, environment).
    D3,
    /// RNG construction outside the derivation layer.
    D4,
    /// `partial_cmp` unwrap/expect (NaN panic).
    D5,
    /// Bare `fs::write`/`File::create` in non-test code: a crash
    /// mid-write leaves a torn file under its final name.
    D6,
    /// Panic surface in the fault-tolerant trees: `unwrap`/`expect`,
    /// panic-family macros, and slice indexes that abort a unit instead
    /// of degrading it.
    D7,
    /// Allocation inside a registered hot-path function (directly or one
    /// call level deep).
    D8,
    /// RNG-domain provenance: undeclared/duplicated domain constants or
    /// inconsistent key arity at `derive_seed`/`stream` sites.
    D9,
}

impl Rule {
    /// All rules, report order.
    pub const ALL: [Rule; 9] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::D5,
        Rule::D6,
        Rule::D7,
        Rule::D8,
        Rule::D9,
    ];

    /// The rule's identifier, as written in `lint:allow(..)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::D8 => "D8",
            Rule::D9 => "D9",
        }
    }

    /// Parse `"D2"` → [`Rule::D2`].
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint finding, after suppression resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in (as given to the linter).
    pub file: PathBuf,
    /// Workspace-relative, `/`-separated path (allowlist matching and
    /// report order).
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the anchoring token.
    pub col: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
    /// Qualified name of the enclosing function, empty at item level.
    pub context: String,
    /// `Some(reason)` when an allow directive (or the built-in module
    /// allowlist) suppresses this finding.
    pub suppressed: Option<String>,
}

impl Finding {
    /// Whether this finding fails the run.
    pub fn is_unsuppressed(&self) -> bool {
        self.suppressed.is_none()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} — {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Directory names the workspace walker never descends into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", "node_modules"];

/// An allow directive parsed from a comment.
#[derive(Debug, Clone)]
struct Allow {
    rule: Rule,
    reason: String,
}

/// Parse every well-formed `lint:allow(Dn): reason` in a comment. A
/// directive without a (nonempty) reason is ignored — suppressions must
/// say why.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule_id = rest[..close].trim();
        let after = &rest[close + 1..];
        if let Some(rule) = Rule::parse(rule_id) {
            if let Some(colon) = after.strip_prefix(':') {
                // The reason runs to the next directive (if any) or EOL.
                let end = colon.find("lint:allow(").unwrap_or(colon.len());
                let reason = colon[..end].trim().trim_end_matches('.').to_string();
                if !reason.is_empty() {
                    out.push(Allow {
                        rule,
                        reason: reason.to_string(),
                    });
                }
            }
        }
        rest = after;
    }
    out
}

/// `true` when a path component marks the file as test-only source
/// (integration tests, benches). `src/foo_tests.rs` is *not* test-only —
/// only directory names count.
pub fn path_is_test(path: &Path) -> bool {
    path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("proptests")
        )
    })
}

/// Normalize a path for matching and reporting: workspace-relative
/// when `root` strips cleanly, always `/`-separated.
fn rel_path(path: &Path, root: Option<&Path>) -> String {
    let p = root.and_then(|r| path.strip_prefix(r).ok()).unwrap_or(path);
    p.to_string_lossy().replace('\\', "/")
}

/// One file queued for analysis.
struct FileEntry {
    path: PathBuf,
    rel: String,
    src: String,
}

/// The full engine: lex/parse every file, run D1–D7 per file, D8/D9
/// across the set, and resolve suppressions.
fn lint_set(entries: Vec<FileEntry>, cfg: &LintConfig) -> Vec<Finding> {
    // Analyze every file.
    let analyzed: Vec<rules::AnalyzedFile> = entries
        .iter()
        .map(|e| rules::analyze(&e.rel, &e.src, path_is_test(&e.path)))
        .collect();

    // Per-file raw findings, then the cross-file rules.
    let mut raw: Vec<Vec<rules::RawFinding>> =
        analyzed.iter().map(|f| rules::run(f, cfg)).collect();
    for (idx, finding) in rules::finalize(&analyzed, cfg) {
        raw[idx].push(finding);
    }

    let mut out = Vec::new();
    for ((entry, file), mut raws) in entries.iter().zip(&analyzed).zip(raw.drain(..)) {
        raws.sort_by_key(|f| (f.line, f.rule as u8, f.col));

        // Attach allow directives: same line when it carries code,
        // otherwise the next code-bearing line (comment-above style).
        let n = file.lines.len();
        let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); n.max(1)];
        for (i, line) in file.lines.iter().enumerate() {
            let parsed = parse_allows(&line.comment);
            if parsed.is_empty() {
                continue;
            }
            let target = if !file.lines[i].code.trim().is_empty() {
                Some(i)
            } else {
                (i + 1..n).find(|&j| !file.lines[j].code.trim().is_empty())
            };
            if let Some(t) = target {
                allows[t].extend(parsed);
            }
        }

        let builtin: Vec<(Rule, &str)> = BUILTIN_ALLOW
            .iter()
            .filter(|(suffix, _, _)| entry.rel.ends_with(suffix))
            .map(|&(_, rule, why)| (rule, why))
            .collect();

        for f in raws {
            let idx = f.line.saturating_sub(1);
            let context = file
                .model
                .enclosing_fn(f.line)
                .map(|func| func.qual.clone())
                .unwrap_or_default();
            let suppressed = allows
                .get(idx)
                .and_then(|a| a.iter().find(|a| a.rule == f.rule))
                .map(|a| a.reason.clone())
                .or_else(|| {
                    builtin
                        .iter()
                        .find(|(r, _)| *r == f.rule)
                        .map(|(_, why)| format!("builtin allowlist: {why}"))
                });
            out.push(Finding {
                file: entry.path.clone(),
                rel: entry.rel.clone(),
                line: f.line,
                col: f.col,
                rule: f.rule,
                context,
                message: f.message,
                suppressed,
            });
        }
    }
    out.sort_by(|a, b| (&a.rel, a.line, a.rule, a.col).cmp(&(&b.rel, b.line, b.rule, b.col)));
    out
}

/// Lint one file's source text under `cfg`. `path` decides test-only
/// status and the built-in allowlist; it is stored verbatim in the
/// findings. (Cross-file D9 checks that need the declaring module are
/// skipped naturally — it is not in the set.)
pub(crate) fn lint_source_with(path: &Path, src: &str, cfg: &LintConfig) -> Vec<Finding> {
    lint_set(
        vec![FileEntry {
            path: path.to_path_buf(),
            rel: rel_path(path, None),
            src: src.to_string(),
        }],
        cfg,
    )
}

/// Recursively collect `.rs` files under `root` in sorted order,
/// skipping build output, vendored deps, and lint fixtures.
pub fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_rs_files(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Lint every `.rs` file under `paths` as one cross-file analysis set.
/// `root` (when given) relativizes paths for policy matching, so a
/// sweep from the repo root and one over absolute paths agree.
/// Returns `(findings, files_scanned)`.
pub fn lint_paths(
    paths: &[PathBuf],
    root: Option<&Path>,
    cfg: &LintConfig,
) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    for p in paths {
        collect_rs_files(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    let mut entries = Vec::with_capacity(files.len());
    for f in &files {
        entries.push(FileEntry {
            path: f.clone(),
            rel: rel_path(f, root),
            src: std::fs::read_to_string(f)?,
        });
    }
    let n = entries.len();
    Ok((lint_set(entries, cfg), n))
}

/// JSON-escape a string (no external deps on purpose).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"suppressed\": {}, \"context\": \"{}\"}}",
        json_escape(&f.file.to_string_lossy().replace('\\', "/")),
        f.line,
        f.col,
        f.rule,
        json_escape(&f.message),
        f.suppressed
            .as_ref()
            .map_or("null".to_string(), |r| format!("\"{}\"", json_escape(r))),
        json_escape(&f.context),
    )
}

/// Render the run report (`LINT_report.json`): tool metadata, scan
/// stats, a summary, and every finding — suppressed ones with their
/// reasons.
pub fn render_report(findings: &[Finding], files_scanned: usize, wall_ms: u128) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"wheels-lint\",\n  \"schema\": \"wheels-lint-report/3\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"wall_ms\": {wall_ms},\n"));
    let failing = findings.iter().filter(|f| f.is_unsuppressed()).count();
    out.push_str(&format!(
        "  \"summary\": {{\"total\": {}, \"suppressed\": {}, \"failing\": {failing}}},\n",
        findings.len(),
        findings.len() - failing,
    ));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&finding_json(f));
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Expected outcome of linting one fixture file, derived from its name:
/// `bad/d2_whatever.rs` must produce ≥1 unsuppressed finding, all D2;
/// anything under `allowed/` must produce none.
#[derive(Debug)]
pub struct FixtureResult {
    /// The fixture file.
    pub file: PathBuf,
    /// What went wrong; `None` means the fixture behaved as expected.
    pub error: Option<String>,
}

/// Lint one fixture file under the workspace policy, with D7 scoped to
/// the corpus's own `d7_*` pair so the other bad fixtures (which use
/// `.unwrap()` freely to stay focused on their own rule) pick up no
/// stray D7 findings. The D8 and D9 fixtures use names from the
/// workspace hot-path and RNG-domain registries.
pub fn lint_fixture(path: &Path) -> std::io::Result<Vec<Finding>> {
    let cfg = LintConfig {
        d7_scope: &["fixtures/bad/d7", "fixtures/allowed/d7"],
        ..LintConfig::workspace()
    };
    Ok(lint_source_with(
        path,
        &std::fs::read_to_string(path)?,
        &cfg,
    ))
}

/// Run the self-check over a fixture corpus directory containing `bad/`
/// and `allowed/` subdirectories, each file linted by [`lint_fixture`].
pub fn check_fixtures(dir: &Path) -> std::io::Result<Vec<FixtureResult>> {
    let mut results = Vec::new();
    for (sub, want_findings) in [("bad", true), ("allowed", false)] {
        let mut files = Vec::new();
        collect_rs_files_unfiltered(&dir.join(sub), &mut files)?;
        files.sort();
        for f in files {
            let findings = lint_fixture(&f)?;
            let unsuppressed: Vec<&Finding> =
                findings.iter().filter(|f| f.is_unsuppressed()).collect();
            let error = if want_findings {
                let stem = f.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                let expect = stem
                    .split('_')
                    .next()
                    .and_then(|p| Rule::parse(&p.to_uppercase()));
                match expect {
                    None => Some(format!("bad fixture `{stem}` has no dN_ rule prefix")),
                    Some(rule) => {
                        if unsuppressed.is_empty() {
                            Some(format!("expected {rule} to fire, got no findings"))
                        } else if let Some(wrong) = unsuppressed.iter().find(|f| f.rule != rule) {
                            Some(format!(
                                "expected only {rule}, got {} at line {}",
                                wrong.rule, wrong.line
                            ))
                        } else {
                            None
                        }
                    }
                }
            } else if let Some(first) = unsuppressed.first() {
                Some(format!(
                    "expected clean, got {} at line {}: {}",
                    first.rule, first.line, first.message
                ))
            } else {
                None
            };
            results.push(FixtureResult { file: f, error });
        }
    }
    Ok(results)
}

/// Like [`collect_rs_files`] but without the `fixtures` skip (used to
/// read the fixture corpus itself).
fn collect_rs_files_unfiltered(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(root)? {
        let p = entry?.path();
        if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`lint_source_with`] under the workspace policy.
    fn lint_source(path: &Path, src: &str) -> Vec<Finding> {
        lint_source_with(path, src, &LintConfig::workspace())
    }

    #[test]
    fn same_line_allow_suppresses() {
        let f = lint_source(
            Path::new("x.rs"),
            "use std::collections::HashMap; // lint:allow(D2): lookup only\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].suppressed.as_deref(), Some("lookup only"));
    }

    #[test]
    fn comment_above_allow_suppresses() {
        let src = "// lint:allow(D4): seed derived upstream\nlet r = SmallRng::seed_from_u64(s);\n";
        let f = lint_source(Path::new("x.rs"), src);
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.is_some());
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let f = lint_source(
            Path::new("x.rs"),
            "let t = Instant::now(); // lint:allow(D3)\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].is_unsuppressed(), "reason-less allow must not count");
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let f = lint_source(
            Path::new("x.rs"),
            "let t = Instant::now(); // lint:allow(D2): wrong rule\n",
        );
        assert!(f[0].is_unsuppressed());
    }

    #[test]
    fn d7_allow_suppresses_with_reason() {
        let f = lint_source(
            Path::new("crates/campaign/src/x.rs"),
            "let v = slots[i]; // lint:allow(D7): i < slots.len() checked above\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D7);
        assert!(f[0].suppressed.is_some());
    }

    #[test]
    fn builtin_allowlist_suppresses_by_suffix() {
        let f = lint_source(
            Path::new("crates/bench/src/bin/repro.rs"),
            "let t0 = Instant::now();\n",
        );
        // repro.rs is in the D7 scope too, but Instant::now is only D3.
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.as_deref().unwrap().starts_with("builtin"));
    }

    #[test]
    fn builtin_allowlist_is_per_rule() {
        // repro.rs is allowlisted for D3, not for D2.
        let f = lint_source(
            Path::new("crates/bench/src/bin/repro.rs"),
            "use std::collections::HashMap;\n",
        );
        assert!(f[0].is_unsuppressed());
    }

    #[test]
    fn cfg_test_module_is_exempt_from_d2() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() { let _ = HashSet::<u8>::new(); }\n}\n";
        let f = lint_source(Path::new("src/x.rs"), src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn code_after_cfg_test_module_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\nuse std::collections::HashMap;\n";
        let f = lint_source(Path::new("src/x.rs"), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn tests_dir_files_are_test_only() {
        let f = lint_source(
            Path::new("crates/geo/tests/proptests.rs"),
            "use std::collections::HashSet;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn d1_still_applies_in_test_files() {
        let f = lint_source(
            Path::new("tests/x.rs"),
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::D1);
    }

    #[test]
    fn json_output_is_wellformed_enough() {
        let f = lint_source(Path::new("x.rs"), "let t = Instant::now();\n");
        let j = render_report(&f, 1, 0);
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"rule\": \"D3\""));
        assert!(j.contains("\"suppressed\": null"));
    }

    #[test]
    fn findings_carry_context() {
        let src = "impl Exec {\n    fn run(&self) {\n        let v = x.unwrap();\n    }\n}\n";
        let f = lint_source(Path::new("crates/campaign/src/executor.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].context, "Exec::run");
    }

    #[test]
    fn report_counts_statuses() {
        let src = "fn run() {\n    let a = x.unwrap();\n    let b = y.unwrap(); // lint:allow(D7): checked\n}\n";
        let f = lint_source(Path::new("crates/campaign/src/executor.rs"), src);
        let report = render_report(&f, 1, 7);
        assert!(report.contains("\"schema\": \"wheels-lint-report/3\""));
        assert!(report.contains("\"files_scanned\": 1"));
        assert!(report.contains("\"wall_ms\": 7"));
        assert!(report.contains("\"total\": 2, \"suppressed\": 1, \"failing\": 1"));
        assert!(report.contains("\"suppressed\": \"checked\""));
    }
}
