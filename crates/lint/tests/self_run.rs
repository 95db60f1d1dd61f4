//! Workspace self-run: the whole repo must lint clean. This is the same
//! gate `ci.sh` runs via `cargo run -p wheels-lint`; having it inside
//! `cargo test` means a re-entering `partial_cmp` sort, a `HashMap`
//! iteration, or a fresh panic site in the campaign tree fails the
//! ordinary test suite too, with the offending file:line in the
//! assertion message. The registry liveness test keeps the policy
//! honest: an entry that names nothing in the tree guards nothing. The
//! caller gate keeps the public surface honest the same way: a `pub`
//! item that no non-test code names is dead weight that tests alone
//! keep alive.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use wheels_lint::lexer::{tokenize, Token, TokenKind};
use wheels_lint::{
    collect_rs_files, lint_paths, path_is_test, rules, Finding, LintConfig, BUILTIN_ALLOW, SWEEP,
};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn sweep_paths(root: &Path) -> Vec<PathBuf> {
    let paths: Vec<PathBuf> = SWEEP
        .iter()
        .map(|d| root.join(d))
        .filter(|p| p.exists())
        .collect();
    assert!(!paths.is_empty(), "workspace dirs missing under {root:?}");
    paths
}

fn sweep(root: &Path) -> (Vec<Finding>, usize) {
    lint_paths(&sweep_paths(root), Some(root), &LintConfig::workspace())
        .expect("workspace readable")
}

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let root = workspace_root();
    let (findings, files) = sweep(&root);
    assert!(files > 50, "walker only saw {files} files — wrong root?");
    let failing: Vec<String> = findings
        .iter()
        .filter(|f| f.is_unsuppressed())
        .map(|f| f.to_string())
        .collect();
    assert!(
        failing.is_empty(),
        "determinism lint violations:\n{}",
        failing.join("\n")
    );
}

#[test]
fn workspace_suppressions_all_carry_reasons() {
    // Every suppressed finding must have a nonempty reason (the parser
    // enforces this; the test documents the invariant over real data).
    let root = workspace_root();
    let (findings, _) = sweep(&root);
    for f in findings.iter().filter(|f| !f.is_unsuppressed()) {
        assert!(
            !f.suppressed.as_deref().unwrap_or("").is_empty(),
            "empty suppression reason at {f}"
        );
    }
}

#[test]
fn every_registry_entry_names_something_in_the_tree() {
    let root = workspace_root();
    let cfg = LintConfig::workspace();

    // D8: each hot-path entry matches a non-test function in the sweep.
    let mut files = Vec::new();
    for p in sweep_paths(&root) {
        collect_rs_files(&p, &mut files).expect("workspace readable");
    }
    let mut functions: Vec<(String, String)> = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source readable");
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy();
        let file = rules::analyze(&rel, &src, path_is_test(path));
        functions.extend(
            file.model
                .functions
                .into_iter()
                .filter(|f| !f.is_test)
                .map(|f| (f.qual, f.name)),
        );
    }
    for hot in cfg.hotpaths {
        assert!(
            functions
                .iter()
                .any(|(qual, name)| hot == qual || hot == name),
            "hot-path entry `{hot}` matches no non-test function in the sweep"
        );
    }

    // D9: each pinned domain is declared in the declaring module.
    let module = root.join(cfg.rng_module);
    let src = std::fs::read_to_string(&module).expect("declaring module readable");
    let tokens = tokenize(&src).tokens;
    let declared: Vec<&str> = tokens
        .windows(2)
        .filter(|w| w[0].is_ident("const") && w[1].kind == TokenKind::Ident)
        .map(|w| w[1].text.as_str())
        .collect();
    for (domain, _) in cfg.rng_arity {
        assert!(
            declared.contains(domain),
            "pinned domain `{domain}` is not declared in {}",
            cfg.rng_module
        );
    }

    // D7 scope and the built-in allowlist name workspace paths.
    for frag in cfg.d7_scope {
        assert!(
            root.join(frag).is_dir(),
            "D7 scope `{frag}` is not a directory"
        );
    }
    for (module, rule, _) in BUILTIN_ALLOW {
        assert!(
            root.join(module).is_file(),
            "{rule} allowlist entry `{module}` is not a file"
        );
    }
}

/// `pub` items that no non-test code names, each with the reason it stays.
/// An entry must keep naming a live `pub` item that lacks a caller.
const NO_CALLER_EXCEPTIONS: &[(&str, &str)] = &[
    (
        "shannon_mbps",
        "reference: capacity tests hold the MCS-table capacity under the Shannon bound",
    ),
    (
        "linear_to_db",
        "reference: the inverse that tests round-trip `db_to_linear` through",
    ),
    (
        "to_json",
        "reference: the one-shot serializer the streamed `write_json` bytes are held to",
    ),
    (
        "from_outcome",
        "reference: the owned checkpoint the clone-free log encoder is compared against",
    ),
    (
        "match_logs",
        "paper model (§B): the correct log matcher, driven by tests/log_sync.rs",
    ),
    (
        "match_logs_naive",
        "paper model (§B): the filename-stamp pitfall tests/log_sync.rs shows failing west of EDT",
    ),
    (
        "stamped",
        "paper model (§B): the app-side log tests/log_sync.rs pairs with XCAL logs",
    ),
    (
        "last_advanced_m",
        "probe: `ran::selection`'s unit tests read the shadowing bank's lazy cursor",
    ),
    (
        "build_cells",
        "fixture: unit tests in wheels-ran and wheels-campaign build one operator's cells; \
         production builds the panel through `build_ops`",
    ),
    (
        "record_spans",
        "probe: tests cut checkpoint logs at record boundaries, which `LogScan::read` \
         (digest-checking) cannot frame on a damaged log",
    ),
    (
        "gap_for",
        "query: the passive-vs-active 5G share of Fig. 1 that tests/paper_findings.rs checks",
    ),
    (
        "CSV_HEADER",
        "named only inside `write_tput_csv`'s format string, which the lexer does not read",
    ),
];

/// Item keywords whose `pub` definitions the caller gate collects.
const ITEM_KEYWORDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// Index of the name token of the `pub` item definition starting at
/// `tokens[i]`, or `None` when `tokens[i]` does not start one. `pub(crate)`
/// and the like are not public; `const fn`, `unsafe fn` and `async fn`
/// are fns.
fn pub_item_name(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens[i].is_ident("pub") {
        return None;
    }
    let mut j = i + 1;
    while tokens
        .get(j)
        .is_some_and(|t| ["const", "unsafe", "async"].iter().any(|q| t.is_ident(q)))
        && tokens
            .get(j + 1)
            .is_some_and(|t| ["fn", "unsafe", "async"].iter().any(|k| t.is_ident(k)))
    {
        j += 1;
    }
    let keyword = tokens.get(j)?;
    let name = tokens.get(j + 1)?;
    (ITEM_KEYWORDS.iter().any(|k| keyword.is_ident(k)) && name.kind == TokenKind::Ident)
        .then_some(j + 1)
}

#[test]
fn every_pub_item_has_a_non_test_caller() {
    let root = workspace_root();
    let fixtures = root.join("crates/lint/fixtures");
    let mut files = Vec::new();
    for p in sweep_paths(&root) {
        collect_rs_files(&p, &mut files).expect("workspace readable");
    }
    files.retain(|p| !p.starts_with(&fixtures));

    // Every `pub` item defined on a non-test line, and every identifier
    // on non-test lines outside `use` declarations and item names (a
    // re-export or a definition calls nothing).
    let mut items: Vec<(String, usize, String)> = Vec::new();
    let mut named: BTreeSet<String> = BTreeSet::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source readable");
        let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy();
        let file = rules::analyze(&rel, &src, path_is_test(path));
        let tokens = &file.tokens;
        let mut in_use = false;
        let mut skip = None;
        for (i, t) in tokens.iter().enumerate() {
            if file.model.is_test_line(t.line) {
                continue;
            }
            if let Some(name_at) = pub_item_name(tokens, i) {
                items.push((rel.to_string(), t.line, tokens[name_at].text.clone()));
                skip = Some(name_at);
            }
            if t.is_ident("use") {
                in_use = true;
            } else if in_use && t.is_punct(';') {
                in_use = false;
            } else if t.kind == TokenKind::Ident && !in_use && skip != Some(i) {
                named.insert(t.text.clone());
            }
        }
    }

    let uncalled: Vec<&(String, usize, String)> = items
        .iter()
        .filter(|(_, _, name)| !named.contains(name))
        .collect();
    for (name, reason) in NO_CALLER_EXCEPTIONS {
        assert!(!reason.is_empty(), "exception `{name}` carries no reason");
        assert!(
            uncalled.iter().any(|(_, _, n)| n == name),
            "exception `{name}` names no `pub` item that lacks a caller"
        );
    }
    let failing: Vec<String> = uncalled
        .iter()
        .filter(|(_, _, name)| !NO_CALLER_EXCEPTIONS.iter().any(|(n, _)| n == name))
        .map(|(file, line, name)| format!("{file}:{line} {name}"))
        .collect();
    assert!(
        failing.is_empty(),
        "{} pub items have no non-test caller (delete them, narrow them, \
         or add a reasoned exception):\n{}",
        failing.len(),
        failing.join("\n")
    );
}
