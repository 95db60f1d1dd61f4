//! Workspace self-run: the whole repo must lint clean. This is the same
//! gate `ci.sh` runs via `cargo run -p wheels-lint`; having it inside
//! `cargo test` means a re-entering `partial_cmp` sort, a `HashMap`
//! iteration, or a fresh panic site in the campaign tree fails the
//! ordinary test suite too, with the offending file:line in the
//! assertion message. The registry liveness test keeps the policy
//! honest: an entry that names nothing in the tree guards nothing.

use std::path::{Path, PathBuf};

use wheels_lint::lexer::{tokenize, TokenKind};
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
