//! The `wheels-lint` binary end to end, on throwaway source trees: exit
//! codes, the `file:line` diagnostic, and the `--json-out` report.

use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

/// A fresh temp directory holding one source file, `x.rs`; removed on
/// drop.
struct Tree(PathBuf);

impl Tree {
    fn new(name: &str, src: &str) -> Tree {
        let dir =
            std::env::temp_dir().join(format!("wheels-lint-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(dir.join("x.rs"), src).expect("write source");
        Tree(dir)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn lint(Tree(dir): &Tree, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wheels-lint"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("wheels-lint runs")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
        other => panic!("expected an object with `{key}`, got {other:?}"),
    }
}

#[test]
fn a_finding_exits_1_and_names_its_line() {
    let dir = Tree::new("d2", "pub fn f() {}\nuse std::collections::HashMap;\n");
    let out = lint(&dir, &["x.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("x.rs:2: D2"), "{stdout}");
}

#[test]
fn a_clean_file_exits_0() {
    let dir = Tree::new("clean", "use std::collections::BTreeMap;\n");
    let out = lint(&dir, &["x.rs"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(out.stdout.is_empty());
}

#[test]
fn the_removed_baseline_flag_is_a_usage_error() {
    let dir = Tree::new("flag", "pub fn f() {}\n");
    let out = lint(&dir, &["--baseline", "x", "x.rs"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag: --baseline"));
}

#[test]
fn json_out_writes_a_parseable_report() {
    let src = "use std::collections::HashMap;\n\
               use std::collections::HashSet; // lint:allow(D2): membership only\n";
    let dir = Tree::new("json", src);
    let out = lint(&dir, &["--json-out", "report.json", "x.rs"]);
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(dir.0.join("report.json")).expect("report written");
    let report: Value = serde_json::from_str(&text).expect("report is JSON");
    assert_eq!(
        field(&report, "schema"),
        &Value::Str("wheels-lint-report/3".into())
    );
    let Value::Array(findings) = field(&report, "findings") else {
        panic!("findings is not an array");
    };
    assert_eq!(findings.len(), 2);
    assert_eq!(field(&findings[0], "file"), &Value::Str("x.rs".into()));
    assert_eq!(field(&findings[0], "suppressed"), &Value::Null);
    assert_eq!(
        field(&findings[1], "suppressed"),
        &Value::Str("membership only".into())
    );
}
