//! Property tests for the spanned tokenizer.
//!
//! The lexer is the foundation every rule stands on, and it runs over
//! arbitrary workspace source — including files mid-edit, fixtures that
//! deliberately misuse syntax, and whatever a future crate checks in. Two
//! properties must hold unconditionally:
//!
//! 1. **Totality** — `tokenize` never panics, whatever bytes it is fed.
//! 2. **Strip idempotence** — the code view is a fixed point: stripping
//!    the stripped code changes nothing and yields no comments, because
//!    every state-inducing character (quotes, comment delimiters) is
//!    blanked out of the code view.
//!
//! Deterministic regression fixtures pin the corner cases that byte soup
//! is unlikely to hit by chance: raw strings with hash fences, nested
//! block comments containing string delimiters, unterminated literals.

use proptest::prelude::*;
use wheels_lint::lexer::{strip, tokenize, TokenKind};

/// Re-strip the joined code view and require a fixed point.
fn assert_strip_idempotent(src: &str) {
    let first = strip(src);
    let joined = first
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let second = strip(&joined);
    assert_eq!(first.len(), second.len(), "line count changed on re-strip");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.code, b.code, "code view not a fixed point");
        assert!(
            b.comment.is_empty(),
            "re-strip invented a comment: {:?}",
            b.comment
        );
    }
}

/// Structural invariants that must hold for any input.
fn assert_lex_invariants(src: &str) {
    let lexed = tokenize(src);
    let n_lines = src.split('\n').count();
    assert_eq!(
        lexed.lines.len(),
        n_lines,
        "strip view must keep the line count"
    );
    for tok in &lexed.tokens {
        assert!(
            tok.line >= 1 && tok.line <= n_lines,
            "token line out of range"
        );
        assert!(tok.col >= 1, "token col must be 1-based");
        match tok.kind {
            // Literal content is never retained — rules must not see it.
            TokenKind::Str | TokenKind::Char => assert!(tok.text.is_empty()),
            _ => assert!(!tok.text.is_empty(), "empty token text for {:?}", tok.kind),
        }
    }
}

/// Rust-ish fragments that exercise the lexer state machine far more
/// densely than uniform bytes: every delimiter that opens or closes a
/// string/char/comment state, plus innocuous filler.
fn fragment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\""),
        Just("'"),
        Just("\\"),
        Just("\\\""),
        Just("/*"),
        Just("*/"),
        Just("//"),
        Just("r#\""),
        Just("r##\""),
        Just("\"#"),
        Just("\"##"),
        Just("b\""),
        Just("b'"),
        Just("\n"),
        Just("'a"),
        Just("ident"),
        Just("0x5EED"),
        Just("1.5e-3"),
        Just(".unwrap()"),
        Just("["),
        Just("]"),
        Just("é√"),
    ]
}

proptest! {
    #[test]
    fn tokenize_is_total_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_lex_invariants(&src);
    }

    #[test]
    fn strip_is_idempotent_on_byte_soup(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_strip_idempotent(&src);
    }

    #[test]
    fn tokenize_is_total_on_delimiter_soup(parts in prop::collection::vec(fragment(), 0..80)) {
        let src = parts.concat();
        assert_lex_invariants(&src);
        assert_strip_idempotent(&src);
    }
}

#[test]
fn raw_strings_with_hash_fences() {
    let src = "let a = r##\"one \"# two\"##; let b = r#\"x\"#; // tail\nlet c = r\"plain\";";
    assert_lex_invariants(src);
    assert_strip_idempotent(src);
    let lexed = tokenize(src);
    // Both raw strings collapse to content-free Str tokens.
    let strs = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Str)
        .count();
    assert_eq!(strs, 3, "three raw strings expected");
    assert!(
        !lexed.lines[0].code.contains("two"),
        "raw string content leaked into code"
    );
}

#[test]
fn nested_block_comment_holding_string_delimiters() {
    let src = "before(); /* level1 \" /* level2 ' */ still \" comment */ after();";
    assert_lex_invariants(src);
    assert_strip_idempotent(src);
    let lexed = tokenize(src);
    let idents: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(
        idents,
        ["before", "after"],
        "comment body must not tokenize"
    );
    assert!(lexed.lines[0].comment.contains("level2"));
}

#[test]
fn unterminated_literals_are_swallowed_not_panicked() {
    for src in [
        "let s = \"never closed",
        "let s = r##\"never closed\"#",
        "let c = '",
        "open(); /* runs off the end",
        "b\"byte string, no close",
        "tail backslash \\",
    ] {
        assert_lex_invariants(src);
        assert_strip_idempotent(src);
    }
}

#[test]
fn multiline_states_carry_across_lines() {
    let src = "let s = \"line one\nline two\"; done();\n/* a\nb */ fin();";
    assert_lex_invariants(src);
    assert_strip_idempotent(src);
    let lexed = tokenize(src);
    assert!(
        !lexed.lines[1].code.contains("line"),
        "string body leaked on line 2"
    );
    let idents: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert!(idents.contains(&"done") && idents.contains(&"fin"));
}

#[test]
fn lifetimes_survive_the_char_literal_state() {
    let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
    assert_lex_invariants(src);
    assert_strip_idempotent(src);
    let lifetimes = tokenize(src)
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .count();
    assert_eq!(lifetimes, 3);
}

#[test]
fn crlf_and_unicode_inputs() {
    for src in [
        "a();\r\nb(); // crlf tail\r\n",
        "let π = \"ε\"; // κόσμε\nπ.len();",
        "\u{0}\u{1}mixed\u{7f}control\"\u{0}\"",
    ] {
        assert_lex_invariants(src);
        assert_strip_idempotent(src);
    }
}
