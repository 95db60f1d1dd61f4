//! A spanned Rust tokenizer that separates code from string/comment
//! content.
//!
//! The rules in [`crate::rules`] are token matchers; to keep them honest
//! they must never fire on a forbidden token that only appears inside a
//! string literal, a comment, or a doc comment (`"Instant::now"` in a log
//! message is not a wall-clock read). The lexer walks the source once
//! with a small state machine covering line comments, nested block
//! comments, string literals (with escapes), raw strings (`r#"..."#`
//! with any hash count), byte/char literals, and lifetimes, and emits:
//!
//! * a [`Token`] stream — identifiers, lifetimes, numeric literals,
//!   string/char literal markers (content blanked), and single-character
//!   punctuation, each with a 1-based line and column;
//! * per physical line, a [`Line`]: `code` (the line with every
//!   string/char/comment byte replaced by a space, same char length as
//!   the input so column arithmetic stays valid) and `comment` (the
//!   concatenated comment text, which is where `lint:allow(...)`
//!   suppression directives live).
//!
//! The tokenizer is total: any byte soup lexes without panicking (see
//! `tests/lexer_props.rs`), and stripping is idempotent — lexing the
//! stripped code of a file reproduces that code byte for byte.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `partial_cmp`, `HashMap`).
    Ident,
    /// Lifetime (`'a`); `text` includes the tick.
    Lifetime,
    /// Integer literal (`42`, `0x5EED`, `1_000u64`).
    Int,
    /// Float literal (`1.5`, `2e-3`, `1.`).
    Float,
    /// String literal (plain, raw, or byte); content is not retained.
    Str,
    /// Char or byte-char literal; content is not retained.
    Char,
    /// One punctuation character (`text` is that single char).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Token text. Empty for [`TokenKind::Str`] and [`TokenKind::Char`]
    /// (rules must never depend on literal content).
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based character column.
    pub col: usize,
}

impl Token {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// One physical source line, split into its code and comment parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Code content; string/char/comment characters blanked to spaces.
    pub code: String,
    /// Comment text (line + block comments), delimiters stripped.
    pub comment: String,
}

/// A fully lexed file: the token stream plus the per-line strip view.
#[derive(Debug, Clone, Default)]
pub struct LexedFile {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// Per physical line code/comment split (same line count as input).
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    /// Nested block comment depth.
    BlockComment(u32),
    /// Inside `"..."`.
    Str,
    /// Inside `r##"..."##`; the payload is the hash count.
    RawStr(u32),
    /// Inside `'...'` (char or byte literal).
    Char,
}

/// Lex `src` into tokens and per-line code/comment parts.
pub fn tokenize(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let mut state = State::Code;
    for (line_no, raw) in src.split('\n').enumerate() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::with_capacity(chars.len());
        let mut comment = String::new();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&raw_tail(&chars, i + 2));
                        // Blank the rest of the line in the code view.
                        for _ in i..chars.len() {
                            code.push(' ');
                        }
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        push_tok(&mut out, TokenKind::Str, String::new(), line_no, i);
                        state = State::Str;
                        code.push(' ');
                        i += 1;
                    }
                    'r' if is_raw_string_start(&chars, i) => {
                        push_tok(&mut out, TokenKind::Str, String::new(), line_no, i);
                        let hashes = count_hashes(&chars, i + 1);
                        state = State::RawStr(hashes);
                        // Blank `r` + hashes + opening quote.
                        let span = 2 + hashes as usize;
                        for _ in 0..span.min(chars.len() - i) {
                            code.push(' ');
                        }
                        i += span;
                    }
                    'b' if next == Some('"') => {
                        push_tok(&mut out, TokenKind::Str, String::new(), line_no, i);
                        state = State::Str;
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    }
                    'b' if next == Some('r') && is_raw_string_start(&chars, i + 1) => {
                        push_tok(&mut out, TokenKind::Str, String::new(), line_no, i);
                        let hashes = count_hashes(&chars, i + 2);
                        state = State::RawStr(hashes);
                        let span = 3 + hashes as usize;
                        for _ in 0..span.min(chars.len() - i) {
                            code.push(' ');
                        }
                        i += span;
                    }
                    '\'' => {
                        // Disambiguate char literal from lifetime: a char
                        // literal is `'x'` or `'\...'`; a lifetime is `'`
                        // followed by an identifier with no closing quote.
                        if next == Some('\\') {
                            push_tok(&mut out, TokenKind::Char, String::new(), line_no, i);
                            state = State::Char;
                            code.push(' ');
                            i += 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            // `'x'` — but `'a'` could also be a lifetime
                            // followed by a char literal in pathological
                            // generics; plain `'x'` is by far the common
                            // case and the safe read for token blanking.
                            push_tok(&mut out, TokenKind::Char, String::new(), line_no, i);
                            code.push(' ');
                            code.push(' ');
                            code.push(' ');
                            i += 3;
                        } else {
                            // Lifetime: keep the tick and name; it can't
                            // form a rule token but the parser uses it.
                            let mut text = String::from('\'');
                            code.push('\'');
                            let mut j = i + 1;
                            while j < chars.len() && is_ident_continue(chars[j]) {
                                text.push(chars[j]);
                                code.push(chars[j]);
                                j += 1;
                            }
                            push_tok(&mut out, TokenKind::Lifetime, text, line_no, i);
                            i = j;
                        }
                    }
                    c if is_ident_start(c) => {
                        let mut text = String::new();
                        let mut j = i;
                        while j < chars.len() && is_ident_continue(chars[j]) {
                            text.push(chars[j]);
                            code.push(chars[j]);
                            j += 1;
                        }
                        push_tok(&mut out, TokenKind::Ident, text, line_no, i);
                        i = j;
                    }
                    c if c.is_ascii_digit() => {
                        let (end, is_float) = scan_number(&chars, i);
                        let text: String = chars[i..end].iter().collect();
                        for ch in &chars[i..end] {
                            code.push(*ch);
                        }
                        let kind = if is_float {
                            TokenKind::Float
                        } else {
                            TokenKind::Int
                        };
                        push_tok(&mut out, kind, text, line_no, i);
                        i = end;
                    }
                    c if c.is_whitespace() => {
                        code.push(c);
                        i += 1;
                    }
                    _ => {
                        push_tok(&mut out, TokenKind::Punct, c.to_string(), line_no, i);
                        code.push(c);
                        i += 1;
                    }
                },
                State::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::BlockComment(depth + 1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    } else {
                        comment.push(c);
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        // Skip the escaped char (possibly the closing
                        // quote or another backslash).
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    } else {
                        if c == '"' {
                            state = State::Code;
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' && has_hashes(&chars, i + 1, hashes) {
                        state = State::Code;
                        let span = 1 + hashes as usize;
                        for _ in 0..span.min(chars.len() - i) {
                            code.push(' ');
                        }
                        i += span;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                State::Char => {
                    if c == '\\' {
                        code.push(' ');
                        if next.is_some() {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                    } else {
                        if c == '\'' {
                            state = State::Code;
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        out.lines.push(Line { code, comment });
    }
    out
}

fn push_tok(out: &mut LexedFile, kind: TokenKind, text: String, line_no: usize, col0: usize) {
    out.tokens.push(Token {
        kind,
        text,
        line: line_no + 1,
        col: col0 + 1,
    });
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan a numeric literal starting at `chars[start]` (an ASCII digit).
/// Returns `(end_index, is_float)`. Handles radix prefixes, `_`
/// separators, `1.5` / `1.` / `2e-3` floats, and type suffixes — and is
/// careful to stop before `..` (a range, not a float) and before
/// `1.method()` (an int with a method call).
fn scan_number(chars: &[char], start: usize) -> (usize, bool) {
    let mut j = start;
    // Radix-prefixed integers never contain a float part.
    if chars[j] == '0' {
        if let Some(r) = chars.get(j + 1) {
            if matches!(r, 'x' | 'X' | 'o' | 'O' | 'b' | 'B') {
                j += 2;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                return (j.max(start + 1), false);
            }
        }
    }
    let mut is_float = false;
    // Integer part, exponents, and suffixes: alphanumerics and `_`, with
    // a special case so `2e-3` consumes the signed exponent.
    let consume_digits_and_suffix = |j: &mut usize| {
        while *j < chars.len() {
            let c = chars[*j];
            if c.is_ascii_alphanumeric() || c == '_' {
                if matches!(c, 'e' | 'E')
                    && matches!(chars.get(*j + 1), Some('+') | Some('-'))
                    && chars.get(*j + 2).is_some_and(|d| d.is_ascii_digit())
                {
                    *j += 2; // the sign; the digit is consumed by the loop
                }
                *j += 1;
            } else {
                break;
            }
        }
    };
    consume_digits_and_suffix(&mut j);
    if j < chars.len() && chars[j] == '.' {
        match chars.get(j + 1) {
            // `1.5`: fractional part follows.
            Some(d) if d.is_ascii_digit() => {
                is_float = true;
                j += 1;
                consume_digits_and_suffix(&mut j);
            }
            // `1..n` is a range and `1.max(2)` is a method call — the
            // dot is not part of this literal.
            Some(&'.') => {}
            Some(&c) if is_ident_start(c) => {}
            // `1.` trailing-dot float (possibly at end of line).
            _ => {
                is_float = true;
                j += 1;
            }
        }
    }
    (j.max(start + 1), is_float)
}

fn raw_tail(chars: &[char], from: usize) -> String {
    chars[from.min(chars.len())..].iter().collect()
}

/// Is `chars[i] == 'r'` the start of a raw string (`r"`, `r#"`, ...)?
/// Requires `r` not to be part of a longer identifier (e.g. `for`, `var`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if chars.get(i) != Some(&'r') {
        return false;
    }
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn has_hashes(chars: &[char], mut i: usize, n: u32) -> bool {
    for _ in 0..n {
        if chars.get(i) != Some(&'#') {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        tokenize(src).lines.into_iter().map(|l| l.code).collect()
    }

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn line_comment_moves_to_comment_part() {
        let lines = tokenize("let x = 1; // lint:allow(D2): reason\nlet y = 2;").lines;
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(!lines[0].code.contains("lint:allow"));
        assert!(lines[0].comment.contains("lint:allow(D2): reason"));
        assert_eq!(lines[1].comment, "");
    }

    #[test]
    fn string_content_is_blanked() {
        let c = code_of("let s = \"Instant::now HashMap\"; s.len();");
        assert!(!c[0].contains("Instant::now"));
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let s ="));
        assert!(c[0].contains("s.len();"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let c = code_of(r#"let s = "a\"partial_cmp\"b"; sort_by(x);"#);
        assert!(!c[0].contains("partial_cmp"));
        assert!(c[0].contains("sort_by(x);"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"thread_rng \"quoted\" HashSet\"#; after();";
        let c = code_of(src);
        assert!(!c[0].contains("thread_rng"));
        assert!(!c[0].contains("HashSet"));
        assert!(c[0].contains("after();"));
    }

    #[test]
    fn raw_string_spanning_lines() {
        let src = "let s = r\"line one HashMap\nline two Instant::now\"; tail();";
        let c = code_of(src);
        assert!(!c[0].contains("HashMap"));
        assert!(!c[1].contains("Instant::now"));
        assert!(c[1].contains("tail();"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a(); /* outer HashMap /* inner */ still comment */ b();\nc(); /* open\nSystemTime::now\n*/ d();";
        let c = code_of(src);
        assert!(c[0].contains("a();") && c[0].contains("b();"));
        assert!(!c[0].contains("HashMap"));
        assert!(c[1].contains("c();"));
        assert!(!c[2].contains("SystemTime"));
        assert!(c[3].contains("d();"));
    }

    #[test]
    fn block_comment_text_is_captured() {
        let lines = tokenize("x(); /* lint:allow(D4): keyed */ y();").lines;
        assert!(lines[0].comment.contains("lint:allow(D4): keyed"));
        assert!(lines[0].code.contains("y();"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let c = code_of("fn f<'a>(x: &'a str) -> &'a str { x } g();");
        assert!(c[0].contains("fn f<'a>(x: &'a str)"));
        assert!(c[0].contains("g();"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let c = code_of("let q = '\"'; let e = '\\''; let n = '\\n'; done();");
        assert!(
            c[0].contains("done();"),
            "char-literal quotes must not open strings: {}",
            c[0]
        );
        assert!(!c[0].contains('"'));
    }

    #[test]
    fn code_length_is_preserved() {
        let src = "let s = \"abc\"; // tail";
        let lines = tokenize(src).lines;
        assert_eq!(lines[0].code.chars().count(), src.chars().count());
    }

    #[test]
    fn multi_line_statement_survives() {
        let src = "v.sort_by(|a, b| {\n    a.partial_cmp(b)\n        .unwrap()\n});";
        let c = code_of(src);
        assert!(c[0].contains("sort_by"));
        assert!(c[1].contains("partial_cmp"));
        assert!(c[2].contains(".unwrap()"));
    }

    #[test]
    fn line_comment_inside_string_is_code() {
        let c = code_of("let url = \"http://x\"; real();");
        assert!(c[0].contains("real();"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let c = code_of("let var = over\"s\"; next();");
        // `over"s"` — the `r` belongs to `over`, so the string is just "s".
        assert!(c[0].contains("next();"));
        assert!(c[0].contains("let var = over"));
    }

    #[test]
    fn tokens_carry_positions() {
        let lex = tokenize("let x = 42;\nfoo.bar();");
        let x = lex.tokens.iter().find(|t| t.is_ident("x")).unwrap();
        assert_eq!((x.line, x.col), (1, 5));
        let bar = lex.tokens.iter().find(|t| t.is_ident("bar")).unwrap();
        assert_eq!((bar.line, bar.col), (2, 5));
    }

    #[test]
    fn numbers_lex_as_one_token() {
        let lex = tokenize("a(1_000u64, 0x5EED, 1.5e-3, 2., 0b1010);");
        let nums: Vec<(&TokenKind, &str)> = lex
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Int | TokenKind::Float))
            .map(|t| (&t.kind, t.text.as_str()))
            .collect();
        assert_eq!(
            nums,
            vec![
                (&TokenKind::Int, "1_000u64"),
                (&TokenKind::Int, "0x5EED"),
                (&TokenKind::Float, "1.5e-3"),
                (&TokenKind::Float, "2."),
                (&TokenKind::Int, "0b1010"),
            ]
        );
    }

    #[test]
    fn range_and_method_dots_are_not_float_parts() {
        let lex = tokenize("for i in 0..10 { let m = 1.max(2); }");
        assert!(lex
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "0"));
        assert!(lex
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "10"));
        assert!(lex
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "1"));
        assert!(lex.tokens.iter().any(|t| t.is_ident("max")));
    }

    #[test]
    fn string_and_char_tokens_are_content_free() {
        let lex = tokenize("let s = \"unwrap()\"; let c = 'x';");
        let strs: Vec<&Token> = lex
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str | TokenKind::Char))
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs.iter().all(|t| t.text.is_empty()));
        assert!(!lex.tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn raw_string_with_hashes_holding_quotes_and_comments() {
        // Regression: hashes + embedded quote + `//` inside the raw
        // string must not open a comment or end the string early.
        let src = "let s = r##\"a \"# b // not a comment\"##; tail();";
        let lex = tokenize(src);
        assert!(lex.lines[0].code.contains("tail();"));
        assert!(lex.lines[0].comment.is_empty());
        assert!(!lex.tokens.iter().any(|t| t.is_ident("comment")));
    }

    #[test]
    fn nested_block_comment_with_string_delimiters() {
        // Regression: `"` inside a nested block comment must not open a
        // string that swallows the comment close.
        let src = "before(); /* outer \" /* inner \" */ still */ after();";
        let lex = tokenize(src);
        assert!(lex.lines[0].code.contains("before();"));
        assert!(lex.lines[0].code.contains("after();"));
        assert!(lex.tokens.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn keywords_and_paths_tokenize_separately() {
        assert_eq!(
            idents("use std::collections::HashMap;"),
            vec!["use", "std", "collections", "HashMap"]
        );
    }
}
