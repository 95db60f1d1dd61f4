//! A lightweight item parser over the token stream.
//!
//! This is not a Rust grammar — it is the minimal structural model the
//! rules need: where functions begin and end (so findings can name their
//! enclosing function and D8 can scan exactly one body), how `impl` and
//! `mod` scopes nest (so a method can be reported as `Type::name`),
//! which regions are test-only (`#[cfg(test)]` / `#[test]` scopes plus
//! `tests/` files, which D7/D8/D9 must skip), and which identifiers each
//! function calls (D8's one-level transitive closure).
//!
//! The parser walks the token stream once with an explicit scope stack.
//! It is intentionally forgiving: token soup that does not look like an
//! item simply contributes no structure, and unbalanced braces cannot
//! panic — at worst a function's end is clamped to the end of file.

use crate::lexer::{Token, TokenKind};

/// A call site inside a function body: `name(...)` at `line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee identifier (last path segment: `Vec::new` records `new`
    /// and the qualifier separately via [`CallSite::qual`]).
    pub name: String,
    /// Path qualifier immediately before the name (`Vec` in
    /// `Vec::new(..)`), empty for bare calls.
    pub qual: String,
    /// 1-based source line of the callee identifier.
    pub line: usize,
    /// True for `receiver.name(..)` method calls. The receiver's type
    /// is unknown to a token-level analysis, so cross-file resolution
    /// must not bind these by bare name.
    pub method: bool,
}

impl CallSite {
    /// The display form rules match against: `qual::name` or `name`.
    pub fn path(&self) -> String {
        if self.qual.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.qual, self.name)
        }
    }
}

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` inside an `impl Type` block, else
    /// the bare name.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
    /// 1-based line of the closing brace (clamped to EOF if unbalanced).
    pub end_line: usize,
    /// Token index range of the body (between the braces, exclusive).
    pub body: std::ops::Range<usize>,
    /// True when the function is test-only code: under `#[cfg(test)]`,
    /// annotated `#[test]`, or in a whole-file test context.
    pub is_test: bool,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallSite>,
}

/// The structural model of one file.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// All functions, in source order (nested fns appear after their
    /// parent in the list but carry their own ranges).
    pub functions: Vec<FunctionInfo>,
    /// `test_lines[i]` is true when 1-based line `i + 1` is inside a
    /// test-only region.
    pub test_lines: Vec<bool>,
}

impl FileModel {
    /// Is 1-based `line` inside a test-only region?
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// The innermost function containing 1-based `line`, if any.
    pub(crate) fn enclosing_fn(&self, line: usize) -> Option<&FunctionInfo> {
        self.functions
            .iter()
            .filter(|f| f.start_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.start_line)
    }
}

/// Keywords that can never be call sites or type names.
pub const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

/// Is `s` a Rust keyword (per the small set the rules care about)?
pub(crate) fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    Mod,
    Impl,
    Fn,
}

struct ScopeFrame {
    kind: ScopeKind,
    /// Everything inside this scope is test-only.
    test: bool,
    /// `impl` type name, carried so nested fns can qualify.
    impl_ty: Option<String>,
    /// Index into `functions` when `kind == Fn`.
    fn_idx: Option<usize>,
    /// 1-based line of the opening brace.
    start_line: usize,
}

#[derive(Debug, Clone)]
enum Pending {
    Mod {
        test: bool,
    },
    Impl {
        ty: String,
        test: bool,
    },
    Fn {
        name: String,
        qual: String,
        test: bool,
        start_line: usize,
    },
}

/// Parse the token stream of a file with `n_lines` physical lines.
/// `whole_file_test` marks every line test-only (used for files under
/// `tests/`, `benches/`, or `proptests/` directories).
pub fn parse(tokens: &[Token], n_lines: usize, whole_file_test: bool) -> FileModel {
    let mut model = FileModel {
        functions: Vec::new(),
        test_lines: vec![whole_file_test; n_lines],
    };
    let mut stack: Vec<ScopeFrame> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut pending_test_attr = false;
    // Open `(`/`[` since the pending `fn`: a `;` inside them belongs to
    // an array type in the signature (`x: [u8; 2]`), not an item's end.
    let mut sig_nest = 0usize;

    let in_test = |stack: &[ScopeFrame]| -> bool {
        whole_file_test || stack.last().map(|f| f.test).unwrap_or(false)
    };
    let impl_ty = |stack: &[ScopeFrame]| -> Option<String> {
        stack.iter().rev().find_map(|f| f.impl_ty.clone())
    };

    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            sig_nest += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            sig_nest = sig_nest.saturating_sub(1);
        }
        match t.kind {
            TokenKind::Punct if t.is_punct('#') && next_is_punct(tokens, i + 1, '[') => {
                let (end, is_test_attr) = scan_attribute(tokens, i + 1);
                if is_test_attr {
                    pending_test_attr = true;
                }
                i = end;
                continue;
            }
            TokenKind::Ident if t.text == "mod" => {
                pending = Some(Pending::Mod {
                    test: pending_test_attr,
                });
                pending_test_attr = false;
            }
            // `impl Trait` in a signature (`f: impl FnMut(..)`,
            // `-> impl Iterator`) is a type, not an impl block.
            TokenKind::Ident
                if t.text == "impl" && !matches!(pending, Some(Pending::Fn { .. })) =>
            {
                let ty = impl_type_name(tokens, i + 1);
                pending = Some(Pending::Impl {
                    ty,
                    test: pending_test_attr,
                });
                pending_test_attr = false;
            }
            TokenKind::Ident if t.text == "fn" => {
                // Only a definition when followed by a name; `fn(u32)`
                // pointer types have `(` next and define nothing.
                if let Some(name_tok) = tokens.get(i + 1) {
                    if name_tok.kind == TokenKind::Ident && !is_keyword(&name_tok.text) {
                        let name = name_tok.text.clone();
                        let qual = match impl_ty(&stack) {
                            Some(ty) => format!("{ty}::{name}"),
                            None => name.clone(),
                        };
                        pending = Some(Pending::Fn {
                            name,
                            qual,
                            test: pending_test_attr,
                            start_line: t.line,
                        });
                        sig_nest = 0;
                    }
                }
                pending_test_attr = false;
            }
            TokenKind::Ident
                if pending_test_attr
                    && matches!(
                        t.text.as_str(),
                        "use" | "const" | "static" | "type" | "struct" | "enum" | "trait"
                    ) =>
            {
                // `#[cfg(test)]` guarding a single non-scope item: mark
                // from the item keyword to its terminator (`;` or the
                // matching close brace of an inline body).
                let end_line = single_item_end(tokens, i);
                mark_test(&mut model.test_lines, t.line, end_line);
                pending_test_attr = false;
            }
            TokenKind::Punct if t.is_punct('{') => {
                let enclosing_test = in_test(&stack);
                let mut frame = ScopeFrame {
                    kind: ScopeKind::Block,
                    test: enclosing_test,
                    impl_ty: None,
                    fn_idx: None,
                    start_line: t.line,
                };
                match pending.take() {
                    Some(Pending::Mod { test }) => {
                        frame.kind = ScopeKind::Mod;
                        frame.test = enclosing_test || test;
                    }
                    Some(Pending::Impl { ty, test }) => {
                        frame.kind = ScopeKind::Impl;
                        frame.test = enclosing_test || test;
                        frame.impl_ty = Some(ty);
                    }
                    Some(Pending::Fn {
                        name,
                        qual,
                        test,
                        start_line,
                    }) => {
                        frame.kind = ScopeKind::Fn;
                        frame.test = enclosing_test || test;
                        frame.fn_idx = Some(model.functions.len());
                        model.functions.push(FunctionInfo {
                            name,
                            qual,
                            start_line,
                            end_line: t.line,
                            body: (i + 1)..(i + 1),
                            is_test: frame.test,
                            calls: Vec::new(),
                        });
                    }
                    None => {}
                }
                stack.push(frame);
            }
            TokenKind::Punct if t.is_punct('}') => {
                if let Some(frame) = stack.pop() {
                    if frame.test && !whole_file_test {
                        mark_test(&mut model.test_lines, frame.start_line, t.line);
                    }
                    if let Some(idx) = frame.fn_idx {
                        if let Some(f) = model.functions.get_mut(idx) {
                            f.end_line = t.line;
                            f.body.end = i;
                        }
                    }
                }
            }
            TokenKind::Punct if t.is_punct(';') => {
                // `mod foo;`, trait method without a body, etc.
                if sig_nest == 0 || !matches!(pending, Some(Pending::Fn { .. })) {
                    pending = None;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // Unbalanced braces: clamp any still-open function to EOF.
    let eof_line = n_lines.max(1);
    while let Some(frame) = stack.pop() {
        if frame.test && !whole_file_test {
            mark_test(&mut model.test_lines, frame.start_line, eof_line);
        }
        if let Some(idx) = frame.fn_idx {
            if let Some(f) = model.functions.get_mut(idx) {
                f.end_line = eof_line;
                f.body.end = tokens.len();
            }
        }
    }

    collect_calls(tokens, &mut model);
    model
}

fn next_is_punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).map(|t| t.is_punct(c)).unwrap_or(false)
}

/// Scan an attribute starting at the `[` token index. Returns the token
/// index just past the matching `]` and whether the attribute is a test
/// marker: `#[test]`, `#[cfg(test)]`, or a `cfg` whose first argument is
/// `test` (`#[cfg(all(test, ...))]` is deliberately NOT matched — only a
/// plain leading `test` counts; `not(test)` never matches).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = open;
    let mut end = tokens.len();
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                end = j + 1;
                break;
            }
        }
        j += 1;
    }
    let body = &tokens[open..end.min(tokens.len())];
    // `#[test]` (possibly with arguments, e.g. proptest's `#[test]`
    // inside its macro): first ident in the attribute is `test`.
    let first_ident = body.iter().find(|t| t.kind == TokenKind::Ident);
    let is_test = match first_ident {
        Some(t) if t.text == "test" => true,
        Some(t) if t.text == "cfg" => {
            // `cfg ( test ...` — `test` must immediately follow the
            // open paren so `cfg(not(test))` does not match.
            let mut it = body.iter().skip_while(|x| !x.is_ident("cfg"));
            it.next();
            matches!(
                (it.next(), it.next()),
                (Some(p), Some(arg)) if p.is_punct('(') && arg.is_ident("test")
            )
        }
        _ => false,
    };
    (end, is_test)
}

/// The type name an `impl` introduces: last path segment of the
/// implemented-for type (`impl Foo`, `impl<'a> Trait for Foo<'a>`,
/// `impl crate::x::Foo` all yield `Foo`).
fn impl_type_name(tokens: &[Token], mut i: usize) -> String {
    // Skip generic parameters directly after `impl`.
    if next_is_punct(tokens, i, '<') {
        let mut depth = 0i32;
        while i < tokens.len() {
            if tokens[i].is_punct('<') {
                depth += 1;
            } else if tokens[i].is_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Scan to `{` (or `;`), tracking the last ident seen at angle-depth
    // zero; a `for` keyword resets — the type is what follows it.
    let mut depth = 0i32;
    let mut last = String::new();
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') || t.is_punct(';') {
            break;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth -= 1;
        } else if depth <= 0 && t.kind == TokenKind::Ident {
            if t.text == "for" {
                last.clear();
            } else if !is_keyword(&t.text) {
                last = t.text.clone();
            }
        }
        i += 1;
    }
    last
}

/// End line of a single `#[cfg(test)]`-guarded non-scope item starting
/// at token `i`: the `;` at brace-depth zero, or the close of an inline
/// `{}` body (struct/enum), clamped to the item's start line on soup.
fn single_item_end(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth <= 0 {
                return t.line;
            }
        } else if t.is_punct(';') && depth == 0 {
            return t.line;
        }
        j += 1;
    }
    tokens.get(i).map(|t| t.line).unwrap_or(1)
}

fn mark_test(test_lines: &mut [bool], start_line: usize, end_line: usize) {
    let lo = start_line.saturating_sub(1);
    let hi = end_line.min(test_lines.len());
    for flag in test_lines.iter_mut().take(hi).skip(lo) {
        *flag = true;
    }
}

/// Second pass: record `name(...)` call sites inside each function body.
fn collect_calls(tokens: &[Token], model: &mut FileModel) {
    for f in &mut model.functions {
        let lo = f.body.start.min(tokens.len());
        let hi = f.body.end.min(tokens.len());
        for idx in lo..hi {
            let t = &tokens[idx];
            if t.kind != TokenKind::Ident || is_keyword(&t.text) {
                continue;
            }
            // A call is `name(` — or `name::<T>(` with a turbofish,
            // which matters for D8 (`collect::<Vec<_>>()` allocates).
            let direct = next_is_punct(tokens, idx + 1, '(');
            let turbofish = !direct
                && next_is_punct(tokens, idx + 1, ':')
                && next_is_punct(tokens, idx + 2, ':')
                && next_is_punct(tokens, idx + 3, '<')
                && {
                    let mut depth = 0i32;
                    let mut j = idx + 3;
                    let mut after = None;
                    while j < hi {
                        if tokens[j].is_punct('<') {
                            depth += 1;
                        } else if tokens[j].is_punct('>') {
                            depth -= 1;
                            if depth <= 0 {
                                after = Some(j + 1);
                                break;
                            }
                        }
                        j += 1;
                    }
                    after
                        .map(|a| next_is_punct(tokens, a, '('))
                        .unwrap_or(false)
                };
            if !direct && !turbofish {
                continue;
            }
            // `fn inner(` — a nested definition, not a call.
            if idx > 0 && tokens[idx - 1].is_ident("fn") {
                continue;
            }
            // `Vec::new(` — capture the qualifier for path matching.
            let qual = if idx >= 3
                && tokens[idx - 1].is_punct(':')
                && tokens[idx - 2].is_punct(':')
                && tokens[idx - 3].kind == TokenKind::Ident
                && !is_keyword(&tokens[idx - 3].text)
            {
                tokens[idx - 3].text.clone()
            } else {
                String::new()
            };
            let method = idx > 0 && tokens[idx - 1].is_punct('.');
            f.calls.push(CallSite {
                name: t.text.clone(),
                qual,
                line: t.line,
                method,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn model_of(src: &str) -> FileModel {
        let lex = tokenize(src);
        parse(&lex.tokens, lex.lines.len(), false)
    }

    #[test]
    fn free_function_boundaries() {
        let m = model_of("fn alpha() {\n    beta();\n}\nfn gamma() { }\n");
        assert_eq!(m.functions.len(), 2);
        assert_eq!(m.functions[0].qual, "alpha");
        assert_eq!((m.functions[0].start_line, m.functions[0].end_line), (1, 3));
        assert_eq!(m.functions[1].qual, "gamma");
        assert!(!m.functions[0].is_test);
    }

    #[test]
    fn impl_methods_are_qualified() {
        let m = model_of(
            "impl ShadowBank {\n    fn advance_span(&mut self) {\n        self.fill();\n    }\n}\n",
        );
        assert_eq!(m.functions[0].qual, "ShadowBank::advance_span");
    }

    #[test]
    fn trait_impl_uses_self_type() {
        let m = model_of(
            "impl<'a> Iterator for Scan<'a> {\n    fn next(&mut self) -> Option<u8> { None }\n}\n",
        );
        assert_eq!(m.functions[0].qual, "Scan::next");
    }

    #[test]
    fn impl_trait_in_a_signature_is_not_an_impl_block() {
        let src = "impl ShadowBank {\n    fn advance_span(&mut self, f: impl FnMut(usize) -> u64) -> &[f64] {\n        self.fill();\n    }\n    fn iter(&self) -> impl Iterator<Item = u8> + '_ { None.into_iter() }\n}\n";
        let m = model_of(src);
        let quals: Vec<&str> = m.functions.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["ShadowBank::advance_span", "ShadowBank::iter"]);
        assert_eq!(m.functions[0].calls[0].name, "fill");
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_the_item() {
        let src = "fn scan(prime: &mut [Option<usize>; 2]) -> [u8; 2] {\n    helper();\n}\ntrait T {\n    fn decl(x: [u8; 4]);\n}\nfn after() {}\n";
        let m = model_of(src);
        let quals: Vec<&str> = m.functions.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["scan", "after"]);
        assert_eq!(m.functions[0].calls[0].name, "helper");
    }

    #[test]
    fn path_impl_uses_last_segment() {
        let m = model_of("impl crate::radio::ShadowBank {\n    fn tick(&self) {}\n}\n");
        assert_eq!(m.functions[0].qual, "ShadowBank::tick");
    }

    #[test]
    fn cfg_test_module_marks_lines() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n";
        let m = model_of(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(m.is_test_line(5));
        assert!(!m.is_test_line(6));
        let helper = m.functions.iter().find(|f| f.name == "helper").unwrap();
        assert!(helper.is_test);
    }

    #[test]
    fn test_attr_marks_one_function() {
        let src = "#[test]\nfn probe() {\n    body();\n}\nfn live() { body(); }\n";
        let m = model_of(src);
        let probe = m.functions.iter().find(|f| f.name == "probe").unwrap();
        assert!(probe.is_test);
        assert!(m.is_test_line(3));
        let live = m.functions.iter().find(|f| f.name == "live").unwrap();
        assert!(!live.is_test);
        assert!(!m.is_test_line(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_scope() {
        let m = model_of("#[cfg(not(test))]\nfn live() { body(); }\n");
        assert!(!m.functions[0].is_test);
        assert!(!m.is_test_line(2));
    }

    #[test]
    fn single_guarded_item_marks_through_terminator() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() {}\n";
        let m = model_of(src);
        assert!(m.is_test_line(2));
        assert!(!m.is_test_line(3));
    }

    #[test]
    fn call_sites_record_names_and_quals() {
        let src = "fn hot() {\n    let v = Vec::new();\n    helper(1);\n    x.to_string();\n}\n";
        let m = model_of(src);
        let calls: Vec<String> = m.functions[0].calls.iter().map(|c| c.path()).collect();
        assert!(calls.contains(&"Vec::new".to_string()));
        assert!(calls.contains(&"helper".to_string()));
        assert!(calls.contains(&"to_string".to_string()));
    }

    #[test]
    fn nested_fn_is_its_own_function() {
        let src = "fn outer() {\n    fn inner() { leaf(); }\n    inner();\n}\n";
        let m = model_of(src);
        assert_eq!(m.functions.len(), 2);
        // `inner` is pushed when its brace opens (after outer's), so it
        // appears second; enclosing_fn picks the innermost by span.
        let inner = m.enclosing_fn(2).unwrap();
        assert_eq!(inner.name, "inner");
    }

    #[test]
    fn fn_pointer_type_defines_nothing() {
        let m = model_of("fn take(f: fn(u32) -> u32) { f(1); }\n");
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "take");
    }

    #[test]
    fn whole_file_test_marks_everything() {
        let lex = tokenize("fn anything() { body(); }\n");
        let m = parse(&lex.tokens, lex.lines.len(), true);
        assert!(m.is_test_line(1));
        assert!(m.functions[0].is_test);
    }

    #[test]
    fn unbalanced_braces_clamp_to_eof() {
        // Trailing `\n` yields a final empty line; EOF is line 3.
        let m = model_of("fn open() {\n    a();\n");
        assert_eq!(m.functions[0].end_line, 3);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "impl T {\n    fn outer(&self) {\n        inner_call();\n    }\n}\n";
        let m = model_of(src);
        assert_eq!(m.enclosing_fn(3).unwrap().qual, "T::outer");
        assert!(m.enclosing_fn(5).is_none());
    }
}
