//! A hand-rolled Rust token scanner.
//!
//! This is not a full parser: it produces a flat token stream that is exact
//! about the things static rules care about — comments (including nesting),
//! every string/char literal flavour, float vs. integer literals, and
//! multi-character operators — and deliberately ignores everything else
//! about the grammar. `rules` layers item-level context (attributes,
//! `#[cfg(test)]` spans, paren depth) on top of this stream.

use std::collections::HashMap;

/// What a token is, to the level of detail the rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (raw identifiers are unescaped: `r#type` → `type`).
    Ident(String),
    /// Integer literal (any base, any suffix except `f32`/`f64`).
    Int,
    /// Float literal (`1.0`, `1.`, `1e5`, `1f64`, …).
    Float,
    /// String literal of any flavour: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// Character or byte literal: `'x'`, `'\''`, `b'x'`.
    Char,
    /// Lifetime or loop label: `'a`, `'outer`.
    Lifetime,
    /// Operator or punctuation, maximal-munch (`==`, `::`, `..=`, `[`, …).
    Op(&'static str),
}

/// One token plus the 1-indexed source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: Tok,
    /// 1-indexed line number.
    pub line: u32,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// The token stream, comments and whitespace removed.
    pub tokens: Vec<Token>,
    /// Per-line `// sherlock-lint: allow(rule, …)` escapes: line → rule names.
    pub allows: HashMap<u32, Vec<String>>,
    /// Whole-file `// sherlock-lint: allow-file(rule, …)` escapes.
    pub file_allows: Vec<String>,
    /// Lines containing a string literal with `{:p}` / `{:#p}` pointer
    /// formatting. `Tok::Str` carries no payload, so the taint layer's
    /// address-source detection needs this side table.
    pub addr_fmt_lines: Vec<u32>,
}

/// Multi-character operators, longest first so maximal munch works by
/// scanning the table in order.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Single-character operators/punctuation we emit as-is.
const SINGLE_OPS: &str = "+-*/%^&|!<>=.,;:#?@$(){}[]~";

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Cursor {
    fn new(source: &str) -> Self {
        Cursor { chars: source.chars().collect(), pos: 0, line: 1 }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn cur(&self) -> Option<char> {
        self.peek(0)
    }

    /// Advance one char, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.cur()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// True if the upcoming chars match `s` exactly.
    fn starts_with(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `source` into tokens plus allow-directives.
///
/// The lexer never fails: malformed input (unterminated strings/comments)
/// is consumed to end of file, which is the forgiving behaviour a linter
/// wants — rustc will report the real error.
pub fn lex(source: &str) -> LexOutput {
    let mut cur = Cursor::new(source);
    let mut out = LexOutput::default();

    while let Some(c) = cur.cur() {
        // Whitespace.
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if cur.starts_with("//") {
            let line = cur.line;
            let mut text = String::new();
            while let Some(c) = cur.cur() {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            record_allows(&text, line, &mut out);
            continue;
        }
        // Block comment, which Rust nests.
        if cur.starts_with("/*") {
            let line = cur.line;
            let mut depth = 0_usize;
            let mut text = String::new();
            while let Some(c) = cur.cur() {
                if cur.starts_with("/*") {
                    depth += 1;
                    cur.bump_n(2);
                    text.push_str("/*");
                } else if cur.starts_with("*/") {
                    depth -= 1;
                    cur.bump_n(2);
                    text.push_str("*/");
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(c);
                    cur.bump();
                }
            }
            record_allows(&text, line, &mut out);
            continue;
        }
        // Raw strings / raw identifiers / byte strings: r", r#", br", b", b', r#ident.
        if c == 'r' || c == 'b' {
            if let Some(tok) = try_lex_prefixed_literal(&mut cur) {
                out.tokens.push(tok);
                continue;
            }
        }
        // Identifier / keyword.
        if is_ident_start(c) {
            let line = cur.line;
            let mut name = String::new();
            while let Some(c) = cur.cur() {
                if !is_ident_continue(c) {
                    break;
                }
                name.push(c);
                cur.bump();
            }
            out.tokens.push(Token { kind: Tok::Ident(name), line });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            out.tokens.push(lex_number(&mut cur));
            continue;
        }
        // Plain string.
        if c == '"' {
            let line = cur.line;
            cur.bump();
            let body = lex_quoted(&mut cur, '"');
            if body.contains("{:p}") || body.contains("{:#p}") {
                out.addr_fmt_lines.push(line);
            }
            out.tokens.push(Token { kind: Tok::Str, line });
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            out.tokens.push(lex_quote_or_lifetime(&mut cur));
            continue;
        }
        // Operators: maximal munch.
        if let Some(op) = OPS.iter().find(|op| cur.starts_with(op)) {
            let line = cur.line;
            cur.bump_n(op.chars().count());
            out.tokens.push(Token { kind: Tok::Op(op), line });
            continue;
        }
        // Re-slice the op table for a 'static str.
        if let Some(op) = SINGLE_OPS.find(c).and_then(|idx| SINGLE_OPS.get(idx..idx + c.len_utf8()))
        {
            let line = cur.line;
            cur.bump();
            out.tokens.push(Token { kind: Tok::Op(op), line });
            continue;
        }
        // Anything else (stray unicode, shebang backslash, …): skip.
        cur.bump();
    }
    out
}

/// Parse `// sherlock-lint: allow(a, b)` / `allow-file(a)` out of a comment.
fn record_allows(comment: &str, line: u32, out: &mut LexOutput) {
    for (marker, file_wide) in
        [("sherlock-lint: allow-file(", true), ("sherlock-lint: allow(", false)]
    {
        let Some((_, rest)) = comment.split_once(marker) else { continue };
        let Some((list, _)) = rest.split_once(')') else { continue };
        let rules = list.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty());
        if file_wide {
            out.file_allows.extend(rules);
        } else {
            out.allows.entry(line).or_default().extend(rules);
        }
        return; // allow-file( also contains "allow(" — don't double-parse
    }
}

/// `r"…"`, `r#"…"#`, `br##"…"##`, `b"…"`, `b'…'`, `r#ident`. Returns `None`
/// when the `r`/`b` turns out to start a plain identifier.
fn try_lex_prefixed_literal(cur: &mut Cursor) -> Option<Token> {
    let line = cur.line;
    let (prefix_len, raw) = if cur.starts_with("br") {
        (2, true)
    } else if cur.starts_with("r") {
        (1, true)
    } else {
        (1, false) // 'b'
    };
    let mut ahead = prefix_len;
    let mut hashes = 0_usize;
    if raw {
        while cur.peek(ahead) == Some('#') {
            hashes += 1;
            ahead += 1;
        }
    }
    match cur.peek(ahead) {
        Some('"') => {
            cur.bump_n(ahead + 1);
            if raw {
                // Raw string: no escapes; ends at `"` + `hashes` hashes.
                let mut closer = String::from("\"");
                closer.push_str(&"#".repeat(hashes));
                while cur.cur().is_some() && !cur.starts_with(&closer) {
                    cur.bump();
                }
                cur.bump_n(closer.chars().count());
            } else {
                lex_quoted(cur, '"');
            }
            Some(Token { kind: Tok::Str, line })
        }
        Some('\'') if !raw && hashes == 0 => {
            // b'x' byte literal.
            cur.bump_n(ahead + 1);
            lex_quoted(cur, '\'');
            Some(Token { kind: Tok::Char, line })
        }
        Some(c) if raw && hashes == 1 && is_ident_start(c) => {
            // Raw identifier r#type: emit the unescaped name.
            cur.bump_n(ahead);
            let mut name = String::new();
            while let Some(c) = cur.cur() {
                if !is_ident_continue(c) {
                    break;
                }
                name.push(c);
                cur.bump();
            }
            Some(Token { kind: Tok::Ident(name), line })
        }
        _ => None, // plain identifier starting with r/b
    }
}

/// Consume a (non-raw) quoted literal body after the opening quote,
/// honouring backslash escapes, through the closing `quote`. Returns the
/// raw body text (escapes included) for content-sensitive side tables.
fn lex_quoted(cur: &mut Cursor, quote: char) -> String {
    let mut body = String::new();
    while let Some(c) = cur.bump() {
        if c == '\\' {
            body.push(c);
            if let Some(esc) = cur.bump() {
                body.push(esc); // escaped char, never a terminator
            }
        } else if c == quote {
            break;
        } else {
            body.push(c);
        }
    }
    body
}

/// Number starting at an ASCII digit. Distinguishes float from integer:
/// a `.` followed by a digit / end-of-expr, an exponent, or an `f32`/`f64`
/// suffix makes it a float. `0..n` and `x.0` stay integers.
fn lex_number(cur: &mut Cursor) -> Token {
    let line = cur.line;
    let mut is_float = false;
    let radix_prefix = cur.starts_with("0x") || cur.starts_with("0o") || cur.starts_with("0b");
    if radix_prefix {
        cur.bump_n(2);
    }
    let mut text = String::new();
    while let Some(c) = cur.cur() {
        if c.is_ascii_alphanumeric() || c == '_' {
            // Exponent of a decimal float: `1e5`, `2E-3`.
            if !radix_prefix
                && (c == 'e' || c == 'E')
                && matches!(cur.peek(1), Some(d) if d.is_ascii_digit() || d == '-' || d == '+')
            {
                is_float = true;
                cur.bump();
                if matches!(cur.cur(), Some('-' | '+')) {
                    cur.bump();
                }
                continue;
            }
            text.push(c);
            cur.bump();
        } else if c == '.' && !radix_prefix && !is_float {
            match cur.peek(1) {
                // `0..n` is a range; `x.method()` can't start with a digit.
                Some('.') => break,
                Some(d) if d.is_ascii_digit() => {
                    is_float = true;
                    cur.bump();
                }
                Some(d) if is_ident_start(d) => break, // 1.max(2) — method on int
                // Trailing-dot float: `1.`
                _ => {
                    is_float = true;
                    cur.bump();
                    break;
                }
            }
        } else {
            break;
        }
    }
    if text.ends_with("f32") || text.ends_with("f64") {
        is_float = true;
    }
    Token { kind: if is_float { Tok::Float } else { Tok::Int }, line }
}

/// At a `'`: either a char literal (`'x'`, `'\n'`, `'"'`) or a
/// lifetime/label (`'a`, `'outer`).
fn lex_quote_or_lifetime(cur: &mut Cursor) -> Token {
    let line = cur.line;
    cur.bump(); // the opening '
    match (cur.cur(), cur.peek(1)) {
        // Escape: definitely a char literal.
        (Some('\\'), _) => {
            lex_quoted(cur, '\'');
            Token { kind: Tok::Char, line }
        }
        // 'x' — single char (possibly `'`-adjacent like '"' or '[').
        (Some(_), Some('\'')) => {
            cur.bump_n(2);
            Token { kind: Tok::Char, line }
        }
        // Lifetime or label: consume the identifier.
        (Some(c), _) if is_ident_start(c) => {
            while let Some(c) = cur.cur() {
                if !is_ident_continue(c) {
                    break;
                }
                cur.bump();
            }
            Token { kind: Tok::Lifetime, line }
        }
        _ => Token { kind: Tok::Op("'"), line },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_stream() {
        let out = lex("let x = v.unwrap();");
        let kinds: Vec<Tok> = out.tokens.into_iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("x".into()),
                Tok::Op("="),
                Tok::Ident("v".into()),
                Tok::Op("."),
                Tok::Ident("unwrap".into()),
                Tok::Op("("),
                Tok::Op(")"),
                Tok::Op(";"),
            ]
        );
    }

    #[test]
    fn comments_hide_tokens_and_count_lines() {
        let out = lex("// x.unwrap()\n/* a\nb */ y");
        assert_eq!(out.tokens.len(), 1);
        assert_eq!(out.tokens[0].kind, Tok::Ident("y".into()));
        assert_eq!(out.tokens[0].line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let out = lex("/* outer /* inner */ still-comment */ real");
        assert_eq!(idents("/* outer /* inner */ still */ real"), vec!["real"]);
        assert_eq!(out.tokens.len(), 1);
    }

    #[test]
    fn raw_strings_and_hashes() {
        assert_eq!(
            idents(r####"let s = r#"contains "quotes" and unwrap()"#; after"####),
            vec!["let", "s", "after"]
        );
        assert_eq!(idents("let s = r\"plain raw\"; after"), vec!["let", "s", "after"]);
    }

    #[test]
    fn raw_identifier() {
        assert_eq!(idents("r#type"), vec!["type"]);
    }

    #[test]
    fn byte_literals() {
        assert_eq!(idents("b\"bytes with unwrap()\" tail"), vec!["tail"]);
        assert_eq!(idents("b'[' tail"), vec!["tail"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // '"' and '[' must lex as char literals, not open strings/brackets.
        let out = lex("let q = '\"'; let b = '['; &'a str; 'outer: loop {}");
        let chars = out.tokens.iter().filter(|t| t.kind == Tok::Char).count();
        let lifetimes = out.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn escaped_char_literals() {
        let out = lex(r"let a = '\''; let b = '\\'; x");
        let chars = out.tokens.iter().filter(|t| t.kind == Tok::Char).count();
        assert_eq!(chars, 2);
        assert_eq!(idents(r"let a = '\''; x"), vec!["let", "a", "x"]);
    }

    #[test]
    fn float_vs_int_vs_range() {
        let kind_at = |src: &str, i: usize| lex(src).tokens[i].kind.clone();
        assert_eq!(kind_at("1.0", 0), Tok::Float);
        assert_eq!(kind_at("1.", 0), Tok::Float);
        assert_eq!(kind_at("1e5", 0), Tok::Float);
        assert_eq!(kind_at("2E-3", 0), Tok::Float);
        assert_eq!(kind_at("1f64", 0), Tok::Float);
        assert_eq!(kind_at("42", 0), Tok::Int);
        assert_eq!(kind_at("0xff", 0), Tok::Int);
        // `0..n` → Int, Op(..), Ident
        let out = lex("0..n");
        assert_eq!(out.tokens[0].kind, Tok::Int);
        assert_eq!(out.tokens[1].kind, Tok::Op(".."));
        // Tuple access `x.0` keeps the 0 an Int.
        let out = lex("x.0");
        assert_eq!(out.tokens[2].kind, Tok::Int);
        // Method call on an integer literal.
        let out = lex("1.max(2)");
        assert_eq!(out.tokens[0].kind, Tok::Int);
    }

    #[test]
    fn maximal_munch_ops() {
        let out = lex("a == b != c :: d ..= e");
        let ops: Vec<&str> = out
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                Tok::Op(o) => Some(o),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "::", "..="]);
    }

    #[test]
    fn allow_directives() {
        let out = lex("x.unwrap(); // sherlock-lint: allow(panic-path): checked above\ny");
        assert_eq!(out.allows.get(&1).map(Vec::as_slice), Some(&["panic-path".to_string()][..]));
        let out = lex("// sherlock-lint: allow(a, b)\nz");
        assert_eq!(out.allows.get(&1).map(Vec::len), Some(2));
        let out = lex("// sherlock-lint: allow-file(nan-unsafe)\nz");
        assert_eq!(out.file_allows, vec!["nan-unsafe".to_string()]);
        assert!(out.allows.is_empty());
    }

    #[test]
    fn byte_string_variants() {
        // Raw byte strings, with and without hashes, must swallow their
        // contents — including fake findings and fake delimiters.
        assert_eq!(idents("br\"raw bytes unwrap()\" tail"), vec!["tail"]);
        assert_eq!(idents("br#\"with \"quotes\" and {braces}\"# tail"), vec!["tail"]);
        assert_eq!(idents("br##\"ends with \"# but not here\"## tail"), vec!["tail"]);
        // Escapes inside plain byte strings must not end the literal early.
        assert_eq!(idents(r#"b"esc \" quote" tail"#), vec!["tail"]);
        assert_eq!(idents(r#"b"trailing slash \\" tail"#), vec!["tail"]);
        // Escaped byte chars.
        let chars = |src: &str| lex(src).tokens.iter().filter(|t| t.kind == Tok::Char).count();
        assert_eq!(chars(r"let nl = b'\n'; let q = b'\''; let bs = b'\\';"), 3);
        // A byte string never desyncs delimiter pairing for what follows.
        let out = lex("f(b\"{ ( [\"); g()");
        let opens =
            out.tokens.iter().filter(|t| matches!(t.kind, Tok::Op("(" | "[" | "{"))).count();
        let closes =
            out.tokens.iter().filter(|t| matches!(t.kind, Tok::Op(")" | "]" | "}"))).count();
        assert_eq!((opens, closes), (2, 2), "{:?}", out.tokens);
    }

    #[test]
    fn lifetime_variants() {
        let lifetimes =
            |src: &str| lex(src).tokens.iter().filter(|t| t.kind == Tok::Lifetime).count();
        // Generic positions, bounds, anonymous and static lifetimes.
        assert_eq!(lifetimes("fn f<'a, 'b: 'a>(x: &'a str, y: &'b mut [u8]) {}"), 5);
        assert_eq!(lifetimes("impl Foo<'_> for Bar<'static> {}"), 2);
        // Loop labels on both ends: definition and break/continue.
        assert_eq!(lifetimes("'outer: for x in v { break 'outer; continue 'outer; }"), 3);
        // A lifetime right before a char literal must not merge with it.
        let out = lex("f::<'a>('x')");
        assert_eq!(out.tokens.iter().filter(|t| t.kind == Tok::Lifetime).count(), 1);
        assert_eq!(out.tokens.iter().filter(|t| t.kind == Tok::Char).count(), 1);
        // Lifetimes never eat the following identifier.
        assert_eq!(idents("&'a str"), vec!["str"]);
    }

    #[test]
    fn unterminated_input_does_not_hang() {
        let _ = lex("\"never closed");
        let _ = lex("/* never closed");
        let _ = lex("r#\"never closed");
    }
}
