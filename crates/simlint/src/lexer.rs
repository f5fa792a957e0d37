//! A zero-dependency Rust lexer, just deep enough for domain linting.
//!
//! The v1 linter blanked string literals and comments line by line and
//! matched regex-ish substrings against what was left. That breaks down
//! exactly where determinism bugs hide: multi-line method chains, raw
//! strings containing code-like text, nested block comments, and numeric
//! suffixes. v2 lexes every file into a real token stream with per-token
//! line numbers, so rules can match token *sequences* (e.g.
//! `SimTime :: from_secs_f64 (` … `as_secs_f64`) across line breaks and
//! never inside literals. Comments, doc comments included, are skipped
//! and yield no tokens.
//!
//! The lexer handles the constructs that matter for correctness of the
//! analysis — raw strings (`r#"…"#`, any hash depth), byte and raw-byte
//! strings, nested block comments, char literals vs. lifetimes, numeric
//! literals with type suffixes (`1_000u64`, `2.5e-3f32`, `0xFFu8`), raw
//! identifiers (`r#type`), and multi-char operators — and deliberately
//! nothing more. It is not a parser: rules do shallow, token-window
//! matching on the output.

use std::fmt;

/// Token classes the rules distinguish.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (keywords are not separated; rules match text).
    Ident,
    /// Lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Integer literal; `text` keeps the exact spelling including suffix.
    Int,
    /// Float literal; `text` keeps the exact spelling including suffix.
    Float,
    /// String literal of any flavour; `text` is the *interior* (cooked
    /// strings only — raw/byte interiors are dropped, text is empty).
    Str,
    /// Char or byte literal; interior dropped.
    Char,
    /// Operator or punctuation; `text` is the exact operator.
    Op,
}

/// One code token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Which class of token this is.
    pub kind: TokKind,
    /// The token text (see [`TokKind`] for what is preserved).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when this is an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this is an operator with exactly this text.
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokKind::Op && self.text == s
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:?}({})", self.line, self.kind, self.text)
    }
}

/// Multi-character operators, longest first so greedy matching is correct.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Lex `source` into code tokens in source order; comments yield none.
/// Never fails: unterminated constructs simply run to end of file (the
/// linter must degrade gracefully on code that does not compile yet).
pub fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    macro_rules! bump_lines {
        ($c:expr) => {
            if $c == '\n' {
                line += 1;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];

        // Whitespace.
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }

        // Line comment (also doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }

        // Block comment, possibly nested, possibly multi-line.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    bump_lines!(chars[i]);
                    i += 1;
                }
            }
            continue;
        }

        // Raw strings / raw identifiers / byte strings: r" r#" r#ident b" br" br#".
        if c == 'r' || c == 'b' {
            let prev_is_ident = i > 0 && is_ident_char(chars[i - 1]);
            if !prev_is_ident {
                let mut j = i + 1;
                let mut raw = c == 'r';
                if c == 'b' && chars.get(j) == Some(&'r') {
                    raw = true;
                    j += 1;
                }
                if raw {
                    let mut hashes = 0usize;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        // Raw (byte) string: scan to `"` followed by `hashes` hashes.
                        let start_line = line;
                        j += 1;
                        loop {
                            match chars.get(j) {
                                None => break,
                                Some('"') => {
                                    let mut k = j + 1;
                                    let mut seen = 0usize;
                                    while seen < hashes && chars.get(k) == Some(&'#') {
                                        seen += 1;
                                        k += 1;
                                    }
                                    if seen == hashes {
                                        j = k;
                                        break;
                                    }
                                    j += 1;
                                }
                                Some(&ch) => {
                                    bump_lines!(ch);
                                    j += 1;
                                }
                            }
                        }
                        out.push(Token {
                            kind: TokKind::Str,
                            text: String::new(),
                            line: start_line,
                        });
                        i = j;
                        continue;
                    }
                    if c == 'r' && hashes == 1 && chars.get(j).copied().is_some_and(is_ident_start)
                    {
                        // Raw identifier r#type.
                        let start = j;
                        while j < chars.len() && is_ident_char(chars[j]) {
                            j += 1;
                        }
                        out.push(Token {
                            kind: TokKind::Ident,
                            text: chars[start..j].iter().collect(),
                            line,
                        });
                        i = j;
                        continue;
                    }
                }
                if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    // Byte string: cooked scan with escapes.
                    let start_line = line;
                    let mut j = i + 2;
                    while j < chars.len() {
                        match chars[j] {
                            '\\' => j += 2,
                            '"' => {
                                j += 1;
                                break;
                            }
                            ch => {
                                bump_lines!(ch);
                                j += 1;
                            }
                        }
                    }
                    out.push(Token {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                    // Byte literal b'x'.
                    let mut j = i + 2;
                    while j < chars.len() && chars[j] != '\'' {
                        if chars[j] == '\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    out.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                    i = j + 1;
                    continue;
                }
            }
            // Fall through: plain identifier starting with r/b.
        }

        // Cooked string (may span lines).
        if c == '"' {
            let start_line = line;
            let mut text = String::new();
            let mut j = i + 1;
            while j < chars.len() {
                match chars[j] {
                    '\\' => {
                        if let Some(&esc) = chars.get(j + 1) {
                            text.push('\\');
                            text.push(esc);
                        }
                        j += 2;
                    }
                    '"' => {
                        j += 1;
                        break;
                    }
                    ch => {
                        bump_lines!(ch);
                        text.push(ch);
                        j += 1;
                    }
                }
            }
            out.push(Token {
                kind: TokKind::Str,
                text,
                line: start_line,
            });
            i = j;
            continue;
        }

        // Char literal vs. lifetime.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: skip to closing quote.
                let mut j = i + 2;
                while j < chars.len() && chars[j] != '\'' {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i = j + 1;
                continue;
            }
            let one = chars.get(i + 1).copied();
            let closes = chars.get(i + 2) == Some(&'\'');
            if closes && one.is_some() {
                out.push(Token {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                });
                i += 3;
                continue;
            }
            if one.is_some_and(is_ident_start) {
                // Lifetime: 'a, 'static, …
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                out.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[start..j].iter().collect(),
                    line,
                });
                i = j;
                continue;
            }
            // Lone quote (should not happen in valid code): treat as op.
            out.push(Token {
                kind: TokKind::Op,
                text: "'".into(),
                line,
            });
            i += 1;
            continue;
        }

        // Numeric literal.
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            let mut is_float = false;
            if c == '0' && matches!(chars.get(i + 1), Some('x') | Some('o') | Some('b')) {
                j += 2;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
            } else {
                while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                    j += 1;
                }
                // Fractional part only when `.` is followed by a digit, so
                // ranges (`0..n`), method calls (`1.max(2)`) and tuple
                // indices stay intact.
                if chars.get(j) == Some(&'.')
                    && chars
                        .get(j + 1)
                        .copied()
                        .is_some_and(|d| d.is_ascii_digit())
                {
                    is_float = true;
                    j += 1;
                    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                        j += 1;
                    }
                }
                // Exponent.
                if matches!(chars.get(j), Some('e') | Some('E')) {
                    let mut k = j + 1;
                    if matches!(chars.get(k), Some('+') | Some('-')) {
                        k += 1;
                    }
                    if chars.get(k).copied().is_some_and(|d| d.is_ascii_digit()) {
                        is_float = true;
                        j = k;
                        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
                            j += 1;
                        }
                    }
                }
                // Type suffix (u64, f32, usize, …).
                if chars.get(j).copied().is_some_and(is_ident_start) {
                    let suffix_start = j;
                    while j < chars.len() && is_ident_char(chars[j]) {
                        j += 1;
                    }
                    let suffix: String = chars[suffix_start..j].iter().collect();
                    if suffix.starts_with('f') {
                        is_float = true;
                    }
                }
            }
            out.push(Token {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let start = i;
            let mut j = i;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            out.push(Token {
                kind: TokKind::Ident,
                text: chars[start..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }

        // Operators, longest match first.
        let mut matched = false;
        for op in OPS {
            let oc: Vec<char> = op.chars().collect();
            if chars[i..].starts_with(&oc) {
                out.push(Token {
                    kind: TokKind::Op,
                    text: (*op).into(),
                    line,
                });
                i += oc.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        out.push(Token {
            kind: TokKind::Op,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Skip forward past a balanced `(`/`[`/`{` group. `open` is the index of
/// the opening token; returns the index *after* the matching close, or
/// `tokens.len()` when unbalanced.
pub fn skip_balanced(tokens: &[Token], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return open + 1,
    };
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_op(o) {
            depth += 1;
        } else if tokens[i].is_op(c) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Skip backward past a balanced group whose *closing* token is at
/// `close`; returns the index of the opening token, or 0 when unbalanced.
pub fn skip_balanced_back(tokens: &[Token], close: usize) -> usize {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        "}" => ("{", "}"),
        _ => return close,
    };
    let mut depth = 0i64;
    let mut i = close as i64;
    while i >= 0 {
        let t = &tokens[i as usize];
        if t.is_op(c) {
            depth += 1;
        } else if t.is_op(o) {
            depth -= 1;
            if depth == 0 {
                return i as usize;
            }
        }
        i -= 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).iter().map(|t| t.text.clone()).collect()
    }

    #[test]
    fn basic_tokens_and_lines() {
        let l = lex("let x = 1;\nlet y = x + 2;\n");
        assert_eq!(l[0].text, "let");
        assert_eq!(l[0].line, 1);
        let y = l.iter().find(|t| t.text == "y").expect("y token");
        assert_eq!(y.line, 2);
    }

    #[test]
    fn raw_strings_hide_code_like_text() {
        let l = lex("let s = r#\"Instant::now() .unwrap()\"#; done();");
        assert!(!l.iter().any(|t| t.text == "Instant"));
        assert!(l.iter().any(|t| t.text == "done"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ code();");
        assert!(l.iter().any(|t| t.text == "code"));
        assert!(!l.iter().any(|t| t.text == "outer"));
    }

    #[test]
    fn multiline_block_comment_lines_tracked() {
        let l = lex("/* a\n b */\nfn f() {}\n");
        let f = l.iter().find(|t| t.text == "fn").expect("fn token");
        assert_eq!(f.line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(l.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(l.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn escaped_char_literals() {
        let l = lex(r"let c = '\n'; let q = '\''; f();");
        assert_eq!(l.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert!(l.iter().any(|t| t.text == "f"));
    }

    #[test]
    fn numeric_suffixes_and_ranges() {
        let t = texts("let a = 1_000u64; let b = 2.5e-3f32; for i in 0..n { a.max(1) }");
        assert!(t.contains(&"1_000u64".to_string()));
        assert!(t.contains(&"2.5e-3f32".to_string()));
        assert!(t.contains(&"..".to_string()));
        // `1` then `.` then `max` — not a float.
        assert!(t.contains(&"max".to_string()));
    }

    #[test]
    fn hex_and_shift_ops() {
        let t = texts("let m = 0xFFu8; let k = 64 << 20;");
        assert!(t.contains(&"0xFFu8".to_string()));
        assert!(t.contains(&"<<".to_string()));
    }

    #[test]
    fn turbofish_tokens() {
        let t = texts("v.iter().sum::<f64>()");
        let idx = t.iter().position(|s| s == "sum").expect("sum token");
        assert_eq!(t[idx + 1], "::");
        assert_eq!(t[idx + 2], "<");
        assert_eq!(t[idx + 3], "f64");
    }

    #[test]
    fn string_interiors_preserved_for_expect_check() {
        let l = lex("v.expect(\"queue invariant\")");
        let s = l
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("string token");
        assert_eq!(s.text, "queue invariant");
    }

    #[test]
    fn comments_yield_no_tokens() {
        let src = "// Instant::now()\n/// doc\n/* a /* nested */\n b */ x.unwrap();\n";
        assert_eq!(texts(src), ["x", ".", "unwrap", "(", ")", ";"]);
        assert!(lex(src).iter().all(|t| t.line == 4));
    }

    #[test]
    fn raw_identifier() {
        let t = texts("let r#type = 1;");
        assert!(t.contains(&"type".to_string()));
    }

    #[test]
    fn balanced_skipping() {
        let l = lex("f(a, (b, c))[0] + g()");
        // token 0 = f, 1 = ( … find its close.
        let end = skip_balanced(&l, 1);
        assert!(l[end].is_op("["));
        let close = end + 2; // [ 0 ]
        assert!(l[close].is_op("]"));
        assert_eq!(skip_balanced_back(&l, close), end);
    }

    #[test]
    fn multiline_cooked_string() {
        let l = lex("let s = \"line1\nline2\";\nnext();");
        let next = l.iter().find(|t| t.text == "next").expect("next");
        assert_eq!(next.line, 3);
    }
}
