//! A small Rust tokenizer for the call-graph passes.
//!
//! The line-oriented sanitizer in the `source` module is enough for the
//! local token rules, but call-graph construction needs real tokens:
//! identifiers with positions, punctuation, and comments as first-class
//! tokens (the `// lint: hot-path` and `// INVARIANT:` annotations live
//! there). The tokenizer handles the full literal zoo — strings with
//! escapes (including the `\<newline>` continuation, which the v1
//! sanitizer mis-skipped), raw strings with any number of `#` guards,
//! byte and C strings, char literals vs lifetimes, numbers with type
//! suffixes — and nested block comments.
//!
//! It does **not** attempt to be a full lexer: compound operators come
//! out as single-char puncts (`::` is two adjacent `:` tokens) because
//! the item parser only ever needs adjacency, never operator identity.

/// Token kinds the parser distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// Any literal (string/char/byte/number). String-likes keep their
    /// text verbatim (the metrics pass reads metric names out of them);
    /// rule matching never looks at `Lit` tokens, so banned tokens
    /// inside literals still cannot fire.
    Lit,
    /// `'lifetime` (including loop labels).
    Lifetime,
    /// Line, block, or doc comment; text is the comment body without
    /// markers.
    Comment,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    fn new(kind: TokKind, text: impl Into<String>, line: usize) -> Self {
        Self {
            kind,
            text: text.into(),
            line,
        }
    }

    /// Whether this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// Whether this is the exact identifier/keyword `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// Tokenizes `text`. Never fails: unrecognized bytes become puncts, an
/// unterminated literal simply runs to end of file.
pub fn tokenize(text: &str) -> Vec<Tok> {
    let chars: Vec<char> = text.chars().collect();
    let mut toks: Vec<Tok> = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let next = chars.get(i + 1).copied();

        // Comments.
        if c == '/' && next == Some('/') {
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            let body: String = chars[start..j].iter().collect();
            toks.push(Tok::new(TokKind::Comment, body, line));
            i = j;
            continue;
        }
        if c == '/' && next == Some('*') {
            let start_line = line;
            let mut depth = 1u32;
            let mut j = i + 2;
            let mut body = String::new();
            while j < chars.len() && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    body.push('\n');
                    j += 1;
                } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    body.push(chars[j]);
                    j += 1;
                }
            }
            toks.push(Tok::new(TokKind::Comment, body, start_line));
            i = j;
            continue;
        }

        // Raw strings (r"…", r#"…"#, br##"…"##, cr#"…"#).
        if let Some((hashes, quote)) = raw_string_at(&chars, i) {
            let start_line = line;
            let mut j = quote + 1;
            while j < chars.len() {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '"' && closes_raw(&chars, j, hashes) {
                    j += 1 + hashes as usize;
                    break;
                } else {
                    j += 1;
                }
            }
            let text: String = chars[i..j.min(chars.len())].iter().collect();
            toks.push(Tok::new(TokKind::Lit, text, start_line));
            i = j;
            continue;
        }

        // Plain / byte / C strings.
        if c == '"' || (matches!(c, 'b' | 'c') && next == Some('"') && !prev_is_ident(&chars, i)) {
            let start_line = line;
            let mut j = if c == '"' { i + 1 } else { i + 2 };
            while j < chars.len() {
                if chars[j] == '\\' {
                    // An escape may cover a newline (string continuation);
                    // keep the line count honest either way.
                    if chars.get(j + 1) == Some(&'\n') {
                        line += 1;
                    }
                    j += 2;
                } else if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            let text: String = chars[i..j.min(chars.len())].iter().collect();
            toks.push(Tok::new(TokKind::Lit, text, start_line));
            i = j;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if char_literal_at(&chars, i) {
                let mut j = i + 1;
                while j < chars.len() {
                    if chars[j] == '\\' {
                        j += 2;
                    } else if chars[j] == '\'' {
                        j += 1;
                        break;
                    } else {
                        if chars[j] == '\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                toks.push(Tok::new(TokKind::Lit, "' '", line));
                i = j;
                continue;
            }
            // Lifetime or label: 'ident
            let mut j = i + 1;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            toks.push(Tok::new(TokKind::Lifetime, text, line));
            i = j;
            continue;
        }

        // Numbers (so `0x1f` never reads as ident `x1f`, and suffixed
        // literals like `12u64` stay one token).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < chars.len() && (is_ident_char(chars[j]) || chars[j] == '.') {
                // `1.method()` — a dot followed by a non-digit ends the
                // number (method call on a literal, or a range `0..n`).
                if chars[j] == '.' && !chars.get(j + 1).copied().unwrap_or(' ').is_ascii_digit() {
                    break;
                }
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            toks.push(Tok::new(TokKind::Lit, text, line));
            i = j;
            continue;
        }

        // Identifiers and keywords (including `r#ident` raw identifiers).
        if is_ident_start(c) || (c == '_' && next.map(is_ident_char).unwrap_or(false)) {
            let mut j = i + 1;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let text: String = chars[i..j].iter().collect();
            toks.push(Tok::new(TokKind::Ident, text, line));
            i = j;
            continue;
        }

        toks.push(Tok::new(TokKind::Punct, c.to_string(), line));
        i += 1;
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && is_ident_char(chars[i - 1])
}

/// Whether a raw string starts at `i`; returns (hash count, index of the
/// opening quote).
fn raw_string_at(chars: &[char], i: usize) -> Option<(u32, usize)> {
    if prev_is_ident(chars, i) {
        return None;
    }
    let mut j = i;
    if matches!(chars.get(j), Some('b') | Some('c')) {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((hashes, j))
}

/// Whether the `"` at `i` is followed by at least `hashes` `#` guards.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// `'x'` is a char literal; `'a` in `&'a str` (no closing quote after
/// one ident char) is a lifetime.
fn char_literal_at(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        None => false,
        Some('\\') => true,
        Some(c) if is_ident_char(*c) => chars.get(i + 2) == Some(&'\''),
        Some(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn basic_tokens_with_lines() {
        let toks = tokenize("fn foo() {\n    bar();\n}\n");
        assert!(toks[0].is_ident("fn"));
        assert_eq!(toks[0].line, 1);
        let bar = toks.iter().find(|t| t.is_ident("bar")).unwrap();
        assert_eq!(bar.line, 2);
    }

    #[test]
    fn multi_hash_raw_strings_are_one_literal() {
        let src = "let s = r##\"has \"# inner and .unwrap()\"##; keep(s);\n";
        // The whole raw string (prefix included) collapses into one
        // blanked literal: no stray `r` ident, no leaked `unwrap`.
        assert_eq!(idents(src), vec!["let", "s", "keep", "s"]);
    }

    #[test]
    fn raw_string_prefix_is_consumed() {
        // `r` must not appear as a separate ident before the literal.
        let toks = tokenize("x(r#\"y\"#);");
        let names: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(names, vec!["x"]);
    }

    #[test]
    fn string_continuation_keeps_line_numbers() {
        // `\<newline>` inside a string spans two physical lines; the
        // token after it must be on line 3.
        let src = "let a = \"x \\\ny\";\nb();\n";
        let b = tokenize(src).into_iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "' '"));
        assert!(!toks.iter().any(|t| t.is_ident("x") && t.line == 0));
    }

    #[test]
    fn comments_are_tokens_with_bodies() {
        let toks = tokenize("// lint: hot-path\nfn f() {}\n/* block /* nested */ done */\n");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Comment && t.text.trim() == "lint: hot-path"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Comment && t.text.contains("nested")));
    }

    #[test]
    fn numbers_do_not_merge_with_method_calls() {
        let toks = tokenize("let x = 0x1f; let y = 1.max(2); let r = 0..n;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "0x1f"));
        assert!(toks.iter().any(|t| t.is_ident("max")));
        assert!(toks.iter().any(|t| t.is_ident("n")));
    }

    #[test]
    fn string_contents_never_become_idents() {
        // Banned-token scans only look at Ident tokens; string bodies
        // must stay inside single Lit tokens.
        let toks = tokenize("f(b\"panic!\", c\"unwrap\", r##\"vec![]\"##);");
        for t in &toks {
            if t.kind == TokKind::Ident {
                assert_eq!(t.text, "f");
            }
        }
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text.contains("panic")));
    }

    #[test]
    fn string_literals_keep_their_text() {
        let toks = tokenize("c(reg, \"demand_accesses\", x); let f = format!(\"{p}reads\");");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "\"demand_accesses\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "\"{p}reads\""));
    }
}
