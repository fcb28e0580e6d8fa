//! A minimal, single-purpose Rust lexer for static analysis.
//!
//! The analyzer's rules match on *code* tokens — identifiers and
//! punctuation — so the lexer's whole job is to be exact about what is
//! code and what is not: line comments, (nested) block comments, plain
//! and raw strings, byte strings, and character literals must never
//! leak their contents into the token stream (`// UdpSocket is prose`
//! is not a violation), while comment *text* is preserved separately
//! because rules read it (`// bounded:` annotations and
//! `// lint: allow(...)` waivers).
//!
//! This is deliberately not a full Rust lexer: numeric-literal shapes,
//! operator fission (`>>` vs `> >`), and token spacing don't matter to
//! any rule, so everything that is neither an identifier, a comment,
//! nor a literal is emitted as single-character punctuation.

/// One significant (non-comment, non-whitespace) token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`extern`, `unwrap`, `std`, ...).
    Ident(String),
    /// A string/char/numeric literal. The payload is *not* kept —
    /// literal contents must never match a rule. Only string literals
    /// record their text, because the FFI rule reads `extern "C"`'s
    /// ABI string.
    Literal(Option<String>),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A single punctuation character (`.`, `!`, `[`, `{`, ...).
    Punct(char),
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A comment's text (with the `//`, `///`, `/*` markers stripped) and
/// the lines it spans, kept for waiver and `bounded:` scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    pub text: String,
    pub line_start: u32,
    pub line_end: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into significant tokens plus comments.
///
/// Unterminated strings/comments are tolerated (the rest of the file
/// is swallowed into the literal/comment): the analyzer must degrade
/// gracefully on code mid-edit, and rustc rejects such files anyway.
pub fn lex(src: &str) -> LexedFile {
    let b: Vec<char> = src.chars().collect();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    // Advances past `\n`s inside `[from, to)` updating the line count.
    macro_rules! count_lines {
        ($from:expr, $to:expr) => {
            for k in $from..$to {
                if b[k] == '\n' {
                    line += 1;
                }
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments `///`, `//!`).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            let text = text.trim_start_matches('/').trim_start_matches('!').trim();
            out.comments.push(Comment {
                text: text.to_string(),
                line_start: line,
                line_end: line,
            });
            continue;
        }
        // Block comment, possibly nested (incl. `/** */`, `/*! */`).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let line_start = line;
            let start = i;
            i += 2;
            let mut depth = 1usize;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let text: String = b[start..i].iter().collect();
            let text = text
                .trim_start_matches('/')
                .trim_start_matches('*')
                .trim_start_matches('!')
                .trim_end_matches('/')
                .trim_end_matches('*')
                .trim();
            out.comments.push(Comment {
                text: text.to_string(),
                line_start,
                line_end: line,
            });
            continue;
        }
        // Raw strings r"..." / r#"..."# / byte-raw br#"..."# — detect
        // before plain identifiers since they start with letters.
        if (c == 'r' || c == 'b') && raw_string_at(&b, i).is_some() {
            let (hashes, body_start) = raw_string_at(&b, i).unwrap_or((0, i));
            // Scan for `"` followed by `hashes` `#`s.
            let mut j = body_start;
            let closing: String = std::iter::once('"').chain((0..hashes).map(|_| '#')).collect();
            let closing: Vec<char> = closing.chars().collect();
            while j < n {
                if b[j] == '"' && j + closing.len() <= n && b[j..j + closing.len()] == closing[..] {
                    j += closing.len();
                    break;
                }
                j += 1;
            }
            let tok_line = line;
            count_lines!(i, j.min(n));
            i = j.min(n);
            out.tokens.push(Token {
                tok: Tok::Literal(None),
                line: tok_line,
            });
            continue;
        }
        // Identifier / keyword (a `b` or `r` not starting a raw string
        // falls through to here; `b"..."` byte strings are handled by
        // the string arm after the single `b` ident? No — handle the
        // `b"` prefix explicitly below).
        if is_ident_start(c) {
            // Byte-string prefix: `b"..."`.
            if c == 'b' && i + 1 < n && b[i + 1] == '"' {
                i += 1; // fall into the string arm on the quote
            } else {
                let start = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                });
                continue;
            }
        }
        // String literal.
        if b[i] == '"' {
            let tok_line = line;
            let start = i;
            i += 1;
            while i < n {
                match b[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            let text: String = b[start..i.min(n)].iter().collect();
            let inner = text.trim_matches('"').to_string();
            out.tokens.push(Token {
                tok: Tok::Literal(Some(inner)),
                line: tok_line,
            });
            continue;
        }
        // Char literal vs lifetime. A `'` begins a char literal when
        // the quoted content closes with another `'` (one escaped or
        // plain char); otherwise it is a lifetime (`'a`, `'static`).
        if c == '\'' {
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: skip to the closing quote.
                let mut j = i + 2;
                while j < n && b[j] != '\'' {
                    j += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Literal(None),
                    line,
                });
                i = (j + 1).min(n);
                continue;
            }
            if i + 2 < n && b[i + 2] == '\'' {
                // 'x' — a plain char literal.
                out.tokens.push(Token {
                    tok: Tok::Literal(None),
                    line,
                });
                i += 3;
                continue;
            }
            // A lifetime: consume the identifier after the quote.
            let mut j = i + 1;
            while j < n && is_ident_continue(b[j]) {
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Lifetime,
                line,
            });
            i = j.max(i + 1);
            continue;
        }
        // Numeric literal (digits, underscores, suffixes, hex/oct/bin,
        // floats). Consumed coarsely: rules never match numbers.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (is_ident_continue(b[j]) || b[j] == '.') {
                // `0..10` range: stop before the second dot.
                if b[j] == '.' && j + 1 < n && b[j + 1] == '.' {
                    break;
                }
                j += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Literal(None),
                line,
            });
            i = j;
            continue;
        }
        // Everything else: one punctuation char.
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

/// If a raw (byte) string starts at `i`, returns `(hash_count,
/// index_after_opening_quote)`.
fn raw_string_at(b: &[char], i: usize) -> Option<(usize, usize)> {
    let n = b.len();
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= n || b[j] != 'r' {
            return None;
        }
    }
    if j >= n || b[j] != 'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < n && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    if j < n && b[j] == '"' {
        Some((hashes, j + 1))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_do_not_leak_tokens() {
        let src = "// x.unwrap()\n/* panic! */ fn ok() {}\n";
        assert_eq!(idents(src), ["fn", "ok"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        assert_eq!(idents(src), ["fn", "f"]);
        let lexed = lex(src);
        assert!(lexed.comments[0].text.contains("inner"));
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        let src = r####"let s = r#"contains "quotes" and unwrap"#; let t = s;"####;
        assert_eq!(idents(src), ["let", "s", "let", "t", "s"]);
    }

    #[test]
    fn raw_string_is_one_literal_token() {
        let src = r####"r#"a "b" c"# x"####;
        let lexed = lex(src);
        assert_eq!(lexed.tokens.len(), 2);
        assert!(matches!(lexed.tokens[0].tok, Tok::Literal(None)));
        assert_eq!(lexed.tokens[1].tok, Tok::Ident("x".into()));
    }

    #[test]
    fn byte_and_escaped_strings() {
        let src = r#"let a = b"bytes"; let c = "esc \" quote"; let d = '\n'; let e = 'x';"#;
        assert_eq!(idents(src), ["let", "a", "let", "c", "let", "d", "let", "e"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn line_numbers_are_exact() {
        let src = "fn a() {}\n\nfn b() {}\n";
        let lexed = lex(src);
        let b_line = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("b".into()))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    #[test]
    fn multiline_strings_advance_lines() {
        let src = "let s = \"line\nbreak\";\nfn after() {}";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("after".into()))
            .map(|t| t.line);
        assert_eq!(after, Some(3));
    }

    #[test]
    fn extern_abi_string_is_kept() {
        let src = "extern \"C\" { fn poll(); }";
        let lexed = lex(src);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.tok == Tok::Literal(Some("C".into()))));
    }

    #[test]
    fn block_comment_spans_cover_inner_lines() {
        let src = "/* a\nb\nc */ fn f() {}";
        let lexed = lex(src);
        let c = &lexed.comments[0];
        assert_eq!((c.line_start, c.line_end), (1, 3));
    }
}
