//! Hand-rolled Rust tokenizer: just enough lexical structure for lock and
//! barrier fact extraction. No dependency on syn/proc-macro — the workspace
//! builds offline.
//!
//! The lexer produces identifiers, single-character punctuation, numeric and
//! string literals (contents discarded), and records every `//` comment so
//! the driver can honor `// bolt-lint: allow(<rule>)` escape hatches.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// Numeric literal (value discarded).
    Num,
    /// String / char / byte literal, carrying its raw contents (escape
    /// sequences are kept verbatim; rule L5 matches lock names, which never
    /// contain escapes).
    Lit(String),
    /// Lifetime such as `'a` (name discarded).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Result of lexing one file.
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Token>,
    /// `(line, comment text)` for every `//` comment.
    pub comments: Vec<(u32, String)>,
}

/// Tokenize Rust source. Unterminated literals are tolerated (the rest of
/// the file is consumed as the literal) — the analyzer favors robustness
/// over precision.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    let is_ident_start = |c: char| c.is_alphabetic() || c == '_';
    let is_ident_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < b.len() {
            if b[i + 1] == '/' {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != '\n' {
                    j += 1;
                }
                comments.push((line, b[start..j].iter().collect()));
                i = j;
                continue;
            }
            if b[i + 1] == '*' {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && j + 1 < b.len() && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < b.len() && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
                continue;
            }
        }
        // Raw strings and raw identifiers: r"..." / r#"..."# / r#ident /
        // byte variants br"..."; plain byte strings b"..." / b'x'.
        if (c == 'r' || c == 'b') && i + 1 < b.len() {
            let (raw_at, is_raw) = if c == 'r' {
                (i + 1, true)
            } else if b[i + 1] == 'r' {
                (i + 2, true)
            } else {
                (i + 1, false)
            };
            if is_raw && raw_at < b.len() && (b[raw_at] == '"' || b[raw_at] == '#') {
                // Count hashes, find the opening quote.
                let mut hashes = 0;
                let mut j = raw_at;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    j += 1;
                    let content_start = j;
                    let mut content_end = b.len();
                    // Scan to closing quote + hashes.
                    'scan: while j < b.len() {
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if b[j] == '"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == '#' {
                                k += 1;
                            }
                            if k == hashes {
                                content_end = j;
                                j += 1 + hashes;
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    tokens.push(Token {
                        tok: Tok::Lit(b[content_start..content_end].iter().collect()),
                        line,
                    });
                    i = j;
                    continue;
                }
                if hashes > 0 && j < b.len() && is_ident_start(b[j]) {
                    // r#ident raw identifier.
                    let start = j;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    tokens.push(Token {
                        tok: Tok::Ident(b[start..j].iter().collect()),
                        line,
                    });
                    i = j;
                    continue;
                }
                // `r #` that was neither: fall through as ident below.
            }
            if !is_raw && (b[i + 1] == '"' || b[i + 1] == '\'') {
                // b"..." or b'x': the plain literal after the `b` prefix.
                i += 1;
                continue;
            }
        }
        if c == '"' {
            let mut j = i + 1;
            let mut content_end = b.len();
            while j < b.len() {
                if b[j] == '\\' {
                    j += 2;
                    continue;
                }
                if b[j] == '\n' {
                    line += 1;
                }
                if b[j] == '"' {
                    content_end = j;
                    j += 1;
                    break;
                }
                j += 1;
            }
            tokens.push(Token {
                tok: Tok::Lit(b[i + 1..content_end.min(b.len())].iter().collect()),
                line,
            });
            i = j;
            continue;
        }
        if c == '\'' {
            // Lifetime or char literal. `'a` followed by non-quote = lifetime.
            if i + 1 < b.len() && (is_ident_start(b[i + 1])) {
                // Find end of the ident run.
                let mut j = i + 2;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                if j < b.len() && b[j] == '\'' && j == i + 2 {
                    // 'x' single-char literal.
                    tokens.push(Token {
                        tok: Tok::Lit(b[i + 1].to_string()),
                        line,
                    });
                    i = j + 1;
                    continue;
                }
                tokens.push(Token {
                    tok: Tok::Lifetime,
                    line,
                });
                i = j;
                continue;
            }
            // Escaped char literal '\n' or similar.
            let mut j = i + 1;
            if j < b.len() && b[j] == '\\' {
                j += 2;
                while j < b.len() && b[j] != '\'' {
                    j += 1;
                }
                tokens.push(Token {
                    tok: Tok::Lit(b[i + 1..j.min(b.len())].iter().collect()),
                    line,
                });
                i = j + 1;
                continue;
            }
            // Something like '(' char literal.
            if j + 1 < b.len() && b[j + 1] == '\'' {
                tokens.push(Token {
                    tok: Tok::Lit(b[j].to_string()),
                    line,
                });
                i = j + 2;
                continue;
            }
            tokens.push(Token {
                tok: Tok::Punct('\''),
                line,
            });
            i += 1;
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            let mut j = i + 1;
            while j < b.len() && is_ident_cont(b[j]) {
                j += 1;
            }
            tokens.push(Token {
                tok: Tok::Ident(b[start..j].iter().collect()),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len()
                && (is_ident_cont(b[j])
                    || (b[j] == '.' && j + 1 < b.len() && b[j + 1].is_ascii_digit()))
            {
                j += 1;
            }
            tokens.push(Token {
                tok: Tok::Num,
                line,
            });
            i = j;
            continue;
        }
        tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }

    Lexed { tokens, comments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn basic_tokens() {
        let l = lex("let g = state.lock();");
        assert_eq!(
            idents("let g = state.lock();"),
            vec!["let", "g", "state", "lock"]
        );
        assert_eq!(l.tokens.last().unwrap().tok, Tok::Punct(';'));
    }

    #[test]
    fn strings_and_chars_are_opaque() {
        assert_eq!(
            idents(r#"f("x.lock()"); g('{'); h One"#),
            vec!["f", "g", "h", "One"]
        );
    }

    #[test]
    fn raw_strings() {
        assert_eq!(idents(r###"f(r#"a "quote" b"#) tail"###), vec!["f", "tail"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'y'; }");
        assert!(toks.tokens.iter().any(|t| t.tok == Tok::Lifetime));
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.tok == Tok::Lit("y".to_string())));
    }

    #[test]
    fn string_literal_contents_are_kept() {
        let toks = lex(r###"f("core.state"); g(r#"raw"#); h(b"bytes");"###);
        let lits: Vec<String> = toks
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Lit(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(lits, vec!["core.state", "raw", "bytes"]);
    }

    #[test]
    fn comments_collected_with_lines() {
        let l = lex("a\n// bolt-lint: allow(lock-order)\nb /* block\n still */ c");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].0, 2);
        assert!(l.comments[0].1.contains("allow(lock-order)"));
        // block comment advanced the line counter
        assert_eq!(l.tokens.last().unwrap().line, 4);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("a /* x /* y */ z */ b"), vec!["a", "b"]);
    }
}
