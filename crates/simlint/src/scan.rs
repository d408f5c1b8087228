//! Line-level source cleaning, built on the [`crate::lexer`] token stream.
//!
//! Rule checks must never match tokens that only appear inside comments,
//! string literals, or char literals ("call `.unwrap()` here" in a doc
//! comment is not a violation). [`clean_source`] lexes the whole file once
//! and derives, per line, the *code* portion (comment bytes and literal
//! interiors blanked out, columns preserved) and the *comment* portion
//! (where `simlint::allow(...)` suppressions live). Because the lexer
//! tracks multi-line constructs exactly, block comments, plain strings, and
//! raw strings that span lines need no per-line carry state here.

use crate::lexer::{self, TokenKind};

/// The interesting parts of one source line after cleaning.
#[derive(Debug, Default, Clone)]
pub struct CleanLine {
    /// Code with string/char-literal contents blanked and comments
    /// replaced by spaces (so columns survive but content cannot match).
    pub code: String,
    /// Concatenated text of every comment overlapping the line.
    pub comment: String,
    /// Whether the line starts a doc comment (`///` or `//!`).
    pub doc: bool,
}

/// Splits `src` into cleaned lines, one per source line.
pub fn clean_source(src: &str) -> Vec<CleanLine> {
    if src.is_empty() {
        return Vec::new();
    }
    let tokens = lexer::lex(src);
    // Per-byte mask: 0 = keep, 1 = blank to space, 2 = comment byte
    // (blank in code, collect in comment).
    let mut mask = vec![0u8; src.len()];
    for t in &tokens {
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                for m in &mut mask[t.start..t.end] {
                    *m = 2;
                }
            }
            TokenKind::Str | TokenKind::Char => {
                // Keep the delimiters (first and last byte) so the code
                // view still shows an empty literal; blank the interior.
                let inner_start = t.start + 1;
                let inner_end = t.end.saturating_sub(1);
                if inner_start < inner_end {
                    for m in &mut mask[inner_start..inner_end] {
                        *m = 1;
                    }
                }
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    let mut line_start = 0usize;
    let bytes = src.as_bytes();
    let mut doc_lines = std::collections::BTreeSet::new();
    for t in &tokens {
        if t.kind == TokenKind::LineComment {
            let text = t.text(src);
            if text.starts_with("///") || text.starts_with("//!") {
                doc_lines.insert(t.line);
            }
        }
    }
    let mut line_no = 1usize;
    loop {
        let line_end = bytes[line_start..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| line_start + p)
            .unwrap_or(src.len());
        let mut code = String::with_capacity(line_end - line_start);
        let mut comment = String::new();
        // Walk chars; a char's bytes always share one mask value because
        // token spans sit on char boundaries.
        for (off, c) in src[line_start..line_end].char_indices() {
            match mask[line_start + off] {
                0 => code.push(c),
                1 => code.push(' '),
                _ => {
                    code.push(' ');
                    comment.push(c);
                }
            }
        }
        out.push(CleanLine {
            code,
            comment,
            doc: doc_lines.contains(&line_no),
        });
        if line_end == src.len() {
            break;
        }
        line_start = line_end + 1;
        line_no += 1;
    }
    // A trailing newline yields a final empty line in `str::lines` terms;
    // drop it so line counts match `source.lines()`.
    if src.ends_with('\n') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_one(src: &str) -> CleanLine {
        clean_source(src).into_iter().next().unwrap_or_default()
    }

    #[test]
    fn strips_line_comment() {
        let l = clean_one("let x = 1; // call .unwrap() here");
        assert_eq!(l.code.trim_end(), "let x = 1;");
        assert!(l.comment.contains(".unwrap()"));
    }

    #[test]
    fn strips_string_contents() {
        let l = clean_one("let s = \"HashMap::new()\";");
        assert!(!l.code.contains("HashMap"));
        assert!(l.code.contains('"'));
    }

    #[test]
    fn string_with_escaped_quote() {
        let l = clean_one("let s = \"a \\\" HashMap b\"; let y = 2;");
        assert!(!l.code.contains("HashMap"));
        assert!(l.code.contains("let y = 2;"));
    }

    #[test]
    fn block_comment_spans_lines() {
        let lines = clean_source("foo(); /* start .expect(\nstill comment */ bar();");
        assert_eq!(lines[0].code.trim_end(), "foo();");
        assert!(lines[0].comment.contains(".expect("));
        assert!(lines[1].code.contains("bar();"));
        assert!(!lines[1].code.contains("still"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = clean_source("/* outer /* inner */ still outer\ndone */ code();");
        assert!(lines[1].code.contains("code();"));
        assert!(!lines[1].code.contains("done"));
    }

    #[test]
    fn raw_string_with_hashes() {
        let l = clean_one("let s = r#\"panic!(\"x\")\"#; tail();");
        assert!(!l.code.contains("panic!"));
        assert!(l.code.contains("tail();"));
    }

    #[test]
    fn char_literal_and_lifetime() {
        let l = clean_one("fn f<'a>(c: char) -> bool { c == '{' }");
        assert_eq!(l.code.matches('{').count(), 1);
        assert!(l.code.contains("<'a>"));
    }

    #[test]
    fn comment_text_carries_suppressions() {
        let l = clean_one("let t = now(); // simlint::allow(D1): replay clock");
        assert!(l.comment.contains("simlint::allow(D1)"));
    }

    #[test]
    fn multiline_plain_string() {
        let lines = clean_source("let s = \"first HashMap\nsecond .unwrap() line\"; after();");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(!lines[1].code.contains(".unwrap()"));
        assert!(lines[1].code.contains("after();"));
    }

    #[test]
    fn doc_lines_flagged() {
        let lines = clean_source("/// Documented.\n//! inner\n// plain\nfn f() {}");
        assert!(lines[0].doc && lines[1].doc);
        assert!(!lines[2].doc && !lines[3].doc);
    }

    #[test]
    fn line_count_matches_source_lines() {
        for src in ["a\nb\nc", "a\nb\nc\n", "", "one"] {
            assert_eq!(clean_source(src).len(), src.lines().count(), "{src:?}");
        }
    }
}
