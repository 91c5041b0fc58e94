//! A minimal std-only Rust lexer for the lint's token-stream analysis.
//!
//! Produces a flat token sequence with line/column spans. The goal is not
//! full fidelity with `rustc`'s lexer but *channel separation*: code,
//! comments and string contents must never bleed into each other, so a
//! `HashMap` inside a string literal or a `// rand::` remark cannot trip a
//! rule, while a `Instant::now` split across lines still can. Handled:
//! line/doc comments, nested block comments, string/char/byte literals
//! with escapes, raw strings (`r#"..."#`), raw identifiers, lifetimes
//! versus char literals, and numeric literals (hex, floats, exponents).

/// Token class. Comments are real tokens here, but rule matching runs on
/// the code channel only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`as`, `struct`, … are not distinguished).
    Ident,
    /// Numeric literal.
    Num,
    /// String or byte-string literal (raw included), quotes kept.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Lifetime (`'a`), leading quote kept.
    Lifetime,
    /// Punctuation. `::` is fused into one token; everything else is one
    /// character per token.
    Punct,
    /// Line or block comment, delimiters stripped.
    Comment,
}

/// One token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text. Comments carry their body without delimiters; strings
    /// keep their quotes.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in characters) of the token's first character.
    pub col: usize,
    /// Length in characters as written in the source.
    pub len: usize,
}

/// Process-wide count of [`lex`] calls. The single-lex contract — a full
/// workspace scan lexes each file exactly once, with the token stream
/// shared by every rule family — is asserted against this counter by
/// `tests/single_lex.rs`.
pub static LEX_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Lexes `src` into a token stream (comments included, whitespace dropped).
///
/// The lexer never fails: unterminated literals or comments swallow the
/// rest of the file as one token, which is the least-surprising recovery
/// for a lint that must keep scanning sibling files.
#[must_use]
pub fn lex(src: &str) -> Vec<Tok> {
    LEX_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        col: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    out: Vec<Tok>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let (line, col, start) = (self.line, self.col, self.pos);
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col, start),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col, start),
                '"' => self.string(line, col, start),
                'r' | 'b' if self.raw_or_byte(line, col, start) => {}
                '\'' => self.quote(line, col, start),
                _ if c.is_ascii_digit() => self.number(line, col, start),
                _ if is_ident_start(c) => self.ident(line, col, start),
                ':' if self.peek(1) == Some(':') => {
                    self.bump();
                    self.bump();
                    self.push(TokKind::Punct, "::".into(), line, col, 2);
                }
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line, col, 1);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize, col: usize, len: usize) {
        self.out.push(Tok {
            kind,
            text,
            line,
            col,
            len,
        });
    }

    fn span_text(&self, start: usize) -> String {
        self.chars[start..self.pos].iter().collect()
    }

    fn line_comment(&mut self, line: usize, col: usize, start: usize) {
        self.bump();
        self.bump();
        let body_start = self.pos;
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.bump();
        }
        let text: String = self.chars[body_start..self.pos].iter().collect();
        let len = self.pos - start;
        self.push(TokKind::Comment, text, line, col, len);
    }

    fn block_comment(&mut self, line: usize, col: usize, start: usize) {
        self.bump();
        self.bump();
        let body_start = self.pos;
        let mut depth = 1usize;
        let mut body_end = self.pos;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = self.pos;
                    }
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => {
                    body_end = self.pos;
                    break;
                }
            }
        }
        let text: String = self.chars[body_start..body_end].iter().collect();
        let len = self.pos - start;
        self.push(TokKind::Comment, text, line, col, len);
    }

    /// Plain (or byte) string starting at the opening quote.
    fn string(&mut self, line: usize, col: usize, start: usize) {
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('\\') => {
                    self.bump();
                }
                Some('"') | None => break,
                Some(_) => {}
            }
        }
        let text = self.span_text(start);
        let len = self.pos - start;
        self.push(TokKind::Str, text, line, col, len);
    }

    /// Dispatches the `r`/`b` prefix forms: raw strings, byte strings, byte
    /// chars and raw identifiers. Returns false when the prefix is just the
    /// start of an ordinary identifier (caller falls through to `ident`).
    fn raw_or_byte(&mut self, line: usize, col: usize, start: usize) -> bool {
        let c = self.peek(0).unwrap_or_default();
        match (c, self.peek(1)) {
            ('r', Some('"' | '#')) => {
                // r"..." or r#"..."# or r#ident.
                let mut hashes = 0usize;
                while self.peek(1 + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(1 + hashes) == Some('"') {
                    self.raw_string(line, col, start, hashes);
                    true
                } else if hashes == 1 && self.peek(2).is_some_and(is_ident_start) {
                    self.bump(); // r
                    self.bump(); // #
                    self.ident(line, col, start);
                    true
                } else {
                    false
                }
            }
            ('b', Some('"')) => {
                self.bump(); // b
                self.string(line, col, start);
                true
            }
            ('b', Some('\'')) => {
                self.bump(); // b
                self.bump(); // '
                loop {
                    match self.bump() {
                        Some('\\') => {
                            self.bump();
                        }
                        Some('\'') | None => break,
                        Some(_) => {}
                    }
                }
                let text = self.span_text(start);
                let len = self.pos - start;
                self.push(TokKind::Char, text, line, col, len);
                true
            }
            ('b', Some('r')) if matches!(self.peek(2), Some('"' | '#')) => {
                let mut hashes = 0usize;
                while self.peek(2 + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(2 + hashes) == Some('"') {
                    self.bump(); // b
                    self.raw_string(line, col, start, hashes);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Raw string body: after `r` + `hashes` hashes + `"`, runs to `"` +
    /// the same number of hashes. No escapes.
    fn raw_string(&mut self, line: usize, col: usize, start: usize, hashes: usize) {
        self.bump(); // r
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // opening quote
        'scan: while let Some(c) = self.bump() {
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        let text = self.span_text(start);
        let len = self.pos - start;
        self.push(TokKind::Str, text, line, col, len);
    }

    /// `'` begins a lifetime (`'a`), a char (`'x'`, `'\n'`), or the odd
    /// `'static`. Chars have a closing quote right after one (possibly
    /// escaped) character; anything else identifier-like is a lifetime.
    fn quote(&mut self, line: usize, col: usize, start: usize) {
        self.bump(); // '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal.
                self.bump();
                self.bump(); // the escaped character
                             // \u{...} and \x.. tails.
                while self.peek(0).is_some_and(|c| c != '\'') {
                    self.bump();
                }
                self.bump(); // closing quote
                let text = self.span_text(start);
                let len = self.pos - start;
                self.push(TokKind::Char, text, line, col, len);
            }
            Some(c) if is_ident_start(c) && self.peek(1) != Some('\'') => {
                // Lifetime.
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                let text = self.span_text(start);
                let len = self.pos - start;
                self.push(TokKind::Lifetime, text, line, col, len);
            }
            Some(_) => {
                self.bump(); // the character
                self.bump(); // closing quote
                let text = self.span_text(start);
                let len = self.pos - start;
                self.push(TokKind::Char, text, line, col, len);
            }
            None => {
                let text = self.span_text(start);
                self.push(TokKind::Punct, text, line, col, 1);
            }
        }
    }

    fn number(&mut self, line: usize, col: usize, start: usize) {
        let mut seen_dot = false;
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                let exp = (c == 'e' || c == 'E')
                    && self.chars[start..self.pos]
                        .iter()
                        .all(|d| !d.is_alphabetic())
                    && matches!(self.peek(1), Some(d) if d.is_ascii_digit() || d == '+' || d == '-');
                self.bump();
                if exp && matches!(self.peek(0), Some('+' | '-')) {
                    self.bump();
                }
            } else if c == '.' && !seen_dot && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                seen_dot = true;
                self.bump();
            } else {
                break;
            }
        }
        let text = self.span_text(start);
        let len = self.pos - start;
        self.push(TokKind::Num, text, line, col, len);
    }

    fn ident(&mut self, line: usize, col: usize, start: usize) {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        let raw = self.span_text(start);
        let text = raw.strip_prefix("r#").unwrap_or(&raw).to_string();
        let len = self.pos - start;
        self.push(TokKind::Ident, text, line, col, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn separates_code_and_comment_channels() {
        let toks = kinds("let x = 1; // HashMap here\n/* rand:: */ y");
        assert!(toks.contains(&(TokKind::Comment, " HashMap here".into())));
        assert!(toks.contains(&(TokKind::Comment, " rand:: ".into())));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "HashMap" || t == "rand")));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = kinds("/* a /* b */ c */ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], (TokKind::Ident, "after".into()));
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        let toks = kinds(r#"let s = "HashMap \" Instant::now"; t"#);
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && (t == "HashMap" || t == "Instant")));
        assert_eq!(toks.last().unwrap(), &(TokKind::Ident, "t".into()));
    }

    #[test]
    fn raw_strings_and_raw_idents() {
        let toks = kinds("r#\"Instant::now \"# r##\" x \"## r#struct b\"y\" br#\"z\"#");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            4,
            "{toks:?}"
        );
        assert!(toks.contains(&(TokKind::Ident, "struct".into())));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "Instant"));
    }

    #[test]
    fn lifetimes_versus_chars() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'c'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn numbers_do_not_swallow_methods_or_ranges() {
        let toks = kinds("1.max(2) 0x1ff 1.5e-3 1..4 2u64");
        assert!(toks.contains(&(TokKind::Num, "1".into())));
        assert!(toks.contains(&(TokKind::Ident, "max".into())));
        assert!(toks.contains(&(TokKind::Num, "0x1ff".into())));
        assert!(toks.contains(&(TokKind::Num, "1.5e-3".into())));
        assert!(toks.contains(&(TokKind::Num, "2u64".into())));
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Punct && t == ".")
                .count(),
            3,
            "1.max's dot plus the range's two: {toks:?}"
        );
    }

    #[test]
    fn double_colon_is_fused() {
        let toks = kinds("std::time::Instant :: now");
        assert_eq!(
            toks.iter()
                .filter(|(k, t)| *k == TokKind::Punct && t == "::")
                .count(),
            3
        );
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let toks = lex("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col, toks[0].len), (1, 1, 2));
        assert_eq!((toks[1].line, toks[1].col, toks[1].len), (2, 3, 2));
    }
}
