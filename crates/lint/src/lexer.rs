//! A hand-rolled Rust lexer.
//!
//! The linter needs token-accurate positions (so diagnostics point at the
//! offending identifier, not its line) and must not be fooled by content
//! inside strings or comments — a doc comment mentioning `HashMap` is not
//! a violation. A full parser (`syn`) would drag in dependencies the
//! workspace forbids; lint rules here are token-pattern matches, so a
//! lexer is exactly the right amount of machinery.
//!
//! The tricky corners this lexer gets right (each pinned by
//! `tests/lexer_corpus.rs`):
//!
//! * raw strings `r"…"` / `r#"…"#` with arbitrarily many hashes, and the
//!   byte/C variants `br#"…"#`, `b"…"`, `c"…"`;
//! * nested block comments (`/* /* */ */` is one comment in Rust);
//! * lifetimes vs. char literals: `'a` is a lifetime, `'a'` is a char,
//!   `'\''` is a char, `b'x'` is a byte char;
//! * raw identifiers `r#match`;
//! * numeric literals with underscores, radix prefixes, float dots
//!   (without swallowing the `..` of a range), and type suffixes.
//!
//! Unterminated constructs never panic: the token is extended to end of
//! input, which keeps the linter total over malformed files.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#match`).
    Ident,
    /// A lifetime such as `'a` or `'_` (no closing quote).
    Lifetime,
    /// A char or byte-char literal: `'x'`, `'\n'`, `b'\0'`.
    CharLit,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`.
    StrLit,
    /// A numeric literal, including suffix: `0xFF_u64`, `1.5e3`.
    NumLit,
    /// A `// …` comment (covers `///` and `//!`).
    LineComment,
    /// A `/* … */` comment, nesting respected.
    BlockComment,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexeme with its byte span and 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Lexeme class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in characters) of the first byte.
    pub col: u32,
}

impl Token {
    /// The token's text within `src` (the string passed to [`lex`]).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Identifier text with any `r#` raw prefix stripped; `None` for
    /// non-identifier tokens.
    pub fn ident_text<'a>(&self, src: &'a str) -> Option<&'a str> {
        if self.kind != TokKind::Ident {
            return None;
        }
        let t = self.text(src);
        Some(t.strip_prefix("r#").unwrap_or(t))
    }

    /// True for a `Punct` token equal to `c`.
    pub fn is_punct(&self, src: &str, c: char) -> bool {
        self.kind == TokKind::Punct && self.text(src).starts_with(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, pos: 0, line: 1, col: 1 }
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    /// Advances one char, maintaining line/col.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }
}

/// Tokenizes `src`, keeping comments (the allow-directive scanner needs
/// them) and skipping only whitespace. Never fails; malformed input
/// produces best-effort tokens extending to end of input.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let kind = if cur.starts_with("//") {
            lex_line_comment(&mut cur)
        } else if cur.starts_with("/*") {
            lex_block_comment(&mut cur)
        } else if c == '\'' {
            lex_quote(&mut cur)
        } else if c == '"' {
            lex_string(&mut cur);
            TokKind::StrLit
        } else if is_ident_start(c) {
            lex_ident_or_prefixed(&mut cur)
        } else if c.is_ascii_digit() {
            lex_number(&mut cur);
            TokKind::NumLit
        } else {
            cur.bump();
            TokKind::Punct
        };
        out.push(Token { kind, start, end: cur.pos, line, col });
    }
    out
}

fn lex_line_comment(cur: &mut Cursor) -> TokKind {
    while let Some(c) = cur.peek() {
        if c == '\n' {
            break;
        }
        cur.bump();
    }
    TokKind::LineComment
}

fn lex_block_comment(cur: &mut Cursor) -> TokKind {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1u32;
    while depth > 0 {
        if cur.starts_with("/*") {
            cur.bump();
            cur.bump();
            depth += 1;
        } else if cur.starts_with("*/") {
            cur.bump();
            cur.bump();
            depth -= 1;
        } else if cur.bump().is_none() {
            break; // unterminated: extend to EOF
        }
    }
    TokKind::BlockComment
}

/// Lexes from a `'`: either a lifetime or a char literal.
fn lex_quote(cur: &mut Cursor) -> TokKind {
    cur.bump(); // opening '
    match cur.peek() {
        // '\n', '\'', '\u{..}' — escape means char literal.
        Some('\\') => {
            cur.bump();
            cur.bump(); // the escaped char (or 'u' of \u{…})
                        // Consume a possible \u{…} payload and the closing quote.
            while let Some(c) = cur.peek() {
                let done = c == '\'';
                cur.bump();
                if done {
                    break;
                }
            }
            TokKind::CharLit
        }
        Some(c) if is_ident_start(c) => {
            // Could be 'a' (char) or 'a / 'abc (lifetime): a char literal
            // has exactly one ident char then a closing quote.
            if cur.peek_at(1) == Some('\'') {
                cur.bump();
                cur.bump();
                TokKind::CharLit
            } else {
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                TokKind::Lifetime
            }
        }
        // Non-ident single char: '1', '+', even '''. Treat as char lit.
        Some(_) => {
            cur.bump();
            if cur.peek() == Some('\'') {
                cur.bump();
            }
            TokKind::CharLit
        }
        None => TokKind::CharLit,
    }
}

/// Lexes a non-raw string body starting at the opening `"`.
fn lex_string(cur: &mut Cursor) {
    cur.bump(); // opening "
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump(); // skip escaped char
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Lexes a raw string starting at `r` (cursor on the `r`): `r"…"`,
/// `r#"…"#`, any hash count.
fn lex_raw_string(cur: &mut Cursor) {
    cur.bump(); // 'r'
    let mut hashes = 0usize;
    while cur.peek() == Some('#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek() != Some('"') {
        return; // not actually a raw string (e.g. r#ident handled earlier)
    }
    cur.bump(); // opening "
    let closer: String = std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
    while !cur.starts_with(&closer) {
        if cur.bump().is_none() {
            return; // unterminated
        }
    }
    for _ in 0..=hashes {
        cur.bump();
    }
}

/// Lexes an identifier, or a string/char literal with an `r`/`b`/`c`
/// prefix (`r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `b'…'`, `br#"…"#`, `c"…"`).
fn lex_ident_or_prefixed(cur: &mut Cursor) -> TokKind {
    let c = cur.peek().unwrap_or(' ');
    // Raw string / raw ident.
    if c == 'r' {
        match (cur.peek_at(1), cur.peek_at(2)) {
            (Some('"'), _) | (Some('#'), Some('"')) | (Some('#'), Some('#')) => {
                lex_raw_string(cur);
                return TokKind::StrLit;
            }
            (Some('#'), Some(n)) if is_ident_start(n) => {
                cur.bump(); // r
                cur.bump(); // #
                while cur.peek().is_some_and(is_ident_continue) {
                    cur.bump();
                }
                return TokKind::Ident;
            }
            _ => {}
        }
    }
    // Byte / C-string prefixes.
    if c == 'b' || c == 'c' {
        match cur.peek_at(1) {
            Some('"') => {
                cur.bump();
                lex_string(cur);
                return TokKind::StrLit;
            }
            Some('\'') if c == 'b' => {
                cur.bump();
                lex_quote(cur);
                return TokKind::CharLit;
            }
            Some('r') if c == 'b' => {
                let third = cur.peek_at(2);
                if third == Some('"') || third == Some('#') {
                    cur.bump(); // b
                    lex_raw_string(cur);
                    return TokKind::StrLit;
                }
            }
            _ => {}
        }
    }
    while cur.peek().is_some_and(is_ident_continue) {
        cur.bump();
    }
    TokKind::Ident
}

/// Lexes a numeric literal. Must not swallow the `..` of `0..10`.
fn lex_number(cur: &mut Cursor) {
    let radix_tail = cur.peek() == Some('0')
        && matches!(cur.peek_at(1), Some('x') | Some('o') | Some('b') | Some('X') | Some('O') | Some('B'));
    if radix_tail {
        cur.bump();
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            cur.bump();
        }
        return;
    }
    while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == '_') {
        cur.bump();
    }
    // A float dot only if followed by a digit ('1.5' yes, '0..10' and
    // '1.max(2)' no).
    if cur.peek() == Some('.') && cur.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump();
        while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == '_') {
            cur.bump();
        }
    }
    // Exponent.
    if matches!(cur.peek(), Some('e') | Some('E')) {
        let sign = matches!(cur.peek_at(1), Some('+') | Some('-'));
        let digit_at = if sign { 2 } else { 1 };
        if cur.peek_at(digit_at).is_some_and(|c| c.is_ascii_digit()) {
            cur.bump();
            if sign {
                cur.bump();
            }
            while cur.peek().is_some_and(|c| c.is_ascii_digit() || c == '_') {
                cur.bump();
            }
        }
    }
    // Type suffix (u64, f32, usize…).
    while cur.peek().is_some_and(is_ident_continue) {
        cur.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("fn main() {}");
        assert_eq!(ks[0], (TokKind::Ident, "fn".into()));
        assert_eq!(ks[1], (TokKind::Ident, "main".into()));
        assert_eq!(ks[2].0, TokKind::Punct);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn strings_hide_their_content() {
        let ks = kinds(r#"let x = "HashMap::new()";"#);
        assert!(ks.iter().all(|(k, t)| *k != TokKind::Ident || t != "HashMap"));
        assert_eq!(ks.iter().filter(|(k, _)| *k == TokKind::StrLit).count(), 1);
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "/* open", "r#\"raw", "'", "b\"x"] {
            let _ = lex(src);
        }
    }
}
