//! A small, lossless Rust lexer.
//!
//! The lexer's only job is to carve source text into spans precise
//! enough that token-level rules never mistake a comment, string
//! literal, or lifetime for code. It is deliberately not a full
//! front-end: keywords lex as [`TokenKind::Ident`], numbers are lexed
//! loosely (`1e-5` becomes three tokens), and malformed input never
//! fails — an unterminated literal simply swallows the rest of the
//! file as one token.
//!
//! Two properties are load-bearing and proptested
//! (`tests/lexer_props.rs`):
//!
//! * **totality** — `lex` never panics, on any input;
//! * **span round-trip** — concatenating `token.text` in order
//!   reproduces the input byte-for-byte, and every `token.line` equals
//!   one plus the number of newlines before `token.start`.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// ...` (text up to, not including, the newline).
    LineComment,
    /// `/* ... */`, nesting-aware.
    BlockComment,
    /// `"..."`, `b"..."`, `c"..."` with escape handling.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#`, any number of `#`s.
    RawStr,
    /// `'a'`, `'\n'`, `b'x'`.
    CharLit,
    /// `'a`, `'static` — a quote followed by an identifier with no
    /// closing quote.
    Lifetime,
    /// Identifiers and keywords, including raw identifiers (`r#fn`).
    Ident,
    /// Numeric literals (lexed loosely; suffixes are included).
    Number,
    /// Any single punctuation or operator character.
    Punct,
}

/// One lexed token: kind, exact source slice, byte offset, 1-based line.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    /// What this token is.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// 1-based line number of the token's first byte.
    pub line: u32,
}

impl Token<'_> {
    /// True for whitespace and comments — tokens the rules skip over.
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        )
    }
}

/// Lex `src` into a complete, contiguous token stream.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    Lexer {
        src,
        pos: 0,
        line: 1,
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token<'a>> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            out.push(Token {
                kind,
                text: &self.src[start..self.pos],
                start,
                line,
            });
            self.line += self.src[start..self.pos]
                .bytes()
                .filter(|&b| b == b'\n')
                .count() as u32;
        }
        out
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn peek2(&self) -> Option<char> {
        self.rest().chars().nth(1)
    }

    fn bump(&mut self) {
        if let Some(c) = self.peek() {
            self.pos += c.len_utf8();
        }
    }

    /// Consume one token's worth of input, returning its kind.
    fn next_kind(&mut self) -> TokenKind {
        let c = match self.peek() {
            Some(c) => c,
            None => return TokenKind::Whitespace, // unreachable: run() checks
        };
        match c {
            c if c.is_whitespace() => {
                while self.peek().is_some_and(char::is_whitespace) {
                    self.bump();
                }
                TokenKind::Whitespace
            }
            '/' if self.peek2() == Some('/') => {
                while self.peek().is_some_and(|c| c != '\n') {
                    self.bump();
                }
                TokenKind::LineComment
            }
            '/' if self.peek2() == Some('*') => {
                self.bump();
                self.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (self.peek(), self.peek2()) {
                        (Some('/'), Some('*')) => {
                            self.bump();
                            self.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            self.bump();
                            self.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => self.bump(),
                        (None, _) => break, // unterminated: swallow the rest
                    }
                }
                TokenKind::BlockComment
            }
            '"' => self.cooked_string(),
            '\'' => self.quote(),
            c if c == '_' || c.is_alphabetic() => self.ident_or_prefixed(),
            c if c.is_ascii_digit() => self.number(),
            _ => {
                self.bump();
                TokenKind::Punct
            }
        }
    }

    /// A `"`-delimited string with `\` escapes; the opening quote has
    /// not been consumed yet.
    fn cooked_string(&mut self) -> TokenKind {
        self.bump(); // opening quote
        loop {
            match self.peek() {
                None => break, // unterminated
                Some('\\') => {
                    self.bump();
                    self.bump(); // the escaped char (may be a quote)
                }
                Some('"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
        TokenKind::Str
    }

    /// A raw string starting at the current position's `r` (the prefix
    /// ident, if any, has already been consumed by the caller): consume
    /// `#`s, the quote, then scan for `"` followed by the same number
    /// of `#`s.
    fn raw_string_body(&mut self) -> TokenKind {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        if self.peek() == Some('"') {
            self.bump();
            'scan: loop {
                match self.peek() {
                    None => break, // unterminated
                    Some('"') => {
                        self.bump();
                        let mut seen = 0usize;
                        while seen < hashes {
                            if self.peek() == Some('#') {
                                self.bump();
                                seen += 1;
                            } else {
                                continue 'scan;
                            }
                        }
                        break;
                    }
                    Some(_) => self.bump(),
                }
            }
        }
        TokenKind::RawStr
    }

    /// A `'`: char literal, lifetime, or a stray quote.
    fn quote(&mut self) -> TokenKind {
        self.bump(); // the quote
        match self.peek() {
            // Escaped char literal: consume the escape, then scan to the
            // closing quote (covers multi-char escapes like `\u{1F600}`).
            Some('\\') => {
                self.bump();
                self.bump();
                while self.peek().is_some_and(|c| c != '\'' && c != '\n') {
                    self.bump();
                }
                self.bump(); // closing quote (no-op at EOF/newline)
                TokenKind::CharLit
            }
            // Identifier-shaped: `'a'` is a char literal, `'a`/`'static`
            // a lifetime.
            Some(c) if c == '_' || c.is_alphabetic() => {
                while self.peek().is_some_and(|c| c == '_' || c.is_alphanumeric()) {
                    self.bump();
                }
                if self.peek() == Some('\'') {
                    self.bump();
                    TokenKind::CharLit
                } else {
                    TokenKind::Lifetime
                }
            }
            // Any other single char closed by a quote: `'('`, `'0'`.
            Some(_) if self.peek2() == Some('\'') => {
                self.bump();
                self.bump();
                TokenKind::CharLit
            }
            // A quote with nothing literal after it; treat as punct.
            _ => TokenKind::Punct,
        }
    }

    /// An identifier, or a string/char literal introduced by a prefix
    /// identifier (`r""`, `b""`, `br#""#`, `b''`, `r#ident`).
    fn ident_or_prefixed(&mut self) -> TokenKind {
        let start = self.pos;
        while self.peek().is_some_and(|c| c == '_' || c.is_alphanumeric()) {
            self.bump();
        }
        let ident = &self.src[start..self.pos];
        match (ident, self.peek()) {
            ("r" | "br" | "cr", Some('"' | '#')) => {
                // `r#foo` is a raw identifier, not a raw string: one `#`
                // followed by an identifier character and no quote.
                if ident == "r" && self.peek() == Some('#') {
                    let after = self.rest().chars().nth(1);
                    if after.is_some_and(|c| c == '_' || c.is_alphabetic()) {
                        self.bump(); // '#'
                        while self.peek().is_some_and(|c| c == '_' || c.is_alphanumeric()) {
                            self.bump();
                        }
                        return TokenKind::Ident;
                    }
                }
                // Only lex as a raw string when a quote actually follows
                // the hashes; `br#!` stays an ident + punct stream.
                let mut probe = self.rest().chars();
                let mut ahead = probe.next();
                while ahead == Some('#') {
                    ahead = probe.next();
                }
                if ahead == Some('"') {
                    self.raw_string_body()
                } else {
                    TokenKind::Ident
                }
            }
            ("b" | "c", Some('"')) => self.cooked_string(),
            ("b", Some('\'')) => self.quote(),
            _ => TokenKind::Ident,
        }
    }

    /// A numeric literal, lexed loosely: digits, `_`, alphanumeric
    /// suffixes, and a `.` only when directly followed by a digit.
    fn number(&mut self) -> TokenKind {
        while self.peek().is_some_and(|c| c == '_' || c.is_alphanumeric()) {
            self.bump();
        }
        if self.peek() == Some('.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self.peek().is_some_and(|c| c == '_' || c.is_alphanumeric()) {
                self.bump();
            }
        }
        TokenKind::Number
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn round_trip_is_exact() {
        let src = "fn main() { let s = \"hi \\\" there\"; } // done\n/* block /* nested */ */";
        let joined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src);
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let toks = kinds("let x = \"unwrap()\"; // unwrap()\n/* unwrap() */");
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || !t.contains("unwrap")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'a")));
        assert!(toks.contains(&(TokenKind::CharLit, "'x'")));
    }

    #[test]
    fn raw_strings_swallow_quotes() {
        let toks = kinds(r####"let s = r#"a "quoted" unwrap()"#; s"####);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).count(),
            1
        );
        // Only the trailing `s` and `let`/`=`/`;` survive as code.
        assert!(toks
            .iter()
            .all(|(k, t)| *k != TokenKind::Ident || !t.contains("unwrap")));
    }

    #[test]
    fn raw_idents_are_idents() {
        let toks = kinds("let r#fn = 1; r#while");
        assert!(toks.contains(&(TokenKind::Ident, "r#fn")));
        assert!(toks.contains(&(TokenKind::Ident, "r#while")));
    }

    #[test]
    fn byte_and_c_strings() {
        let toks = kinds(r##"b"bytes" c"cstr" br#"raw"# b'x'"##);
        assert_eq!(toks[0], (TokenKind::Str, "b\"bytes\""));
        assert_eq!(toks[1], (TokenKind::Str, "c\"cstr\""));
        assert_eq!(toks[2], (TokenKind::RawStr, "br#\"raw\"#"));
        assert_eq!(toks[3], (TokenKind::CharLit, "b'x'"));
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'\\n", "b\"", "'"] {
            let joined: String = lex(src).iter().map(|t| t.text).collect();
            assert_eq!(joined, src, "round trip failed for {src:?}");
        }
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c");
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 3);
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let toks = kinds(r"'\'' x");
        assert_eq!(toks[0], (TokenKind::CharLit, r"'\''"));
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }
}
