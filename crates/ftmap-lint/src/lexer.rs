//! A minimal Rust lexer: just enough to tell *code* from comments, strings
//! and raw strings, with a line number on every token.
//!
//! The rule engine ([`crate::rules`]) works on identifier/punctuation
//! streams, so the only job here is to never misfile a banned name that
//! appears inside a comment, a string literal, a raw string, a byte string
//! or a char literal as code — and conversely to never lose a banned name
//! that *is* code. The grammar subset handled:
//!
//! * line comments `//…` and (nested) block comments `/* … */`;
//! * string `"…"` and byte-string `b"…"` literals with escapes;
//! * raw strings `r"…"`, `r#"…"#`, … and their `br…` byte forms;
//! * char literals `'x'`, `'\n'`, `'\u{1F600}'` — distinguished from
//!   lifetimes (`'a`, `'static`), which lex as punctuation + identifier;
//! * identifiers (including keywords — the rules don't care) and numbers;
//! * everything else as single-character punctuation tokens.
//!
//! No external dependencies: the container is offline, and the linter must
//! build before anything else in CI does.

/// What a token is, as far as the rule engine cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A string/char/byte/numeric literal (content is opaque to rules).
    Literal,
    /// A single punctuation character.
    Punct,
}

/// One code token with its 1-indexed source line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// Classification of the token.
    pub kind: TokenKind,
    /// The token's text. For [`TokenKind::Literal`] this is the full literal
    /// including quotes; rules must never match on it.
    pub text: String,
    /// 1-indexed line the token starts on.
    pub line: usize,
}

/// One comment (line or block) with its line span.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// Comment text including the delimiters.
    pub text: String,
    /// 1-indexed first line of the comment.
    pub start_line: usize,
    /// 1-indexed last line of the comment.
    pub end_line: usize,
}

/// Lexer output: the code-token stream and the comment list, separated.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    /// Identifier / literal / punctuation tokens, in source order.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into code tokens and comments.
///
/// Unterminated strings or block comments do not panic: the open construct
/// simply swallows the rest of the file (the compiler rejects such a file
/// anyway; the linter's job is just to not crash before rustc reports it).
pub(crate) fn lex(src: &str) -> Lexed {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char, tracking the line counter.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(String::new()),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_prefix() => {}
                c if is_ident_start(c) => self.ident(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap_or(' ');
                    self.push(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, start_line: start, end_line: start });
    }

    /// Block comments nest in Rust: `/* /* */ */` is one comment.
    fn block_comment(&mut self) {
        let start = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { text, start_line: start, end_line: self.line });
    }

    /// A `"…"` literal; `prefix` carries any `b` already consumed.
    fn string_literal(&mut self, prefix: String) {
        let line = self.line;
        let mut text = prefix;
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    // Escape: the next char can never close the string —
                    // covers \" and \\ (and multi-char escapes keep lexing
                    // as ordinary chars).
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// Raw strings: `r"…"` / `r#"…"#` / `br##"…"##` … The closing quote must
    /// be followed by the same number of `#` as the opening one.
    fn raw_string(&mut self, prefix: String) {
        let line = self.line;
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            text.push(c);
            if c == '"' {
                for i in 0..hashes {
                    if self.peek(i) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    text.push('#');
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    /// Dispatches `r…` / `b…` prefixes. Returns false when the `r`/`b` is
    /// just the start of an ordinary identifier (e.g. `rotation`, `batch`).
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c0 = self.peek(0);
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        match (c0, c1, c2) {
            // r"…" or r#…
            (Some('r'), Some('"'), _) | (Some('r'), Some('#'), _) => {
                // `r#ident` (raw identifier) also starts r#; it is one when
                // an ident char follows the #.
                if c1 == Some('#') && c2.map(is_ident_start).unwrap_or(false) {
                    return false;
                }
                self.bump();
                self.raw_string("r".to_string());
                true
            }
            // b"…"
            (Some('b'), Some('"'), _) => {
                self.bump();
                self.string_literal("b".to_string());
                true
            }
            // br"…" or br#"…"#
            (Some('b'), Some('r'), Some('"')) | (Some('b'), Some('r'), Some('#')) => {
                self.bump();
                self.bump();
                self.raw_string("br".to_string());
                true
            }
            // b'…'
            (Some('b'), Some('\''), _) => {
                self.bump();
                self.char_literal("b".to_string());
                true
            }
            _ => false,
        }
    }

    /// `'a` (lifetime) vs `'a'` (char literal): it is a char literal when a
    /// closing quote follows the (possibly escaped) content; a lifetime is a
    /// quote followed by an identifier with no closing quote.
    fn char_or_lifetime(&mut self) {
        if self.peek(1) == Some('\\') {
            self.char_literal(String::new());
            return;
        }
        let is_lifetime = match (self.peek(1), self.peek(2)) {
            // 'x' → char; 'xy…  (no close) → lifetime
            (Some(c1), Some('\'')) => !is_ident_start(c1) && c1 != '\'',
            (Some(c1), _) => is_ident_start(c1),
            _ => false,
        };
        if is_lifetime {
            let line = self.line;
            self.bump(); // the quote
            self.push(TokenKind::Punct, "'".to_string(), line);
            self.ident();
        } else {
            self.char_literal(String::new());
        }
    }

    fn char_literal(&mut self, prefix: String) {
        let line = self.line;
        let mut text = prefix;
        text.push('\'');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Literal, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }

    /// Numbers only need to not be mistaken for idents; suffixes (`1.0f64`,
    /// `8u64`) merge into the literal so the suffix is not an ident token.
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // `1..n` range: stop the literal at the first dot of a `..`.
                if c == '.' && self.peek(1) == Some('.') {
                    break;
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Literal, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(String, usize)> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text, t.line))
            .collect()
    }

    #[test]
    fn code_idents_carry_lines() {
        let src = "let a = 1;\nlet banned = Instant::now();\n";
        let ids = idents(src);
        assert!(ids.contains(&("Instant".to_string(), 2)));
        assert!(ids.contains(&("now".to_string(), 2)));
    }

    #[test]
    fn comments_and_strings_hide_idents() {
        let src = r##"
// Instant::now() in a comment
/* Instant::now() in a block
   spanning lines */
let s = "Instant::now()";
let r = r#"Instant::now() "quoted" inside raw"#;
let b = b"Instant::now()";
"##;
        assert!(idents(src).iter().all(|(t, _)| t != "Instant" && t != "now"));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[1].start_line, 3);
        assert_eq!(lexed.comments[1].end_line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.tokens.iter().any(|t| t.text == "x"));
        assert!(!lexed.comments[0].text.contains("let"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { 'l: loop { break 'l; } }";
        let ids = idents(src);
        assert!(ids.iter().any(|(t, _)| t == "a"));
        assert!(ids.iter().any(|(t, _)| t == "static"));
    }

    #[test]
    fn char_literals_hide_content() {
        let src = "let q = '\\''; let c = 'x'; let n = '\\n'; let sep = ',';";
        let ids = idents(src);
        assert!(ids.iter().all(|(t, _)| t != "x"));
        assert!(ids.iter().any(|(t, _)| t == "sep"));
    }

    #[test]
    fn raw_string_hash_levels() {
        let src = r####"let a = r##"content with "# inside"##; let after = 1;"####;
        let ids = idents(src);
        assert!(ids.iter().all(|(t, _)| t != "content" && t != "inside"));
        assert!(ids.iter().any(|(t, _)| t == "after"));
    }

    #[test]
    fn raw_identifiers_stay_idents() {
        let src = "let r#type = 1; let rate = r#type;";
        let ids = idents(src);
        // `r#type` lexes as ident `type` (the r# marker is punctuation noise
        // as far as rules care) and `rate` must not be eaten by an r-prefix.
        assert!(ids.iter().any(|(t, _)| t == "rate"));
    }

    #[test]
    fn escaped_quotes_do_not_close_strings() {
        let src = r#"let s = "he said \"Instant::now()\" loudly"; let tail = 2;"#;
        let ids = idents(src);
        assert!(ids.iter().all(|(t, _)| t != "Instant"));
        assert!(ids.iter().any(|(t, _)| t == "tail"));
    }

    #[test]
    fn number_suffixes_are_not_idents() {
        let ids = idents("let x = 1.0f64 + 8u64 + 0xffu8; let range = 1..n;");
        assert!(ids.iter().all(|(t, _)| t != "f64" && t != "u64" && t != "u8"));
        assert!(ids.iter().any(|(t, _)| t == "n"));
    }
}
