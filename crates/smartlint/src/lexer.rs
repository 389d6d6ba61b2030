//! A minimal hand-rolled Rust lexer: just enough token structure for
//! the lint rules — identifiers, punctuation, literals and comments,
//! each tagged with its source line.
//!
//! The lexer is deliberately forgiving: unterminated strings or
//! comments consume to end-of-file instead of erroring, because a lint
//! pass must never be the thing that fails to parse a file the
//! compiler accepts (and the compiler will reject genuinely broken
//! files long before smartlint runs in CI).

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`foo`, `as`, `for`, `HashMap`, ...).
    Ident,
    /// A single punctuation character (`.`, `:`, `!`, `[`, ...).
    Punct,
    /// Numeric literal, including any type suffix (`1.5f64`, `0x2eu8`).
    Number,
    /// String, raw-string, byte-string or char literal (content dropped).
    Literal,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
}

/// One lexeme with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokenKind,
    /// The lexeme text (empty for [`TokenKind::Literal`] bodies).
    pub text: String,
    /// 1-based line the lexeme starts on.
    pub line: u32,
}

/// A comment (line or block, doc or plain) with its starting line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text, including the `//`/`/*` introducer.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexed form of one source file: code tokens plus comments.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens and comments. Never fails: malformed
/// input degrades to best-effort tokens (see module docs).
pub fn lex(source: &str) -> Lexed {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one character, tracking line numbers.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push_token(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(line),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(line),
                '"' => self.string_literal(line),
                '\'' => self.quote(line),
                'r' | 'b' if self.starts_raw_or_byte_literal() => self.raw_or_byte_literal(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c == '_' || c.is_alphabetic() => self.ident(line),
                c => {
                    self.bump();
                    self.push_token(TokenKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, line });
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            if c == '/' && self.peek_at(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek_at(1) == Some('/') {
                depth = depth.saturating_sub(1);
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
        self.out.comments.push(Comment { text, line });
    }

    fn string_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push_token(TokenKind::Literal, String::new(), line);
    }

    /// `'a` (lifetime/label) vs `'x'` / `'\n'` (char literal). A quote
    /// followed by any one char and a closing quote is a char literal
    /// (`'"'` and `'{'` included); `'ident` with no closing quote is a
    /// lifetime.
    fn quote(&mut self, line: u32) {
        self.bump(); // the opening '
        match self.peek() {
            Some('\\') => {
                // Escaped char literal: consume escape, then to the quote.
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.push_token(TokenKind::Literal, String::new(), line);
            }
            Some(_) if self.peek_at(1) == Some('\'') => {
                self.bump();
                self.bump();
                self.push_token(TokenKind::Literal, String::new(), line);
            }
            Some(c) if c == '_' || c.is_alphanumeric() => {
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c == '_' || c.is_alphanumeric() {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push_token(TokenKind::Lifetime, name, line);
            }
            _ => {
                // Stray quote; emit as punctuation and move on.
                self.push_token(TokenKind::Punct, "'".to_string(), line);
            }
        }
    }

    /// Whether the cursor sits on `r"`, `r#"`, `b"`, `br"`, `b'` or a
    /// raw variant — i.e. a literal introduced by a letter prefix.
    fn starts_raw_or_byte_literal(&self) -> bool {
        let mut i = 0;
        if self.peek() == Some('b') {
            i += 1;
        }
        if self.peek_at(i) == Some('r') {
            let mut j = i + 1;
            while self.peek_at(j) == Some('#') {
                j += 1;
            }
            return self.peek_at(j) == Some('"');
        }
        // b"..." or b'...'
        i > 0 && matches!(self.peek_at(i), Some('"') | Some('\''))
    }

    fn raw_or_byte_literal(&mut self, line: u32) {
        let mut raw = false;
        if self.peek() == Some('b') {
            self.bump();
        }
        if self.peek() == Some('r') {
            raw = true;
            self.bump();
        }
        if raw {
            let mut hashes = 0usize;
            while self.peek() == Some('#') {
                hashes += 1;
                self.bump();
            }
            self.bump(); // opening quote
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for k in 0..hashes {
                        if self.peek_at(k) != Some('#') {
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.push_token(TokenKind::Literal, String::new(), line);
        } else if self.peek() == Some('"') {
            self.string_literal(line);
        } else {
            // b'x' byte char
            self.bump(); // '
            while let Some(c) = self.bump() {
                match c {
                    '\\' => {
                        self.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push_token(TokenKind::Literal, String::new(), line);
        }
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1..n` is a range, not a float: stop before `..`.
                if self.peek_at(1) == Some('.') {
                    break;
                }
                // `1.method()` — stop before a method call too.
                if self
                    .peek_at(1)
                    .is_some_and(|d| d == '_' || d.is_alphabetic())
                {
                    break;
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Number, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    #[test]
    fn comments_are_split_from_code() {
        let l = lex("let x = 1; // trailing\n/* block */ let y = 2;");
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].text, "// trailing");
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert!(idents("let x = 1; // let z").contains(&"x".to_string()));
        assert!(!idents("let x = 1; // let z").contains(&"z".to_string()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex("panic!(\"HashMap .iter() inside a string\");");
        let names = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(names, vec!["panic"]);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let l = lex(r####"let s = r#"quote " inside"#; let c = '\''; let b = b"x";"####);
        let names = idents(r####"let s = r#"quote " inside"#; let c = '\''; let b = b"x";"####);
        assert_eq!(names, vec!["let", "s", "let", "c", "let", "b"]);
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            3
        );
        let c = lex("let c = 'x'; k.push('{'); let q = '\"';");
        assert_eq!(
            c.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
        assert!(!c.tokens.iter().any(|t| t.text == "{"), "'{{' is no brace");
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let l = lex("let a = 1.5f64; for i in 0..10 {}");
        let nums: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, vec!["1.5f64", "0", "10"]);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\nlet b = \"two\nlines\";\nlet c = 3;";
        let l = lex(src);
        let c_tok = l
            .tokens
            .iter()
            .find(|t| t.text == "c")
            .map(|t| t.line)
            .unwrap_or(0);
        assert_eq!(c_tok, 4);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ let x = 1;");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(idents("/* a /* b */ c */ let x = 1;"), vec!["let", "x"]);
    }
}
