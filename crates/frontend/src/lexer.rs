//! The lexer for the Java subset.

use crate::span::{CompileError, Span};
use crate::token::{keyword, Tok, Token, P};

/// Lexes `src` into a token vector terminated by [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`CompileError`] on malformed literals, unterminated
/// strings/comments, or unexpected characters.
pub fn lex(src: &str) -> Result<Vec<Token>, CompileError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.src.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    fn here(&self) -> Span {
        Span {
            start: self.pos,
            end: self.pos,
            line: self.line,
            col: self.col,
        }
    }

    fn err(&self, span: Span, msg: impl Into<String>) -> CompileError {
        CompileError::new(span, msg)
    }

    fn run(mut self) -> Result<Vec<Token>, CompileError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.here();
            if self.pos >= self.src.len() {
                out.push(Token {
                    kind: Tok::Eof,
                    span: start,
                });
                return Ok(out);
            }
            let kind = self.next_token(start)?;
            let span = Span {
                start: start.start,
                end: self.pos,
                line: start.line,
                col: start.col,
            };
            out.push(Token { kind, span });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), CompileError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.here();
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(self.err(start, "unterminated block comment"));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self, start: Span) -> Result<Tok, CompileError> {
        let c = self.peek();
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            return Ok(self.ident());
        }
        if c.is_ascii_digit() {
            return self.number(start);
        }
        if c == b'\'' {
            return self.char_lit(start);
        }
        if c == b'"' {
            return self.string_lit(start);
        }
        self.operator(start)
    }

    fn ident(&mut self) -> Tok {
        let start = self.pos;
        while {
            let c = self.peek();
            c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
        } {
            self.bump();
        }
        let s =
            std::str::from_utf8(&self.src[start..self.pos]).expect("identifier bytes are ASCII");
        match keyword(s) {
            Some(k) => Tok::Kw(k),
            None => Tok::Ident(s.to_string()),
        }
    }

    fn number(&mut self, start: Span) -> Result<Tok, CompileError> {
        let begin = self.pos;
        let mut is_float = false;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            let hex_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.bump();
            }
            if self.pos == hex_start {
                return Err(self.err(start, "empty hex literal"));
            }
            let text = std::str::from_utf8(&self.src[hex_start..self.pos]).unwrap();
            let val = u64::from_str_radix(text, 16)
                .map_err(|_| self.err(start, "hex literal too large"))?;
            if self.peek() == b'L' || self.peek() == b'l' {
                self.bump();
                return Ok(Tok::LongLit(i128::from(val as i64)));
            }
            if val > u32::MAX as u64 {
                return Err(self.err(start, "hex int literal exceeds 32 bits"));
            }
            return Ok(Tok::IntLit(val as u32 as i32 as i64));
        }
        while self.peek().is_ascii_digit() {
            self.bump();
        }
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text = std::str::from_utf8(&self.src[begin..self.pos]).unwrap();
        match self.peek() {
            b'L' | b'l' => {
                self.bump();
                if is_float {
                    return Err(self.err(start, "long literal cannot have a fraction"));
                }
                // Allow up to 2^63 so `-9223372036854775808L` parses; the
                // parser range-checks after applying unary minus.
                let v: i128 = text
                    .parse()
                    .map_err(|_| self.err(start, "long literal too large"))?;
                if v > i128::from(i64::MAX) + 1 {
                    return Err(self.err(start, "long literal too large"));
                }
                Ok(Tok::LongLit(v))
            }
            b'f' | b'F' => {
                self.bump();
                let v: f32 = text
                    .parse()
                    .map_err(|_| self.err(start, "bad float literal"))?;
                Ok(Tok::FloatLit(v))
            }
            b'd' | b'D' => {
                self.bump();
                let v: f64 = text
                    .parse()
                    .map_err(|_| self.err(start, "bad double literal"))?;
                Ok(Tok::DoubleLit(v))
            }
            _ => {
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| self.err(start, "bad double literal"))?;
                    Ok(Tok::DoubleLit(v))
                } else {
                    // Allow up to 2^31 so `-2147483648` parses; the parser
                    // range-checks after applying unary minus.
                    let v: i64 = text
                        .parse()
                        .map_err(|_| self.err(start, "int literal too large"))?;
                    if v > i32::MAX as i64 + 1 {
                        return Err(self.err(start, "int literal too large"));
                    }
                    Ok(Tok::IntLit(v))
                }
            }
        }
    }

    fn escape(&mut self, start: Span) -> Result<u16, CompileError> {
        // Caller consumed the backslash.
        let c = self.bump();
        Ok(match c {
            b'n' => b'\n' as u16,
            b't' => b'\t' as u16,
            b'r' => b'\r' as u16,
            b'0' => 0,
            b'b' => 8,
            b'f' => 12,
            b'\\' => b'\\' as u16,
            b'\'' => b'\'' as u16,
            b'"' => b'"' as u16,
            b'u' => {
                let mut v: u32 = 0;
                for _ in 0..4 {
                    let d = self.bump();
                    let d = (d as char)
                        .to_digit(16)
                        .ok_or_else(|| self.err(start, "bad \\u escape"))?;
                    v = v * 16 + d;
                }
                v as u16
            }
            _ => return Err(self.err(start, "unknown escape sequence")),
        })
    }

    fn char_lit(&mut self, start: Span) -> Result<Tok, CompileError> {
        self.bump(); // opening quote
        let c = match self.peek() {
            b'\\' => {
                self.bump();
                self.escape(start)?
            }
            0 => return Err(self.err(start, "unterminated char literal")),
            _ => {
                // Decode one UTF-8 scalar and truncate to a code unit.
                let rest = std::str::from_utf8(&self.src[self.pos..])
                    .map_err(|_| self.err(start, "invalid UTF-8 in char literal"))?;
                let ch = rest.chars().next().unwrap();
                for _ in 0..ch.len_utf8() {
                    self.bump();
                }
                ch as u32 as u16
            }
        };
        if self.bump() != b'\'' {
            return Err(self.err(start, "unterminated char literal"));
        }
        Ok(Tok::CharLit(c))
    }

    fn string_lit(&mut self, start: Span) -> Result<Tok, CompileError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.peek() {
                0 => return Err(self.err(start, "unterminated string literal")),
                b'"' => {
                    self.bump();
                    return Ok(Tok::StrLit(s));
                }
                b'\\' => {
                    self.bump();
                    let u = self.escape(start)?;
                    s.push(char::from_u32(u as u32).unwrap_or('\u{FFFD}'));
                }
                b'\n' => return Err(self.err(start, "newline in string literal")),
                _ => {
                    let rest = std::str::from_utf8(&self.src[self.pos..])
                        .map_err(|_| self.err(start, "invalid UTF-8 in string"))?;
                    let ch = rest.chars().next().unwrap();
                    for _ in 0..ch.len_utf8() {
                        self.bump();
                    }
                    s.push(ch);
                }
            }
        }
    }

    fn operator(&mut self, start: Span) -> Result<Tok, CompileError> {
        use P::*;
        let c = self.bump();
        let two = |l: &mut Self, next: u8, a: P, b: P| {
            if l.peek() == next {
                l.bump();
                Tok::P(a)
            } else {
                Tok::P(b)
            }
        };
        Ok(match c {
            b'(' => Tok::P(LParen),
            b')' => Tok::P(RParen),
            b'{' => Tok::P(LBrace),
            b'}' => Tok::P(RBrace),
            b'[' => Tok::P(LBracket),
            b']' => Tok::P(RBracket),
            b';' => Tok::P(Semi),
            b',' => Tok::P(Comma),
            b'.' => Tok::P(Dot),
            b':' => Tok::P(Colon),
            b'?' => Tok::P(Question),
            b'~' => Tok::P(Tilde),
            b'+' => {
                if self.peek() == b'+' {
                    self.bump();
                    Tok::P(PlusPlus)
                } else {
                    two(self, b'=', PlusAssign, Plus)
                }
            }
            b'-' => {
                if self.peek() == b'-' {
                    self.bump();
                    Tok::P(MinusMinus)
                } else {
                    two(self, b'=', MinusAssign, Minus)
                }
            }
            b'*' => two(self, b'=', StarAssign, Star),
            b'/' => two(self, b'=', SlashAssign, Slash),
            b'%' => two(self, b'=', PercentAssign, Percent),
            b'=' => two(self, b'=', Eq, Assign),
            b'!' => two(self, b'=', Ne, Bang),
            b'^' => two(self, b'=', CaretAssign, Caret),
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    Tok::P(AmpAmp)
                } else {
                    two(self, b'=', AmpAssign, Amp)
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    Tok::P(PipePipe)
                } else {
                    two(self, b'=', PipeAssign, Pipe)
                }
            }
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    two(self, b'=', ShlAssign, Shl)
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == b'>' && self.peek2() == b'>' {
                    self.bump();
                    self.bump();
                    two(self, b'=', UshrAssign, Ushr)
                } else if self.peek() == b'>' && self.peek2() != b'>' && self.peek3() != b'=' {
                    // `>>` but not `>>=` lookahead confusion: handle below.
                    self.bump();
                    two(self, b'=', ShrAssign, Shr)
                } else if self.peek() == b'>' {
                    self.bump();
                    two(self, b'=', ShrAssign, Shr)
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            _ => return Err(self.err(start, format!("unexpected character `{}`", c as char))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Kw;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            kinds("class Foo extends Bar"),
            vec![
                Tok::Kw(Kw::Class),
                Tok::Ident("Foo".into()),
                Tok::Kw(Kw::Extends),
                Tok::Ident("Bar".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(
            kinds("0 42 42L 3.5 3.5f 1e3 0x1F 0xFFL 2d"),
            vec![
                Tok::IntLit(0),
                Tok::IntLit(42),
                Tok::LongLit(42),
                Tok::DoubleLit(3.5),
                Tok::FloatLit(3.5),
                Tok::DoubleLit(1000.0),
                Tok::IntLit(31),
                Tok::LongLit(255),
                Tok::DoubleLit(2.0),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn int_min_is_lexable() {
        // 2147483648 lexes (parser applies the unary minus).
        assert_eq!(kinds("2147483648"), vec![Tok::IntLit(2147483648), Tok::Eof]);
        assert!(lex("2147483649").is_err());
    }

    #[test]
    fn long_min_is_lexable() {
        assert_eq!(
            kinds("9223372036854775808L"),
            vec![Tok::LongLit(1 << 63), Tok::Eof]
        );
        assert!(lex("9223372036854775809L").is_err());
        // A hex literal names a bit pattern, so it may be negative.
        assert_eq!(
            kinds("0x8000000000000000L"),
            vec![Tok::LongLit(i128::from(i64::MIN)), Tok::Eof]
        );
    }

    #[test]
    fn char_and_string_escapes() {
        assert_eq!(
            kinds(r#"'a' '\n' 'A' "hi\tthere""#),
            vec![
                Tok::CharLit(b'a' as u16),
                Tok::CharLit(b'\n' as u16),
                Tok::CharLit(0x41),
                Tok::StrLit("hi\tthere".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        use crate::token::P::*;
        assert_eq!(
            kinds("a >>= b >> c >>> d < e << 1 <= 2"),
            vec![
                Tok::Ident("a".into()),
                Tok::P(ShrAssign),
                Tok::Ident("b".into()),
                Tok::P(Shr),
                Tok::Ident("c".into()),
                Tok::P(Ushr),
                Tok::Ident("d".into()),
                Tok::P(Lt),
                Tok::Ident("e".into()),
                Tok::P(Shl),
                Tok::IntLit(1),
                Tok::P(Le),
                Tok::IntLit(2),
                Tok::Eof
            ]
        );
        assert_eq!(
            kinds("x++ + ++y && z || !w"),
            vec![
                Tok::Ident("x".into()),
                Tok::P(PlusPlus),
                Tok::P(Plus),
                Tok::P(PlusPlus),
                Tok::Ident("y".into()),
                Tok::P(AmpAmp),
                Tok::Ident("z".into()),
                Tok::P(PipePipe),
                Tok::P(Bang),
                Tok::Ident("w".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n/* block\n over lines */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
        assert!(lex("/* unterminated").is_err());
    }

    #[test]
    fn spans_track_lines() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }
}
