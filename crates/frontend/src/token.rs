//! Tokens of the Java subset.

use crate::span::Span;
use std::fmt;

/// A lexed token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: Tok,
    /// Source location.
    pub span: Span,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier.
    Ident(String),
    /// `int` literal (value fits `i32`; negative literals are lexed as
    /// unary minus + literal, except `Integer.MIN_VALUE` handling in the
    /// parser).
    IntLit(i64),
    /// `long` literal (`L` suffix; may be 2^63, the operand of
    /// `Long.MIN_VALUE`'s unary minus, which the parser range-checks).
    LongLit(i128),
    /// `float` literal (`f` suffix).
    FloatLit(f32),
    /// `double` literal.
    DoubleLit(f64),
    /// `char` literal.
    CharLit(u16),
    /// String literal.
    StrLit(String),
    /// A keyword.
    Kw(Kw),
    /// Punctuation or operator.
    P(P),
    /// End of input.
    Eof,
}

/// Keywords of the subset (access modifiers are accepted and ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Kw {
    Class,
    Extends,
    Static,
    Final,
    Public,
    Private,
    Protected,
    Abstract,
    Void,
    Boolean,
    Char,
    Int,
    Long,
    Float,
    Double,
    If,
    Else,
    While,
    Do,
    For,
    Break,
    Continue,
    Return,
    New,
    Null,
    True,
    False,
    This,
    Super,
    Instanceof,
    Throw,
    Throws,
    Try,
    Catch,
    Finally,
}

/// Punctuation and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum P {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Colon,
    Question,
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,
    UshrAssign,
    PlusPlus,
    MinusMinus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AmpAmp,
    PipePipe,
    Bang,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
    Ushr,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::IntLit(v) => write!(f, "int literal {v}"),
            Tok::LongLit(v) => write!(f, "long literal {v}L"),
            Tok::FloatLit(v) => write!(f, "float literal {v}f"),
            Tok::DoubleLit(v) => write!(f, "double literal {v}"),
            Tok::CharLit(c) => write!(f, "char literal {c}"),
            Tok::StrLit(s) => write!(f, "string literal {s:?}"),
            Tok::Kw(k) => write!(f, "keyword `{k:?}`"),
            Tok::P(p) => write!(f, "`{p:?}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// Looks up a keyword by its source spelling.
pub fn keyword(s: &str) -> Option<Kw> {
    Some(match s {
        "class" => Kw::Class,
        "extends" => Kw::Extends,
        "static" => Kw::Static,
        "final" => Kw::Final,
        "public" => Kw::Public,
        "private" => Kw::Private,
        "protected" => Kw::Protected,
        "abstract" => Kw::Abstract,
        "void" => Kw::Void,
        "boolean" => Kw::Boolean,
        "char" => Kw::Char,
        "int" => Kw::Int,
        "long" => Kw::Long,
        "float" => Kw::Float,
        "double" => Kw::Double,
        "if" => Kw::If,
        "else" => Kw::Else,
        "while" => Kw::While,
        "do" => Kw::Do,
        "for" => Kw::For,
        "break" => Kw::Break,
        "continue" => Kw::Continue,
        "return" => Kw::Return,
        "new" => Kw::New,
        "null" => Kw::Null,
        "true" => Kw::True,
        "false" => Kw::False,
        "this" => Kw::This,
        "super" => Kw::Super,
        "instanceof" => Kw::Instanceof,
        "throw" => Kw::Throw,
        "throws" => Kw::Throws,
        "try" => Kw::Try,
        "catch" => Kw::Catch,
        "finally" => Kw::Finally,
        _ => return None,
    })
}
