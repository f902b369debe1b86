//! Recursive-descent parser for the Java subset.

use crate::ast::*;
use crate::span::{CompileError, Span};
use crate::token::{Kw, Tok, Token, P};

/// Maximum expression nesting the parser accepts (bounds recursion on
/// adversarial inputs).
pub const MAX_NESTING: u32 = 48;

/// Parses a compilation unit.
///
/// # Errors
///
/// Returns the first syntax error encountered.
pub fn parse(tokens: Vec<Token>) -> Result<CompilationUnit, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut classes = Vec::new();
    while !p.at_eof() {
        classes.push(p.class_decl()?);
    }
    Ok(CompilationUnit { classes })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Expression nesting depth, bounded to keep recursive descent on
    /// a sane stack for adversarial inputs.
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &Tok {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    /// Consumes the current token and returns it. Tokens behind the
    /// cursor are never read again, so each one moves out of the
    /// buffer; the last token (end of input) stays put.
    fn bump(&mut self) -> Token {
        let at = self.pos;
        if at + 1 == self.tokens.len() {
            return self.tokens[at].clone();
        }
        self.pos += 1;
        let t = &mut self.tokens[at];
        Token {
            kind: std::mem::replace(&mut t.kind, Tok::Eof),
            span: t.span,
        }
    }

    /// Consumes the current token, an identifier or string literal,
    /// and returns its text.
    fn bump_text(&mut self) -> (String, Span) {
        let t = self.bump();
        match t.kind {
            Tok::Ident(s) | Tok::StrLit(s) => (s, t.span),
            other => unreachable!("bump_text on {other}"),
        }
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.span(), msg)
    }

    fn eat_p(&mut self, p: P) -> bool {
        if *self.peek() == Tok::P(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_p(&mut self, p: P) -> Result<Span, CompileError> {
        if *self.peek() == Tok::P(p) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{p:?}`, found {}", self.peek())))
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if *self.peek() == Tok::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, k: Kw) -> Result<Span, CompileError> {
        if *self.peek() == Tok::Kw(k) {
            Ok(self.bump().span)
        } else {
            Err(self.err(format!("expected `{k:?}`, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), CompileError> {
        match self.peek() {
            Tok::Ident(_) => Ok(self.bump_text()),
            t => Err(self.err(format!("expected identifier, found {t}"))),
        }
    }

    /// Consumes any access/`final`/`abstract` modifiers; returns whether
    /// `static` was among them.
    fn modifiers(&mut self) -> bool {
        let mut is_static = false;
        loop {
            match self.peek() {
                Tok::Kw(Kw::Public)
                | Tok::Kw(Kw::Private)
                | Tok::Kw(Kw::Protected)
                | Tok::Kw(Kw::Final)
                | Tok::Kw(Kw::Abstract) => {
                    self.bump();
                }
                Tok::Kw(Kw::Static) => {
                    is_static = true;
                    self.bump();
                }
                _ => return is_static,
            }
        }
    }

    fn class_decl(&mut self) -> Result<ClassDecl, CompileError> {
        self.modifiers();
        let span = self.expect_kw(Kw::Class)?;
        let (name, _) = self.expect_ident()?;
        let superclass = if self.eat_kw(Kw::Extends) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect_p(P::LBrace)?;
        let mut members = Vec::new();
        while !self.eat_p(P::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated class body"));
            }
            self.member(&name, &mut members)?;
        }
        Ok(ClassDecl {
            name,
            superclass,
            members,
            span,
        })
    }

    fn member(&mut self, class_name: &str, out: &mut Vec<Member>) -> Result<(), CompileError> {
        let is_static = self.modifiers();
        let span = self.span();
        // Constructor: `Name (`
        if let Tok::Ident(n) = self.peek() {
            if n == class_name && *self.peek_at(1) == Tok::P(P::LParen) {
                self.bump();
                let params = self.params()?;
                // tolerate `throws X, Y`
                self.throws_clause()?;
                let body = self.block()?;
                out.push(Member::Ctor(CtorDecl { params, body, span }));
                return Ok(());
            }
        }
        // `void name(...)`.
        if self.eat_kw(Kw::Void) {
            let (name, _) = self.expect_ident()?;
            self.expect_p(P::LParen)?;
            return self.finish_method(out, name, is_static, None, span);
        }
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        if self.eat_p(P::LParen) {
            return self.finish_method(out, name, is_static, Some(ty), span);
        }
        // Field declarator list.
        let mut name = name;
        loop {
            let init = if self.eat_p(P::Assign) {
                Some(self.maybe_array_init(&ty)?)
            } else {
                None
            };
            out.push(Member::Field(FieldDecl {
                name,
                ty: ty.clone(),
                is_static,
                init,
                span,
            }));
            if self.eat_p(P::Comma) {
                name = self.expect_ident()?.0;
            } else {
                break;
            }
        }
        self.expect_p(P::Semi)?;
        Ok(())
    }

    fn throws_clause(&mut self) -> Result<(), CompileError> {
        if self.eat_kw(Kw::Throws) {
            loop {
                self.expect_ident()?;
                if !self.eat_p(P::Comma) {
                    break;
                }
            }
        }
        Ok(())
    }

    fn finish_method(
        &mut self,
        out: &mut Vec<Member>,
        name: String,
        is_static: bool,
        ret: Option<TypeRef>,
        span: Span,
    ) -> Result<(), CompileError> {
        let params = self.params_after_lparen()?;
        self.throws_clause()?;
        let body = self.block()?;
        out.push(Member::Method(MethodDecl {
            name,
            is_static,
            ret,
            params,
            body,
            span,
        }));
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(TypeRef, String)>, CompileError> {
        self.expect_p(P::LParen)?;
        self.params_after_lparen()
    }

    fn params_after_lparen(&mut self) -> Result<Vec<(TypeRef, String)>, CompileError> {
        let mut params = Vec::new();
        if self.eat_p(P::RParen) {
            return Ok(params);
        }
        loop {
            self.eat_kw(Kw::Final);
            let ty = self.type_ref()?;
            let (name, _) = self.expect_ident()?;
            params.push((ty, name));
            if !self.eat_p(P::Comma) {
                break;
            }
        }
        self.expect_p(P::RParen)?;
        Ok(params)
    }

    fn type_ref(&mut self) -> Result<TypeRef, CompileError> {
        let mut base = match self.peek() {
            Tok::Kw(Kw::Boolean) => {
                self.bump();
                TypeRef::Bool
            }
            Tok::Kw(Kw::Char) => {
                self.bump();
                TypeRef::Char
            }
            Tok::Kw(Kw::Int) => {
                self.bump();
                TypeRef::Int
            }
            Tok::Kw(Kw::Long) => {
                self.bump();
                TypeRef::Long
            }
            Tok::Kw(Kw::Float) => {
                self.bump();
                TypeRef::Float
            }
            Tok::Kw(Kw::Double) => {
                self.bump();
                TypeRef::Double
            }
            Tok::Ident(_) => TypeRef::Named(self.bump_text().0),
            t => return Err(self.err(format!("expected type, found {t}"))),
        };
        while *self.peek() == Tok::P(P::LBracket) && *self.peek_at(1) == Tok::P(P::RBracket) {
            self.bump();
            self.bump();
            base = TypeRef::Array(Box::new(base));
        }
        Ok(base)
    }

    /// Whether a type reference starts here and is followed by an
    /// identifier — i.e. a local variable declaration.
    fn at_local_decl(&self) -> bool {
        let mut i = 0;
        match self.peek_at(i) {
            Tok::Kw(Kw::Boolean | Kw::Char | Kw::Int | Kw::Long | Kw::Float | Kw::Double)
            | Tok::Ident(_) => i += 1,
            _ => return false,
        }
        while *self.peek_at(i) == Tok::P(P::LBracket) && *self.peek_at(i + 1) == Tok::P(P::RBracket)
        {
            i += 2;
        }
        // prim types: always a decl if followed by ident; named types
        // need `Name name` shape (array suffix already consumed).
        matches!(
            (self.peek_at(0), self.peek_at(i)),
            (Tok::Kw(_), Tok::Ident(_)) | (Tok::Ident(_), Tok::Ident(_))
        )
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect_p(P::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_p(P::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated block"));
            }
            self.stmt_into(&mut stmts)?;
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let mut v = Vec::new();
        self.stmt_into(&mut v)?;
        Ok(if v.len() == 1 {
            v.into_iter().next().unwrap()
        } else {
            Stmt::Block(v)
        })
    }

    /// Parses one statement; multi-declarator locals expand to several.
    fn stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        match self.peek() {
            Tok::P(P::LBrace) => {
                let b = self.block()?;
                out.push(Stmt::Block(b));
            }
            Tok::P(P::Semi) => {
                self.bump();
                out.push(Stmt::Empty);
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let cond = self.expr()?;
                self.expect_p(P::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                out.push(Stmt::If { cond, then, els });
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let cond = self.expr()?;
                self.expect_p(P::RParen)?;
                let body = Box::new(self.stmt()?);
                out.push(Stmt::While { cond, body });
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                self.expect_kw(Kw::While)?;
                self.expect_p(P::LParen)?;
                let cond = self.expr()?;
                self.expect_p(P::RParen)?;
                self.expect_p(P::Semi)?;
                out.push(Stmt::Do { body, cond });
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect_p(P::LParen)?;
                let mut init = Vec::new();
                if !self.eat_p(P::Semi) {
                    if self.at_local_decl() {
                        self.local_decl_into(&mut init)?;
                    } else {
                        loop {
                            let e = self.expr()?;
                            init.push(Stmt::Expr(e));
                            if !self.eat_p(P::Comma) {
                                break;
                            }
                        }
                        self.expect_p(P::Semi)?;
                    }
                }
                let cond = if *self.peek() == Tok::P(P::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_p(P::Semi)?;
                let mut update = Vec::new();
                if *self.peek() != Tok::P(P::RParen) {
                    loop {
                        update.push(self.expr()?);
                        if !self.eat_p(P::Comma) {
                            break;
                        }
                    }
                }
                self.expect_p(P::RParen)?;
                let body = Box::new(self.stmt()?);
                out.push(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                });
            }
            Tok::Kw(Kw::Break) => {
                let sp = self.bump().span;
                let label = match self.peek() {
                    Tok::Ident(_) => Some(self.bump_text().0),
                    _ => None,
                };
                self.expect_p(P::Semi)?;
                out.push(Stmt::Break(label, sp));
            }
            Tok::Kw(Kw::Continue) => {
                let sp = self.bump().span;
                let label = match self.peek() {
                    Tok::Ident(_) => Some(self.bump_text().0),
                    _ => None,
                };
                self.expect_p(P::Semi)?;
                out.push(Stmt::Continue(label, sp));
            }
            Tok::Kw(Kw::Return) => {
                let sp = self.bump().span;
                let v = if *self.peek() == Tok::P(P::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_p(P::Semi)?;
                out.push(Stmt::Return(v, sp));
            }
            Tok::Kw(Kw::Throw) => {
                self.bump();
                let e = self.expr()?;
                self.expect_p(P::Semi)?;
                out.push(Stmt::Throw(e));
            }
            Tok::Kw(Kw::Try) => {
                self.bump();
                let body = self.block()?;
                let mut catches = Vec::new();
                while self.eat_kw(Kw::Catch) {
                    let span = self.span();
                    self.expect_p(P::LParen)?;
                    self.eat_kw(Kw::Final);
                    let (class, _) = self.expect_ident()?;
                    let (var, _) = self.expect_ident()?;
                    self.expect_p(P::RParen)?;
                    let cbody = self.block()?;
                    catches.push(CatchClause {
                        class,
                        var,
                        body: cbody,
                        span,
                    });
                }
                let finally = if self.eat_kw(Kw::Finally) {
                    Some(self.block()?)
                } else {
                    None
                };
                if catches.is_empty() && finally.is_none() {
                    return Err(self.err("try without catch or finally"));
                }
                out.push(Stmt::Try {
                    body,
                    catches,
                    finally,
                });
            }
            Tok::Kw(Kw::Super) if *self.peek_at(1) == Tok::P(P::LParen) => {
                let sp = self.bump().span;
                self.bump(); // (
                let args = self.args_after_lparen()?;
                self.expect_p(P::Semi)?;
                out.push(Stmt::SuperCall(args, sp));
            }
            Tok::Ident(_) if *self.peek_at(1) == Tok::P(P::Colon) && !self.at_local_decl() => {
                // A labeled statement: `name: <loop>`.
                let (name, span) = self.bump_text();
                self.bump(); // ':'
                let body = Box::new(self.stmt()?);
                out.push(Stmt::Labeled { name, body, span });
            }
            _ => {
                if self.at_local_decl() {
                    self.local_decl_into(out)?;
                } else {
                    let e = self.expr()?;
                    self.expect_p(P::Semi)?;
                    out.push(Stmt::Expr(e));
                }
            }
        }
        Ok(())
    }

    fn local_decl_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        let ty = self.type_ref()?;
        loop {
            let (name, span) = self.expect_ident()?;
            // trailing `[]` after the name: `int a[]`
            let mut vty = ty.clone();
            while *self.peek() == Tok::P(P::LBracket) && *self.peek_at(1) == Tok::P(P::RBracket) {
                self.bump();
                self.bump();
                vty = TypeRef::Array(Box::new(vty));
            }
            let init = if self.eat_p(P::Assign) {
                Some(self.maybe_array_init(&vty)?)
            } else {
                None
            };
            out.push(Stmt::Local {
                ty: vty,
                name,
                init,
                span,
            });
            if !self.eat_p(P::Comma) {
                break;
            }
        }
        self.expect_p(P::Semi)?;
        Ok(())
    }

    /// Parses an initializer, allowing `{ ... }` array-literal sugar.
    fn maybe_array_init(&mut self, decl_ty: &TypeRef) -> Result<Expr, CompileError> {
        if *self.peek() == Tok::P(P::LBrace) {
            let span = self.span();
            let elems = self.array_lit_elems(decl_ty)?;
            let elem = match decl_ty {
                TypeRef::Array(e) => Some((**e).clone()),
                _ => None,
            };
            return Ok(Expr {
                kind: ExprKind::ArrayLit { elem, elems },
                span,
            });
        }
        self.expr()
    }

    fn array_lit_elems(&mut self, decl_ty: &TypeRef) -> Result<Vec<Expr>, CompileError> {
        self.expect_p(P::LBrace)?;
        let inner = match decl_ty {
            TypeRef::Array(e) => (**e).clone(),
            other => other.clone(),
        };
        let mut elems = Vec::new();
        if self.eat_p(P::RBrace) {
            return Ok(elems);
        }
        loop {
            elems.push(self.maybe_array_init(&inner)?);
            if self.eat_p(P::Comma) {
                if self.eat_p(P::RBrace) {
                    return Ok(elems); // trailing comma
                }
            } else {
                self.expect_p(P::RBrace)?;
                return Ok(elems);
            }
        }
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Tok::P(P::Assign) => None,
            Tok::P(P::PlusAssign) => Some(BinOp::Add),
            Tok::P(P::MinusAssign) => Some(BinOp::Sub),
            Tok::P(P::StarAssign) => Some(BinOp::Mul),
            Tok::P(P::SlashAssign) => Some(BinOp::Div),
            Tok::P(P::PercentAssign) => Some(BinOp::Rem),
            Tok::P(P::AmpAssign) => Some(BinOp::BitAnd),
            Tok::P(P::PipeAssign) => Some(BinOp::BitOr),
            Tok::P(P::CaretAssign) => Some(BinOp::BitXor),
            Tok::P(P::ShlAssign) => Some(BinOp::Shl),
            Tok::P(P::ShrAssign) => Some(BinOp::Shr),
            Tok::P(P::UshrAssign) => Some(BinOp::Ushr),
            _ => return Ok(lhs),
        };
        let span = self.bump().span;
        let value = self.assignment()?;
        Ok(Expr {
            kind: ExprKind::Assign {
                target: Box::new(lhs),
                op,
                value: Box::new(value),
            },
            span,
        })
    }

    fn conditional(&mut self) -> Result<Expr, CompileError> {
        let c = self.binary(0)?;
        if self.eat_p(P::Question) {
            let span = c.span;
            let t = self.expr()?;
            self.expect_p(P::Colon)?;
            let e = self.conditional()?;
            return Ok(Expr {
                kind: ExprKind::Cond {
                    cond: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(e),
                },
                span,
            });
        }
        Ok(c)
    }

    fn bin_op_at(&self, level: u8) -> Option<BinOp> {
        use BinOp::*;
        let op = match (level, self.peek()) {
            (0, Tok::P(P::PipePipe)) => OrOr,
            (1, Tok::P(P::AmpAmp)) => AndAnd,
            (2, Tok::P(P::Pipe)) => BitOr,
            (3, Tok::P(P::Caret)) => BitXor,
            (4, Tok::P(P::Amp)) => BitAnd,
            (5, Tok::P(P::Eq)) => Eq,
            (5, Tok::P(P::Ne)) => Ne,
            (6, Tok::P(P::Lt)) => Lt,
            (6, Tok::P(P::Le)) => Le,
            (6, Tok::P(P::Gt)) => Gt,
            (6, Tok::P(P::Ge)) => Ge,
            (7, Tok::P(P::Shl)) => Shl,
            (7, Tok::P(P::Shr)) => Shr,
            (7, Tok::P(P::Ushr)) => Ushr,
            (8, Tok::P(P::Plus)) => Add,
            (8, Tok::P(P::Minus)) => Sub,
            (9, Tok::P(P::Star)) => Mul,
            (9, Tok::P(P::Slash)) => Div,
            (9, Tok::P(P::Percent)) => Rem,
            _ => return None,
        };
        Some(op)
    }

    fn binary(&mut self, level: u8) -> Result<Expr, CompileError> {
        if level > 9 {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        loop {
            // `instanceof` sits at relational precedence.
            if level == 6 && *self.peek() == Tok::Kw(Kw::Instanceof) {
                let span = self.bump().span;
                let ty = self.type_ref()?;
                lhs = Expr {
                    kind: ExprKind::InstanceOf {
                        expr: Box::new(lhs),
                        ty,
                    },
                    span,
                };
                continue;
            }
            match self.bin_op_at(level) {
                Some(op) => {
                    let span = self.bump().span;
                    let rhs = self.binary(level + 1)?;
                    lhs = Expr {
                        kind: ExprKind::Binary {
                            op,
                            l: Box::new(lhs),
                            r: Box::new(rhs),
                        },
                        span,
                    };
                }
                None => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        // Every nesting level (parenthesis, prefix operator, cast)
        // passes through here exactly once; bounding it bounds the
        // parser's recursion on adversarial inputs.
        self.depth += 1;
        if self.depth > MAX_NESTING {
            self.depth -= 1;
            return Err(self.err("expression nesting too deep"));
        }
        let r = self.unary_inner();
        self.depth -= 1;
        r
    }

    fn unary_inner(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        match self.peek() {
            Tok::P(P::Minus) => {
                self.bump();
                // Fold -literal so Integer.MIN_VALUE / Long.MIN_VALUE work.
                if let Tok::IntLit(v) = self.peek() {
                    let v = *v;
                    self.bump();
                    return Ok(Expr {
                        kind: ExprKind::IntLit(-v),
                        span,
                    });
                }
                if let Tok::LongLit(v) = self.peek() {
                    let v = *v;
                    self.bump();
                    return Ok(Expr {
                        kind: ExprKind::LongLit((-v) as i64),
                        span,
                    });
                }
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            Tok::P(P::Plus) => {
                self.bump();
                self.unary()
            }
            Tok::P(P::Bang) => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            Tok::P(P::Tilde) => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::BitNot,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            Tok::P(P::PlusPlus) | Tok::P(P::MinusMinus) => {
                let inc = *self.peek() == Tok::P(P::PlusPlus);
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::IncDec {
                        target: Box::new(e),
                        inc,
                        prefix: true,
                    },
                    span,
                })
            }
            Tok::P(P::LParen) if self.at_cast() => {
                self.bump();
                let ty = self.type_ref()?;
                self.expect_p(P::RParen)?;
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Cast {
                        ty,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            _ => self.postfix(),
        }
    }

    /// Cast lookahead: `(` primitive-type …, or `(Name)` / `(Name[])`
    /// followed by a token that can begin a unary expression.
    fn at_cast(&self) -> bool {
        debug_assert!(matches!(self.peek(), Tok::P(P::LParen)));
        let mut i = 1;
        let prim = matches!(
            self.peek_at(i),
            Tok::Kw(Kw::Boolean | Kw::Char | Kw::Int | Kw::Long | Kw::Float | Kw::Double)
        );
        if !prim && !matches!(self.peek_at(i), Tok::Ident(_)) {
            return false;
        }
        i += 1;
        let mut is_array = false;
        while *self.peek_at(i) == Tok::P(P::LBracket) && *self.peek_at(i + 1) == Tok::P(P::RBracket)
        {
            is_array = true;
            i += 2;
        }
        if *self.peek_at(i) != Tok::P(P::RParen) {
            return false;
        }
        if prim || is_array {
            return true;
        }
        // `(Name) x` — cast only if the next token can begin an operand.
        matches!(
            self.peek_at(i + 1),
            Tok::Ident(_)
                | Tok::IntLit(_)
                | Tok::LongLit(_)
                | Tok::FloatLit(_)
                | Tok::DoubleLit(_)
                | Tok::CharLit(_)
                | Tok::StrLit(_)
                | Tok::P(P::LParen)
                | Tok::P(P::Bang)
                | Tok::P(P::Tilde)
                | Tok::Kw(Kw::New)
                | Tok::Kw(Kw::This)
                | Tok::Kw(Kw::Null)
                | Tok::Kw(Kw::True)
                | Tok::Kw(Kw::False)
        )
    }

    fn args_after_lparen(&mut self) -> Result<Vec<Expr>, CompileError> {
        let mut args = Vec::new();
        if self.eat_p(P::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if !self.eat_p(P::Comma) {
                break;
            }
        }
        self.expect_p(P::RParen)?;
        Ok(args)
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let span = self.span();
            if self.eat_p(P::Dot) {
                let (name, _) = self.expect_ident()?;
                if self.eat_p(P::LParen) {
                    let args = self.args_after_lparen()?;
                    e = Expr {
                        kind: ExprKind::CallQualified {
                            recv: Box::new(e),
                            name,
                            args,
                        },
                        span,
                    };
                } else {
                    e = Expr {
                        kind: ExprKind::FieldAccess {
                            obj: Box::new(e),
                            name,
                        },
                        span,
                    };
                }
            } else if self.eat_p(P::LBracket) {
                let idx = self.expr()?;
                self.expect_p(P::RBracket)?;
                e = Expr {
                    kind: ExprKind::Index {
                        arr: Box::new(e),
                        idx: Box::new(idx),
                    },
                    span,
                };
            } else if *self.peek() == Tok::P(P::PlusPlus) || *self.peek() == Tok::P(P::MinusMinus) {
                let inc = *self.peek() == Tok::P(P::PlusPlus);
                self.bump();
                e = Expr {
                    kind: ExprKind::IncDec {
                        target: Box::new(e),
                        inc,
                        prefix: false,
                    },
                    span,
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let span = self.span();
        let kind = match *self.peek() {
            Tok::IntLit(v) => {
                self.bump();
                if v > i32::MAX as i64 {
                    return Err(CompileError::new(span, "int literal too large"));
                }
                ExprKind::IntLit(v)
            }
            Tok::LongLit(v) => {
                self.bump();
                let Ok(v) = i64::try_from(v) else {
                    return Err(CompileError::new(span, "long literal too large"));
                };
                ExprKind::LongLit(v)
            }
            Tok::FloatLit(v) => {
                self.bump();
                ExprKind::FloatLit(v)
            }
            Tok::DoubleLit(v) => {
                self.bump();
                ExprKind::DoubleLit(v)
            }
            Tok::CharLit(v) => {
                self.bump();
                ExprKind::CharLit(v)
            }
            Tok::StrLit(_) => ExprKind::StrLit(self.bump_text().0),
            Tok::Kw(Kw::True) => {
                self.bump();
                ExprKind::BoolLit(true)
            }
            Tok::Kw(Kw::False) => {
                self.bump();
                ExprKind::BoolLit(false)
            }
            Tok::Kw(Kw::Null) => {
                self.bump();
                ExprKind::Null
            }
            Tok::Kw(Kw::This) => {
                self.bump();
                ExprKind::This
            }
            Tok::P(P::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_p(P::RParen)?;
                return Ok(e);
            }
            Tok::Kw(Kw::New) => {
                self.bump();
                let base = self.base_type_no_array()?;
                if self.eat_p(P::LBracket) {
                    // `new T[len]([])*` or `new T[]{...}`
                    if self.eat_p(P::RBracket) {
                        // `new T[] { ... }`
                        let elems =
                            self.array_lit_elems(&TypeRef::Array(Box::new(base.clone())))?;
                        return Ok(Expr {
                            kind: ExprKind::ArrayLit {
                                elem: Some(base),
                                elems,
                            },
                            span,
                        });
                    }
                    let len = self.expr()?;
                    self.expect_p(P::RBracket)?;
                    let mut extra_dims = 0;
                    while *self.peek() == Tok::P(P::LBracket)
                        && *self.peek_at(1) == Tok::P(P::RBracket)
                    {
                        self.bump();
                        self.bump();
                        extra_dims += 1;
                    }
                    ExprKind::NewArray {
                        elem: base,
                        len: Box::new(len),
                        extra_dims,
                    }
                } else {
                    let class = match base {
                        TypeRef::Named(n) => n,
                        _ => return Err(CompileError::new(span, "cannot `new` a primitive")),
                    };
                    self.expect_p(P::LParen)?;
                    let args = self.args_after_lparen()?;
                    ExprKind::New { class, args }
                }
            }
            Tok::Ident(_) => {
                let (name, _) = self.bump_text();
                if self.eat_p(P::LParen) {
                    let args = self.args_after_lparen()?;
                    ExprKind::CallUnqualified { name, args }
                } else {
                    ExprKind::Name(name)
                }
            }
            ref t => return Err(self.err(format!("expected expression, found {t}"))),
        };
        Ok(Expr { kind, span })
    }

    fn base_type_no_array(&mut self) -> Result<TypeRef, CompileError> {
        Ok(match self.peek() {
            Tok::Kw(Kw::Boolean) => {
                self.bump();
                TypeRef::Bool
            }
            Tok::Kw(Kw::Char) => {
                self.bump();
                TypeRef::Char
            }
            Tok::Kw(Kw::Int) => {
                self.bump();
                TypeRef::Int
            }
            Tok::Kw(Kw::Long) => {
                self.bump();
                TypeRef::Long
            }
            Tok::Kw(Kw::Float) => {
                self.bump();
                TypeRef::Float
            }
            Tok::Kw(Kw::Double) => {
                self.bump();
                TypeRef::Double
            }
            Tok::Ident(_) => TypeRef::Named(self.bump_text().0),
            t => return Err(self.err(format!("expected type after `new`, found {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> CompilationUnit {
        parse(lex(src).unwrap()).unwrap()
    }

    #[test]
    fn minimal_class() {
        let cu = parse_src("class A { }");
        assert_eq!(cu.classes.len(), 1);
        assert_eq!(cu.classes[0].name, "A");
        assert!(cu.classes[0].superclass.is_none());
    }

    #[test]
    fn fields_methods_ctor() {
        let cu = parse_src(
            "class P extends Q {
                 int x; static double y = 1.5;
                 P(int x) { this.x = x; }
                 static int f(int a, int b) { return a + b * 2; }
                 void g() { }
             }",
        );
        let c = &cu.classes[0];
        assert_eq!(c.superclass.as_deref(), Some("Q"));
        assert_eq!(c.members.len(), 5);
        assert!(matches!(c.members[0], Member::Field(_)));
        assert!(matches!(c.members[2], Member::Ctor(_)));
        if let Member::Method(m) = &c.members[3] {
            assert!(m.is_static);
            assert_eq!(m.params.len(), 2);
        } else {
            panic!("expected method");
        }
    }

    #[test]
    fn precedence() {
        let cu = parse_src("class A { int f() { return 1 + 2 * 3; } }");
        if let Member::Method(m) = &cu.classes[0].members[0] {
            if let Stmt::Return(Some(e), _) = &m.body[0] {
                if let ExprKind::Binary { op, r, .. } = &e.kind {
                    assert_eq!(*op, BinOp::Add);
                    assert!(matches!(r.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
                    return;
                }
            }
        }
        panic!("unexpected shape");
    }

    #[test]
    fn control_flow_statements() {
        parse_src(
            "class A { void f(int n) {
                 for (int i = 0, j = 1; i < n; i++, j += 2) { if (i == j) continue; }
                 while (n > 0) { n--; }
                 do { n++; } while (n < 10);
                 try { n = n / 0; } catch (Exception e) { n = 0; } finally { n = 1; }
                 int[] a = {1, 2, 3};
                 int[][] m = new int[3][];
                 m[0] = new int[] {4, 5};
             } }",
        );
    }

    #[test]
    fn casts_vs_parens() {
        let cu = parse_src(
            "class A { int f(double d, Object o) {
                 int x = (int) d;
                 A a = (A) o;
                 int y = (x) + 1;
                 return x + y;
             } }",
        );
        if let Member::Method(m) = &cu.classes[0].members[0] {
            assert!(matches!(
                &m.body[0],
                Stmt::Local { init: Some(e), .. } if matches!(e.kind, ExprKind::Cast { .. })
            ));
            assert!(matches!(
                &m.body[1],
                Stmt::Local { init: Some(e), .. } if matches!(e.kind, ExprKind::Cast { .. })
            ));
            // `(x) + 1` is addition, not a cast
            assert!(matches!(
                &m.body[2],
                Stmt::Local { init: Some(e), .. } if matches!(e.kind, ExprKind::Binary { .. })
            ));
        } else {
            panic!("expected method");
        }
    }

    #[test]
    fn ternary_and_shortcircuit() {
        parse_src(
            "class A { int f(int a, int b) {
                return a > 0 && b > 0 ? a : (a < 0 || b < 0) ? -a : 0;
            } }",
        );
    }

    #[test]
    fn calls_and_chains() {
        parse_src(
            "class A { void f(A other) {
                this.g().h(1).h(2);
                other.g();
                g();
                A.s();
            }
            A g() { return this; }
            A h(int x) { return this; }
            static void s() { } }",
        );
    }

    #[test]
    fn instanceof_parses_at_relational() {
        let cu = parse_src("class A { boolean f(Object o) { return o instanceof A == true; } }");
        let _ = cu;
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse(lex("class A { int }").unwrap()).is_err());
        assert!(parse(lex("class A { void f() { return }").unwrap()).is_err());
    }

    #[test]
    fn int_min_literal() {
        let cu = parse_src("class A { int f() { return -2147483648; } }");
        if let Member::Method(m) = &cu.classes[0].members[0] {
            if let Stmt::Return(Some(e), _) = &m.body[0] {
                assert_eq!(e.kind, ExprKind::IntLit(i32::MIN as i64));
                return;
            }
        }
        panic!("unexpected shape");
    }

    #[test]
    fn long_min_literal() {
        let cu = parse_src("class A { long f() { return -9223372036854775808L; } }");
        let Member::Method(m) = &cu.classes[0].members[0] else {
            panic!("unexpected shape");
        };
        let Stmt::Return(Some(e), _) = &m.body[0] else {
            panic!("unexpected shape");
        };
        assert_eq!(e.kind, ExprKind::LongLit(i64::MIN));
        // 2^63 is only legal as the operand of unary minus.
        for body in ["9223372036854775808L", "-(9223372036854775808L)"] {
            let src = format!("class A {{ long f() {{ return {body}; }} }}");
            assert!(parse(lex(&src).unwrap()).is_err(), "{body}");
        }
    }
}
