//! The char-by-char parser that the on-demand byte lexer replaced, kept
//! as the reference for the differential tests in `parser.rs`. It lexes
//! the whole input into a token vector first, so its first lexical error
//! always wins. It carries the same fixes as the new parser: diagnostics
//! are anchored at the offending token, and out-of-range lane counts are
//! errors rather than panics.

use std::collections::HashMap;

use super::{parse_float, type_from_str, ParseError};
use crate::function::{Function, Param};
use crate::inst::{BinOp, BlockId, CastKind, CmpPred, Constant, InstId, InstKind, UnOp};
use crate::module::Module;
use crate::types::{ScalarType, Type};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Value(String),
    At(String),
    Num(String),
    Punct(char),
    Arrow,
}

struct Lexer {
    toks: Vec<(Tok, u32, u32)>,
    pos: usize,
}

/// Character cursor tracking the 1-based line and column of the *next*
/// character, so every token can carry the position of its first char.
struct Cursor<'s> {
    chars: std::iter::Peekable<std::str::Chars<'s>>,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn lex(src: &str) -> Result<Lexer, ParseError> {
    let mut toks = Vec::new();
    let mut cur = Cursor {
        chars: src.chars().peekable(),
        line: 1,
        col: 1,
    };
    while let Some(c) = cur.peek() {
        // Position of the token that starts here.
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            ';' | '#' => {
                // Comment to end of line.
                while let Some(c) = cur.bump() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            '%' | '@' => {
                cur.bump();
                let mut s = String::new();
                while let Some(c) = cur.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' {
                        s.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                if s.is_empty() {
                    return Err(ParseError {
                        line,
                        col,
                        message: format!("dangling `{c}`"),
                    });
                }
                toks.push(if c == '%' {
                    (Tok::Value(s), line, col)
                } else {
                    (Tok::At(s), line, col)
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(c) = cur.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '.' {
                        s.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Ident(s), line, col));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                cur.bump();
                if c == '-' && cur.peek() == Some('>') {
                    cur.bump();
                    toks.push((Tok::Arrow, line, col));
                    continue;
                }
                let mut last_e = false;
                while let Some(c) = cur.peek() {
                    if c.is_ascii_digit()
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || ((c == '-' || c == '+') && last_e)
                        || c == 'f' // allow `inf` via ident path; digits may not hit this
                        || c == 'n'
                        || c == 'a'
                        || c == 'i'
                    {
                        last_e = c == 'e' || c == 'E';
                        s.push(c);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                toks.push((Tok::Num(s), line, col));
            }
            '(' | ')' | '{' | '}' | '[' | ']' | ',' | ':' | '=' => {
                cur.bump();
                toks.push((Tok::Punct(c), line, col));
            }
            other => {
                return Err(ParseError {
                    line,
                    col,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, ..)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, ..)| t)
    }

    /// Position of the current token (or the last one at end of input).
    fn position(&self) -> (u32, u32) {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((0, 0))
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.position();
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    /// Like [`err`](Self::err) but anchored at the token `next()` just
    /// consumed — the right anchor for `expected X, found Y`
    /// diagnostics, where the cursor has already stepped past the
    /// offender.
    fn err_at_prev(&self, message: impl Into<String>) -> ParseError {
        self.err_at_index(self.pos.saturating_sub(1), message)
    }

    /// An error anchored at token `idx`.
    fn err_at_index(&self, idx: usize, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(idx.min(self.toks.len().saturating_sub(1)))
            .map(|&(_, l, c)| (l, c))
            .unwrap_or((0, 0));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|(t, ..)| t.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            t => Err(self.err_at_prev(format!("expected `{c}`, found {t:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(self.err_at_prev(format!("expected identifier, found {t:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        let s = self.expect_ident()?;
        if s == kw {
            Ok(())
        } else {
            Err(self.err_at_prev(format!("expected `{kw}`, found `{s}`")))
        }
    }

    fn expect_value(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Value(s) => Ok(s),
            t => Err(self.err_at_prev(format!("expected %value, found {t:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_u8(&mut self) -> Result<u8, ParseError> {
        match self.next()? {
            Tok::Num(s) => s
                .parse::<u8>()
                .map_err(|_| self.err_at_prev(format!("invalid lane index `{s}`"))),
            t => Err(self.err_at_prev(format!("expected lane index, found {t:?}"))),
        }
    }
}

fn snslp_kind_from(s: &str) -> Option<CastKind> {
    CastKind::from_mnemonic(s)
}

fn parse_type(lex: &mut Lexer) -> Result<Type, ParseError> {
    let s = lex.expect_ident()?;
    type_from_str(&s).ok_or_else(|| lex.err_at_prev(format!("unknown type `{s}`")))
}

fn parse_const_literal(lex: &mut Lexer, ty: ScalarType) -> Result<Constant, ParseError> {
    let tok = lex.next()?;
    let text = match &tok {
        Tok::Num(s) => s.clone(),
        Tok::Ident(s) => s.clone(), // inf / nan
        t => return Err(lex.err_at_prev(format!("expected literal, found {t:?}"))),
    };
    let bad = |lex: &Lexer| lex.err_at_prev(format!("invalid {ty} literal `{text}`"));
    Ok(match ty {
        ScalarType::I32 => Constant::I32(text.parse().map_err(|_| bad(lex))?),
        ScalarType::I64 => Constant::I64(text.parse().map_err(|_| bad(lex))?),
        ScalarType::F32 => Constant::F32(parse_float(&text).map_err(|_| bad(lex))? as f32),
        ScalarType::F64 => Constant::F64(parse_float(&text).map_err(|_| bad(lex))?),
    })
}

struct FuncParser<'l> {
    lex: &'l mut Lexer,
    func: Function,
    values: HashMap<String, InstId>,
    /// Forward-referenced phi operands: slot and index of the first use.
    pending: HashMap<String, (InstId, usize)>,
    /// Token index of the `%result` being defined.
    def_idx: usize,
    blocks: HashMap<String, BlockId>,
    cur: BlockId,
    saw_first_label: bool,
}

impl FuncParser<'_> {
    /// Resolves a value name that must already be defined.
    fn value_strict(&mut self, name: &str) -> Result<InstId, ParseError> {
        self.values.get(name).copied().ok_or_else(|| {
            self.lex
                .err_at_prev(format!("use of undefined value `%{name}`"))
        })
    }

    /// Resolves a value name, reserving a forward slot if unknown (phi
    /// operands only).
    fn value_lazy(&mut self, name: &str) -> InstId {
        if let Some(&id) = self.values.get(name) {
            return id;
        }
        if let Some(&(id, _)) = self.pending.get(name) {
            return id;
        }
        let id = self
            .func
            .create_detached(InstKind::Const(Constant::I32(0)), Type::Void);
        self.pending
            .insert(name.to_string(), (id, self.lex.pos.saturating_sub(1)));
        id
    }

    fn block_ref(&mut self, name: &str) -> BlockId {
        if let Some(&b) = self.blocks.get(name) {
            return b;
        }
        let b = self.func.add_block(name.to_string());
        self.blocks.insert(name.to_string(), b);
        b
    }

    fn define(&mut self, name: String, kind: InstKind, ty: Type) -> Result<(), ParseError> {
        if self.values.contains_key(&name) {
            return Err(self
                .lex
                .err_at_index(self.def_idx, format!("redefinition of `%{name}`")));
        }
        let id = if let Some((slot, _)) = self.pending.remove(&name) {
            self.func.define_slot(slot, self.cur, kind, ty);
            slot
        } else {
            self.func.append_inst(self.cur, kind, ty)
        };
        self.values.insert(name, id);
        Ok(())
    }

    fn emit_effect(&mut self, kind: InstKind) {
        self.func.append_inst(self.cur, kind, Type::Void);
    }

    fn parse_operand_list(&mut self) -> Result<Vec<InstId>, ParseError> {
        let mut out = Vec::new();
        loop {
            let name = self.lex.expect_value()?;
            out.push(self.value_strict(&name)?);
            if !self.lex.eat_punct(',') {
                return Ok(out);
            }
        }
    }

    fn parse_body(&mut self) -> Result<(), ParseError> {
        loop {
            match self.lex.peek() {
                Some(Tok::Punct('}')) => {
                    self.lex.next()?;
                    if let Some((name, &(_, idx))) =
                        self.pending.iter().min_by_key(|(_, (id, _))| *id)
                    {
                        return Err(self.lex.err_at_index(
                            idx,
                            format!("use of undefined value `%{name}` (phi operand)"),
                        ));
                    }
                    return Ok(());
                }
                Some(Tok::Ident(_)) if self.lex.peek2() == Some(&Tok::Punct(':')) => {
                    let label = self.lex.expect_ident()?;
                    self.lex.expect_punct(':')?;
                    if !self.saw_first_label {
                        // First label names the entry block.
                        self.saw_first_label = true;
                        self.func.set_block_name(self.func.entry(), label.clone());
                        self.blocks.insert(label, self.func.entry());
                        self.cur = self.func.entry();
                    } else {
                        self.cur = self.block_ref(&label);
                    }
                }
                Some(_) => self.parse_inst()?,
                None => return Err(self.lex.err("unexpected end of input in function body")),
            }
        }
    }

    fn parse_inst(&mut self) -> Result<(), ParseError> {
        match self.lex.next()? {
            Tok::Value(result) => {
                self.def_idx = self.lex.pos - 1;
                self.lex.expect_punct('=')?;
                self.parse_value_inst(result)
            }
            Tok::Ident(op) => self.parse_effect_inst(&op),
            t => Err(self
                .lex
                .err_at_prev(format!("expected instruction, found {t:?}"))),
        }
    }

    fn parse_value_inst(&mut self, result: String) -> Result<(), ParseError> {
        let op = self.lex.expect_ident()?;
        let op_idx = self.lex.pos - 1;
        match op.as_str() {
            "const" => {
                let ty = parse_type(self.lex)?;
                let st = ty
                    .as_scalar()
                    .ok_or_else(|| self.lex.err_at_prev("const needs a scalar type"))?;
                let c = parse_const_literal(self.lex, st)?;
                self.define(result, InstKind::Const(c), ty)
            }
            "cast" => {
                let m = self.lex.expect_ident()?;
                let kind = snslp_kind_from(&m)
                    .ok_or_else(|| self.lex.err_at_prev(format!("unknown cast `{m}`")))?;
                let ty = parse_type(self.lex)?;
                let n = self.lex.expect_value()?;
                let operand = self.value_strict(&n)?;
                self.define(result, InstKind::Cast { kind, operand }, ty)
            }
            "lanewise" => {
                self.lex.expect_punct('[')?;
                let mut ops = Vec::new();
                loop {
                    let m = self.lex.expect_ident()?;
                    let op = BinOp::from_mnemonic(&m)
                        .ok_or_else(|| self.lex.err_at_prev(format!("unknown binop `{m}`")))?;
                    ops.push(op);
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                let ty = parse_type(self.lex)?;
                let lhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(&n)?
                };
                self.lex.expect_punct(',')?;
                let rhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(&n)?
                };
                self.define(
                    result,
                    InstKind::BinaryLanewise {
                        ops: ops.into_boxed_slice(),
                        lhs,
                        rhs,
                    },
                    ty,
                )
            }
            "cmp" => {
                let p = self.lex.expect_ident()?;
                let pred = CmpPred::from_mnemonic(&p)
                    .ok_or_else(|| self.lex.err_at_prev(format!("unknown predicate `{p}`")))?;
                let opty = parse_type(self.lex)?;
                let lhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(&n)?
                };
                self.lex.expect_punct(',')?;
                let rhs = {
                    let n = self.lex.expect_value()?;
                    self.value_strict(&n)?
                };
                let ty = match opty {
                    Type::Vector(v) => Type::vector(ScalarType::I32, v.lanes),
                    _ => Type::scalar(ScalarType::I32),
                };
                self.define(result, InstKind::Cmp { pred, lhs, rhs }, ty)
            }
            "select" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 3 {
                    return Err(self.lex.err_at_index(op_idx, "select takes 3 operands"));
                }
                let ty = self.func.ty(ops[1]);
                self.define(
                    result,
                    InstKind::Select {
                        cond: ops[0],
                        on_true: ops[1],
                        on_false: ops[2],
                    },
                    ty,
                )
            }
            "load" => {
                let ty = parse_type(self.lex)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let ptr = self.value_strict(&n)?;
                self.define(result, InstKind::Load { ptr }, ty)
            }
            "ptradd" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 2 {
                    return Err(self.lex.err_at_index(op_idx, "ptradd takes 2 operands"));
                }
                self.define(
                    result,
                    InstKind::PtrAdd {
                        ptr: ops[0],
                        offset: ops[1],
                    },
                    Type::Ptr,
                )
            }
            "splat" => {
                let lanes = self.lex.expect_u8()?;
                if lanes < 2 {
                    return Err(self.lex.err_at_prev("splat needs at least 2 lanes"));
                }
                let n = self.lex.expect_value()?;
                let value = self.value_strict(&n)?;
                let st = self.func.ty(value).as_scalar().ok_or_else(|| {
                    self.lex
                        .err_at_index(op_idx, "splat needs a scalar operand")
                })?;
                self.define(
                    result,
                    InstKind::Splat { value, lanes },
                    Type::vector(st, lanes),
                )
            }
            "buildvec" => {
                let elems = self.parse_operand_list()?;
                if elems.len() < 2 {
                    return Err(self
                        .lex
                        .err_at_index(op_idx, "buildvec needs at least 2 elements"));
                }
                if elems.len() > 255 {
                    return Err(self
                        .lex
                        .err_at_index(op_idx, "buildvec takes at most 255 elements"));
                }
                let st = self.func.ty(elems[0]).as_scalar().ok_or_else(|| {
                    self.lex
                        .err_at_index(op_idx, "buildvec needs scalar elements")
                })?;
                let lanes = elems.len() as u8;
                self.define(
                    result,
                    InstKind::BuildVector {
                        elems: elems.into_boxed_slice(),
                    },
                    Type::vector(st, lanes),
                )
            }
            "extract" => {
                let n = self.lex.expect_value()?;
                let vector = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let vt = self.func.ty(vector).as_vector().ok_or_else(|| {
                    self.lex
                        .err_at_index(op_idx, "extract needs a vector operand")
                })?;
                self.define(
                    result,
                    InstKind::ExtractElement { vector, lane },
                    Type::Scalar(vt.elem),
                )
            }
            "insert" => {
                let n = self.lex.expect_value()?;
                let vector = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let value = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let ty = self.func.ty(vector);
                self.define(
                    result,
                    InstKind::InsertElement {
                        vector,
                        value,
                        lane,
                    },
                    ty,
                )
            }
            "shuffle" => {
                let n = self.lex.expect_value()?;
                let a = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                let n = self.lex.expect_value()?;
                let b = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                self.lex.expect_punct('[')?;
                let mut mask = Vec::new();
                loop {
                    mask.push(self.lex.expect_u8()?);
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                if !(2..=255).contains(&mask.len()) {
                    return Err(self
                        .lex
                        .err_at_index(op_idx, "shuffle mask needs 2 to 255 lanes"));
                }
                let vt = self.func.ty(a).as_vector().ok_or_else(|| {
                    self.lex
                        .err_at_index(op_idx, "shuffle needs vector operands")
                })?;
                let lanes = mask.len() as u8;
                self.define(
                    result,
                    InstKind::Shuffle {
                        a,
                        b,
                        mask: mask.into_boxed_slice(),
                    },
                    Type::vector(vt.elem, lanes),
                )
            }
            "phi" => {
                let ty = parse_type(self.lex)?;
                self.lex.expect_punct('[')?;
                let mut incoming = Vec::new();
                loop {
                    let blk = self.lex.expect_ident()?;
                    self.lex.expect_punct(':')?;
                    let val = self.lex.expect_value()?;
                    let b = self.block_ref(&blk);
                    let v = self.value_lazy(&val);
                    incoming.push((b, v));
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                self.define(result, InstKind::Phi { incoming }, ty)
            }
            mnem => {
                // Binary or unary arithmetic: `<op> <ty> %a[, %b]`.
                if let Some(op) = BinOp::from_mnemonic(mnem) {
                    let ty = parse_type(self.lex)?;
                    let ops = self.parse_operand_list()?;
                    if ops.len() != 2 {
                        return Err(self
                            .lex
                            .err_at_index(op_idx, format!("`{mnem}` takes 2 operands")));
                    }
                    self.define(
                        result,
                        InstKind::Binary {
                            op,
                            lhs: ops[0],
                            rhs: ops[1],
                        },
                        ty,
                    )
                } else if let Some(op) = UnOp::from_mnemonic(mnem) {
                    let ty = parse_type(self.lex)?;
                    let n = self.lex.expect_value()?;
                    let operand = self.value_strict(&n)?;
                    self.define(result, InstKind::Unary { op, operand }, ty)
                } else {
                    Err(self
                        .lex
                        .err_at_index(op_idx, format!("unknown instruction `{mnem}`")))
                }
            }
        }
    }

    fn parse_effect_inst(&mut self, op: &str) -> Result<(), ParseError> {
        let op_idx = self.lex.pos - 1;
        match op {
            "store" => {
                let ops = self.parse_operand_list()?;
                if ops.len() != 2 {
                    return Err(self.lex.err_at_index(op_idx, "store takes 2 operands"));
                }
                self.emit_effect(InstKind::Store {
                    ptr: ops[0],
                    value: ops[1],
                });
                Ok(())
            }
            "jmp" => {
                let label = self.lex.expect_ident()?;
                let target = self.block_ref(&label);
                self.emit_effect(InstKind::Jump { target });
                Ok(())
            }
            "br" => {
                let n = self.lex.expect_value()?;
                let cond = self.value_strict(&n)?;
                self.lex.expect_punct(',')?;
                let t = self.lex.expect_ident()?;
                self.lex.expect_punct(',')?;
                let e = self.lex.expect_ident()?;
                let on_true = self.block_ref(&t);
                let on_false = self.block_ref(&e);
                self.emit_effect(InstKind::Branch {
                    cond,
                    on_true,
                    on_false,
                });
                Ok(())
            }
            "ret" => {
                let value = if let Some(Tok::Value(_)) = self.lex.peek() {
                    let n = self.lex.expect_value()?;
                    Some(self.value_strict(&n)?)
                } else {
                    None
                };
                self.emit_effect(InstKind::Ret { value });
                Ok(())
            }
            other => Err(self
                .lex
                .err_at_index(op_idx, format!("unknown instruction `{other}`"))),
        }
    }
}

fn parse_function(lex: &mut Lexer) -> Result<Function, ParseError> {
    lex.expect_keyword("func")?;
    let name = match lex.next()? {
        Tok::At(s) => s,
        t => return Err(lex.err_at_prev(format!("expected @name, found {t:?}"))),
    };
    lex.expect_punct('(')?;
    let mut params = Vec::new();
    if !lex.eat_punct(')') {
        loop {
            let pname = lex.expect_value()?;
            lex.expect_punct(':')?;
            let ty = parse_type(lex)?;
            let noalias = if let Some(Tok::Ident(s)) = lex.peek() {
                if s == "noalias" {
                    lex.next()?;
                    true
                } else {
                    false
                }
            } else {
                false
            };
            params.push(Param {
                name: pname,
                ty,
                noalias,
            });
            if lex.eat_punct(')') {
                break;
            }
            lex.expect_punct(',')?;
        }
    }
    match lex.next()? {
        Tok::Arrow => {}
        t => return Err(lex.err_at_prev(format!("expected `->`, found {t:?}"))),
    }
    let ret_ty = parse_type(lex)?;
    let mut fast_math = false;
    if let Some(Tok::Ident(s)) = lex.peek() {
        if s == "fastmath" {
            lex.next()?;
            fast_math = true;
        }
    }
    lex.expect_punct('{')?;

    let mut func = Function::new(name, params.clone(), ret_ty);
    func.fast_math = fast_math;
    let mut values = HashMap::new();
    for (i, p) in params.iter().enumerate() {
        values.insert(p.name.clone(), func.param(i));
    }
    let cur = func.entry();
    let mut fp = FuncParser {
        lex,
        func,
        values,
        pending: HashMap::new(),
        def_idx: 0,
        blocks: HashMap::new(),
        cur,
        saw_first_label: false,
    };
    fp.parse_body()?;
    Ok(fp.func)
}

/// Parses a module containing zero or more functions.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut lex = lex(src)?;
    let mut module = Module::new("parsed");
    while lex.peek().is_some() {
        module.add_function(parse_function(&mut lex)?);
    }
    Ok(module)
}
