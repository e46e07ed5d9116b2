//! Textual form of the IR (parsing side).
//!
//! The accepted grammar is exactly what [`crate::printer`] emits; see that
//! module for an example. One restriction applies: only `phi` operands may
//! reference values defined later in the text — every other instruction
//! must use names already defined (which any verifier-clean function
//! printed in creation order satisfies).
//!
//! Parsing allocates nothing per token. The lexer walks the source bytes
//! on demand, one or two tokens ahead of the parser, and each token
//! borrows its text from the source. Value and block names are looked up
//! as borrowed slices too; only the function, parameter and block names
//! that end up in the [`Function`] are copied.
//!
//! # Examples
//!
//! ```
//! use snslp_ir::parse_module;
//!
//! let m = parse_module(
//!     "func @double(%p: ptr noalias) -> void {
//!      entry:
//!        %v = load f64, %p
//!        %s = add f64 %v, %v
//!        store %p, %s
//!        ret
//!      }",
//! )?;
//! assert_eq!(m.functions().len(), 1);
//! # Ok::<(), snslp_ir::ParseError>(())
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::function::{Function, Param};
use crate::inst::{BinOp, BlockId, CastKind, CmpPred, Constant, InstId, InstKind, UnOp};
use crate::module::Module;
use crate::types::{ScalarType, Type};

#[cfg(test)]
mod reference;

/// Error produced when parsing textual IR fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token's first character, counted
    /// in chars, not bytes (0 when no position is known, e.g. for
    /// whole-input errors).
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

/// A token; names and literals borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'s> {
    Ident(&'s str),
    Value(&'s str),
    At(&'s str),
    Num(&'s str),
    Punct(char),
    Arrow,
}

/// A token and the byte offset of its first character.
#[derive(Clone, Copy)]
struct Spanned<'s> {
    tok: Tok<'s>,
    at: usize,
}

/// On-demand lexer with the two-token lookahead the grammar needs: it
/// holds only the current token.
///
/// A lexical error ends the token stream (the parser sees end of input)
/// and is kept in `error`. [`Lexer::settle`] makes the first lexical
/// error of the whole input win over any parse error, so a diagnostic
/// does not depend on how far the parser read before failing.
struct Lexer<'s> {
    src: &'s str,
    /// First byte not lexed yet.
    pos: usize,
    /// The current token; `None` at end of input.
    cur: Option<Spanned<'s>>,
    /// Offset of the token [`Lexer::next`] consumed last. At end of input
    /// that is the last token, the anchor for end-of-input errors.
    prev: usize,
    error: Option<ParseError>,
}

/// `char::is_whitespace` restricted to ASCII.
const fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

// Byte classes of the lexer's fast path.
const OTHER: u8 = 0;
const SPACE: u8 = 1;
/// Starts an identifier and continues a name: ASCII letters and `_`.
const WORD: u8 = 2;
/// Continues a name only: ASCII digits and `.`.
const NAME: u8 = 3;
const PUNCT: u8 = 4;

static CLASS: [u8; 256] = {
    let mut class = [OTHER; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        class[i] = match b {
            _ if is_ascii_space(b) => SPACE,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => WORD,
            b'0'..=b'9' | b'.' => NAME,
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b':' | b'=' => PUNCT,
            _ => OTHER,
        };
        i += 1;
    }
    class
};

/// The 1-based line and char column of byte offset `at` in `src`.
fn line_col(src: &str, at: usize) -> (u32, u32) {
    let before = &src[..at];
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
    let col = 1 + before[line_start..].chars().count();
    let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
    (clamp(line), clamp(col))
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        let mut lex = Lexer {
            src,
            pos: 0,
            cur: None,
            prev: 0,
            error: None,
        };
        lex.cur = lex.lex_token();
        lex
    }

    /// Lexes the token at `self.pos`, skipping whitespace and comments.
    fn lex_token(&mut self) -> Option<Spanned<'s>> {
        if self.error.is_some() {
            return None;
        }
        let bytes = self.src.as_bytes();
        let mut i = self.pos;
        let (tok, end) = loop {
            let &b = bytes.get(i)?;
            match CLASS[b as usize] {
                SPACE => i += 1,
                WORD => {
                    let end = self.name_end(i + 1);
                    break (Tok::Ident(&self.src[i..end]), end);
                }
                PUNCT => break (Tok::Punct(b as char), i + 1),
                _ => match b {
                    b'0'..=b'9' => break self.number(i),
                    b'-' if bytes.get(i + 1) == Some(&b'>') => break (Tok::Arrow, i + 2),
                    b'-' => break self.number(i),
                    b'%' | b'@' => {
                        let end = self.name_end(i + 1);
                        if end == i + 1 {
                            return self.lex_error(i, format!("dangling `{}`", b as char));
                        }
                        let s = &self.src[i + 1..end];
                        break (if b == b'%' { Tok::Value(s) } else { Tok::At(s) }, end);
                    }
                    b';' | b'#' => {
                        // Comment to end of line.
                        i = bytes[i..]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map_or(bytes.len(), |n| i + n + 1);
                    }
                    0x80.. => {
                        let c = self.char_at(i);
                        if !c.is_whitespace() {
                            return self.lex_error(i, format!("unexpected character `{c}`"));
                        }
                        i += c.len_utf8();
                    }
                    _ => {
                        return self.lex_error(i, format!("unexpected character `{}`", b as char));
                    }
                },
            }
        };
        self.pos = end;
        Some(Spanned { tok, at: i })
    }

    /// A number starting at `i` (a digit or `-`): digits, `.`, exponents
    /// and the letters of `inf` and `nan`.
    fn number(&self, i: usize) -> (Tok<'s>, usize) {
        let bytes = self.src.as_bytes();
        let mut end = i + 1;
        let mut last_e = false;
        while let Some(&c) = bytes.get(end) {
            let accept = matches!(
                c,
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'f' | b'n' | b'a' | b'i'
            ) || (matches!(c, b'-' | b'+') && last_e);
            if !accept {
                break;
            }
            last_e = matches!(c, b'e' | b'E');
            end += 1;
        }
        (Tok::Num(&self.src[i..end]), end)
    }

    fn char_at(&self, i: usize) -> char {
        self.src[i..]
            .chars()
            .next()
            .expect("offset inside the source")
    }

    /// End of the name starting at `i`: alphanumerics (Unicode-aware),
    /// `_` and `.`.
    fn name_end(&self, mut i: usize) -> usize {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(i) {
            if matches!(CLASS[b as usize], WORD | NAME) {
                i += 1;
            } else if b >= 0x80 {
                let c = self.char_at(i);
                if !c.is_alphanumeric() {
                    break;
                }
                i += c.len_utf8();
            } else {
                break;
            }
        }
        i
    }

    fn lex_error(&mut self, at: usize, message: String) -> Option<Spanned<'s>> {
        self.error = Some(self.err_at(at, message));
        None
    }

    /// Returns `result`, unless the input holds a lexical error: then the
    /// first one wins.
    fn settle<T>(&mut self, result: Result<T, ParseError>) -> Result<T, ParseError> {
        if result.is_err() {
            while self.lex_token().is_some() {}
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => result,
        }
    }

    fn peek(&self) -> Option<Tok<'s>> {
        self.cur.map(|t| t.tok)
    }

    /// The token after the current one, lexed without consuming it. It
    /// is lexed again when consumed, which costs little: the grammar
    /// looks two tokens ahead only to spot `label:`.
    fn peek2(&mut self) -> Option<Tok<'s>> {
        self.cur?;
        let pos = self.pos;
        let after = self.lex_token();
        // A current token means no lexical error yet; one found here is
        // found again when the token is consumed.
        self.pos = pos;
        self.error = None;
        after.map(|t| t.tok)
    }

    fn err_at(&self, at: usize, message: impl Into<String>) -> ParseError {
        let (line, col) = line_col(self.src, at);
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    /// An error anchored at the token [`next`](Self::next) just consumed —
    /// the right anchor once the cursor has stepped past the offender.
    fn err_at_prev(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.prev, message)
    }

    fn next(&mut self) -> Result<Tok<'s>, ParseError> {
        let t = self
            .cur
            .ok_or_else(|| self.err_at_prev("unexpected end of input"))?;
        self.prev = t.at;
        self.cur = self.lex_token();
        Ok(t.tok)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            t => Err(self.err_at_prev(format!("expected `{c}`, found {t:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<&'s str, ParseError> {
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

    fn expect_value(&mut self) -> Result<&'s str, ParseError> {
        match self.next()? {
            Tok::Value(s) => Ok(s),
            t => Err(self.err_at_prev(format!("expected %value, found {t:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(Tok::Punct(c)) {
            // Cannot fail: there is a current token.
            let _ = self.next();
            true
        } else {
            false
        }
    }

    /// Consumes the identifier `kw` if it is the current token.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek() == Some(Tok::Ident(kw)) {
            let _ = self.next();
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

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let s = self.expect_ident()?;
        type_from_str(s).ok_or_else(|| self.err_at_prev(format!("unknown type `{s}`")))
    }

    fn parse_const_literal(&mut self, ty: ScalarType) -> Result<Constant, ParseError> {
        let text = match self.next()? {
            Tok::Num(s) | Tok::Ident(s) => s, // identifiers: inf / nan
            t => return Err(self.err_at_prev(format!("expected literal, found {t:?}"))),
        };
        let bad = || self.err_at_prev(format!("invalid {ty} literal `{text}`"));
        Ok(match ty {
            ScalarType::I32 => Constant::I32(text.parse().map_err(|_| bad())?),
            ScalarType::I64 => Constant::I64(text.parse().map_err(|_| bad())?),
            ScalarType::F32 => Constant::F32(parse_float(text).map_err(|_| bad())? as f32),
            ScalarType::F64 => Constant::F64(parse_float(text).map_err(|_| bad())?),
        })
    }
}

/// Parses a type name like `f64`, `ptr`, `void`, or `i32x4`.
pub fn type_from_str(s: &str) -> Option<Type> {
    let scalar = |s: &str| -> Option<ScalarType> {
        Some(match s {
            "i32" => ScalarType::I32,
            "i64" => ScalarType::I64,
            "f32" => ScalarType::F32,
            "f64" => ScalarType::F64,
            _ => return None,
        })
    };
    match s {
        "void" => Some(Type::Void),
        "ptr" => Some(Type::Ptr),
        _ => {
            if let Some(st) = scalar(s) {
                return Some(Type::Scalar(st));
            }
            let (elem, lanes) = s.split_once('x')?;
            let st = scalar(elem)?;
            let n: u8 = lanes.parse().ok()?;
            if n >= 2 {
                Some(Type::vector(st, n))
            } else {
                None
            }
        }
    }
}

fn parse_float(s: &str) -> Result<f64, ()> {
    match s {
        "inf" => Ok(f64::INFINITY),
        "-inf" => Ok(f64::NEG_INFINITY),
        "nan" | "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| ()),
    }
}

/// Parser state for one function body. The name maps keep std's
/// (SipHash) hasher: the text may come from a client, and
/// [`crate::fxhash`] is only for compiler-internal keys.
struct FuncParser<'s, 'l> {
    lex: &'l mut Lexer<'s>,
    func: Function,
    values: HashMap<&'s str, InstId>,
    /// Forward-referenced phi operands: the reserved slot and the offset
    /// of the first use.
    pending: HashMap<&'s str, (InstId, usize)>,
    blocks: HashMap<&'s str, BlockId>,
    cur: BlockId,
    saw_first_label: bool,
}

impl<'s> FuncParser<'s, '_> {
    /// Parses a `%name` that must already be defined.
    fn operand(&mut self) -> Result<InstId, ParseError> {
        let name = self.lex.expect_value()?;
        self.values.get(name).copied().ok_or_else(|| {
            self.lex
                .err_at_prev(format!("use of undefined value `%{name}`"))
        })
    }

    /// Resolves a value name, reserving a forward slot if unknown (phi
    /// operands only).
    fn value_lazy(&mut self, name: &'s str, at: usize) -> InstId {
        if let Some(&id) = self.values.get(name) {
            return id;
        }
        if let Some(&(id, _)) = self.pending.get(name) {
            return id;
        }
        let id = self
            .func
            .create_detached(InstKind::Const(Constant::I32(0)), Type::Void);
        self.pending.insert(name, (id, at));
        id
    }

    fn block_ref(&mut self, name: &'s str) -> BlockId {
        *self
            .blocks
            .entry(name)
            .or_insert_with(|| self.func.add_block(name))
    }

    /// Defines `%name` (written at offset `at`) as a new instruction.
    fn define(
        &mut self,
        name: &'s str,
        at: usize,
        kind: InstKind,
        ty: Type,
    ) -> Result<(), ParseError> {
        let slot = match self.values.entry(name) {
            Entry::Occupied(_) => {
                return Err(self.lex.err_at(at, format!("redefinition of `%{name}`")))
            }
            Entry::Vacant(slot) => slot,
        };
        let pending = if self.pending.is_empty() {
            None
        } else {
            self.pending.remove(name)
        };
        let id = if let Some((id, _)) = pending {
            self.func.define_slot(id, self.cur, kind, ty);
            id
        } else {
            self.func.append_inst(self.cur, kind, ty)
        };
        slot.insert(id);
        Ok(())
    }

    fn emit_effect(&mut self, kind: InstKind) {
        self.func.append_inst(self.cur, kind, Type::Void);
    }

    fn parse_operand_list(&mut self) -> Result<Vec<InstId>, ParseError> {
        let mut out = Vec::new();
        loop {
            out.push(self.operand()?);
            if !self.lex.eat_punct(',') {
                return Ok(out);
            }
        }
    }

    /// Parses an operand list that should hold exactly `N` operands:
    /// `None` if it holds another number (every operand is still
    /// resolved, so an undefined name is reported first).
    fn operands<const N: usize>(&mut self) -> Result<Option<[InstId; N]>, ParseError> {
        let mut out = [InstId(0); N];
        let mut n = 0;
        loop {
            let id = self.operand()?;
            if let Some(slot) = out.get_mut(n) {
                *slot = id;
            }
            n += 1;
            if !self.lex.eat_punct(',') {
                return Ok((n == N).then_some(out));
            }
        }
    }

    fn parse_body(&mut self) -> Result<(), ParseError> {
        loop {
            match self.lex.peek() {
                Some(Tok::Punct('}')) => {
                    self.lex.next()?;
                    // The first forward reference still open, at its use.
                    if let Some((name, &(_, at))) =
                        self.pending.iter().min_by_key(|(_, (id, _))| *id)
                    {
                        return Err(self.lex.err_at(
                            at,
                            format!("use of undefined value `%{name}` (phi operand)"),
                        ));
                    }
                    return Ok(());
                }
                Some(Tok::Ident(label)) if self.lex.peek2() == Some(Tok::Punct(':')) => {
                    self.lex.next()?;
                    self.lex.next()?;
                    if !self.saw_first_label {
                        // First label names the entry block.
                        self.saw_first_label = true;
                        self.func.set_block_name(self.func.entry(), label);
                        self.blocks.insert(label, self.func.entry());
                        self.cur = self.func.entry();
                    } else {
                        self.cur = self.block_ref(label);
                    }
                }
                Some(_) => self.parse_inst()?,
                None => {
                    return Err(self
                        .lex
                        .err_at_prev("unexpected end of input in function body"))
                }
            }
        }
    }

    fn parse_inst(&mut self) -> Result<(), ParseError> {
        match self.lex.next()? {
            Tok::Value(result) => {
                let at = self.lex.prev;
                self.lex.expect_punct('=')?;
                let (kind, ty) = self.parse_value_rhs()?;
                self.define(result, at, kind, ty)
            }
            Tok::Ident(op) => self.parse_effect_inst(op),
            t => Err(self
                .lex
                .err_at_prev(format!("expected instruction, found {t:?}"))),
        }
    }

    /// Parses `<op> ...` after `%result =`: the instruction and its type.
    fn parse_value_rhs(&mut self) -> Result<(InstKind, Type), ParseError> {
        let op = self.lex.expect_ident()?;
        let op_at = self.lex.prev;
        Ok(match op {
            "const" => {
                let ty = self.lex.parse_type()?;
                let st = ty
                    .as_scalar()
                    .ok_or_else(|| self.lex.err_at_prev("const needs a scalar type"))?;
                (InstKind::Const(self.lex.parse_const_literal(st)?), ty)
            }
            "cast" => {
                let m = self.lex.expect_ident()?;
                let kind = CastKind::from_mnemonic(m)
                    .ok_or_else(|| self.lex.err_at_prev(format!("unknown cast `{m}`")))?;
                let ty = self.lex.parse_type()?;
                let operand = self.operand()?;
                (InstKind::Cast { kind, operand }, ty)
            }
            "lanewise" => {
                self.lex.expect_punct('[')?;
                let mut ops = Vec::new();
                loop {
                    let m = self.lex.expect_ident()?;
                    let op = BinOp::from_mnemonic(m)
                        .ok_or_else(|| self.lex.err_at_prev(format!("unknown binop `{m}`")))?;
                    ops.push(op);
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                let ty = self.lex.parse_type()?;
                let lhs = self.operand()?;
                self.lex.expect_punct(',')?;
                let rhs = self.operand()?;
                let ops = ops.into_boxed_slice();
                (InstKind::BinaryLanewise { ops, lhs, rhs }, ty)
            }
            "cmp" => {
                let p = self.lex.expect_ident()?;
                let pred = CmpPred::from_mnemonic(p)
                    .ok_or_else(|| self.lex.err_at_prev(format!("unknown predicate `{p}`")))?;
                let opty = self.lex.parse_type()?;
                let lhs = self.operand()?;
                self.lex.expect_punct(',')?;
                let rhs = self.operand()?;
                let ty = match opty {
                    Type::Vector(v) => Type::vector(ScalarType::I32, v.lanes),
                    _ => Type::scalar(ScalarType::I32),
                };
                (InstKind::Cmp { pred, lhs, rhs }, ty)
            }
            "select" => {
                let Some([cond, on_true, on_false]) = self.operands()? else {
                    return Err(self.lex.err_at(op_at, "select takes 3 operands"));
                };
                let kind = InstKind::Select {
                    cond,
                    on_true,
                    on_false,
                };
                (kind, self.func.ty(on_true))
            }
            "load" => {
                let ty = self.lex.parse_type()?;
                self.lex.expect_punct(',')?;
                let ptr = self.operand()?;
                (InstKind::Load { ptr }, ty)
            }
            "ptradd" => {
                let Some([ptr, offset]) = self.operands()? else {
                    return Err(self.lex.err_at(op_at, "ptradd takes 2 operands"));
                };
                (InstKind::PtrAdd { ptr, offset }, Type::Ptr)
            }
            "splat" => {
                let lanes = self.lex.expect_u8()?;
                if lanes < 2 {
                    return Err(self.lex.err_at_prev("splat needs at least 2 lanes"));
                }
                let value = self.operand()?;
                let st = self
                    .func
                    .ty(value)
                    .as_scalar()
                    .ok_or_else(|| self.lex.err_at(op_at, "splat needs a scalar operand"))?;
                (InstKind::Splat { value, lanes }, Type::vector(st, lanes))
            }
            "buildvec" => {
                let elems = self.parse_operand_list()?;
                if elems.len() < 2 {
                    return Err(self.lex.err_at(op_at, "buildvec needs at least 2 elements"));
                }
                if elems.len() > 255 {
                    return Err(self
                        .lex
                        .err_at(op_at, "buildvec takes at most 255 elements"));
                }
                let st = self
                    .func
                    .ty(elems[0])
                    .as_scalar()
                    .ok_or_else(|| self.lex.err_at(op_at, "buildvec needs scalar elements"))?;
                let ty = Type::vector(st, elems.len() as u8);
                let elems = elems.into_boxed_slice();
                (InstKind::BuildVector { elems }, ty)
            }
            "extract" => {
                let vector = self.operand()?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let vt = self
                    .func
                    .ty(vector)
                    .as_vector()
                    .ok_or_else(|| self.lex.err_at(op_at, "extract needs a vector operand"))?;
                (
                    InstKind::ExtractElement { vector, lane },
                    Type::Scalar(vt.elem),
                )
            }
            "insert" => {
                let vector = self.operand()?;
                self.lex.expect_punct(',')?;
                let value = self.operand()?;
                self.lex.expect_punct(',')?;
                let lane = self.lex.expect_u8()?;
                let ty = self.func.ty(vector);
                let kind = InstKind::InsertElement {
                    vector,
                    value,
                    lane,
                };
                (kind, ty)
            }
            "shuffle" => {
                let a = self.operand()?;
                self.lex.expect_punct(',')?;
                let b = self.operand()?;
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
                    return Err(self.lex.err_at(op_at, "shuffle mask needs 2 to 255 lanes"));
                }
                let vt = self
                    .func
                    .ty(a)
                    .as_vector()
                    .ok_or_else(|| self.lex.err_at(op_at, "shuffle needs vector operands"))?;
                let ty = Type::vector(vt.elem, mask.len() as u8);
                let mask = mask.into_boxed_slice();
                (InstKind::Shuffle { a, b, mask }, ty)
            }
            "phi" => {
                let ty = self.lex.parse_type()?;
                self.lex.expect_punct('[')?;
                let mut incoming = Vec::new();
                loop {
                    let blk = self.lex.expect_ident()?;
                    self.lex.expect_punct(':')?;
                    let val = self.lex.expect_value()?;
                    let val_at = self.lex.prev;
                    let b = self.block_ref(blk);
                    let v = self.value_lazy(val, val_at);
                    incoming.push((b, v));
                    if !self.lex.eat_punct(',') {
                        break;
                    }
                }
                self.lex.expect_punct(']')?;
                (InstKind::Phi { incoming }, ty)
            }
            mnem => {
                // Binary or unary arithmetic: `<op> <ty> %a[, %b]`.
                if let Some(op) = BinOp::from_mnemonic(mnem) {
                    let ty = self.lex.parse_type()?;
                    let Some([lhs, rhs]) = self.operands()? else {
                        return Err(self.lex.err_at(op_at, format!("`{mnem}` takes 2 operands")));
                    };
                    (InstKind::Binary { op, lhs, rhs }, ty)
                } else if let Some(op) = UnOp::from_mnemonic(mnem) {
                    let ty = self.lex.parse_type()?;
                    let operand = self.operand()?;
                    (InstKind::Unary { op, operand }, ty)
                } else {
                    return Err(self
                        .lex
                        .err_at(op_at, format!("unknown instruction `{mnem}`")));
                }
            }
        })
    }

    fn parse_effect_inst(&mut self, op: &str) -> Result<(), ParseError> {
        let op_at = self.lex.prev;
        let kind = match op {
            "store" => {
                let Some([ptr, value]) = self.operands()? else {
                    return Err(self.lex.err_at(op_at, "store takes 2 operands"));
                };
                InstKind::Store { ptr, value }
            }
            "jmp" => {
                let label = self.lex.expect_ident()?;
                InstKind::Jump {
                    target: self.block_ref(label),
                }
            }
            "br" => {
                let cond = self.operand()?;
                self.lex.expect_punct(',')?;
                let t = self.lex.expect_ident()?;
                self.lex.expect_punct(',')?;
                let e = self.lex.expect_ident()?;
                let on_true = self.block_ref(t);
                let on_false = self.block_ref(e);
                InstKind::Branch {
                    cond,
                    on_true,
                    on_false,
                }
            }
            "ret" => {
                let value = if let Some(Tok::Value(_)) = self.lex.peek() {
                    Some(self.operand()?)
                } else {
                    None
                };
                InstKind::Ret { value }
            }
            other => {
                return Err(self
                    .lex
                    .err_at(op_at, format!("unknown instruction `{other}`")))
            }
        };
        self.emit_effect(kind);
        Ok(())
    }
}

fn parse_function(lex: &mut Lexer<'_>) -> Result<Function, ParseError> {
    lex.expect_keyword("func")?;
    let name = match lex.next()? {
        Tok::At(s) => s,
        t => return Err(lex.err_at_prev(format!("expected @name, found {t:?}"))),
    };
    lex.expect_punct('(')?;
    let mut names = Vec::new();
    let mut params = Vec::new();
    if !lex.eat_punct(')') {
        loop {
            let pname = lex.expect_value()?;
            lex.expect_punct(':')?;
            let ty = lex.parse_type()?;
            let noalias = lex.eat_keyword("noalias");
            names.push(pname);
            params.push(Param {
                name: pname.to_string(),
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
    let ret_ty = lex.parse_type()?;
    let fast_math = lex.eat_keyword("fastmath");
    lex.expect_punct('{')?;

    // Size the arena and the value map for the body up front: printed
    // functions hold about one value per line of 30-odd bytes. The body
    // ends at the next `}` (comments aside), which `find` locates fast.
    let body = lex.src[lex.pos..]
        .find('}')
        .unwrap_or(lex.src.len() - lex.pos);
    let estimate = (body / 32).min(4096);
    let mut func = Function::new(name, params, ret_ty);
    func.fast_math = fast_math;
    func.reserve_insts(estimate);
    let mut values = HashMap::with_capacity(names.len() + estimate);
    for (i, &n) in names.iter().enumerate() {
        values.insert(n, func.param(i));
    }
    let cur = func.entry();
    let mut fp = FuncParser {
        lex,
        func,
        values,
        pending: HashMap::new(),
        blocks: HashMap::new(),
        cur,
        saw_first_label: false,
    };
    fp.parse_body()?;
    Ok(fp.func)
}

/// Parses a module containing zero or more functions.
///
/// # Errors
///
/// Returns a [`ParseError`] with line information on malformed input. A
/// lexical error (a stray character, a dangling `%`) anywhere in the
/// input is reported in preference to any grammar error.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let mut lex = Lexer::new(src);
    let mut module = Module::new("parsed");
    let parsed = (|| {
        while lex.peek().is_some() {
            module.add_function(parse_function(&mut lex)?);
        }
        Ok(())
    })();
    lex.settle(parsed)?;
    Ok(module)
}

/// Parses exactly one function.
///
/// # Errors
///
/// Returns a [`ParseError`] if the input does not contain exactly one
/// well-formed function.
pub fn parse_function_str(src: &str) -> Result<Function, ParseError> {
    match <[Function; 1]>::try_from(parse_module(src)?.into_functions()) {
        Ok([f]) => Ok(f),
        Err(fs) => Err(ParseError {
            line: 0,
            col: 0,
            message: format!("expected exactly 1 function, found {}", fs.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn parse_simple() {
        let f = parse_function_str(
            "func @f(%p: ptr noalias, %n: i64) -> void fastmath {
             entry:
               %v = load f64, %p
               %s = add f64 %v, %v
               store %p, %s
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.name(), "f");
        assert!(f.fast_math);
        assert!(f.params()[0].noalias);
        assert!(!f.params()[1].noalias);
        assert_eq!(f.num_linked_insts(), 4);
    }

    #[test]
    fn parse_loop_with_phi_forward_ref() {
        let f = parse_function_str(
            "func @g(%p: ptr noalias, %n: i64) -> void {
             entry:
               %z = const i64 0
               jmp loop
             loop:
               %i = phi i64 [entry: %z, loop: %inext]
               %one = const i64 1
               %inext = add i64 %i, %one
               %c = cmp lt i64 %inext, %n
               br %c, loop, exit
             exit:
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_blocks(), 3);
        // Round trip: print and reparse.
        let text = f.to_string();
        let f2 = parse_function_str(&text).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
        assert_eq!(f2.num_blocks(), f.num_blocks());
    }

    #[test]
    fn parse_vector_ops() {
        let f = parse_function_str(
            "func @v(%p: ptr noalias) -> void {
             entry:
               %a = load f32x4, %p
               %b = shuffle %a, %a, [3, 2, 1, 0]
               %c = lanewise [add, sub, add, sub] f32x4 %a, %b
               %x = extract %c, 2
               %d = insert %c, %x, 0
               %s = splat 4 %x
               %bv = buildvec %x, %x
               store %p, %d
               ret
             }",
        )
        .unwrap();
        assert_eq!(
            f.ty(f.block(f.entry()).insts()[2]),
            Type::vector(ScalarType::F32, 4)
        );
        let text = f.to_string();
        let f2 = parse_function_str(&text).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
    }

    #[test]
    fn error_on_undefined_value() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %s = add f64 %v, %v
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("undefined value"));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_on_unresolved_phi_operand() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %x = phi i64 [entry: %nope]
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn error_on_redefinition() {
        let e = parse_function_str(
            "func @f() -> void {
             entry:
               %x = const i64 1
               %x = const i64 2
               ret
             }",
        )
        .unwrap_err();
        assert!(e.message.contains("redefinition"));
    }

    #[test]
    fn comments_are_skipped() {
        let f = parse_function_str(
            "; leading comment
             func @f() -> void { # trailing
             entry: ; entry block
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_linked_insts(), 1);
    }

    #[test]
    fn builder_output_round_trips() {
        let mut fb = FunctionBuilder::new(
            "k",
            vec![
                Param::noalias_ptr("a"),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        let a = fb.func().param(0);
        let n = fb.func().param(1);
        fb.counted_loop(n, |fb, i| {
            let eight = fb.const_i64(8);
            let off = fb.mul(i, eight);
            let p = fb.ptradd(a, off);
            let v = fb.load(ScalarType::F64, p);
            let half = fb.const_f64(0.5);
            let s = fb.mul(v, half);
            fb.store(p, s);
        });
        fb.ret(None);
        let f = fb.finish();
        let f2 = parse_function_str(&f.to_string()).unwrap();
        assert_eq!(f2.num_linked_insts(), f.num_linked_insts());
        assert_eq!(f2.num_blocks(), f.num_blocks());
        // Printing the reparsed function is stable modulo value numbering.
        let f3 = parse_function_str(&f2.to_string()).unwrap();
        assert_eq!(f3.num_linked_insts(), f2.num_linked_insts());
    }

    #[test]
    fn negative_and_special_float_literals() {
        let f = parse_function_str(
            "func @c() -> void {
             entry:
               %a = const f64 -1.5
               %b = const f64 1e-3
               %c = const i32 -7
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.num_linked_insts(), 4);
    }

    /// Parses `src` and returns the error, which must agree with the
    /// reference parser's.
    fn parse_err(src: &str) -> ParseError {
        let e = parse_module(src).unwrap_err();
        assert_eq!(reference::parse_module(src).unwrap_err(), e, "{src}");
        e
    }

    #[test]
    fn errors_anchor_at_the_offending_token() {
        let body = |insts: &str| {
            format!("func @f(%p: ptr noalias) -> void {{\nentry:\n{insts}\n  ret\n}}\n")
        };
        let cases: &[(&str, u32, u32, &str)] = &[
            // (source, line, col, message)
            (
                &body("  %x = const f64 zz"),
                3,
                18,
                "invalid f64 literal `zz`",
            ),
            (
                &body("  %a = load f64, %p\n  %b = add f64 %a, %q"),
                4,
                20,
                "use of undefined value `%q`",
            ),
            (
                &body("  %a = load f65, %p"),
                3,
                13,
                "unknown type `f65`",
            ),
            (
                &body("  %a = load f64, %p\n  %b = cast bogus i64 %a"),
                4,
                13,
                "unknown cast `bogus`",
            ),
            (
                &body("  %a = load f64, %p\n  %b = cmp near f64 %a, %a"),
                4,
                12,
                "unknown predicate `near`",
            ),
            (
                &body("  %a = load f64, %p\n  %b = lanewise [add, pow] f64x2 %a, %a"),
                4,
                23,
                "unknown binop `pow`",
            ),
            (
                &body("  %a = frobnicate f64 %p"),
                3,
                8,
                "unknown instruction `frobnicate`",
            ),
            (&body("  frobnicate %p"), 3, 3, "unknown instruction `frobnicate`"),
            (
                &body("  %a = load f64, %p\n  %a = add f64 %a, %a"),
                4,
                3,
                "redefinition of `%a`",
            ),
            (
                &body("  %a = const ptr 0"),
                3,
                14,
                "const needs a scalar type",
            ),
            (
                &body("  %a = load f64, %p\n  %s = select %a, %a"),
                4,
                8,
                "select takes 3 operands",
            ),
            (
                &body("  %a = load f64, %p\n  %e = extract %a, 0"),
                4,
                8,
                "extract needs a vector operand",
            ),
            (
                &body("  %x = phi f64 [entry: %p]\n  %y = phi f64 [entry: %m, entry: %n]"),
                4,
                24,
                "use of undefined value `%m` (phi operand)",
            ),
            ("func f() -> void {\n}\n", 1, 6, "expected @name, found Ident(\"f\")"),
            (
                "func @f()\n  : void {\n}\n",
                2,
                3,
                "expected `->`, found Punct(':')",
            ),
            ("func @f() -> void {\nentry:\n  ret\n", 3, 3, "unexpected end of input in function body"),
            // Columns count chars, not bytes.
            (
                "func @f(%ä: ptr noalias) -> void {\nentry:\n  %é = lоad f64, %ä\n  ret\n}\n",
                3,
                8,
                "unknown instruction `lоad`",
            ),
            (
                "func @f(%ä: ptr) -> void {\nentry:\n  %é = load f64 € %ä\n  ret\n}\n",
                3,
                17,
                "unexpected character `€`",
            ),
            (
                "func @f(%ä: ptr) -> void {\nentry:\n  %é = load f64, %ä\n  %é = load f64, %ä\n  ret\n}\n",
                4,
                3,
                "redefinition of `%é`",
            ),
            // A lexical error anywhere wins over an earlier grammar error.
            ("func @f() -> {\n}\n$", 3, 1, "unexpected character `$`"),
            ("func f\n%", 2, 1, "dangling `%`"),
        ];
        for &(src, line, col, message) in cases {
            let e = parse_err(src);
            assert_eq!(
                (e.line, e.col, e.message.as_str()),
                (line, col, message),
                "{src}"
            );
        }
    }

    #[test]
    fn out_of_range_lane_counts_are_errors_not_panics() {
        let body = |insts: &str| {
            format!("func @f(%p: ptr noalias) -> void {{\nentry:\n{insts}\n  ret\n}}\n")
        };
        let wide = vec!["%a"; 256].join(", ");
        let cases: &[(&str, u32, u32, &str)] = &[
            (
                &body("  %a = load f64, %p\n  %s = splat 1 %a"),
                4,
                14,
                "splat needs at least 2 lanes",
            ),
            (
                &body("  %v = load f64x2, %p\n  %s = shuffle %v, %v, [0]"),
                4,
                8,
                "shuffle mask needs 2 to 255 lanes",
            ),
            (
                &body(&format!("  %a = load f64, %p\n  %b = buildvec {wide}")),
                4,
                8,
                "buildvec takes at most 255 elements",
            ),
        ];
        for &(src, line, col, message) in cases {
            let e = parse_err(src);
            assert_eq!((e.line, e.col, e.message.as_str()), (line, col, message));
        }
    }

    #[test]
    fn ascii_whitespace_is_char_whitespace() {
        for b in 0..0x80u8 {
            assert_eq!(is_ascii_space(b), (b as char).is_whitespace(), "{b:#x}");
        }
    }

    #[test]
    fn unicode_names_and_whitespace_are_accepted() {
        let src = "func @f\u{3bb}(%\u{e4}: ptr noalias)\u{a0}-> void {\n\u{2028}entry:\r\n  %\u{4e2d}.1 = load f64, %\u{e4}\u{b}\n  store %\u{e4}, %\u{4e2d}.1\n  ret\n}\n";
        let m = parse_module(src).unwrap();
        assert_eq!(m.functions()[0].name(), "f\u{3bb}");
        assert_eq!(m.functions()[0].params()[0].name, "\u{e4}");
        assert_eq!(
            format!("{m:?}"),
            format!("{:?}", reference::parse_module(src).unwrap())
        );
    }

    /// The outcome of parsing `src`, in a form two parsers can be
    /// compared on: the module's `Debug` text, or the error.
    fn outcome(
        parse: fn(&str) -> Result<Module, ParseError>,
        src: &str,
    ) -> Result<String, ParseError> {
        parse(src).map(|m| format!("{m:?}"))
    }

    fn assert_same_as_reference(src: &str) -> bool {
        let new = outcome(parse_module, src);
        assert_eq!(new, outcome(reference::parse_module, src), "input:\n{src}");
        new.is_ok()
    }

    /// SplitMix64: enough randomness for generating test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// A random function touching every instruction former: scalar and
    /// vector arithmetic over every scalar type, casts, compares and
    /// selects, shuffles, lane inserts and extracts, special float
    /// literals, counted loops (forward-referenced phis) and diamonds.
    fn generate(rng: &mut Rng, index: usize) -> Function {
        use crate::types::VectorType;
        let st = rng.pick(&[
            ScalarType::F64,
            ScalarType::F32,
            ScalarType::I64,
            ScalarType::I32,
        ]);
        let mut fb = FunctionBuilder::new(
            format!("gen{index}"),
            vec![
                Param::noalias_ptr("a"),
                Param::new("b", Type::Ptr),
                Param::new("n", Type::scalar(ScalarType::I64)),
            ],
            Type::Void,
        );
        fb.set_fast_math(rng.below(2) == 0);
        let (a, b, n) = (fb.func().param(0), fb.func().param(1), fb.func().param(2));
        let body = |fb: &mut FunctionBuilder, rng: &mut Rng, base: InstId| {
            let mut vals = vec![fb.load(st, base)];
            for _ in 0..1 + rng.below(12) {
                let x = vals[rng.below(vals.len())];
                let y = vals[rng.below(vals.len())];
                let v = match rng.below(12) {
                    0..=2 => {
                        let op = rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                        fb.binary(op, x, y)
                    }
                    3 => fb.neg(x),
                    4 => {
                        let off = 8 * rng.below(16) as i64;
                        let p = fb.ptradd_const(base, off);
                        fb.load(st, p)
                    }
                    5 => fb.constant(match st {
                        ScalarType::F64 => Constant::F64(rng.pick(&[
                            0.5,
                            -1.5e-300,
                            f64::INFINITY,
                            f64::NEG_INFINITY,
                            f64::NAN,
                            -0.0,
                        ])),
                        ScalarType::F32 => Constant::F32(rng.pick(&[2.5, -3e30, f32::NAN])),
                        ScalarType::I64 => Constant::I64(rng.pick(&[0, -7, i64::MIN, i64::MAX])),
                        ScalarType::I32 => Constant::I32(rng.pick(&[1, -1, i32::MIN, i32::MAX])),
                    }),
                    6 => {
                        let c = fb.cmp(rng.pick(&[CmpPred::Lt, CmpPred::Eq, CmpPred::Ge]), x, y);
                        fb.select(c, x, y)
                    }
                    7 => {
                        let s = fb.splat(x, 4);
                        let t = fb.build_vector(vec![y, x, y, x]);
                        let u = fb.shuffle(s, t, vec![0, 5, 2, 7]);
                        let w = fb.binary_lanewise(
                            vec![BinOp::Add, BinOp::Sub, BinOp::Add, BinOp::Sub],
                            u,
                            s,
                        );
                        let w = fb.insert(w, y, 1);
                        fb.extract(w, rng.below(4) as u8)
                    }
                    8 => {
                        let v = fb.load_vector(VectorType::new(st, 2), base);
                        let v = fb.add(v, v);
                        fb.store(base, v);
                        fb.extract(v, 0)
                    }
                    9 if st.is_float() => {
                        let i = fb.cast(CastKind::Fptosi, ScalarType::I64, x);
                        fb.cast(CastKind::Sitofp, st, i)
                    }
                    10 if st.is_float() => fb.unary(UnOp::Sqrt, x),
                    _ => fb.binary(BinOp::Max, x, y),
                };
                vals.push(v);
            }
            let last = *vals.last().unwrap();
            fb.store(base, last);
            last
        };
        match rng.below(3) {
            0 => {
                body(&mut fb, rng, a);
            }
            1 => fb.counted_loop(n, |fb, i| {
                let eight = fb.const_i64(8);
                let off = fb.mul(i, eight);
                let p = fb.ptradd(a, off);
                body(fb, rng, p);
            }),
            _ => {
                let then = fb.create_block("then");
                let other = fb.create_block("else");
                let join = fb.create_block("join");
                let zero = fb.const_i64(0);
                let c = fb.cmp(CmpPred::Gt, n, zero);
                fb.branch(c, then, other);
                fb.switch_to(then);
                let x = body(&mut fb, rng, a);
                fb.jump(join);
                fb.switch_to(other);
                let y = body(&mut fb, rng, b);
                fb.jump(join);
                fb.switch_to(join);
                let phi = fb.phi(Type::Scalar(st));
                fb.add_phi_incoming(phi, then, x);
                fb.add_phi_incoming(phi, other, y);
                fb.store(a, phi);
            }
        }
        fb.ret(None);
        fb.finish()
    }

    fn generated_texts() -> Vec<String> {
        let mut rng = Rng(0x5EED);
        (0..2000)
            .map(|i| generate(&mut rng, i).to_string())
            .collect()
    }

    /// Every `.snir` file under `crates/*/tests`.
    fn fixture_texts() -> Vec<String> {
        fn walk(dir: &std::path::Path, out: &mut Vec<String>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "snir") {
                    out.push(std::fs::read_to_string(&path).unwrap());
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(crates).unwrap().flatten() {
            walk(&entry.path().join("tests"), &mut out);
        }
        out
    }

    #[test]
    fn matches_the_reference_on_fixtures() {
        let texts = fixture_texts();
        assert!(texts.len() >= 19, "found {} fixtures", texts.len());
        for text in &texts {
            assert!(
                assert_same_as_reference(text),
                "fixture must parse:\n{text}"
            );
        }
    }

    #[test]
    fn matches_the_reference_on_generated_functions() {
        for text in generated_texts() {
            assert!(assert_same_as_reference(&text), "must parse:\n{text}");
        }
    }

    /// Applies one random edit: a deleted char, two swapped tokens, a
    /// truncation, or an inserted non-ASCII letter, whitespace, `\r` or
    /// stray character.
    fn mutate(rng: &mut Rng, text: &str) -> String {
        let chars: Vec<char> = text.chars().collect();
        let at = rng.below(chars.len() + 1);
        let mut out: Vec<char> = chars.clone();
        match rng.below(6) {
            0 if at < chars.len() => {
                out.remove(at);
            }
            1 => {
                let mut toks: Vec<&str> = text.split(' ').collect();
                let (i, j) = (rng.below(toks.len()), rng.below(toks.len()));
                toks.swap(i, j);
                return toks.join(" ");
            }
            2 => out.truncate(at),
            3 => out.insert(at, rng.pick(&['é', 'λ', '中', 'ß', 'Ω', '٣', '€', '😀'])),
            4 => out.insert(
                at,
                rng.pick(&[
                    ' ', '\t', '\n', '\r', '\u{b}', '\u{c}', '\u{a0}', '\u{2028}',
                ]),
            ),
            _ => out.insert(
                at,
                rng.pick(&[
                    '%', '@', '-', '+', '>', ':', ',', '[', '}', ';', '#', '$', '1', 'e', '.',
                ]),
            ),
        }
        out.into_iter().collect()
    }

    #[test]
    fn matches_the_reference_on_mutated_inputs() {
        let mut sources = fixture_texts();
        sources.extend(generated_texts().into_iter().step_by(10));
        let mut rng = Rng(0xC60);
        let mut parsed = 0;
        for round in 0..20_000 {
            let mut text = sources[round % sources.len()].clone();
            for _ in 0..1 + rng.below(3) {
                text = mutate(&mut rng, &text);
            }
            parsed += usize::from(assert_same_as_reference(&text));
        }
        // Some edits (whitespace, `\r`) keep the text valid.
        assert!(parsed > 1000, "only {parsed} mutants parsed");
    }
}
