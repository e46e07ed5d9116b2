//! The jitdump listing: compact notes recorded while lowering, rendered
//! to text only when someone asks for it.
//!
//! Lowering runs on every compile, the listing is read by goldens and
//! the `jitdump` example. So the lowering records one small `Copy` note
//! per instruction (what it is, how it was lowered, where its bytes
//! are) and [`Listing::render`] formats them.

use std::fmt::Write as _;

use snslp_ir::{BinOp, CastKind, CmpPred, Function, Type, UnOp};

/// What a lowered instruction is: the text before ` = `.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Head {
    Const(Type),
    Binary(BinOp, Type),
    Lanewise(usize, Type),
    Unary(UnOp, Type),
    Cast(CastKind, Type, Type),
    Cmp(CmpPred, Type),
    Select(Type),
    Load(Type),
    Store(Type),
    PtrAdd,
    Splat(u8),
    BuildVector(usize),
    Extract(u8),
    Insert(u8),
    Shuffle(usize),
    Jump {
        target: u32,
        moves: usize,
    },
    Branch {
        on_true: u32,
        on_false: u32,
        moves: (usize, usize),
    },
    Ret,
}

/// How it was lowered: the text after ` = `.
#[derive(Debug, Clone, Copy)]
pub(crate) enum How {
    /// A fixed strategy name.
    Named(&'static str),
    /// Packed 16-byte chunks plus a per-lane scalar tail; `uniform`
    /// marks a lane-wise op whose lanes all share one operator.
    Packed {
        uniform: bool,
        chunks: usize,
        tail: usize,
    },
}

#[derive(Debug, Clone, Copy)]
enum Line {
    Block(u32),
    Stub {
        start: u32,
        len: u32,
        text: &'static str,
    },
    Inst {
        inst: u32,
        start: u32,
        len: u32,
        head: Head,
        how: How,
    },
}

/// The recorded listing of one lowering.
#[derive(Debug, Clone)]
pub struct Listing {
    name: String,
    ret: Type,
    params: Vec<(String, Type)>,
    slots: usize,
    staging: usize,
    slot_bytes: usize,
    frame: i32,
    block_names: Vec<String>,
    lines: Vec<Line>,
    code_bytes: usize,
    ops: usize,
    slot_loads: u32,
    slot_stores: u32,
}

impl Listing {
    pub(crate) fn new(f: &Function, staging: usize, slot_bytes: usize, frame: i32) -> Self {
        Listing {
            name: f.name().to_string(),
            ret: f.ret_ty(),
            params: f.params().iter().map(|p| (p.name.clone(), p.ty)).collect(),
            slots: f.num_inst_slots(),
            staging,
            slot_bytes,
            frame,
            block_names: f.block_ids().map(|b| f.block(b).name.clone()).collect(),
            lines: Vec::with_capacity(f.num_inst_slots() + f.num_blocks() + 2),
            code_bytes: 0,
            ops: 0,
            slot_loads: 0,
            slot_stores: 0,
        }
    }

    pub(crate) fn block(&mut self, index: u32) {
        self.lines.push(Line::Block(index));
    }

    pub(crate) fn stub(&mut self, start: usize, end: usize, text: &'static str) {
        self.lines.push(Line::Stub {
            start: start as u32,
            len: (end - start) as u32,
            text,
        });
    }

    pub(crate) fn inst(&mut self, inst: u32, start: usize, end: usize, head: Head, how: How) {
        self.lines.push(Line::Inst {
            inst,
            start: start as u32,
            len: (end - start) as u32,
            head,
            how,
        });
    }

    pub(crate) fn finish(&mut self, code_bytes: usize, ops: usize, traffic: (u32, u32)) {
        self.code_bytes = code_bytes;
        self.ops = ops;
        (self.slot_loads, self.slot_stores) = traffic;
    }

    /// Renders the deterministic, address-free text listing.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 * (self.lines.len() + 4));
        let _ = writeln!(out, "jit `{}` isa=sse2 ret={}", self.name, self.ret);
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(name, ty)| format!("{name}:{ty}"))
            .collect();
        let _ = writeln!(
            out,
            "  params: [{}] slots={} staging={} slot_bytes={} frame_bytes={}",
            params.join(", "),
            self.slots,
            self.staging,
            self.slot_bytes,
            self.frame,
        );
        for line in &self.lines {
            match *line {
                Line::Block(b) => {
                    let _ = writeln!(out, "{}:", self.block_names[b as usize]);
                }
                Line::Stub { start, len, text } => {
                    let _ = writeln!(out, "  {text} @{start:#06x}+{len}");
                }
                Line::Inst {
                    inst,
                    start,
                    len,
                    head,
                    how,
                } => {
                    out.push_str("  ");
                    if !matches!(
                        head,
                        Head::Store(_) | Head::Jump { .. } | Head::Branch { .. } | Head::Ret
                    ) {
                        let _ = write!(out, "%{inst} ");
                    }
                    self.head(&mut out, head);
                    out.push_str(" = ");
                    match how {
                        How::Named(s) => out.push_str(s),
                        How::Packed {
                            uniform,
                            chunks,
                            tail,
                        } => {
                            if uniform {
                                out.push_str("uniform ");
                            }
                            let _ = match (chunks, tail) {
                                (0, _) => write!(out, "per-lane x{tail}"),
                                (_, 0) => write!(out, "packed x{chunks}"),
                                _ => write!(out, "packed x{chunks} + tail x{tail}"),
                            };
                        }
                    }
                    let _ = writeln!(out, " @{start:#06x}+{len}");
                }
            }
        }
        let _ = writeln!(
            out,
            "end: code={}B ops={} slot_loads={} slot_stores={}",
            self.code_bytes, self.ops, self.slot_loads, self.slot_stores
        );
        out
    }

    fn head(&self, out: &mut String, head: Head) {
        let name = |b: u32| &self.block_names[b as usize];
        let _ = match head {
            Head::Const(ty) => write!(out, "const {ty}"),
            Head::Binary(op, ty) => write!(out, "binary.{op} {ty}"),
            Head::Lanewise(n, ty) => write!(out, "lanewise[{n}] {ty}"),
            Head::Unary(op, ty) => write!(out, "unary.{op} {ty}"),
            Head::Cast(kind, from, to) => write!(out, "cast.{kind} {from}->{to}"),
            Head::Cmp(pred, ty) => write!(out, "cmp.{pred} {ty}"),
            Head::Select(ty) => write!(out, "select {ty}"),
            Head::Load(ty) => write!(out, "load {ty}"),
            Head::Store(ty) => write!(out, "store {ty}"),
            Head::PtrAdd => write!(out, "ptradd"),
            Head::Splat(lanes) => write!(out, "splat x{lanes}"),
            Head::BuildVector(n) => write!(out, "build-vector x{n}"),
            Head::Extract(lane) => write!(out, "extract lane {lane}"),
            Head::Insert(lane) => write!(out, "insert lane {lane}"),
            Head::Shuffle(n) => write!(out, "shuffle x{n}"),
            Head::Jump { target, moves } => {
                write!(out, "jump {} [{moves} phi moves]", name(target))
            }
            Head::Branch {
                on_true,
                on_false,
                moves: (mt, mf),
            } => write!(
                out,
                "branch {}/{} [{mt}/{mf} phi moves]",
                name(on_true),
                name(on_false)
            ),
            Head::Ret => write!(out, "ret"),
        };
    }
}
