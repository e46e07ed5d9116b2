//! Lowering committed IR to x86-64 machine code.
//!
//! Every SSA value owns one fixed-size frame slot `[rsp + id * slot_bytes]`
//! whose layout equals the value's guest-memory layout (`i32`/`f32` 4
//! bytes, `i64`/`f64`/`ptr` 8, vectors packed lanes). Inside a basic
//! block a **write-back register cache** keeps values in registers:
//!
//! - each result is defined in a cache register — a GPR for integer
//!   scalars and `ptr`, an XMM register for floats and for vectors of at
//!   most 16 bytes — and later uses in the same block read it there;
//! - a value's slot is written only when the value is used outside its
//!   block (another block, a phi edge, `ret`: written at definition), when
//!   it is evicted (the cached value with the furthest next use in the
//!   block goes), or when it is live across an `fmin`/`fmax`/`frem`
//!   helper call, which clobbers every caller-saved register;
//! - the cache starts empty at each block entry.
//!
//! Together these keep the **block-boundary invariant**: every value
//! is in its slot whenever control enters a block, exactly as if no
//! cache existed. Phi staging, the instrumented hot-counter bump and the
//! trap exits therefore only ever read slots. Wider vectors, and the
//! per-lane vector ops SSE2 has no packed form for, take the slot path:
//! their operands are written back first, and they read and write
//! slots with scratch registers only.
//!
//! Registers: `r12` = guest memory base + 64 (past the null page),
//! `r14` = fuel, `r15` = context pointer, all pinned; `rax`/`rcx`/`rdx`
//! and `xmm0`/`xmm1`/`xmm7` are per-instruction scratch; the other nine
//! GPRs and thirteen XMM registers form the cache. Integer values sit in
//! their GPR in canonical widened form (an `i32` sign-extended to 64
//! bits), mirroring the interpreter's widen-to-`i64`, compute, truncate
//! semantics (including shift counts masked `& 63`).
//!
//! **Fuel.** Pure instructions cannot be observed, so fuel is charged
//! once per run: one `sub r14, k; jb fuel` before each load, store,
//! integer div/rem, jump, branch and `ret`, where `k` counts the
//! instructions since the previous charge, itself included. The trap
//! kind, the memory image and the remaining fuel match the interpreter's
//! per-instruction check-then-decrement bit for bit.
//!
//! **Bounds.** The prologue computes, per access length `len` the
//! function uses, the limit `max(0, mem_size - len - 63)` into a frame
//! slot. A checked access is `lea rax, [ptr - 64]; cmp rax, [limit];
//! jae oob; add rax, r12`: one unsigned compare covers the null page,
//! the guest size and address wrap-around, and the trap stub adds the 64
//! back so `trap_addr` is the guest address.
//!
//! The fallback contract: [`lower`] either emits code for *every*
//! instruction of the function or returns a reason string and emits
//! nothing — there is no partial compilation. `fptosi` (saturating,
//! per Rust `as` semantics) is intentionally not lowered and exercises
//! that path.
//!
//! Phi moves happen on the edge, as in the interpreter: each phi owns a
//! staging slot; a terminator first copies every incoming value to the
//! staging slots, then commits staging to the phi slots, so parallel
//! copies can never observe each other's writes.

use std::collections::BTreeMap;

use snslp_interp::classify;
use snslp_ir::{
    BinOp, BlockId, CastKind, CmpPred, Constant, Function, InstId, InstKind, ScalarType, Type,
    UnOp, VectorType,
};
use snslp_trace::DecisionId;

use crate::asm::{
    Asm, Cc, Gpr, Label, Xmm, R10, R11, R12, R13, R14, R15, R8, R9, RAX, RBP, RBX, RCX, RDI, RDX,
    RSI, RSP, XMM0, XMM1, XMM7,
};
use crate::listing::{Head, How, Listing};
use crate::pcmap::{PcKind, PcMap};
use crate::runtime::{
    helpers, CTX_FUEL, CTX_HOT, CTX_MEM_BASE, CTX_MEM_SIZE, CTX_RET, CTX_TRAP_ADDR,
};

/// Guest address 0..64 is the interpreter's null page.
const NULL_PAGE: i32 = 64;

/// Refuse values wider than the context's return buffer.
const MAX_VALUE_BYTES: usize = crate::runtime::RET_BUF_BYTES;

/// Refuse frames past 1 MiB: test threads run on 2 MiB stacks.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Cache GPRs in allocation order; from [`FIRST_CALLEE_SAVED`] on they
/// survive helper calls.
const CACHE_GPRS: [Gpr; 9] = [RSI, RDI, R8, R9, R10, R11, RBX, RBP, R13];
const FIRST_CALLEE_SAVED: usize = 6;
/// Cache XMM registers (all caller-saved).
const CACHE_XMMS: [Xmm; 13] = [
    Xmm(2),
    Xmm(3),
    Xmm(4),
    Xmm(5),
    Xmm(6),
    Xmm(8),
    Xmm(9),
    Xmm(10),
    Xmm(11),
    Xmm(12),
    Xmm(13),
    Xmm(14),
    Xmm(15),
];
/// Cache register indices: `0..NG` are GPRs, `NG..NREGS` XMMs.
const NG: usize = CACHE_GPRS.len();
const NREGS: usize = NG + CACHE_XMMS.len();
const NO_REG: u8 = u8::MAX;
/// "No later use in this block".
const NO_USE: u32 = u32::MAX;

fn gpr(r: u8) -> Gpr {
    CACHE_GPRS[r as usize]
}

fn xmm(r: u8) -> Xmm {
    CACHE_XMMS[r as usize - NG]
}

/// Where values of a type live between their uses in a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Gpr,
    Xmm,
    /// Wider than one XMM register: always in the frame slot.
    Slot,
}

fn class_of(ty: Type) -> Class {
    match ty {
        Type::Ptr => Class::Gpr,
        Type::Scalar(st) if st.is_float() => Class::Xmm,
        Type::Scalar(_) => Class::Gpr,
        Type::Vector(vt) if vt.size_bytes() <= 16 => Class::Xmm,
        _ => Class::Slot,
    }
}

/// Whether the interpreter could observe this instruction (memory,
/// traps, control flow): a fuel charge must precede it.
fn observable(f: &Function, id: InstId) -> bool {
    let int_div = |ops: &[BinOp]| {
        ops.iter().any(|o| matches!(o, BinOp::Div | BinOp::Rem))
            && f.ty(id).elem_scalar().is_some_and(ScalarType::is_int)
    };
    match f.kind(id) {
        InstKind::Load { .. }
        | InstKind::Store { .. }
        | InstKind::Jump { .. }
        | InstKind::Branch { .. }
        | InstKind::Ret { .. } => true,
        InstKind::Binary { op, .. } => int_div(&[*op]),
        InstKind::BinaryLanewise { ops, .. } => int_div(ops),
        _ => false,
    }
}

/// A cached value: which one, the position of its next use in the
/// block, and whether its slot is stale.
#[derive(Debug, Clone, Copy)]
struct Held {
    v: InstId,
    next: u32,
    dirty: bool,
}

/// Options controlling one lowering.
#[derive(Debug, Clone, Default)]
pub struct LowerOptions {
    /// Emit the instrumented-hotness counter bump at every block entry:
    /// `inc qword [hot_counts + 8*block_index]` through the context's
    /// `hot_counts` pointer. Callers must then provide a counter buffer
    /// with one slot per block at invoke time.
    pub instrument: bool,
    /// Instruction arena index → the vectorization decision that emitted
    /// it, for decision-labelled PC ranges.
    pub decisions: BTreeMap<u32, DecisionId>,
}

/// A structured fallback reason: why a function cannot be lowered, and —
/// when the failure is anchored to one instruction — which one, so a
/// `jit-fallback` remark is greppable down to the offending opcode.
#[derive(Debug, Clone)]
pub struct LowerError {
    /// Human-readable reason.
    pub reason: String,
    /// Arena index of the first unsupported instruction, when the
    /// failure is instruction-anchored (pre-flight shape checks are
    /// function-level and leave this empty).
    pub inst: Option<u32>,
    /// Mnemonic of the unsupported opcode (`cast.fptosi`, `binary.div`,
    /// …), present exactly when `inst` is.
    pub opcode: Option<String>,
}

impl LowerError {
    fn function(reason: String) -> Self {
        LowerError {
            reason,
            inst: None,
            opcode: None,
        }
    }

    fn at(id: InstId, kind: &InstKind, reason: String) -> Self {
        LowerError {
            reason,
            inst: Some(id.index() as u32),
            opcode: Some(mnemonic(kind)),
        }
    }
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.opcode, self.inst) {
            (Some(op), Some(i)) => write!(f, "unsupported `{op}` at %{i}: {}", self.reason),
            _ => write!(f, "{}", self.reason),
        }
    }
}

/// Short opcode mnemonic for fallback remarks and dump lines.
fn mnemonic(kind: &InstKind) -> String {
    match kind {
        InstKind::Param(_) => "param".to_string(),
        InstKind::Phi { .. } => "phi".to_string(),
        InstKind::Const(_) => "const".to_string(),
        InstKind::Binary { op, .. } => format!("binary.{op}"),
        InstKind::BinaryLanewise { ops, .. } => format!("lanewise[{}]", ops.len()),
        InstKind::Unary { op, .. } => format!("unary.{op}"),
        InstKind::Cast { kind, .. } => format!("cast.{kind}"),
        InstKind::Cmp { pred, .. } => format!("cmp.{pred}"),
        InstKind::Select { .. } => "select".to_string(),
        InstKind::Load { .. } => "load".to_string(),
        InstKind::Store { .. } => "store".to_string(),
        InstKind::PtrAdd { .. } => "ptradd".to_string(),
        InstKind::Splat { .. } => "splat".to_string(),
        InstKind::BuildVector { .. } => "build-vector".to_string(),
        InstKind::ExtractElement { .. } => "extract".to_string(),
        InstKind::InsertElement { .. } => "insert".to_string(),
        InstKind::Shuffle { .. } => "shuffle".to_string(),
        InstKind::Jump { .. } => "jump".to_string(),
        InstKind::Branch { .. } => "branch".to_string(),
        InstKind::Ret { .. } => "ret".to_string(),
    }
}

/// Successful lowering: finalized code plus the recorded listing.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// Position-independent machine code (entry at byte 0).
    pub code: Vec<u8>,
    /// The jitdump listing, rendered on demand by [`Listing::render`].
    pub listing: Listing,
    /// Number of IR instructions lowered (phis excluded).
    pub ops_lowered: usize,
    /// PC→IR map partitioning `code` exactly.
    pub pc_map: PcMap,
    /// Number of basic blocks (the instrumented counter buffer needs one
    /// `u64` slot per block).
    pub num_blocks: usize,
    /// Whether the code bumps per-block hotness counters.
    pub instrumented: bool,
}

struct Lower<'a> {
    f: &'a Function,
    a: Asm,
    opts: &'a LowerOptions,
    slot_bytes: usize,
    /// Per value: its phi staging slot index, or `u32::MAX`.
    staging: Vec<u32>,
    /// Per value: read from its slot by a later block, a phi edge or
    /// `ret`, so written there at its definition.
    escapes: Vec<bool>,
    /// `(access length, frame offset of its bounds limit)`, sorted.
    limits: Vec<(u32, i32)>,
    block_labels: Vec<Label>,
    l_epilogue: Label,
    l_trap_oob: Label,
    l_trap_div: Label,
    l_trap_fuel: Label,
    frame: i32,
    ops: usize,
    pc: PcMap,
    listing: Listing,
    // ---- register cache ----
    regs: [Option<Held>; NREGS],
    /// Per value: its cache register, or [`NO_REG`].
    loc: Vec<u8>,
    /// Registers the current instruction reads or defines.
    pinned: u32,
    // ---- per-block liveness, by position among the non-phi insts ----
    pos: usize,
    body: Vec<InstId>,
    /// Next use of each position's result after it.
    def_next: Vec<u32>,
    /// Distinct register operands of each position with their next use
    /// after it; position `p` owns `uses[use_start[p]..use_start[p + 1]]`.
    uses: Vec<(InstId, u32)>,
    use_start: Vec<u32>,
    next_scan: Vec<u32>,
    /// The current instruction's operand uses were already retired.
    released: bool,
}

/// Lowers `f` to machine code with default options, or reports why the
/// function must fall back to the interpreter.
///
/// # Errors
///
/// Returns the fallback reason (unsupported opcode, oversized value or
/// frame, malformed shape). Nothing is emitted on error.
pub fn lower(f: &Function) -> Result<Lowered, LowerError> {
    lower_with(f, &LowerOptions::default())
}

/// Lowers `f` to machine code under explicit [`LowerOptions`].
///
/// # Errors
///
/// Returns the structured fallback reason. Nothing is emitted on error.
pub fn lower_with(f: &Function, opts: &LowerOptions) -> Result<Lowered, LowerError> {
    // Pre-flight: slot sizing and parameter shapes.
    let mut slot_bytes = 8usize;
    for p in f.params() {
        match p.ty {
            Type::Ptr | Type::Scalar(_) => {}
            ty => {
                return Err(LowerError::function(format!(
                    "parameter of type {ty} is not callable natively"
                )))
            }
        }
    }
    let n = f.num_inst_slots();
    for i in 0..n {
        let ty = f.ty(InstId(i as u32));
        if !ty.is_value() {
            continue;
        }
        let sz = ty.size_bytes() as usize;
        if sz > MAX_VALUE_BYTES {
            return Err(LowerError::function(format!(
                "value of type {ty} is wider than {MAX_VALUE_BYTES} bytes"
            )));
        }
        slot_bytes = slot_bytes.max(sz);
    }
    slot_bytes = slot_bytes.next_multiple_of(8);

    // One pass for staging slots (head phis), defining blocks and the
    // access lengths that need a bounds limit; a second for escapes.
    let mut staging = vec![u32::MAX; n];
    let mut num_staging = 0usize;
    let mut def_block = vec![u32::MAX; n];
    let mut lens: Vec<u32> = Vec::new();
    for b in f.block_ids() {
        let mut head = true;
        for &id in f.block(b).insts() {
            match f.kind(id) {
                InstKind::Phi { .. } => {
                    if head {
                        staging[id.index()] = (n + num_staging) as u32;
                        num_staging += 1;
                    }
                }
                kind => {
                    head = false;
                    def_block[id.index()] = b.index() as u32;
                    match kind {
                        InstKind::Load { .. } => lens.push(f.ty(id).size_bytes()),
                        InstKind::Store { value, .. } => lens.push(f.ty(*value).size_bytes()),
                        _ => {}
                    }
                }
            }
        }
    }
    let mut escapes = vec![false; n];
    for b in f.block_ids() {
        let bi = b.index() as u32;
        for &id in f.block(b).insts() {
            match f.kind(id) {
                InstKind::Phi { incoming } => {
                    for &(_, v) in incoming {
                        escapes[v.index()] = true;
                    }
                }
                InstKind::Ret { value: Some(v) } => escapes[v.index()] = true,
                kind => kind.for_each_operand(|v| {
                    if def_block[v.index()] != bi {
                        escapes[v.index()] = true;
                    }
                }),
            }
        }
    }
    lens.sort_unstable();
    lens.dedup();

    let slots_bytes = (n + num_staging) * slot_bytes;
    let limits: Vec<(u32, i32)> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| (len, (slots_bytes + 8 * i) as i32))
        .collect();
    // Six pushes plus the return address leave `rsp` 8 bytes off a
    // 16-byte boundary; the extra 8 realigns it for helper calls.
    let frame = (slots_bytes + 8 * limits.len()).next_multiple_of(16) + 8;
    if frame > MAX_FRAME_BYTES {
        return Err(LowerError::function(format!(
            "frame of {frame} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }

    let mut a = Asm::new();
    let block_labels: Vec<Label> = f.block_ids().map(|_| a.new_label()).collect();
    let l_epilogue = a.new_label();
    let l_trap_oob = a.new_label();
    let l_trap_div = a.new_label();
    let l_trap_fuel = a.new_label();

    let mut lw = Lower {
        f,
        a,
        opts,
        slot_bytes,
        staging,
        escapes,
        limits,
        block_labels,
        l_epilogue,
        l_trap_oob,
        l_trap_div,
        l_trap_fuel,
        frame: frame as i32,
        ops: 0,
        pc: PcMap::default(),
        listing: Listing::new(f, num_staging, slot_bytes, frame as i32),
        regs: [None; NREGS],
        loc: vec![NO_REG; n],
        pinned: 0,
        pos: 0,
        body: Vec::new(),
        def_next: Vec::new(),
        uses: Vec::new(),
        use_start: Vec::new(),
        next_scan: vec![NO_USE; n],
        released: false,
    };
    lw.prologue();
    for (bi, b) in f.block_ids().enumerate() {
        lw.block(bi, b)?;
    }
    lw.exits();
    let ops = lw.ops;
    let traffic = lw.a.frame_traffic();
    // `finish()` patches rel32 fixups in place and never moves or adds
    // bytes, so the offsets recorded during emission stay valid.
    let code = lw.a.finish();
    lw.pc
        .validate(code.len())
        .map_err(|e| LowerError::function(format!("internal error: PcMap broken: {e}")))?;
    lw.listing.finish(code.len(), ops, traffic);
    Ok(Lowered {
        code,
        listing: lw.listing,
        ops_lowered: ops,
        pc_map: lw.pc,
        num_blocks: f.num_blocks(),
        instrumented: opts.instrument,
    })
}

impl<'a> Lower<'a> {
    fn slot(&self, id: InstId) -> i32 {
        (id.index() * self.slot_bytes) as i32
    }

    fn staging_slot(&self, id: InstId) -> i32 {
        let idx = self.staging[id.index()];
        debug_assert!(idx != u32::MAX, "phi has a staging slot");
        (idx as usize * self.slot_bytes) as i32
    }

    /// Records `[start, here)` as a function-level stub range.
    fn stub(&mut self, start: usize, name: &'static str, text: &'static str) {
        let end = self.a.here();
        self.pc
            .push(start, end, PcKind::Stub { name, block: None }, None);
        self.listing.stub(start, end, text);
    }

    fn prologue(&mut self) {
        let start = self.a.here();
        let a = &mut self.a;
        for r in [RBP, RBX, R12, R13, R14, R15] {
            a.push_r(r);
        }
        a.mov_rr(R15, RDI);
        a.mov_load(R12, R15, CTX_MEM_BASE);
        a.add_ri(R12, NULL_PAGE);
        a.mov_load(R14, R15, CTX_FUEL);
        a.sub_rsp(self.frame);
        for i in 0..self.f.params().len() {
            let disp = self.slot(self.f.param(i));
            self.a.mov_load(RAX, RSI, (8 * i) as i32);
            match self.f.params()[i].ty {
                Type::Scalar(ScalarType::I32) | Type::Scalar(ScalarType::F32) => {
                    self.a.mov32_store(RSP, disp, RAX)
                }
                _ => self.a.mov_store(RSP, disp, RAX),
            }
        }
        // limit(len) = max(0, mem_size - len - 63): see `checked_addr`.
        if !self.limits.is_empty() {
            self.a.mov_load(RAX, R15, CTX_MEM_SIZE);
            self.a.xor_rr(RDX, RDX);
            for &(len, disp) in &self.limits {
                self.a.mov_rr(RCX, RAX);
                self.a.sub_ri(RCX, len as i32 + NULL_PAGE - 1);
                self.a.cmov(Cc::B, RCX, RDX);
                self.a.mov_store(RSP, disp, RCX);
            }
        }
        let entry = self.block_labels[0];
        self.a.jmp(entry);
        self.stub(
            start,
            "prologue",
            "prologue = pin r12/r14/r15, spill params, bounds limits",
        );
    }

    fn exits(&mut self) {
        let start = self.a.here();
        let a = &mut self.a;
        a.bind(self.l_trap_oob);
        a.add_ri(RAX, NULL_PAGE);
        a.mov_store(R15, CTX_TRAP_ADDR, RAX);
        a.mov_ri(RAX, crate::runtime::status::OOB as u64);
        a.jmp(self.l_epilogue);
        a.bind(self.l_trap_div);
        a.mov_ri(RAX, crate::runtime::status::DIV_ZERO as u64);
        a.jmp(self.l_epilogue);
        a.bind(self.l_trap_fuel);
        a.mov_ri(RAX, crate::runtime::status::FUEL as u64);
        a.bind(self.l_epilogue);
        a.mov_store(R15, CTX_FUEL, R14);
        a.add_rsp(self.frame);
        for r in [R15, R14, R13, R12, RBX, RBP] {
            a.pop_r(r);
        }
        a.ret();
        self.stub(start, "exits", "exits = oob/div0/fuel stubs, epilogue");
    }

    /// Bounds-checks `[addr, addr + len)` for the guest address in `rp`
    /// and leaves the host address in `rax`. With `a = addr - 64`
    /// (wrapping) and `limit = max(0, mem_size - len - 63)`, `a <u limit`
    /// holds exactly when `64 <= addr` and `addr + len <= mem_size`
    /// without wrap-around. Traps with `addr - 64` in `rax`.
    fn checked_addr(&mut self, rp: Gpr, len: u32) {
        let i = self.limits.partition_point(|&(l, _)| l < len);
        let limit = self.limits[i].1;
        self.a.lea(RAX, rp, -NULL_PAGE);
        self.a.cmp_rm(RAX, RSP, limit);
        self.a.jcc(Cc::Ae, self.l_trap_oob);
        self.a.add_rr(RAX, R12);
    }

    fn block(&mut self, bi: usize, b: BlockId) -> Result<(), LowerError> {
        let f = self.f;
        self.a.bind(self.block_labels[bi]);
        self.listing.block(bi as u32);
        if self.opts.instrument {
            // Bump the per-block execution counter through the context's
            // `hot_counts` pointer. Values are in their slots at block
            // entry, so `rax` is free.
            let start = self.a.here();
            self.a.mov_load(RAX, R15, CTX_HOT);
            self.a.inc_mem(RAX, (bi * 8) as i32);
            let end = self.a.here();
            self.pc.push(
                start,
                end,
                PcKind::Stub {
                    name: "hot-counter",
                    block: Some(bi as u32),
                },
                None,
            );
            self.listing.stub(start, end, "hot = inc block counter");
        }
        self.liveness(f.block(b).insts());
        for r in 0..NREGS {
            self.free(r as u8);
        }
        let mut uncharged = 0i32;
        for p in 0..self.body.len() {
            let id = self.body[p];
            let kind = f.kind(id);
            let start = self.a.here();
            uncharged += 1;
            if observable(f, id) {
                self.a.sub_ri(R14, uncharged);
                self.a.jcc(Cc::B, self.l_trap_fuel);
                uncharged = 0;
            }
            self.ops += 1;
            self.pos = p;
            self.released = false;
            let (head, how) = self
                .lower_inst(b, id)
                .map_err(|e| LowerError::at(id, kind, e))?;
            self.finish_inst(id);
            if self.a.here() == start {
                // Every lowered instruction owns a non-empty PC range.
                self.a.nop();
            }
            let end = self.a.here();
            self.pc.push(
                start,
                end,
                PcKind::Inst {
                    inst: id.index() as u32,
                    class: classify(kind),
                    block: bi as u32,
                },
                self.opts.decisions.get(&(id.index() as u32)).cloned(),
            );
            self.listing.inst(id.index() as u32, start, end, head, how);
        }
        // A verifier-clean block ends in a terminator, so this is only
        // reachable for malformed IR; the interpreter errors there too.
        let last = f.block(b).insts().last().copied();
        let terminated = last.is_some_and(|id| {
            matches!(
                f.kind(id),
                InstKind::Jump { .. } | InstKind::Branch { .. } | InstKind::Ret { .. }
            )
        });
        if !terminated {
            return Err(LowerError::function(format!(
                "block {} falls through without a terminator",
                f.block(b).name
            )));
        }
        Ok(())
    }

    /// Next-use positions for one block's non-phi instructions. `ret`
    /// and phi edges read slots, so they are no register uses.
    fn liveness(&mut self, insts: &[InstId]) {
        let f = self.f;
        self.body.clear();
        self.uses.clear();
        self.use_start.clear();
        for &id in insts {
            let kind = f.kind(id);
            if matches!(kind, InstKind::Phi { .. }) {
                continue;
            }
            self.body.push(id);
            let start = self.uses.len();
            self.use_start.push(start as u32);
            if !matches!(kind, InstKind::Ret { .. }) {
                let uses = &mut self.uses;
                kind.for_each_operand(|v| {
                    if !uses[start..].iter().any(|&(u, _)| u == v) {
                        uses.push((v, NO_USE));
                    }
                });
            }
        }
        self.use_start.push(self.uses.len() as u32);
        self.def_next.clear();
        self.def_next.resize(self.body.len(), NO_USE);
        for p in (0..self.body.len()).rev() {
            self.def_next[p] = self.next_scan[self.body[p].index()];
            for k in self.use_start[p] as usize..self.use_start[p + 1] as usize {
                let v = self.uses[k].0.index();
                self.uses[k].1 = self.next_scan[v];
                self.next_scan[v] = p as u32;
            }
        }
        for &(v, _) in &self.uses {
            self.next_scan[v.index()] = NO_USE;
        }
    }

    fn current_uses(&self) -> std::ops::Range<usize> {
        self.use_start[self.pos] as usize..self.use_start[self.pos + 1] as usize
    }

    /// Next use of operand `v` after the current instruction.
    fn next_use_after(&self, v: InstId) -> u32 {
        self.uses[self.current_uses()]
            .iter()
            .find(|&&(u, _)| u == v)
            .map_or(NO_USE, |&(_, next)| next)
    }

    /// Retires the current instruction's operand uses: a value with no
    /// later use in the block leaves the cache.
    fn release_operands(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        for k in self.current_uses() {
            let (v, next) = self.uses[k];
            let r = self.loc[v.index()];
            if r == NO_REG {
                continue;
            }
            match &mut self.regs[r as usize] {
                Some(h) if next != NO_USE => h.next = next,
                _ => self.free(r),
            }
        }
    }

    fn finish_inst(&mut self, id: InstId) {
        self.release_operands();
        let r = self.loc[id.index()];
        if r != NO_REG {
            if self.escapes[id.index()] {
                self.write_back(r);
            }
            let next = self.def_next[self.pos];
            match &mut self.regs[r as usize] {
                Some(h) if next != NO_USE => h.next = next,
                _ => self.free(r),
            }
        }
        self.pinned = 0;
    }

    fn free(&mut self, r: u8) {
        if let Some(h) = self.regs[r as usize].take() {
            self.loc[h.v.index()] = NO_REG;
        }
    }

    /// Stores a dirty cached value to its slot.
    fn write_back(&mut self, r: u8) {
        if let Some(h) = self.regs[r as usize] {
            if h.dirty {
                let (ty, disp) = (self.f.ty(h.v), self.slot(h.v));
                self.store_reg(r, ty, RSP, disp);
                self.regs[r as usize] = Some(Held { dirty: false, ..h });
            }
        }
    }

    /// A free cache register of the class, evicting the unpinned value
    /// with the furthest next use (clean ones first on a tie).
    fn alloc(&mut self, class: Class) -> u8 {
        let range = if class == Class::Xmm {
            NG..NREGS
        } else {
            0..NG
        };
        if let Some(r) = range.clone().find(|&r| self.regs[r].is_none()) {
            return r as u8;
        }
        let victim = range
            .filter(|&r| self.pinned & (1 << r) == 0)
            .max_by_key(|&r| {
                let h = self.regs[r].expect("full register file");
                (h.next, !h.dirty)
            })
            .expect("the register cache has an unpinned register") as u8;
        self.write_back(victim);
        self.free(victim);
        victim
    }

    fn hold(&mut self, r: u8, v: InstId, dirty: bool) {
        self.regs[r as usize] = Some(Held { v, next: 0, dirty });
        self.loc[v.index()] = r;
        self.pinned |= 1 << r;
    }

    /// The cache register holding operand `v`, loading it from its slot
    /// on a miss.
    fn use_reg(&mut self, v: InstId) -> u8 {
        let mut r = self.loc[v.index()];
        if r == NO_REG {
            let ty = self.f.ty(v);
            r = self.alloc(class_of(ty));
            self.load_reg(r, ty, RSP, self.slot(v));
            self.hold(r, v, false);
        }
        self.pinned |= 1 << r;
        r
    }

    fn use_gpr(&mut self, v: InstId) -> Gpr {
        gpr(self.use_reg(v))
    }

    fn use_xmm(&mut self, v: InstId) -> Xmm {
        xmm(self.use_reg(v))
    }

    /// A fresh cache register for the current instruction's result.
    fn def_reg(&mut self, id: InstId) -> u8 {
        let r = self.alloc(class_of(self.f.ty(id)));
        self.hold(r, id, true);
        r
    }

    fn def_gpr(&mut self, id: InstId) -> Gpr {
        gpr(self.def_reg(id))
    }

    fn def_xmm(&mut self, id: InstId) -> Xmm {
        xmm(self.def_reg(id))
    }

    /// The result register, taking over `src`'s when this instruction is
    /// its last use in the block (its slot is current if anyone else
    /// reads it), so a two-address op needs no copy.
    fn def_reuse(&mut self, id: InstId, src: InstId) -> u8 {
        let r = self.loc[src.index()];
        if r != NO_REG && self.next_use_after(src) == NO_USE {
            self.loc[src.index()] = NO_REG;
            self.hold(r, id, true);
            return r;
        }
        self.def_reg(id)
    }

    /// Writes operand `v` back if its slot is stale.
    fn ensure_in_slot(&mut self, v: InstId) {
        let r = self.loc[v.index()];
        if r != NO_REG {
            self.write_back(r);
        }
    }

    /// Before a helper call: values still live in caller-saved cache
    /// registers go to their slots and leave the cache.
    fn spill_for_call(&mut self) {
        self.release_operands();
        for r in (0..NREGS).filter(|r| !(FIRST_CALLEE_SAVED..NG).contains(r)) {
            self.write_back(r as u8);
            self.free(r as u8);
        }
    }

    /// Loads a value of type `ty` from `[base + disp]` into cache
    /// register `r`, in canonical register form.
    fn load_reg(&mut self, r: u8, ty: Type, base: Gpr, disp: i32) {
        if (r as usize) < NG {
            self.load_gpr(gpr(r), ty, base, disp);
        } else {
            self.load_xmm(xmm(r), ty, base, disp);
        }
    }

    /// Stores cache register `r`, holding a value of type `ty`, to
    /// `[base + disp]` in memory layout.
    fn store_reg(&mut self, r: u8, ty: Type, base: Gpr, disp: i32) {
        if (r as usize) < NG {
            self.store_gpr(gpr(r), ty, base, disp);
        } else {
            self.store_xmm(xmm(r), ty, base, disp);
        }
    }

    /// Integer or pointer load, sign-extending an `i32`.
    fn load_gpr(&mut self, g: Gpr, ty: Type, base: Gpr, disp: i32) {
        match ty {
            Type::Scalar(ScalarType::I32) => self.a.movsxd_load(g, base, disp),
            _ => self.a.mov_load(g, base, disp),
        }
    }

    /// Integer or pointer store, truncating an `i32`.
    fn store_gpr(&mut self, g: Gpr, ty: Type, base: Gpr, disp: i32) {
        match ty {
            Type::Scalar(ScalarType::I32) => self.a.mov32_store(base, disp, g),
            _ => self.a.mov_store(base, disp, g),
        }
    }

    /// Float or vector (at most 16 bytes) load into the low lanes of `x`.
    fn load_xmm(&mut self, x: Xmm, ty: Type, base: Gpr, disp: i32) {
        match ty.size_bytes() {
            4 => self.a.movss_load(x, base, disp),
            8 => self.a.movsd_load(x, base, disp),
            12 => {
                self.a.movsd_load(x, base, disp);
                self.a.movss_load(XMM7, base, disp + 8);
                self.a.movlhps(x, XMM7);
            }
            _ => self.a.movups_load(x, base, disp),
        }
    }

    /// Store of the low `ty.size_bytes()` bytes of `x`.
    fn store_xmm(&mut self, x: Xmm, ty: Type, base: Gpr, disp: i32) {
        match ty.size_bytes() {
            4 => self.a.movss_store(base, disp, x),
            8 => self.a.movsd_store(base, disp, x),
            12 => {
                self.a.movsd_store(base, disp, x);
                self.a.movhlps(XMM7, x);
                self.a.movss_store(base, disp + 8, XMM7);
            }
            _ => self.a.movups_store(base, disp, x),
        }
    }

    fn lower_inst(&mut self, b: BlockId, id: InstId) -> Result<(Head, How), String> {
        let f = self.f;
        let kind = f.kind(id);
        let ty = f.ty(id);
        let reg_result = class_of(ty) != Class::Slot;
        Ok(match kind {
            InstKind::Param(_) | InstKind::Phi { .. } => unreachable!(),
            InstKind::Const(c) => {
                self.constant(id, *c);
                (Head::Const(ty), How::Named("mov-imm"))
            }
            InstKind::Binary { op, lhs, rhs } => {
                let how = match ty {
                    Type::Scalar(st) if st.is_float() => {
                        self.float_binop(id, *op, st, *lhs, *rhs)?
                    }
                    Type::Scalar(st) => {
                        self.int_binop(id, *op, st, *lhs, *rhs);
                        How::Named("reg")
                    }
                    Type::Vector(vt) if reg_result && packed_op(*op, vt.elem).is_some() => {
                        self.packed_binop(id, *op, vt, *lhs, *rhs);
                        How::Packed {
                            uniform: false,
                            chunks: 1,
                            tail: 0,
                        }
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Binary(*op, ty), how)
            }
            InstKind::BinaryLanewise { ops, lhs, rhs } => {
                let how = match (ty, &ops[..]) {
                    (Type::Vector(vt), [first, rest @ ..])
                        if reg_result
                            && rest.iter().all(|o| o == first)
                            && packed_op(*first, vt.elem).is_some() =>
                    {
                        self.packed_binop(id, *first, vt, *lhs, *rhs);
                        How::Packed {
                            uniform: true,
                            chunks: 1,
                            tail: 0,
                        }
                    }
                    (Type::Vector(vt), &[op0, op1])
                        if vt.elem == ScalarType::F64
                            && sse_arith(op0).is_some()
                            && sse_arith(op1).is_some() =>
                    {
                        self.mixed_f64x2(id, op0, op1, *lhs, *rhs);
                        How::Named("mixed packed")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Lanewise(ops.len(), ty), how)
            }
            InstKind::Unary { op, operand } => {
                let how = match ty {
                    Type::Scalar(st) => match self.scalar_unop(id, *op, st, *operand) {
                        Some(how) => how,
                        None => self.via_slots(id)?,
                    },
                    _ => self.via_slots(id)?,
                };
                (Head::Unary(*op, ty), how)
            }
            InstKind::Cast { kind, operand } => {
                let from = f.ty(*operand);
                let how = match (from, ty) {
                    (Type::Scalar(_), Type::Scalar(ts)) if *kind != CastKind::Fptosi => {
                        self.scalar_cast(id, *kind, ts, *operand);
                        How::Named("reg")
                    }
                    (Type::Vector(fv), Type::Vector(tv))
                        if reg_result && self.vector_cast(id, *kind, fv, tv, *operand) =>
                    {
                        How::Named("packed")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Cast(*kind, from, ty), how)
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let in_ty = f.ty(*lhs);
                let how = match in_ty {
                    Type::Scalar(_) | Type::Ptr => {
                        self.scalar_cmp(id, *pred, in_ty, *lhs, *rhs);
                        How::Named("reg")
                    }
                    Type::Vector(vt)
                        if vt.elem.is_float() && class_of(in_ty) == Class::Xmm && reg_result =>
                    {
                        self.vector_cmp(id, *pred, vt, *lhs, *rhs);
                        How::Named("packed")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Cmp(*pred, in_ty), how)
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let how = match f.ty(*cond) {
                    Type::Scalar(ScalarType::I32 | ScalarType::I64) if reg_result => {
                        self.select(id, *cond, *on_true, *on_false)
                    }
                    Type::Vector(mv)
                        if mv.elem == ScalarType::I32
                            && reg_result
                            && ty.as_vector().is_some_and(|vt| vt.lanes == mv.lanes)
                            && matches!(
                                ty.elem_scalar().map(ScalarType::size_bytes),
                                Some(4 | 8)
                            ) =>
                    {
                        self.mask_select(id, *cond, *on_true, *on_false);
                        How::Named("packed mask")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Select(ty), how)
            }
            InstKind::Load { ptr } => {
                let bytes = ty.size_bytes();
                let rp = self.use_gpr(*ptr);
                let how = if reg_result {
                    let r = self.def_reg(id);
                    self.checked_addr(rp, bytes);
                    self.load_reg(r, ty, RAX, 0);
                    How::Named("checked reg")
                } else {
                    self.checked_addr(rp, bytes);
                    self.copy(RAX, 0, RSP, self.slot(id), bytes as usize);
                    How::Named("checked copy")
                };
                (Head::Load(ty), how)
            }
            InstKind::Store { ptr, value } => {
                let vty = f.ty(*value);
                let bytes = vty.size_bytes();
                let rp = self.use_gpr(*ptr);
                let how = if class_of(vty) != Class::Slot {
                    let r = self.use_reg(*value);
                    self.checked_addr(rp, bytes);
                    self.store_reg(r, vty, RAX, 0);
                    How::Named("checked reg")
                } else {
                    self.checked_addr(rp, bytes);
                    self.copy(RSP, self.slot(*value), RAX, 0, bytes as usize);
                    How::Named("checked copy")
                };
                (Head::Store(vty), how)
            }
            InstKind::PtrAdd { ptr, offset } => {
                let rp = self.use_gpr(*ptr);
                let ro = self.use_gpr(*offset);
                let rd = gpr(self.def_reuse(id, *ptr));
                if rd != rp {
                    self.a.mov_rr(rd, rp);
                }
                self.a.add_rr(rd, ro);
                (Head::PtrAdd, How::Named("add64"))
            }
            InstKind::Splat { value, lanes } => {
                let how = match f.ty(*value) {
                    Type::Scalar(st) if reg_result => {
                        self.splat(id, st, *value);
                        How::Named("broadcast reg")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Splat(*lanes), how)
            }
            InstKind::BuildVector { elems } => {
                let how = match ty {
                    Type::Vector(vt)
                        if reg_result
                            && elems.iter().all(|e| f.ty(*e) == Type::Scalar(vt.elem))
                            && self.build_vector(id, vt, elems) =>
                    {
                        How::Named("reg gather")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::BuildVector(elems.len()), how)
            }
            InstKind::ExtractElement { vector, lane } => {
                let how = match f.ty(*vector) {
                    Type::Vector(vt)
                        if *lane < vt.lanes && class_of(Type::Vector(vt)) == Class::Xmm =>
                    {
                        self.extract(id, vt, *vector, *lane);
                        How::Named("reg")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Extract(*lane), how)
            }
            InstKind::InsertElement {
                vector,
                value,
                lane,
            } => {
                let how = match f.ty(*vector) {
                    Type::Vector(vt)
                        if *lane < vt.lanes
                            && reg_result
                            && f.ty(*value) == Type::Scalar(vt.elem)
                            && self.insert(id, vt, *vector, *value, *lane) =>
                    {
                        How::Named("reg patch")
                    }
                    _ => self.via_slots(id)?,
                };
                (Head::Insert(*lane), how)
            }
            InstKind::Shuffle { a, b, mask } => {
                let how = if reg_result
                    && class_of(f.ty(*a)) == Class::Xmm
                    && class_of(f.ty(*b)) == Class::Xmm
                    && self.shuffle(id, *a, *b, mask)
                {
                    How::Named("reg gather")
                } else {
                    self.via_slots(id)?
                };
                (Head::Shuffle(mask.len()), how)
            }
            InstKind::Jump { target } => {
                let moves = self.edge_moves(b, *target)?;
                self.a.jmp(self.block_labels[target.index()]);
                (
                    Head::Jump {
                        target: target.index() as u32,
                        moves,
                    },
                    How::Named("jmp"),
                )
            }
            InstKind::Branch {
                cond,
                on_true,
                on_false,
            } => {
                match f.ty(*cond) {
                    Type::Scalar(ScalarType::I32 | ScalarType::I64) => {}
                    ty => return Err(format!("branch condition of type {ty}")),
                }
                let rc = self.use_gpr(*cond);
                self.a.test_rr(rc, rc);
                let l_false = self.a.new_label();
                self.a.jcc(Cc::E, l_false);
                let mt = self.edge_moves(b, *on_true)?;
                self.a.jmp(self.block_labels[on_true.index()]);
                self.a.bind(l_false);
                let mf = self.edge_moves(b, *on_false)?;
                self.a.jmp(self.block_labels[on_false.index()]);
                (
                    Head::Branch {
                        on_true: on_true.index() as u32,
                        on_false: on_false.index() as u32,
                        moves: (mt, mf),
                    },
                    How::Named("test+jcc"),
                )
            }
            InstKind::Ret { value } => {
                // `ret` operands escape, so the slot is current.
                if let Some(v) = value {
                    let bytes = f.ty(*v).size_bytes() as usize;
                    self.copy(RSP, self.slot(*v), R15, CTX_RET, bytes);
                }
                self.a.xor_rr(RAX, RAX);
                self.a.jmp(self.l_epilogue);
                (Head::Ret, How::Named("status ok"))
            }
        })
    }

    /// The slot path: operands are written back, then the instruction
    /// reads and writes frame slots with scratch registers only.
    fn via_slots(&mut self, id: InstId) -> Result<How, String> {
        let f = self.f;
        let kind = f.kind(id);
        kind.for_each_operand(|v| self.ensure_in_slot(v));
        let helper_lane = |op: &BinOp| matches!(op, BinOp::Min | BinOp::Max | BinOp::Rem);
        let float = f.ty(id).elem_scalar().is_some_and(ScalarType::is_float);
        let calls = match kind {
            InstKind::Binary { op, .. } => float && helper_lane(op),
            InstKind::BinaryLanewise { ops, .. } => float && ops.iter().any(helper_lane),
            _ => false,
        };
        if calls {
            self.spill_for_call();
        }
        self.slot_inst(id)
    }

    fn constant(&mut self, id: InstId, c: Constant) {
        let (bits, wide) = match c {
            Constant::I32(v) => {
                let r = self.def_gpr(id);
                self.a.mov_ri(r, i64::from(v) as u64);
                return;
            }
            Constant::I64(v) => {
                let r = self.def_gpr(id);
                self.a.mov_ri(r, v as u64);
                return;
            }
            Constant::F32(v) => (u64::from(v.to_bits()), false),
            Constant::F64(v) => (v.to_bits(), true),
        };
        let x = self.def_xmm(id);
        if bits == 0 {
            self.a.sse_rr(&[], 0x57, x, x); // xorps
        } else {
            self.a.mov_ri(RAX, bits);
            if wide {
                self.a.movq_xr(x, RAX);
            } else {
                self.a.movd_xr(x, RAX);
            }
        }
    }

    fn int_binop(&mut self, id: InstId, op: BinOp, st: ScalarType, lhs: InstId, rhs: InstId) {
        let ra = self.use_gpr(lhs);
        let rb = self.use_gpr(rhs);
        let rd = if let BinOp::Div | BinOp::Rem = op {
            self.a.mov_rr(RAX, ra);
            self.a.mov_rr(RCX, rb);
            self.div_rem(op == BinOp::Rem);
            let rd = self.def_gpr(id);
            self.a.mov_rr(rd, RAX);
            rd
        } else {
            let rd = gpr(self.def_reuse(id, lhs));
            if matches!(op, BinOp::Shl | BinOp::Shr) {
                self.a.mov_rr(RCX, rb);
            }
            if rd != ra {
                self.a.mov_rr(rd, ra);
            }
            self.int_alu(op, rd, rb);
            rd
        };
        if st == ScalarType::I32 {
            self.a.movsxd_rr(rd, rd);
        }
    }

    /// `rd = rd op rb` for every integer op but div/rem; shifts take
    /// their count from `cl`, which the caller loads.
    fn int_alu(&mut self, op: BinOp, rd: Gpr, rb: Gpr) {
        match op {
            BinOp::Add => self.a.add_rr(rd, rb),
            BinOp::Sub => self.a.sub_rr(rd, rb),
            BinOp::Mul => self.a.imul_rr(rd, rb),
            BinOp::And => self.a.and_rr(rd, rb),
            BinOp::Or => self.a.or_rr(rd, rb),
            BinOp::Xor => self.a.xor_rr(rd, rb),
            BinOp::Shl => self.a.shl_cl(rd),
            BinOp::Shr => self.a.sar_cl(rd),
            BinOp::Min => {
                self.a.cmp_rr(rd, rb);
                self.a.cmov(Cc::G, rd, rb);
            }
            BinOp::Max => {
                self.a.cmp_rr(rd, rb);
                self.a.cmov(Cc::L, rd, rb);
            }
            BinOp::Div | BinOp::Rem => unreachable!("see `div_rem`"),
        }
    }

    /// `rax = rax / rcx` (or `%`), trapping on a zero divisor.
    fn div_rem(&mut self, rem: bool) {
        self.a.test_rr(RCX, RCX);
        self.a.jcc(Cc::E, self.l_trap_div);
        let special = self.a.new_label();
        let done = self.a.new_label();
        self.a.cmp_ri8(RCX, -1);
        self.a.jcc(Cc::E, special);
        self.a.cqo();
        self.a.idiv_r(RCX);
        if rem {
            self.a.mov_rr(RAX, RDX);
        }
        self.a.jmp(done);
        self.a.bind(special);
        // x / -1 wraps to -x; x % -1 is 0 (avoids the idiv #DE on
        // MIN / -1, matching wrapping_div/wrapping_rem).
        if rem {
            self.a.xor_rr(RAX, RAX);
        } else {
            self.a.neg_r(RAX);
        }
        self.a.bind(done);
    }

    fn float_binop(
        &mut self,
        id: InstId,
        op: BinOp,
        st: ScalarType,
        lhs: InstId,
        rhs: InstId,
    ) -> Result<How, String> {
        let f32 = st == ScalarType::F32;
        if let Some(opc) = sse_arith(op) {
            let xa = self.use_xmm(lhs);
            let xb = self.use_xmm(rhs);
            let xd = xmm(self.def_reuse(id, lhs));
            if xd != xa {
                self.a.movaps_rr(xd, xa);
            }
            self.a
                .sse_rr(if f32 { &[0xF3] } else { &[0xF2] }, opc, xd, xb);
            return Ok(How::Named("reg"));
        }
        let Some(addr) = helper(op, f32) else {
            return self.via_slots(id);
        };
        let xa = self.use_xmm(lhs);
        let xb = self.use_xmm(rhs);
        self.a.movaps_rr(XMM0, xa);
        self.a.movaps_rr(XMM1, xb);
        self.spill_for_call();
        self.a.mov_ri(RAX, addr);
        self.a.call_r(RAX);
        let xd = self.def_xmm(id);
        self.a.movaps_rr(xd, XMM0);
        Ok(How::Named("helper call"))
    }

    fn packed_binop(&mut self, id: InstId, op: BinOp, vt: VectorType, lhs: InstId, rhs: InstId) {
        let (prefix, opc) = packed_op(op, vt.elem).expect("caller checked the packed form");
        let xa = self.use_xmm(lhs);
        let xb = self.use_xmm(rhs);
        let xd = xmm(self.def_reuse(id, lhs));
        if xd != xa {
            self.a.movaps_rr(xd, xa);
        }
        self.a.sse_rr(prefix, opc, xd, xb);
    }

    /// `f64x2` with a different SSE op per lane: both packed results,
    /// then lane 0 from the first.
    fn mixed_f64x2(&mut self, id: InstId, op0: BinOp, op1: BinOp, lhs: InstId, rhs: InstId) {
        let xa = self.use_xmm(lhs);
        let xb = self.use_xmm(rhs);
        let xd = self.def_xmm(id);
        self.a.movaps_rr(xd, xa);
        self.a.sse_rr(&[0x66], sse_arith(op1).unwrap(), xd, xb);
        self.a.movaps_rr(XMM0, xa);
        self.a.sse_rr(&[0x66], sse_arith(op0).unwrap(), XMM0, xb);
        self.a.movsd_rr(xd, XMM0);
    }

    /// Register form of a scalar unary op; `None` sends it down the slot
    /// path (which reports the unsupported combinations).
    fn scalar_unop(&mut self, id: InstId, op: UnOp, st: ScalarType, src: InstId) -> Option<How> {
        let valid = if st.is_float() {
            op != UnOp::Not
        } else {
            op != UnOp::Sqrt
        };
        if !valid {
            return None;
        }
        if st.is_float() {
            let xs = self.use_xmm(src);
            let xd = self.def_xmm(id);
            self.float_unop(op, st, xd, xs);
        } else {
            let rs = self.use_gpr(src);
            let rd = gpr(self.def_reuse(id, src));
            if rd != rs {
                self.a.mov_rr(rd, rs);
            }
            self.int_unop(op, rd);
            if st == ScalarType::I32 {
                self.a.movsxd_rr(rd, rd);
            }
        }
        Some(How::Named("reg"))
    }

    /// `xd = op xs` for float neg/abs (a sign mask through `xmm1`) and
    /// sqrt.
    fn float_unop(&mut self, op: UnOp, st: ScalarType, xd: Xmm, xs: Xmm) {
        let f32 = st == ScalarType::F32;
        let (mask, opc) = match op {
            UnOp::Sqrt => {
                self.a
                    .sse_rr(if f32 { &[0xF3] } else { &[0xF2] }, 0x51, xd, xs);
                return;
            }
            UnOp::Neg if f32 => (0x8000_0000u64, 0x57),
            UnOp::Neg => (0x8000_0000_0000_0000u64, 0x57),
            _ if f32 => (0x7FFF_FFFFu64, 0x54),
            _ => (0x7FFF_FFFF_FFFF_FFFFu64, 0x54),
        };
        self.a.mov_ri(RAX, mask);
        if f32 {
            self.a.movd_xr(XMM1, RAX);
        } else {
            self.a.movq_xr(XMM1, RAX);
        }
        if xd != xs {
            self.a.movaps_rr(xd, xs);
        }
        self.a
            .sse_rr(if f32 { &[] } else { &[0x66] }, opc, xd, XMM1);
    }

    /// `rd = op rd` for integer neg/not/abs (`rcx` as the abs temp).
    fn int_unop(&mut self, op: UnOp, rd: Gpr) {
        match op {
            UnOp::Neg => self.a.neg_r(rd),
            UnOp::Not => self.a.not_r(rd),
            _ => {
                self.a.mov_rr(RCX, rd);
                self.a.neg_r(RCX);
                self.a.test_rr(rd, rd);
                self.a.cmov(Cc::S, rd, RCX);
            }
        }
    }

    fn scalar_cast(&mut self, id: InstId, kind: CastKind, to: ScalarType, src: InstId) {
        match kind {
            CastKind::Sitofp => {
                // Through f64 in both cases, mirroring the interpreter's
                // `f64::from(i32)` / `i64 as f64` then optional narrow.
                let rs = self.use_gpr(src);
                let xd = self.def_xmm(id);
                self.a.cvtsi2sd(xd, rs);
                if to == ScalarType::F32 {
                    self.a.cvtsd2ss(xd, xd);
                }
            }
            CastKind::Fpext | CastKind::Fptrunc => {
                let xs = self.use_xmm(src);
                let xd = self.def_xmm(id);
                if kind == CastKind::Fpext {
                    self.a.cvtss2sd(xd, xs);
                } else {
                    self.a.cvtsd2ss(xd, xs);
                }
            }
            CastKind::Sext | CastKind::Trunc => {
                // A cached `i32` is already sign-extended; truncating
                // re-canonicalizes the low half.
                let rs = self.use_gpr(src);
                let rd = self.def_gpr(id);
                if kind == CastKind::Sext {
                    self.a.mov_rr(rd, rs);
                } else {
                    self.a.movsxd_rr(rd, rs);
                }
            }
            CastKind::Fptosi => unreachable!("fptosi takes the slot path"),
        }
    }

    /// Scalar compare producing 0/1 in a GPR.
    fn scalar_cmp(&mut self, id: InstId, pred: CmpPred, ty: Type, lhs: InstId, rhs: InstId) {
        match ty {
            Type::Scalar(st) if st.is_float() => {
                let xa = self.use_xmm(lhs);
                let xb = self.use_xmm(rhs);
                let rd = self.def_gpr(id);
                self.float_compare(pred, st, xa, xb, rd);
            }
            _ => {
                let ra = self.use_gpr(lhs);
                let rb = self.use_gpr(rhs);
                let rd = self.def_gpr(id);
                self.int_compare(pred, ty != Type::Ptr, ra, rb, rd);
            }
        }
    }

    /// `rd = ra pred rb` as 0/1, signed for integers, unsigned for
    /// pointers.
    fn int_compare(&mut self, pred: CmpPred, signed: bool, ra: Gpr, rb: Gpr, rd: Gpr) {
        self.a.cmp_rr(ra, rb);
        let cc = match pred {
            CmpPred::Eq => Cc::E,
            CmpPred::Ne => Cc::Ne,
            CmpPred::Lt if signed => Cc::L,
            CmpPred::Le if signed => Cc::Le,
            CmpPred::Gt if signed => Cc::G,
            CmpPred::Ge if signed => Cc::Ge,
            CmpPred::Lt => Cc::B,
            CmpPred::Le => Cc::Be,
            CmpPred::Gt => Cc::A,
            CmpPred::Ge => Cc::Ae,
        };
        self.a.setcc(cc, RAX);
        self.a.movzx_rb(rd, RAX);
    }

    /// `rd = xa pred xb` as 0/1 via `ucomi` and unsigned conditions;
    /// unordered (NaN) yields false for everything except `ne`.
    fn float_compare(&mut self, pred: CmpPred, st: ScalarType, xa: Xmm, xb: Xmm, rd: Gpr) {
        let ucomi = |lw: &mut Self, x: Xmm, y: Xmm| match st {
            ScalarType::F32 => lw.a.ucomiss(x, y),
            _ => lw.a.ucomisd(x, y),
        };
        let (x, y, cc) = match pred {
            CmpPred::Eq | CmpPred::Ne => {
                ucomi(self, xa, xb);
                let (cc, parity) = if pred == CmpPred::Eq {
                    (Cc::E, Cc::Np)
                } else {
                    (Cc::Ne, Cc::P)
                };
                self.a.setcc(cc, RAX);
                self.a.setcc(parity, RCX);
                self.a.movzx_rb(rd, RAX);
                self.a.movzx_rb(RCX, RCX);
                if pred == CmpPred::Eq {
                    self.a.and_rr(rd, RCX);
                } else {
                    self.a.or_rr(rd, RCX);
                }
                return;
            }
            CmpPred::Lt => (xb, xa, Cc::A),
            CmpPred::Le => (xb, xa, Cc::Ae),
            CmpPred::Gt => (xa, xb, Cc::A),
            CmpPred::Ge => (xa, xb, Cc::Ae),
        };
        ucomi(self, x, y);
        self.a.setcc(cc, RAX);
        self.a.movzx_rb(rd, RAX);
    }

    fn select(&mut self, id: InstId, cond: InstId, on_true: InstId, on_false: InstId) -> How {
        let rc = self.use_gpr(cond);
        if class_of(self.f.ty(id)) == Class::Gpr {
            let rt = self.use_gpr(on_true);
            let re = self.use_gpr(on_false);
            let rd = self.def_gpr(id);
            self.a.mov_rr(rd, rt);
            self.a.test_rr(rc, rc);
            self.a.cmov(Cc::E, rd, re);
            How::Named("cmov")
        } else {
            let xt = self.use_xmm(on_true);
            let xe = self.use_xmm(on_false);
            let xd = self.def_xmm(id);
            let done = self.a.new_label();
            self.a.movaps_rr(xd, xt);
            self.a.test_rr(rc, rc);
            self.a.jcc(Cc::Ne, done);
            self.a.movaps_rr(xd, xe);
            self.a.bind(done);
            How::Named("branchy")
        }
    }

    /// Packed conversions with the interpreter's per-lane rounding:
    /// `i32` lanes convert exactly to `f64`, so rounding once to `f32`
    /// equals the interpreter's `f64`-then-narrow. `false` (nothing
    /// emitted) for the conversions without a packed SSE2 form.
    fn vector_cast(
        &mut self,
        id: InstId,
        kind: CastKind,
        from: VectorType,
        to: VectorType,
        src: InstId,
    ) -> bool {
        let (prefix, opc): (&[u8], u8) = match (kind, from.elem, to.elem) {
            (CastKind::Sitofp, ScalarType::I32, ScalarType::F32) => (&[], 0x5B),
            (CastKind::Sitofp, ScalarType::I32, ScalarType::F64) => (&[0xF3], 0xE6),
            (CastKind::Fpext, ScalarType::F32, ScalarType::F64) => (&[], 0x5A),
            (CastKind::Fptrunc, ScalarType::F64, ScalarType::F32) => (&[0x66], 0x5A),
            _ => return false,
        };
        if class_of(Type::Vector(from)) != Class::Xmm {
            return false;
        }
        let xs = self.use_xmm(src);
        let xd = self.def_xmm(id);
        self.a.sse_rr(prefix, opc, xd, xs);
        true
    }

    /// Lane-wise float compare into 0/1 `i32` lanes: `cmpps`/`cmppd`
    /// (ordered predicates are false on NaN, `ne` is true), 64-bit lane
    /// masks narrowed to 32 bits, then each lane shifted down to bit 0.
    fn vector_cmp(&mut self, id: InstId, pred: CmpPred, vt: VectorType, lhs: InstId, rhs: InstId) {
        let (imm, swap) = match pred {
            CmpPred::Eq => (0, false),
            CmpPred::Ne => (4, false),
            CmpPred::Lt => (1, false),
            CmpPred::Le => (2, false),
            CmpPred::Gt => (1, true),
            CmpPred::Ge => (2, true),
        };
        let xa = self.use_xmm(lhs);
        let xb = self.use_xmm(rhs);
        let xd = self.def_xmm(id);
        let (x, y) = if swap { (xb, xa) } else { (xa, xb) };
        let f64 = vt.elem == ScalarType::F64;
        self.a.movaps_rr(xd, x);
        self.a.cmpp(if f64 { &[0x66] } else { &[] }, xd, y, imm);
        if f64 {
            self.a.pshufd(xd, xd, 0x08);
        }
        self.a.psrld(xd, 31);
    }

    /// Lane-wise select on an `i32` mask: `m == 0` lanes (widened for
    /// 8-byte lanes) pick `on_false`, the others `on_true`.
    fn mask_select(&mut self, id: InstId, cond: InstId, on_true: InstId, on_false: InstId) {
        let xm = self.use_xmm(cond);
        let xt = self.use_xmm(on_true);
        let xe = self.use_xmm(on_false);
        let xd = self.def_xmm(id);
        self.a.sse_rr(&[0x66], 0xEF, XMM1, XMM1); // pxor
        self.a.movaps_rr(XMM0, xm);
        self.a.sse_rr(&[0x66], 0x76, XMM0, XMM1); // pcmpeqd
        if self.f.ty(id).elem_scalar().map(ScalarType::size_bytes) == Some(8) {
            self.a.pshufd(XMM0, XMM0, 0x50);
        }
        self.a.movaps_rr(xd, XMM0);
        self.a.sse_rr(&[], 0x55, xd, xt); // andnps
        self.a.sse_rr(&[], 0x54, XMM0, xe); // andps
        self.a.sse_rr(&[], 0x56, xd, XMM0); // orps
    }

    /// Scalar operand as the low lane of an XMM register: its cache
    /// register for floats, `scratch` after a `movd`/`movq` for integers.
    fn lane_source(&mut self, v: InstId, scratch: Xmm) -> Xmm {
        match self.f.ty(v) {
            Type::Scalar(ScalarType::I32) => {
                let r = self.use_gpr(v);
                self.a.movd_xr(scratch, r);
                scratch
            }
            Type::Scalar(ScalarType::I64) => {
                let r = self.use_gpr(v);
                self.a.movq_xr(scratch, r);
                scratch
            }
            _ => self.use_xmm(v),
        }
    }

    fn splat(&mut self, id: InstId, st: ScalarType, value: InstId) {
        let xs = self.lane_source(value, XMM0);
        let xd = self.def_xmm(id);
        if st.size_bytes() == 8 {
            self.a.movaps_rr(xd, xs);
            self.a.unpcklpd(xd, xd);
        } else {
            self.a.pshufd(xd, xs, 0x00);
        }
    }

    /// Register gather for 2 lanes of 8 bytes or 2/4 lanes of 4 bytes;
    /// `false` leaves nothing emitted and the caller takes the slot path.
    fn build_vector(&mut self, id: InstId, vt: VectorType, elems: &[InstId]) -> bool {
        let esz = vt.elem.size_bytes();
        if !matches!((esz, elems.len()), (8, 2) | (4, 2) | (4, 4)) {
            return false;
        }
        // Integer lanes are staged through scratch registers (the last
        // one in the result itself); float lanes come straight from the
        // cache. The result is allocated first: a later eviction may
        // use `xmm7`, never after a lane was staged there.
        let xd = self.def_xmm(id);
        let staging = [XMM0, XMM1, XMM7, xd];
        let mut lanes = [(XMM0, 0u8); 4];
        for (i, &e) in elems.iter().enumerate() {
            let s = if vt.elem.is_float() {
                self.use_xmm(e)
            } else {
                self.lane_source(e, staging[i])
            };
            lanes[i] = (s, 0);
        }
        self.gather(xd, esz, &lanes[..elems.len()]);
        true
    }

    fn extract(&mut self, id: InstId, vt: VectorType, vector: InstId, lane: u8) {
        let xv = self.use_xmm(vector);
        let k = lane;
        match vt.elem {
            ScalarType::F64 => {
                let xd = self.def_xmm(id);
                if k == 0 {
                    self.a.movaps_rr(xd, xv);
                } else {
                    self.a.movhlps(xd, xv);
                }
            }
            ScalarType::F32 => {
                let xd = self.def_xmm(id);
                self.a.pshufd(xd, xv, k);
            }
            ScalarType::I64 => {
                let rd = self.def_gpr(id);
                if k == 0 {
                    self.a.movq_rx(rd, xv);
                } else {
                    self.a.pshufd(XMM0, xv, 0xEE);
                    self.a.movq_rx(rd, XMM0);
                }
            }
            ScalarType::I32 => {
                let rd = self.def_gpr(id);
                if k == 0 {
                    self.a.movd_rx(rd, xv);
                } else {
                    self.a.pshufd(XMM0, xv, k);
                    self.a.movd_rx(rd, XMM0);
                }
                self.a.movsxd_rr(rd, rd);
            }
        }
    }

    fn insert(
        &mut self,
        id: InstId,
        vt: VectorType,
        vector: InstId,
        value: InstId,
        lane: u8,
    ) -> bool {
        let esz = vt.elem.size_bytes();
        if !matches!((esz, vt.lanes), (8, 2) | (4, 2) | (4, 4)) {
            return false;
        }
        let xv = self.use_xmm(vector);
        let xd = self.def_xmm(id);
        let xs = self.lane_source(value, XMM7);
        let mut lanes = [(xv, 0u8), (xv, 1), (xv, 2), (xv, 3)];
        lanes[lane as usize] = (xs, 0);
        self.gather(xd, esz, &lanes[..vt.lanes as usize]);
        true
    }

    fn shuffle(&mut self, id: InstId, a: InstId, b: InstId, mask: &[u8]) -> bool {
        let (Some(va), Some(vb)) = (self.f.ty(a).as_vector(), self.f.ty(b).as_vector()) else {
            return false;
        };
        let esz = va.elem.size_bytes();
        let in_range = mask.iter().all(|&m| m < va.lanes + vb.lanes);
        if !in_range || !matches!((esz, mask.len()), (8, 2) | (4, 2) | (4, 4)) {
            return false;
        }
        let xa = self.use_xmm(a);
        let xb = self.use_xmm(b);
        let xd = self.def_xmm(id);
        let mut lanes = [(xa, 0u8); 4];
        for (i, &m) in mask.iter().enumerate() {
            lanes[i] = if m < va.lanes {
                (xa, m)
            } else {
                (xb, m - va.lanes)
            };
        }
        self.gather(xd, esz, &lanes[..mask.len()]);
        true
    }

    /// Assembles `xd` lane by lane from `(register, lane)` sources: two
    /// 8-byte lanes, or two or four 4-byte lanes, through `xmm0`/`xmm1`.
    /// Lane `i` may come from `xmm{i}` for `i < 2`, and lane 3 from `xd`.
    fn gather(&mut self, xd: Xmm, esz: u32, lanes: &[(Xmm, u8)]) {
        if esz == 8 {
            let ((s0, k0), (s1, k1)) = (lanes[0], lanes[1]);
            self.a.pshufd(XMM0, s0, if k0 == 0 { 0x44 } else { 0xEE });
            self.a.shufpd(XMM0, s1, k1 << 1);
            self.a.movaps_rr(xd, XMM0);
            return;
        }
        let (s0, k0) = lanes[0];
        let (s1, k1) = lanes[1];
        self.a.pshufd(XMM0, s0, k0);
        self.a.pshufd(XMM1, s1, k1);
        self.a.unpcklps(XMM0, XMM1);
        if let [_, _, (s2, k2), (s3, k3)] = *lanes {
            self.a.pshufd(XMM1, s2, k2);
            self.a.pshufd(xd, s3, k3);
            self.a.unpcklps(XMM1, xd);
            self.a.movlhps(XMM0, XMM1);
        }
        self.a.movaps_rr(xd, XMM0);
    }

    /// Copies `bytes` from `[src + sd]` to `[dst + dd]`: 16-byte chunks
    /// through `xmm7`, then 8- and 4-byte tails through `rcx`.
    /// Full-width vector copies matter: a 16-byte load spanning two
    /// narrower stores defeats store-to-load forwarding, so vector slots
    /// are always written in one piece.
    fn copy(&mut self, src: Gpr, sd: i32, dst: Gpr, dd: i32, bytes: usize) {
        let mut off = 0i32;
        let mut rem = bytes;
        while rem >= 16 {
            self.a.movups_load(XMM7, src, sd + off);
            self.a.movups_store(dst, dd + off, XMM7);
            off += 16;
            rem -= 16;
        }
        while rem >= 8 {
            self.a.mov_load(RCX, src, sd + off);
            self.a.mov_store(dst, dd + off, RCX);
            off += 8;
            rem -= 8;
        }
        if rem >= 4 {
            self.a.mov32_load(RCX, src, sd + off);
            self.a.mov32_store(dst, dd + off, RCX);
        }
    }

    /// Frame-to-frame [`Self::copy`].
    fn copy_frame(&mut self, src: i32, dst: i32, bytes: usize) {
        self.copy(RSP, src, RSP, dst, bytes);
    }

    /// Gathers scalar lanes from arbitrary frame offsets `srcs` (each
    /// `esz` bytes) into a contiguous vector at `dst`, assembling whole
    /// 16-byte chunks inside xmm registers whenever the lane count
    /// allows, so the destination slot is never a patchwork of narrow
    /// stores (which would stall later packed reads).
    fn gather_lanes(&mut self, srcs: &[i32], esz: i32, dst: i32) -> How {
        let lanes = srcs.len();
        if esz == 8 && lanes.is_multiple_of(2) {
            for (c, pair) in srcs.chunks_exact(2).enumerate() {
                self.a.movsd_load(XMM7, RSP, pair[0]);
                self.a.movhpd_load(XMM7, RSP, pair[1]);
                self.a.movups_store(RSP, dst + c as i32 * 16, XMM7);
            }
            How::Named("xmm gather")
        } else if esz == 4 && lanes.is_multiple_of(4) {
            for (c, quad) in srcs.chunks_exact(4).enumerate() {
                self.a.movss_load(XMM0, RSP, quad[0]);
                self.a.movss_load(XMM1, RSP, quad[1]);
                self.a.unpcklps(XMM0, XMM1);
                self.a.movss_load(XMM1, RSP, quad[2]);
                self.a.movss_load(XMM7, RSP, quad[3]);
                self.a.unpcklps(XMM1, XMM7);
                self.a.movlhps(XMM0, XMM1);
                self.a.movups_store(RSP, dst + c as i32 * 16, XMM0);
            }
            How::Named("xmm gather")
        } else {
            for (j, &src) in srcs.iter().enumerate() {
                self.copy_frame(src, dst + j as i32 * esz, esz as usize);
            }
            How::Named("lane moves")
        }
    }

    fn slot_int_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        self.load_gpr(RAX, Type::Scalar(st), RSP, ad);
        self.load_gpr(RCX, Type::Scalar(st), RSP, bd);
        match op {
            BinOp::Div | BinOp::Rem => self.div_rem(op == BinOp::Rem),
            _ => self.int_alu(op, RAX, RCX),
        }
        self.store_gpr(RAX, Type::Scalar(st), RSP, dst);
        Ok(())
    }

    fn slot_float_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        let f32 = st == ScalarType::F32;
        if let Some(opc) = sse_arith(op) {
            self.load_xmm(XMM0, Type::Scalar(st), RSP, ad);
            self.a
                .sse_rm(if f32 { &[0xF3] } else { &[0xF2] }, opc, XMM0, RSP, bd);
            self.store_xmm(XMM0, Type::Scalar(st), RSP, dst);
            return Ok(());
        }
        let addr =
            helper(op, f32).ok_or_else(|| format!("float operands for integer-only op {op}"))?;
        self.load_xmm(XMM0, Type::Scalar(st), RSP, ad);
        self.load_xmm(XMM1, Type::Scalar(st), RSP, bd);
        self.a.mov_ri(RAX, addr);
        self.a.call_r(RAX);
        self.store_xmm(XMM0, Type::Scalar(st), RSP, dst);
        Ok(())
    }

    fn slot_scalar_binop(
        &mut self,
        op: BinOp,
        st: ScalarType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        if st.is_float() {
            self.slot_float_binop(op, st, ad, bd, dst)
        } else {
            self.slot_int_binop(op, st, ad, bd, dst)
        }
    }

    /// Scalar compare producing a 4-byte 0/1 at `dst`.
    fn slot_scalar_cmp(
        &mut self,
        pred: CmpPred,
        ty: Type,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<(), String> {
        match ty {
            Type::Scalar(st) if st.is_float() => {
                self.load_xmm(XMM0, Type::Scalar(st), RSP, ad);
                self.load_xmm(XMM1, Type::Scalar(st), RSP, bd);
                self.float_compare(pred, st, XMM0, XMM1, RAX);
            }
            Type::Scalar(st) => {
                self.load_gpr(RAX, Type::Scalar(st), RSP, ad);
                self.load_gpr(RCX, Type::Scalar(st), RSP, bd);
                self.int_compare(pred, true, RAX, RCX, RAX);
            }
            ty => return Err(format!("cmp on operands of type {ty}")),
        }
        self.a.mov32_store(RSP, dst, RAX);
        Ok(())
    }

    fn slot_scalar_unop(
        &mut self,
        op: UnOp,
        st: ScalarType,
        src: i32,
        dst: i32,
    ) -> Result<(), String> {
        match (st.is_float(), op) {
            (true, UnOp::Not) => return Err("not on float".into()),
            (false, UnOp::Sqrt) => return Err("sqrt on integer".into()),
            (true, _) => {
                self.load_xmm(XMM0, Type::Scalar(st), RSP, src);
                self.float_unop(op, st, XMM0, XMM0);
                self.store_xmm(XMM0, Type::Scalar(st), RSP, dst);
            }
            (false, _) => {
                self.load_gpr(RAX, Type::Scalar(st), RSP, src);
                self.int_unop(op, RAX);
                self.store_gpr(RAX, Type::Scalar(st), RSP, dst);
            }
        }
        Ok(())
    }

    fn slot_scalar_cast(
        &mut self,
        kind: CastKind,
        from: ScalarType,
        to: ScalarType,
        src: i32,
        dst: i32,
    ) -> Result<(), String> {
        match kind {
            CastKind::Sitofp => {
                // Through f64 in both cases, mirroring the interpreter's
                // `f64::from(i32)` / `i64 as f64` then optional narrow.
                self.load_gpr(RAX, Type::Scalar(from), RSP, src);
                self.a.cvtsi2sd(XMM0, RAX);
                if to == ScalarType::F32 {
                    self.a.cvtsd2ss(XMM0, XMM0);
                }
                self.store_xmm(XMM0, Type::Scalar(to), RSP, dst);
            }
            CastKind::Fpext => {
                self.a.movss_load(XMM0, RSP, src);
                self.a.cvtss2sd(XMM0, XMM0);
                self.a.movsd_store(RSP, dst, XMM0);
            }
            CastKind::Fptrunc => {
                self.a.movsd_load(XMM0, RSP, src);
                self.a.cvtsd2ss(XMM0, XMM0);
                self.a.movss_store(RSP, dst, XMM0);
            }
            CastKind::Sext => {
                self.a.movsxd_load(RAX, RSP, src);
                self.a.mov_store(RSP, dst, RAX);
            }
            CastKind::Trunc => {
                self.a.mov32_load(RAX, RSP, src);
                self.a.mov32_store(RSP, dst, RAX);
            }
            CastKind::Fptosi => {
                return Err("fptosi saturates per Rust `as`; interpreter only".into());
            }
        }
        Ok(())
    }

    /// Phi parallel-copy for the edge `from -> to`.
    fn edge_moves(&mut self, from: BlockId, to: BlockId) -> Result<usize, String> {
        let f = self.f;
        let mut moves: Vec<(InstId, InstId)> = Vec::new();
        for &id in f.block(to).insts() {
            match f.kind(id) {
                InstKind::Phi { incoming } => {
                    let (_, src) = incoming
                        .iter()
                        .find(|(b, _)| *b == from)
                        .ok_or_else(|| format!("phi {id} has no edge from {from}"))?;
                    moves.push((id, *src));
                }
                _ => break,
            }
        }
        for &(phi, src) in &moves {
            let bytes = f.ty(phi).size_bytes() as usize;
            let (s, d) = (self.slot(src), self.staging_slot(phi));
            self.copy_frame(s, d, bytes);
        }
        for &(phi, _) in &moves {
            let bytes = f.ty(phi).size_bytes() as usize;
            let (s, d) = (self.staging_slot(phi), self.slot(phi));
            self.copy_frame(s, d, bytes);
        }
        Ok(moves.len())
    }

    /// The slot form of the value-producing instructions: operands are
    /// read from, and the result written to, frame slots.
    fn slot_inst(&mut self, id: InstId) -> Result<How, String> {
        let f = self.f;
        let kind = f.kind(id);
        let dst = self.slot(id);
        let how = match kind {
            InstKind::Binary { op, lhs, rhs } => {
                let (ad, bd) = (self.slot(*lhs), self.slot(*rhs));
                match f.ty(id) {
                    Type::Scalar(st) => {
                        self.slot_scalar_binop(*op, st, ad, bd, dst)?;
                        How::Named("scalar")
                    }
                    Type::Vector(vt) => {
                        self.slot_vector_binop_uniform(*op, vt, ad, bd, dst, false)?
                    }
                    ty => return Err(format!("binary op on {ty}")),
                }
            }
            InstKind::BinaryLanewise { ops, lhs, rhs } => {
                let vt = f
                    .ty(id)
                    .as_vector()
                    .ok_or_else(|| "lanewise op on non-vector".to_string())?;
                let (ad, bd) = (self.slot(*lhs), self.slot(*rhs));
                self.slot_vector_binop_lanewise(ops, vt, ad, bd, dst)?
            }
            InstKind::Unary { op, operand } => {
                let src = self.slot(*operand);
                match f.ty(id) {
                    Type::Scalar(st) => {
                        self.slot_scalar_unop(*op, st, src, dst)?;
                        How::Named("scalar")
                    }
                    Type::Vector(vt) => {
                        let esz = vt.elem.size_bytes() as i32;
                        for i in 0..i32::from(vt.lanes) {
                            self.slot_scalar_unop(*op, vt.elem, src + i * esz, dst + i * esz)?;
                        }
                        How::Named("per-lane")
                    }
                    ty => return Err(format!("unary op on {ty}")),
                }
            }
            InstKind::Cast { kind, operand } => {
                let src = self.slot(*operand);
                let from_ty = f.ty(*operand);
                let to_ty = f.ty(id);
                match (from_ty, to_ty) {
                    (Type::Scalar(fs), Type::Scalar(ts)) => {
                        self.slot_scalar_cast(*kind, fs, ts, src, dst)?;
                        How::Named("scalar")
                    }
                    (Type::Vector(fv), Type::Vector(tv)) => {
                        let (fe, te) = (fv.elem.size_bytes() as i32, tv.elem.size_bytes() as i32);
                        for i in 0..i32::from(fv.lanes) {
                            self.slot_scalar_cast(
                                *kind,
                                fv.elem,
                                tv.elem,
                                src + i * fe,
                                dst + i * te,
                            )?;
                        }
                        How::Named("per-lane")
                    }
                    _ => return Err(format!("cast {kind} between {from_ty} and {to_ty}")),
                }
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let (ad, bd) = (self.slot(*lhs), self.slot(*rhs));
                let in_ty = f.ty(*lhs);
                match in_ty {
                    Type::Vector(vt) => {
                        let esz = vt.elem.size_bytes() as i32;
                        for i in 0..i32::from(vt.lanes) {
                            self.slot_scalar_cmp(
                                *pred,
                                Type::Scalar(vt.elem),
                                ad + i * esz,
                                bd + i * esz,
                                dst + i * 4,
                            )?;
                        }
                        How::Named("per-lane")
                    }
                    _ => {
                        self.slot_scalar_cmp(*pred, in_ty, ad, bd, dst)?;
                        How::Named("scalar")
                    }
                }
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let bytes = f.ty(id).size_bytes() as usize;
                let (td, ed) = (self.slot(*on_true), self.slot(*on_false));
                match f.ty(*cond) {
                    Type::Vector(mv) => {
                        let vt = f
                            .ty(id)
                            .as_vector()
                            .ok_or_else(|| "vector-mask select of scalar".to_string())?;
                        let (msz, esz) = (mv.elem.size_bytes() as i32, vt.elem.size_bytes() as i32);
                        let md = self.slot(*cond);
                        for i in 0..i32::from(vt.lanes) {
                            match mv.elem {
                                ScalarType::I32 => self.a.mov32_load(RCX, RSP, md + i * msz),
                                ScalarType::I64 => self.a.mov_load(RCX, RSP, md + i * msz),
                                st => return Err(format!("select mask of {st} lanes")),
                            }
                            self.a.test_rr(RCX, RCX);
                            let l_else = self.a.new_label();
                            let l_end = self.a.new_label();
                            self.a.jcc(Cc::E, l_else);
                            self.copy_frame(td + i * esz, dst + i * esz, esz as usize);
                            self.a.jmp(l_end);
                            self.a.bind(l_else);
                            self.copy_frame(ed + i * esz, dst + i * esz, esz as usize);
                            self.a.bind(l_end);
                        }
                        How::Named("per-lane mask")
                    }
                    Type::Scalar(ScalarType::I32) | Type::Scalar(ScalarType::I64) => {
                        match f.ty(*cond) {
                            Type::Scalar(ScalarType::I32) => {
                                self.a.mov32_load(RCX, RSP, self.slot(*cond))
                            }
                            _ => self.a.mov_load(RCX, RSP, self.slot(*cond)),
                        }
                        self.a.test_rr(RCX, RCX);
                        let l_else = self.a.new_label();
                        let l_end = self.a.new_label();
                        self.a.jcc(Cc::E, l_else);
                        self.copy_frame(td, dst, bytes);
                        self.a.jmp(l_end);
                        self.a.bind(l_else);
                        self.copy_frame(ed, dst, bytes);
                        self.a.bind(l_end);
                        How::Named("branchy")
                    }
                    ty => return Err(format!("select condition of type {ty}")),
                }
            }
            InstKind::Splat { value, lanes } => {
                let st = f
                    .ty(*value)
                    .as_scalar()
                    .ok_or_else(|| "splat of non-scalar".to_string())?;
                let esz = st.size_bytes() as i32;
                let total = i32::from(*lanes) * esz;
                let src = self.slot(*value);
                if total % 16 == 0 {
                    // Duplicate inside xmm7 and write whole 16-byte
                    // chunks: downstream packed reads must not find
                    // the slot assembled from narrow stores.
                    if esz == 4 {
                        self.a.movss_load(XMM7, RSP, src);
                        self.a.pshufd(XMM7, XMM7, 0x00);
                    } else {
                        self.a.movsd_load(XMM7, RSP, src);
                        self.a.unpcklpd(XMM7, XMM7);
                    }
                    let mut off = 0i32;
                    while off < total {
                        self.a.movups_store(RSP, dst + off, XMM7);
                        off += 16;
                    }
                    How::Named("broadcast packed")
                } else {
                    if esz == 4 {
                        self.a.mov32_load(RAX, RSP, src);
                    } else {
                        self.a.mov_load(RAX, RSP, src);
                    }
                    for i in 0..i32::from(*lanes) {
                        if esz == 4 {
                            self.a.mov32_store(RSP, dst + i * esz, RAX);
                        } else {
                            self.a.mov_store(RSP, dst + i * esz, RAX);
                        }
                    }
                    How::Named("broadcast")
                }
            }
            InstKind::BuildVector { elems } => {
                let mut esz = 0i32;
                for e in elems {
                    let st = f
                        .ty(*e)
                        .as_scalar()
                        .ok_or_else(|| "build-vector of non-scalar".to_string())?;
                    esz = st.size_bytes() as i32;
                }
                let srcs: Vec<i32> = elems.iter().map(|e| self.slot(*e)).collect();
                self.gather_lanes(&srcs, esz, dst)
            }
            InstKind::ExtractElement { vector, lane } => {
                let vt = f
                    .ty(*vector)
                    .as_vector()
                    .ok_or_else(|| "extract from non-vector".to_string())?;
                if *lane >= vt.lanes {
                    return Err("extract lane out of range".into());
                }
                let esz = vt.elem.size_bytes() as i32;
                self.copy_frame(
                    self.slot(*vector) + i32::from(*lane) * esz,
                    dst,
                    esz as usize,
                );
                How::Named("slot copy")
            }
            InstKind::InsertElement {
                vector,
                value,
                lane,
            } => {
                let vt = f
                    .ty(*vector)
                    .as_vector()
                    .ok_or_else(|| "insert into non-vector".to_string())?;
                if *lane >= vt.lanes {
                    return Err("insert lane out of range".into());
                }
                let esz = vt.elem.size_bytes() as i32;
                if esz == 8 && vt.lanes == 2 {
                    // Patch inside xmm7 and store once, keeping the
                    // destination a single 16-byte write.
                    self.a.movups_load(XMM7, RSP, self.slot(*vector));
                    if *lane == 0 {
                        self.a.movlpd_load(XMM7, RSP, self.slot(*value));
                    } else {
                        self.a.movhpd_load(XMM7, RSP, self.slot(*value));
                    }
                    self.a.movups_store(RSP, dst, XMM7);
                    How::Named("xmm patch")
                } else {
                    self.copy_frame(self.slot(*vector), dst, vt.size_bytes() as usize);
                    self.copy_frame(
                        self.slot(*value),
                        dst + i32::from(*lane) * esz,
                        esz as usize,
                    );
                    How::Named("copy+patch")
                }
            }
            InstKind::Shuffle { a, b, mask } => {
                let va = f
                    .ty(*a)
                    .as_vector()
                    .ok_or_else(|| "shuffle of non-vector".to_string())?;
                let vb = f
                    .ty(*b)
                    .as_vector()
                    .ok_or_else(|| "shuffle of non-vector".to_string())?;
                let esz = va.elem.size_bytes() as i32;
                let n = i32::from(va.lanes);
                let mut srcs = Vec::with_capacity(mask.len());
                for &m in mask {
                    let m = i32::from(m);
                    srcs.push(if m < n {
                        self.slot(*a) + m * esz
                    } else if m - n < i32::from(vb.lanes) {
                        self.slot(*b) + (m - n) * esz
                    } else {
                        return Err("shuffle index out of range".into());
                    });
                }
                self.gather_lanes(&srcs, esz, dst)
            }
            InstKind::Param(_)
            | InstKind::Phi { .. }
            | InstKind::Const(_)
            | InstKind::Load { .. }
            | InstKind::Store { .. }
            | InstKind::PtrAdd { .. }
            | InstKind::Jump { .. }
            | InstKind::Branch { .. }
            | InstKind::Ret { .. } => unreachable!("lowered in registers"),
        };
        Ok(how)
    }

    /// Per-lane mixed-operator vector op in frame slots. Float
    /// add/sub/mul/div lanes are computed with scalar SSE (bit-identical
    /// to the interpreter's per-lane semantics) but assembled in xmm
    /// registers and written as whole 16-byte chunks, so a downstream
    /// packed consumer never reloads a slot assembled from narrow
    /// stores. Uniform-operator vectors delegate to the packed path;
    /// anything else (integer lanes, min/max/rem lanes, odd widths)
    /// stays per-lane scalar.
    fn slot_vector_binop_lanewise(
        &mut self,
        ops: &[BinOp],
        vt: VectorType,
        ad: i32,
        bd: i32,
        dst: i32,
    ) -> Result<How, String> {
        if let [first, rest @ ..] = ops {
            if rest.iter().all(|o| o == first) {
                return self.slot_vector_binop_uniform(*first, vt, ad, bd, dst, true);
            }
        }
        let esz = vt.elem.size_bytes() as i32;
        let fast = vt.elem.is_float()
            && ops.iter().all(|&o| sse_arith(o).is_some())
            && ((esz == 8 && ops.len().is_multiple_of(2))
                || (esz == 4 && ops.len().is_multiple_of(4)));
        if !fast {
            for (i, &op) in ops.iter().enumerate() {
                let o = i as i32 * esz;
                self.slot_scalar_binop(op, vt.elem, ad + o, bd + o, dst + o)?;
            }
            return Ok(How::Named("per-lane"));
        }
        let prefix: &[u8] = if esz == 8 { &[0xF2] } else { &[0xF3] };
        // One lane into `x`: load lhs, apply the lane's op with the rhs
        // lane as a memory operand.
        let lane = |lw: &mut Self, x: Xmm, op: BinOp, o: i32| {
            if esz == 8 {
                lw.a.movsd_load(x, RSP, ad + o);
            } else {
                lw.a.movss_load(x, RSP, ad + o);
            }
            lw.a.sse_rm(prefix, sse_arith(op).unwrap(), x, RSP, bd + o);
        };
        if esz == 8 {
            for (c, pair) in ops.chunks_exact(2).enumerate() {
                let o = c as i32 * 16;
                lane(self, XMM0, pair[0], o);
                lane(self, XMM1, pair[1], o + 8);
                self.a.unpcklpd(XMM0, XMM1);
                self.a.movups_store(RSP, dst + o, XMM0);
            }
        } else {
            for (c, quad) in ops.chunks_exact(4).enumerate() {
                let o = c as i32 * 16;
                lane(self, XMM0, quad[0], o);
                lane(self, XMM1, quad[1], o + 4);
                self.a.unpcklps(XMM0, XMM1);
                lane(self, XMM1, quad[2], o + 8);
                lane(self, XMM7, quad[3], o + 12);
                self.a.unpcklps(XMM1, XMM7);
                self.a.movlhps(XMM0, XMM1);
                self.a.movups_store(RSP, dst + o, XMM0);
            }
        }
        Ok(How::Named("mixed packed"))
    }

    /// Uniform binary op over a vector in frame slots: packed SSE2 in
    /// 16-byte chunks where [`packed_op`] has a form, per-lane scalar
    /// otherwise.
    fn slot_vector_binop_uniform(
        &mut self,
        op: BinOp,
        vt: VectorType,
        ad: i32,
        bd: i32,
        dst: i32,
        uniform: bool,
    ) -> Result<How, String> {
        let esz = vt.elem.size_bytes() as i32;
        let total = i32::from(vt.lanes) * esz;
        let mut off = 0i32;
        let mut chunks = 0usize;
        if let Some((prefix, opc)) = packed_op(op, vt.elem) {
            while total - off >= 16 {
                self.a.movups_load(XMM0, RSP, ad + off);
                self.a.movups_load(XMM1, RSP, bd + off);
                self.a.sse_rr(prefix, opc, XMM0, XMM1);
                self.a.movups_store(RSP, dst + off, XMM0);
                off += 16;
                chunks += 1;
            }
        }
        let mut tail = 0usize;
        while off < total {
            self.slot_scalar_binop(op, vt.elem, ad + off, bd + off, dst + off)?;
            off += esz;
            tail += 1;
        }
        Ok(How::Packed {
            uniform,
            chunks,
            tail,
        })
    }
}

/// The runtime helper computing float `min`/`max`/`rem` exactly as the
/// interpreter does.
fn helper(op: BinOp, f32: bool) -> Option<u64> {
    let f: usize = match (op, f32) {
        (BinOp::Min, true) => helpers::fmin32 as *const () as usize,
        (BinOp::Max, true) => helpers::fmax32 as *const () as usize,
        (BinOp::Rem, true) => helpers::frem32 as *const () as usize,
        (BinOp::Min, false) => helpers::fmin64 as *const () as usize,
        (BinOp::Max, false) => helpers::fmax64 as *const () as usize,
        (BinOp::Rem, false) => helpers::frem64 as *const () as usize,
        _ => return None,
    };
    Some(f as u64)
}

/// SSE opcode of a float add/sub/mul/div (`0F 58/5C/59/5E`).
fn sse_arith(op: BinOp) -> Option<u8> {
    match op {
        BinOp::Add => Some(0x58),
        BinOp::Sub => Some(0x5C),
        BinOp::Mul => Some(0x59),
        BinOp::Div => Some(0x5E),
        _ => None,
    }
}

/// The packed SSE2 form of `op` on `elem` lanes, as `(prefix, opcode)`:
/// `addps`/`addpd`-family float arithmetic, `paddq`/`psubq`/`paddd`/
/// `psubd` and the bitwise `pand`/`por`/`pxor`. Integer lanes wrap,
/// exactly like the interpreter's widen-compute-truncate.
fn packed_op(op: BinOp, elem: ScalarType) -> Option<(&'static [u8], u8)> {
    let float_prefix: &'static [u8] = if elem == ScalarType::F32 {
        &[]
    } else {
        &[0x66]
    };
    match (elem, op) {
        (ScalarType::F32 | ScalarType::F64, op) => sse_arith(op).map(|opc| (float_prefix, opc)),
        (ScalarType::I64, BinOp::Add) => Some((&[0x66], 0xD4)),
        (ScalarType::I64, BinOp::Sub) => Some((&[0x66], 0xFB)),
        (ScalarType::I32, BinOp::Add) => Some((&[0x66], 0xFE)),
        (ScalarType::I32, BinOp::Sub) => Some((&[0x66], 0xFA)),
        (_, BinOp::And) => Some((&[0x66], 0xDB)),
        (_, BinOp::Or) => Some((&[0x66], 0xEB)),
        (_, BinOp::Xor) => Some((&[0x66], 0xEF)),
        _ => None,
    }
}
