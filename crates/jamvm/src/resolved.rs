//! The resolved IR: a lowered, directly-executable form of a decoded program.
//!
//! The interpreter in [`crate::vm`] re-decodes operands, chases GOT indirections
//! and charges the memory bus one instruction-fetch per retired instruction on
//! every execution. That is the right model for the *first* execution of an
//! injected program — but the injection cache already proves most executions are
//! warm re-runs of bytes the receiver has seen before. Dynamic binary
//! instrumentation systems answer the same problem by translating once into a
//! code cache and re-executing the lowered form; [`resolve`] is that translation
//! and [`Vm::execute_resolved`] is the threaded re-execution.
//!
//! ## What lowering does
//!
//! * **Flat fixed-width operands** — every [`ResolvedOp`] carries pre-decoded
//!   register indices and immediates; the executor never re-inspects encoded
//!   operand forms. The resolved image is modelled at a fixed
//!   [`RESOLVED_OP_BYTES`] per op for fetch charging.
//! * **GOT indirections resolved** — `CallExtern { slot }` becomes
//!   [`ResolvedOp::CallDirect`] holding the extern-table index the GOT slot
//!   resolved to. Slots that are unresolved or bound to data lower to
//!   [`ResolvedOp::CallUnresolved`] / [`ResolvedOp::CallNotCallable`], which
//!   raise the *same error the interpreter would* — but only if actually
//!   reached, preserving lazy-error semantics.
//! * **Superinstruction fusion** — hot adjacent pairs fuse into one op slot:
//!   load+ALU ([`ResolvedOp::LoadAlu`]), ALU+dependent-branch
//!   ([`ResolvedOp::AluBranch`] / [`ResolvedOp::AluImmBranch`], the `sub; jnz`
//!   loop back-edge idiom) and mov+mov ([`ResolvedOp::MovMov`], the argument
//!   shuffle prologue idiom). A pair is only fused when its second half is not
//!   a branch target, so every control-transfer destination stays an op
//!   boundary. Fused ops retire both halves (two instructions, two issue
//!   charges, fuel re-checked between the halves) so functional and accounting
//!   behaviour match the interpreter exactly.
//! * **Block-batched fetch** — instruction-fetch is charged once per
//!   *straight-line block* entry (one bus access spanning the block's bytes in
//!   the resolved image) instead of once per instruction. Block leaders are the
//!   entry op, every branch target and every op that follows a control-flow op.
//!
//! ## What lowering costs the host
//!
//! Lowering is host work the model charges by the byte, so it should cost
//! what the work is. [`resolve`] makes two passes over the program and five
//! allocations: the first pass marks the in-bounds branch targets; the second
//! fuses, lowers, extends the pc map and closes each block as the next one's
//! leader appears, and the few ops that carry a target are patched through
//! the finished pc map from a list. Every packaged jam is over nine tenths
//! trailing `Nop` padding (the toolchain pads `.text` to the paper's fixed
//! frame sizes: 1 345 of the Indirect Put jam's 1 359 instructions), so a run
//! of `Nop`s is appended to the ops, the block lengths and the pc map with one
//! `resize` / `extend` each — ≈ 2.1 µs for that jam where an op at a time
//! took 7.4 µs. What the run path may never do is skip: the image's size is
//! modelled (one [`RESOLVED_OP_BYTES`] op per lowered instruction is what the
//! slab write and every fetch address are computed from), a jump into the
//! padding must find an op there, and a `Nop` that *is* a branch target leads
//! a block — the run stops in front of it. A sender picks its own mix, so
//! nothing depends on the padding being there: without a single `Nop` the
//! same two passes run an instruction at a time.
//!
//! ## Timing contract
//!
//! Compute and data-memory time are charged identically to the interpreter.
//! Compute time is a function of two counts — one issue slot per retired
//! instruction, one call overhead per extern call, in integer picoseconds —
//! so the executor keeps the counts and derives `compute_time` once, when the
//! jam returns (an execution that ends in an error reports no times at all).
//! Fetch time differs by construction: the resolved executor issues one fetch
//! access per block *entry* where the interpreter issues one per *instruction*,
//! so on a uniform-cost bus `resolved.total_time()` is bounded above by the
//! interpreter's total and below by the interpreter's compute + memory time.
//! This is the documented block-batching tolerance the differential tests pin.
//!
//! ## Invalidation contract
//!
//! A [`ResolvedProgram`] bakes in one specific GOT image. It is only valid for
//! re-execution while (a) the code bytes still hash to the cache key it is
//! stored under and (b) the GOT image it was lowered against is *the same
//! image* (pointer identity in the runtime's cache). The runtime's injection
//! cache enforces both: the resolved image rides in a second-level cache keyed
//! by `(elem_id, code_digest, code_len)`, a hit additionally requires the
//! cached GOT `Arc` to be the one the current message resolved to, and any
//! package reinstall or namespace change purges the cache wholesale.

use twochains_memsim::{AccessKind, MemoryBus, SimTime};

use crate::externs::{ExternCtx, ExternRef, ExternTable, GotImage};
use crate::isa::{hash64, AluOp, Cond, Instr, Width, NUM_REGS};
use crate::memory::JamSpace;
use crate::vm::{alu, ExecError, ExecStats, Vm, VmConfig};

/// Modelled size of one resolved op in the receiver's code cache. The resolved
/// image is wider than the wire encoding (operands are flat, not packed) but
/// every op is the same width, which is what lets fetch spans be computed per
/// block instead of per instruction.
pub const RESOLVED_OP_BYTES: usize = 16;

/// One op of the resolved IR. Operands are pre-decoded register indices and
/// immediates; calls carry the extern-table index the GOT slot resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedOp {
    /// `dst = imm`.
    LoadImm {
        /// Destination register index.
        dst: u8,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// `dst = a op b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register index.
        dst: u8,
        /// First operand register.
        a: u8,
        /// Second operand register.
        b: u8,
    },
    /// `dst = src op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register index.
        dst: u8,
        /// Source operand register.
        src: u8,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = *(addr + offset)`.
    Load {
        /// Access width.
        width: Width,
        /// Destination register index.
        dst: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset added to the base.
        offset: u32,
    },
    /// `*(addr + offset) = src`.
    Store {
        /// Access width.
        width: Width,
        /// Source register index.
        src: u8,
        /// Address base register.
        addr: u8,
        /// Byte offset added to the base.
        offset: u32,
    },
    /// Copy `len` bytes from `src` to `dst` (all register-indirect).
    Memcpy {
        /// Destination address register.
        dst: u8,
        /// Source address register.
        src: u8,
        /// Length register.
        len: u8,
    },
    /// Unconditional jump to a resolved op index.
    Jump {
        /// Resolved-op target index.
        target: u32,
    },
    /// Conditional branch to a resolved op index.
    Branch {
        /// Condition.
        cond: Cond,
        /// First compared register.
        a: u8,
        /// Second compared register.
        b: u8,
        /// Resolved-op target index.
        target: u32,
    },
    /// A `CallExtern` whose GOT slot resolved to a callable extern.
    CallDirect {
        /// Index into the receiver's extern table.
        index: u32,
        /// Number of argument registers (`r0..rn`).
        nargs: u8,
    },
    /// A `CallExtern` through an unresolved GOT slot: raises
    /// [`ExecError::UnresolvedGot`] *if reached* (lazy, like the interpreter).
    CallUnresolved {
        /// The offending slot, echoed in the error.
        slot: u16,
    },
    /// A `CallExtern` through a data GOT slot: raises
    /// [`ExecError::NotCallable`] *if reached*.
    CallNotCallable {
        /// The offending slot, echoed in the error.
        slot: u16,
    },
    /// `dst = hash64(src)`.
    Hash {
        /// Destination register index.
        dst: u8,
        /// Source register index.
        src: u8,
    },
    /// No operation.
    Nop,
    /// Return, with the result in `r0`.
    Ret,
    /// Superinstruction: load followed by an ALU op that reads the loaded value.
    LoadAlu {
        /// Load access width.
        width: Width,
        /// Load destination register.
        ldst: u8,
        /// Load address base register.
        addr: u8,
        /// Load byte offset.
        offset: u32,
        /// ALU operation.
        op: AluOp,
        /// ALU destination register.
        adst: u8,
        /// ALU first operand register.
        a: u8,
        /// ALU second operand register.
        b: u8,
    },
    /// Superinstruction: ALU op followed by a branch that reads its result
    /// (the compare-and-branch idiom).
    AluBranch {
        /// ALU operation.
        op: AluOp,
        /// ALU destination register.
        dst: u8,
        /// ALU first operand register.
        a: u8,
        /// ALU second operand register.
        b: u8,
        /// Branch condition.
        cond: Cond,
        /// Branch first compared register.
        ba: u8,
        /// Branch second compared register.
        bb: u8,
        /// Resolved-op target index.
        target: u32,
    },
    /// Superinstruction: immediate ALU op followed by a dependent branch
    /// (the `sub rN, 1; jnz rN` loop back-edge).
    AluImmBranch {
        /// ALU operation.
        op: AluOp,
        /// ALU destination register.
        dst: u8,
        /// ALU source register.
        src: u8,
        /// ALU immediate operand.
        imm: u64,
        /// Branch condition.
        cond: Cond,
        /// Branch first compared register.
        ba: u8,
        /// Branch second compared register.
        bb: u8,
        /// Resolved-op target index.
        target: u32,
    },
    /// Superinstruction: two adjacent register moves (argument-shuffle idiom).
    MovMov {
        /// First move destination.
        d1: u8,
        /// First move source.
        s1: u8,
        /// Second move destination.
        d2: u8,
        /// Second move source.
        s2: u8,
    },
}

impl ResolvedOp {
    /// Whether the op ends a straight-line block (its successor, if any, starts
    /// a new one). Lazy call errors terminate execution when reached, so they
    /// also close their block.
    fn ends_block(&self) -> bool {
        matches!(
            self,
            ResolvedOp::Jump { .. }
                | ResolvedOp::Branch { .. }
                | ResolvedOp::AluBranch { .. }
                | ResolvedOp::AluImmBranch { .. }
                | ResolvedOp::Ret
                | ResolvedOp::CallUnresolved { .. }
                | ResolvedOp::CallNotCallable { .. }
        )
    }

    /// The op's control-flow target, if it has one.
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            ResolvedOp::Jump { target }
            | ResolvedOp::Branch { target, .. }
            | ResolvedOp::AluBranch { target, .. }
            | ResolvedOp::AluImmBranch { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Whether the op is a fused superinstruction (retires two instructions).
    fn is_fused(&self) -> bool {
        matches!(
            self,
            ResolvedOp::LoadAlu { .. }
                | ResolvedOp::AluBranch { .. }
                | ResolvedOp::AluImmBranch { .. }
                | ResolvedOp::MovMov { .. }
        )
    }
}

/// A program lowered by [`resolve`]: the op vector plus the metadata the
/// executor needs to charge block-batched fetches and to report errors in
/// terms of *original* program counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedProgram {
    ops: Vec<ResolvedOp>,
    /// Per-op: number of ops in the straight-line block this op leads, or 0 if
    /// the op is not a block leader.
    block_len: Vec<u32>,
    /// Length of the original program, for reconstructing out-of-bounds pcs.
    orig_len: u32,
}

impl ResolvedProgram {
    /// Number of resolved ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program lowered to zero ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of fused superinstructions in the image (static count).
    pub fn superinstruction_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_fused()).count()
    }

    /// Modelled byte size of the resolved image ([`RESOLVED_OP_BYTES`] per op)
    /// — the span the runtime installs at the image's code base and the
    /// executor charges fetches against.
    pub fn image_bytes(&self) -> usize {
        self.ops.len() * RESOLVED_OP_BYTES
    }

    /// Reconstruct the original pc for a resolved pc that left the program.
    /// Out-of-range control-flow targets are mapped past the end of the op
    /// vector preserving their distance beyond the original program's end, so
    /// this inversion is exact.
    fn oob_orig_pc(&self, rpc: usize) -> usize {
        self.orig_len as usize + (rpc - self.ops.len())
    }
}

/// Map an original branch target to a resolved op index. In-bounds targets use
/// the pc map; out-of-bounds targets (possible in unverified programs — the
/// interpreter faults on them lazily) are mapped past the end of the resolved
/// op vector, preserving their distance beyond the original end so the
/// out-of-bounds error can name the original pc.
fn map_target(target: u32, pc_map: &[u32], orig_len: usize, resolved_len: usize) -> u32 {
    if (target as usize) < orig_len {
        pc_map[target as usize]
    } else {
        (resolved_len + (target as usize - orig_len)) as u32
    }
}

/// Lower a decoded program against a GOT image into a [`ResolvedProgram`].
///
/// Never fails: GOT slots that would fault lower into lazy-error ops, and
/// out-of-bounds control-flow targets are preserved as out-of-bounds resolved
/// targets. The result is only valid for the exact `(program, got)` pair it
/// was lowered from — see the module docs for the invalidation contract.
pub fn resolve(program: &[Instr], got: &GotImage) -> ResolvedProgram {
    // Pass 1: mark the in-bounds branch targets — a pair whose second half is
    // a target must not fuse, so every control transfer lands on an op
    // boundary — and count the branches, to size their list once.
    let mut is_target = vec![false; program.len()];
    let mut branches = 0usize;
    for instr in program {
        if let Some(t) = instr.target() {
            branches += 1;
            if let Some(mark) = is_target.get_mut(t as usize) {
                *mark = true;
            }
        }
    }

    // Pass 2: fuse greedily left to right, lower, extend the pc map (original
    // pc -> resolved op index) and close a block each time the next one's
    // leader appears. An op leads a block iff it is the entry op, its first
    // half is a marked target, or the op before it ends a block; a fused
    // pair's second half is never a target, so the marks of pass 1 are the
    // leaders among the resolved ops too.
    let mut ops: Vec<ResolvedOp> = Vec::with_capacity(program.len());
    let mut block_len: Vec<u32> = Vec::with_capacity(program.len());
    let mut pc_map: Vec<u32> = Vec::with_capacity(program.len());
    let mut branch_ops: Vec<usize> = Vec::with_capacity(branches);
    let mut leader = 0usize;
    let mut i = 0usize;
    while i < program.len() {
        let ridx = ops.len();
        if ridx > 0 && (is_target[i] || ops[ridx - 1].ends_block()) {
            block_len[leader] = (ridx - leader) as u32;
            leader = ridx;
        }
        let instr = &program[i];
        if matches!(instr, Instr::Nop) {
            // Padding: a `Nop` fuses with nothing and ends no block, so a run
            // of them that no branch lands *inside* is one block interior. A
            // marked `Nop` leads a block: the run stops in front of it.
            let run = 1 + program[i + 1..]
                .iter()
                .zip(&is_target[i + 1..])
                .take_while(|&(next, &marked)| matches!(next, Instr::Nop) && !marked)
                .count();
            ops.resize(ridx + run, ResolvedOp::Nop);
            block_len.resize(ridx + run, 0);
            pc_map.extend(ridx as u32..(ridx + run) as u32);
            i += run;
            continue;
        }
        let fused_with = program
            .get(i + 1)
            .filter(|next| !is_target[i + 1] && can_fuse(instr, next));
        let mut op = match fused_with {
            Some(next) => lower_fused(instr, next),
            None => lower_one(instr, got),
        };
        if op.target_mut().is_some() {
            branch_ops.push(ridx);
        }
        ops.push(op);
        block_len.push(0);
        let halves = 1 + usize::from(fused_with.is_some());
        pc_map.resize(i + halves, ridx as u32);
        i += halves;
    }
    if let Some(open) = block_len.get_mut(leader) {
        *open = (ops.len() - leader) as u32;
    }

    // The ops were lowered carrying original targets: now that the pc map is
    // whole, patch the few that have one.
    let resolved_len = ops.len();
    for idx in branch_ops {
        let target = ops[idx].target_mut().expect("listed for its target");
        *target = map_target(*target, &pc_map, program.len(), resolved_len);
    }

    ResolvedProgram {
        ops,
        block_len,
        orig_len: program.len() as u32,
    }
}

/// Whether the adjacent pair `(a, b)` fuses into a superinstruction. The
/// caller has already checked that `b` is not a branch target.
fn can_fuse(a: &Instr, b: &Instr) -> bool {
    match (a, b) {
        // Load feeding an ALU op.
        (Instr::Load { dst, .. }, Instr::Alu { a, b, .. }) => *dst == *a || *dst == *b,
        // ALU result feeding a branch (compare-and-branch).
        (Instr::Alu { dst, .. }, Instr::Branch { a, b, .. })
        | (Instr::AluImm { dst, .. }, Instr::Branch { a, b, .. }) => *dst == *a || *dst == *b,
        // Adjacent register moves (argument shuffles).
        (Instr::Mov { .. }, Instr::Mov { .. }) => true,
        _ => false,
    }
}

/// Lower a pair [`can_fuse`] accepted; a branch half keeps its *original*
/// target, which [`resolve`] patches once the pc map is whole.
fn lower_fused(a: &Instr, b: &Instr) -> ResolvedOp {
    match (a, b) {
        (
            Instr::Load {
                width,
                dst,
                addr,
                offset,
            },
            Instr::Alu {
                op,
                dst: adst,
                a,
                b,
            },
        ) => ResolvedOp::LoadAlu {
            width: *width,
            ldst: dst.0,
            addr: addr.0,
            offset: *offset,
            op: *op,
            adst: adst.0,
            a: a.0,
            b: b.0,
        },
        (
            Instr::Alu { op, dst, a, b },
            Instr::Branch {
                cond,
                a: ba,
                b: bb,
                target,
            },
        ) => ResolvedOp::AluBranch {
            op: *op,
            dst: dst.0,
            a: a.0,
            b: b.0,
            cond: *cond,
            ba: ba.0,
            bb: bb.0,
            target: *target,
        },
        (
            Instr::AluImm { op, dst, src, imm },
            Instr::Branch {
                cond,
                a: ba,
                b: bb,
                target,
            },
        ) => ResolvedOp::AluImmBranch {
            op: *op,
            dst: dst.0,
            src: src.0,
            imm: *imm,
            cond: *cond,
            ba: ba.0,
            bb: bb.0,
            target: *target,
        },
        (Instr::Mov { dst: d1, src: s1 }, Instr::Mov { dst: d2, src: s2 }) => ResolvedOp::MovMov {
            d1: d1.0,
            s1: s1.0,
            d2: d2.0,
            s2: s2.0,
        },
        _ => unreachable!("lower_fused called on a pair can_fuse rejected"),
    }
}

/// Lower one instruction; a jump or branch keeps its *original* target, as
/// in [`lower_fused`].
fn lower_one(instr: &Instr, got: &GotImage) -> ResolvedOp {
    match *instr {
        Instr::LoadImm { dst, imm } => ResolvedOp::LoadImm { dst: dst.0, imm },
        Instr::Mov { dst, src } => ResolvedOp::Mov {
            dst: dst.0,
            src: src.0,
        },
        Instr::Alu { op, dst, a, b } => ResolvedOp::Alu {
            op,
            dst: dst.0,
            a: a.0,
            b: b.0,
        },
        Instr::AluImm { op, dst, src, imm } => ResolvedOp::AluImm {
            op,
            dst: dst.0,
            src: src.0,
            imm,
        },
        Instr::Load {
            width,
            dst,
            addr,
            offset,
        } => ResolvedOp::Load {
            width,
            dst: dst.0,
            addr: addr.0,
            offset,
        },
        Instr::Store {
            width,
            src,
            addr,
            offset,
        } => ResolvedOp::Store {
            width,
            src: src.0,
            addr: addr.0,
            offset,
        },
        Instr::Memcpy { dst, src, len } => ResolvedOp::Memcpy {
            dst: dst.0,
            src: src.0,
            len: len.0,
        },
        Instr::Jump { target } => ResolvedOp::Jump { target },
        Instr::Branch { cond, a, b, target } => ResolvedOp::Branch {
            cond,
            a: a.0,
            b: b.0,
            target,
        },
        Instr::CallExtern { slot, nargs } => match got.get(slot as usize) {
            ExternRef::Resolved(index) => ResolvedOp::CallDirect { index, nargs },
            ExternRef::Unresolved => ResolvedOp::CallUnresolved { slot },
            ExternRef::Data(_) => ResolvedOp::CallNotCallable { slot },
        },
        Instr::Hash { dst, src } => ResolvedOp::Hash {
            dst: dst.0,
            src: src.0,
        },
        Instr::Nop => ResolvedOp::Nop,
        Instr::Ret => ResolvedOp::Ret,
    }
}

#[inline]
fn branch_taken(cond: Cond, x: u64, y: u64) -> bool {
    match cond {
        Cond::Zero => x == 0,
        Cond::NotZero => x != 0,
        Cond::Less => x < y,
        Cond::GreaterEq => x >= y,
    }
}

impl Vm {
    /// Execute a resolved image to completion.
    ///
    /// Functionally equivalent to running [`Vm::execute`] over the program the
    /// image was lowered from with the GOT it was lowered against: same
    /// results, same memory effects, same errors (including lazy GOT-call
    /// errors and out-of-bounds pcs reported in *original* pc terms), same
    /// fuel accounting. Compute and data-memory time are charged identically;
    /// fetch time is charged per straight-line-block entry against
    /// `cfg.code_base` (the resolved image's install address) — see the module
    /// docs for the tolerance contract.
    ///
    /// Generic over the space and the bus, so that a caller which names both
    /// types gets a loop with the scalar read and the bus's hit path inlined
    /// into it; extern functions still see them as trait objects.
    pub fn execute_resolved<S: JamSpace, B: MemoryBus>(
        resolved: &ResolvedProgram,
        externs: &ExternTable,
        space: &mut S,
        bus: &mut B,
        cfg: &VmConfig,
    ) -> Result<ExecStats, ExecError> {
        let mut regs = [0u64; NUM_REGS];
        regs[..cfg.entry_regs.len()].copy_from_slice(&cfg.entry_regs);
        let mut pc = 0usize;
        let mut stats = ExecStats {
            result: 0,
            instructions: 0,
            extern_calls: 0,
            superinstructions: 0,
            compute_time: SimTime::ZERO,
            memory_time: SimTime::ZERO,
            fetch_time: SimTime::ZERO,
        };
        let cycle = SimTime::from_cycles(1, cfg.freq_ghz);
        let issue_cost = cycle * (1.0 / cfg.ipc);
        let ops = &resolved.ops;
        let charge_fetch = cfg.code_base != 0;

        macro_rules! load {
            ($width:expr, $dst:expr, $addr:expr, $offset:expr) => {{
                let a = regs[$addr as usize].wrapping_add($offset as u64);
                stats.memory_time += bus.access(cfg.core, a, $width.bytes(), AccessKind::Read);
                regs[$dst as usize] = space
                    .read_scalar(a, $width.bytes())
                    .map_err(|e| ExecError::Fault(e.to_string()))?;
            }};
        }
        // The second half of a fused op retires as an instruction of its own.
        macro_rules! retire_second_half {
            () => {{
                if stats.instructions >= cfg.fuel {
                    return Err(ExecError::FuelExhausted);
                }
                stats.instructions += 1;
            }};
        }

        loop {
            if stats.instructions >= cfg.fuel {
                return Err(ExecError::FuelExhausted);
            }
            let Some(op) = ops.get(pc) else {
                return Err(ExecError::PcOutOfBounds {
                    pc: resolved.oob_orig_pc(pc),
                });
            };
            stats.instructions += 1;
            if charge_fetch {
                let span = resolved.block_len[pc];
                if span > 0 {
                    stats.fetch_time += bus.access(
                        cfg.core,
                        cfg.code_base + (pc * RESOLVED_OP_BYTES) as u64,
                        span as usize * RESOLVED_OP_BYTES,
                        AccessKind::Fetch,
                    );
                }
            }
            let mut next_pc = pc + 1;
            match *op {
                ResolvedOp::LoadImm { dst, imm } => regs[dst as usize] = imm,
                ResolvedOp::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                ResolvedOp::Alu { op, dst, a, b } => {
                    regs[dst as usize] = alu(op, regs[a as usize], regs[b as usize]);
                }
                ResolvedOp::AluImm { op, dst, src, imm } => {
                    regs[dst as usize] = alu(op, regs[src as usize], imm);
                }
                ResolvedOp::Load {
                    width,
                    dst,
                    addr,
                    offset,
                } => load!(width, dst, addr, offset),
                ResolvedOp::Store {
                    width,
                    src,
                    addr,
                    offset,
                } => {
                    let a = regs[addr as usize].wrapping_add(offset as u64);
                    stats.memory_time += bus.access(cfg.core, a, width.bytes(), AccessKind::Write);
                    space
                        .write_scalar(a, regs[src as usize], width.bytes())
                        .map_err(|e| ExecError::Fault(e.to_string()))?;
                }
                ResolvedOp::Memcpy { dst, src, len } => {
                    let (d, s, n) = (
                        regs[dst as usize],
                        regs[src as usize],
                        regs[len as usize] as usize,
                    );
                    if n > 0 {
                        // The length is the jam's to choose: only a copy the
                        // space accepted is charged, line by line.
                        space
                            .copy(d, s, n)
                            .map_err(|e| ExecError::Fault(e.to_string()))?;
                        stats.memory_time += bus.access(cfg.core, s, n, AccessKind::Read);
                        stats.memory_time += bus.access(cfg.core, d, n, AccessKind::Write);
                    }
                }
                ResolvedOp::Jump { target } => next_pc = target as usize,
                ResolvedOp::Branch { cond, a, b, target } => {
                    if branch_taken(cond, regs[a as usize], regs[b as usize]) {
                        next_pc = target as usize;
                    }
                }
                ResolvedOp::CallDirect { index, nargs } => {
                    stats.extern_calls += 1;
                    let mut ctx = ExternCtx {
                        space,
                        bus,
                        core: cfg.core,
                        elapsed: SimTime::ZERO,
                    };
                    let r = externs
                        .call(index, &mut ctx, &regs[..nargs as usize])
                        .map_err(ExecError::ExternFailed)?;
                    stats.memory_time += ctx.elapsed;
                    regs[0] = r;
                }
                ResolvedOp::CallUnresolved { slot } => {
                    return Err(ExecError::UnresolvedGot { slot });
                }
                ResolvedOp::CallNotCallable { slot } => {
                    return Err(ExecError::NotCallable { slot });
                }
                ResolvedOp::Hash { dst, src } => regs[dst as usize] = hash64(regs[src as usize]),
                ResolvedOp::Nop => {}
                ResolvedOp::Ret => {
                    stats.result = regs[0];
                    // Every retired instruction costs one issue slot and every
                    // extern call its overhead, whatever order they came in.
                    stats.compute_time = issue_cost * stats.instructions
                        + cfg.extern_call_overhead * stats.extern_calls;
                    return Ok(stats);
                }
                ResolvedOp::LoadAlu {
                    width,
                    ldst,
                    addr,
                    offset,
                    op,
                    adst,
                    a,
                    b,
                } => {
                    stats.superinstructions += 1;
                    load!(width, ldst, addr, offset);
                    retire_second_half!();
                    regs[adst as usize] = alu(op, regs[a as usize], regs[b as usize]);
                }
                ResolvedOp::AluBranch {
                    op,
                    dst,
                    a,
                    b,
                    cond,
                    ba,
                    bb,
                    target,
                } => {
                    stats.superinstructions += 1;
                    regs[dst as usize] = alu(op, regs[a as usize], regs[b as usize]);
                    retire_second_half!();
                    if branch_taken(cond, regs[ba as usize], regs[bb as usize]) {
                        next_pc = target as usize;
                    }
                }
                ResolvedOp::AluImmBranch {
                    op,
                    dst,
                    src,
                    imm,
                    cond,
                    ba,
                    bb,
                    target,
                } => {
                    stats.superinstructions += 1;
                    regs[dst as usize] = alu(op, regs[src as usize], imm);
                    retire_second_half!();
                    if branch_taken(cond, regs[ba as usize], regs[bb as usize]) {
                        next_pc = target as usize;
                    }
                }
                ResolvedOp::MovMov { d1, s1, d2, s2 } => {
                    stats.superinstructions += 1;
                    regs[d1 as usize] = regs[s1 as usize];
                    retire_second_half!();
                    regs[d2 as usize] = regs[s2 as usize];
                }
            }
            pc = next_pc;
        }
    }
}

/// `resolve` as it stood while it made five passes (targets, fusion and pc
/// map, lowering, leaders, block lengths) over six vectors — but for its
/// lowering step, which now remaps the target `lower_*` leave original. The
/// reference the property test below compares whole [`ResolvedProgram`]s with.
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn resolve(program: &[Instr], got: &GotImage) -> ResolvedProgram {
        // Pass 1: collect branch targets — a pair whose second half is a target
        // must not fuse, so every control transfer lands on an op boundary.
        let mut is_target = vec![false; program.len()];
        for instr in program {
            if let Some(t) = instr.target() {
                if (t as usize) < program.len() {
                    is_target[t as usize] = true;
                }
            }
        }

        // Pass 2: decide fusion greedily left-to-right and build the pc map
        // (original pc -> resolved op index).
        let mut pc_map = vec![0u32; program.len()];
        let mut fused_with_next = vec![false; program.len()];
        let mut ridx = 0u32;
        let mut i = 0usize;
        while i < program.len() {
            pc_map[i] = ridx;
            let fuse = program
                .get(i + 1)
                .filter(|_| !is_target[i + 1])
                .is_some_and(|next| can_fuse(&program[i], next));
            if fuse {
                fused_with_next[i] = true;
                pc_map[i + 1] = ridx;
                i += 2;
            } else {
                i += 1;
            }
            ridx += 1;
        }
        let resolved_len = ridx as usize;

        // Pass 3: lower, remapping control-flow targets through the pc map.
        let mut ops = Vec::with_capacity(resolved_len);
        let remap = |t: u32| map_target(t, &pc_map, program.len(), resolved_len);
        let mut i = 0usize;
        while i < program.len() {
            let (mut op, halves) = if fused_with_next[i] {
                (lower_fused(&program[i], &program[i + 1]), 2)
            } else {
                (lower_one(&program[i], got), 1)
            };
            if let Some(target) = op.target_mut() {
                *target = remap(*target);
            }
            ops.push(op);
            i += halves;
        }
        debug_assert_eq!(ops.len(), resolved_len);

        // Pass 4: block leaders and per-leader block lengths. Leaders are the
        // entry op, every in-bounds control-flow target, and every op following a
        // block-ending op.
        let mut leader = vec![false; ops.len()];
        if !ops.is_empty() {
            leader[0] = true;
        }
        for (idx, op) in ops.iter().enumerate() {
            let target = match *op {
                ResolvedOp::Jump { target }
                | ResolvedOp::Branch { target, .. }
                | ResolvedOp::AluBranch { target, .. }
                | ResolvedOp::AluImmBranch { target, .. } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if (t as usize) < ops.len() {
                    leader[t as usize] = true;
                }
            }
            if op.ends_block() && idx + 1 < ops.len() {
                leader[idx + 1] = true;
            }
        }
        let mut block_len = vec![0u32; ops.len()];
        let mut idx = 0usize;
        while idx < ops.len() {
            debug_assert!(leader[idx]);
            let mut end = idx + 1;
            while end < ops.len() && !leader[end] {
                end += 1;
            }
            block_len[idx] = (end - idx) as u32;
            idx = end;
        }

        ResolvedProgram {
            ops,
            block_len,
            orig_len: program.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Reg;
    use crate::memory::{AddressSpace, Segment, SegmentKind};
    use proptest::prelude::*;
    use std::sync::Arc;
    use twochains_memsim::hierarchy::FlatMemory;

    fn run_both(
        program: &[Instr],
        got: &GotImage,
        externs: &ExternTable,
    ) -> (
        Result<ExecStats, ExecError>,
        Result<ExecStats, ExecError>,
        ResolvedProgram,
    ) {
        let cfg = VmConfig::default();
        let mut space_a = AddressSpace::new();
        let mut bus_a = FlatMemory::free();
        let interp = Vm::execute(program, got, externs, &mut space_a, &mut bus_a, &cfg);
        let resolved = resolve(program, got);
        let mut space_b = AddressSpace::new();
        let mut bus_b = FlatMemory::free();
        let res = Vm::execute_resolved(&resolved, externs, &mut space_b, &mut bus_b, &cfg);
        (interp, res, resolved)
    }

    #[test]
    fn mov_pairs_fuse_and_match_interpreter() {
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 40)
            .load_imm(Reg(2), 2)
            .mov(Reg(3), Reg(1))
            .mov(Reg(4), Reg(2))
            .add(Reg(0), Reg(3), Reg(4))
            .ret();
        let prog = a.finish().unwrap();
        let (interp, res, resolved) = run_both(&prog, &GotImage::default(), &ExternTable::new());
        assert_eq!(resolved.superinstruction_count(), 1, "mov pair fused");
        let (i, r) = (interp.unwrap(), res.unwrap());
        assert_eq!(r.result, 42);
        assert_eq!(r.result, i.result);
        assert_eq!(r.instructions, i.instructions, "fused halves both retire");
        assert_eq!(r.superinstructions, 1);
        assert_eq!(i.superinstructions, 0);
    }

    #[test]
    fn loop_with_fused_back_edge_matches_interpreter() {
        // The ssum inner-loop idiom: load+add fuses, sub+jnz fuses.
        let mut asm = Assembler::new();
        asm.load_imm(Reg(1), 0x2000)
            .load_imm(Reg(2), 16)
            .load_imm(Reg(0), 0)
            .label("loop")
            .load(Width::B4, Reg(3), Reg(1), 0)
            .add(Reg(0), Reg(0), Reg(3))
            .add_imm(Reg(1), Reg(1), 4)
            .alu_imm(AluOp::Sub, Reg(2), Reg(2), 1)
            .jnz(Reg(2), "loop")
            .ret();
        let prog = asm.finish().unwrap();
        let values: Vec<u8> = (1u32..=16).flat_map(|v| v.to_le_bytes()).collect();
        let seg = Segment::new("usr", 0x2000, values, false, SegmentKind::Payload);

        let cfg = VmConfig::default();
        let mut space_a = AddressSpace::new();
        space_a.map(seg.clone()).unwrap();
        let mut bus_a = FlatMemory::free();
        let got = GotImage::default();
        let externs = ExternTable::new();
        let interp = Vm::execute(&prog, &got, &externs, &mut space_a, &mut bus_a, &cfg).unwrap();

        let resolved = resolve(&prog, &got);
        assert!(
            resolved.superinstruction_count() >= 2,
            "load+add and sub+jnz both fuse: {resolved:?}"
        );
        let mut space_b = AddressSpace::new();
        space_b.map(seg).unwrap();
        let mut bus_b = FlatMemory::free();
        let res =
            Vm::execute_resolved(&resolved, &externs, &mut space_b, &mut bus_b, &cfg).unwrap();
        assert_eq!(res.result, (1..=16u64).sum::<u64>());
        assert_eq!(res.result, interp.result);
        assert_eq!(res.instructions, interp.instructions);
        assert_eq!(res.compute_time, interp.compute_time);
        assert_eq!(res.memory_time, interp.memory_time);
        assert!(res.superinstructions as usize >= 16 * 2);
    }

    #[test]
    fn branch_target_blocks_fusion() {
        // The jump targets the second mov, so the pair must not fuse.
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 7)
            .jump("target")
            .mov(Reg(2), Reg(1))
            .label("target")
            .mov(Reg(0), Reg(1))
            .ret();
        let prog = a.finish().unwrap();
        let (interp, res, resolved) = run_both(&prog, &GotImage::default(), &ExternTable::new());
        assert_eq!(resolved.superinstruction_count(), 0);
        assert_eq!(res.unwrap().result, interp.unwrap().result);
    }

    #[test]
    fn got_calls_lower_to_direct_and_lazy_errors() {
        let mut externs = ExternTable::new();
        let idx = externs.register("id", Arc::new(|_ctx, args: &[u64]| Ok(args[0] + 1)));
        let mut got = GotImage::with_slots(3);
        got.set(0, ExternRef::Resolved(idx));
        got.set(2, ExternRef::Data(0x1234));

        // Slot 0 resolves; the unresolved slot 1 and data slot 2 are never
        // reached, so lowering must not fault eagerly.
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 41)
            .call_extern(0, 1)
            .ret()
            .call_extern(1, 0)
            .call_extern(2, 0);
        let prog = a.finish().unwrap();
        let (interp, res, resolved) = run_both(&prog, &got, &externs);
        assert!(matches!(resolved.ops[1], ResolvedOp::CallDirect { .. }));
        let (i, r) = (interp.unwrap(), res.unwrap());
        assert_eq!(r.result, 42);
        assert_eq!(r.result, i.result);
        assert_eq!(r.extern_calls, 1);

        // Reaching the bad slots raises the interpreter's exact errors.
        let mut a = Assembler::new();
        a.call_extern(1, 0).ret();
        let prog = a.finish().unwrap();
        let (interp, res, _) = run_both(&prog, &got, &externs);
        assert_eq!(res.unwrap_err(), interp.unwrap_err());

        let mut a = Assembler::new();
        a.call_extern(2, 0).ret();
        let prog = a.finish().unwrap();
        let (interp, res, _) = run_both(&prog, &got, &externs);
        assert_eq!(res.unwrap_err(), ExecError::NotCallable { slot: 2 });
        assert!(matches!(interp, Err(ExecError::NotCallable { slot: 2 })));
    }

    #[test]
    fn oob_pc_reported_in_original_terms() {
        // Fall off the end: the fused movs shrink the op vector, but the
        // error must name the original pc (= original length).
        let mut a = Assembler::new();
        a.mov(Reg(1), Reg(2)).mov(Reg(3), Reg(4));
        let prog = a.finish().unwrap();
        let (interp, res, resolved) = run_both(&prog, &GotImage::default(), &ExternTable::new());
        assert_eq!(resolved.len(), 1, "pair fused into one op");
        assert_eq!(interp.unwrap_err(), ExecError::PcOutOfBounds { pc: 2 });
        assert_eq!(res.unwrap_err(), ExecError::PcOutOfBounds { pc: 2 });

        // A jump past the end reports the original target.
        let prog = vec![Instr::Jump { target: 99 }];
        let (interp, res, _) = run_both(&prog, &GotImage::default(), &ExternTable::new());
        assert_eq!(interp.unwrap_err(), ExecError::PcOutOfBounds { pc: 99 });
        assert_eq!(res.unwrap_err(), ExecError::PcOutOfBounds { pc: 99 });
    }

    #[test]
    fn fuel_exhausts_identically_mid_pair() {
        // An infinite fused-back-edge loop: both executors must run out of
        // fuel rather than diverge, whatever the parity of the fuel budget.
        let mut asm = Assembler::new();
        asm.load_imm(Reg(1), 1)
            .label("spin")
            .alu_imm(AluOp::Add, Reg(1), Reg(1), 1)
            .jnz(Reg(1), "spin")
            .ret();
        let prog = asm.finish().unwrap();
        let got = GotImage::default();
        let externs = ExternTable::new();
        for fuel in [7u64, 8] {
            let cfg = VmConfig {
                fuel,
                ..VmConfig::default()
            };
            let mut bus = FlatMemory::free();
            let interp = Vm::execute(
                &prog,
                &got,
                &externs,
                &mut AddressSpace::new(),
                &mut bus,
                &cfg,
            );
            let resolved = resolve(&prog, &got);
            let mut bus = FlatMemory::free();
            let res = Vm::execute_resolved(
                &resolved,
                &externs,
                &mut AddressSpace::new(),
                &mut bus,
                &cfg,
            );
            assert_eq!(interp.unwrap_err(), ExecError::FuelExhausted);
            assert_eq!(res.unwrap_err(), ExecError::FuelExhausted);
        }
    }

    #[test]
    fn block_batched_fetch_is_fewer_accesses_than_interpreter() {
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 1)
            .load_imm(Reg(2), 2)
            .add(Reg(0), Reg(1), Reg(2))
            .load_imm(Reg(3), 3)
            .add(Reg(0), Reg(0), Reg(3))
            .ret();
        let prog = a.finish().unwrap();
        let got = GotImage::default();
        let externs = ExternTable::new();
        let cfg = VmConfig {
            code_base: 0x7000,
            ..VmConfig::default()
        };
        let mut bus = FlatMemory::free();
        bus.per_access = SimTime::from_ns(3);
        let interp = Vm::execute(
            &prog,
            &got,
            &externs,
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap();
        let resolved = resolve(&prog, &got);
        let mut bus = FlatMemory::free();
        bus.per_access = SimTime::from_ns(3);
        let res = Vm::execute_resolved(
            &resolved,
            &externs,
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap();
        // Straight-line program = one block = one fetch access.
        assert_eq!(res.fetch_time, SimTime::from_ns(3));
        assert!(res.fetch_time < interp.fetch_time);
        assert_eq!(res.result, interp.result);
        // The tolerance sandwich the differential suite pins.
        assert!(interp.compute_time + interp.memory_time <= res.total_time());
        assert!(res.total_time() <= interp.total_time());
    }

    #[test]
    fn a_nop_run_stops_in_front_of_a_branch_target() {
        // 0: jump 4 | 1-3: nop | 4-5: nop (4 is the target) | 6: ret
        let mut prog = vec![Instr::Nop; 7];
        prog[0] = Instr::Jump { target: 4 };
        prog[6] = Instr::Ret;
        let resolved = resolve(&prog, &GotImage::default());
        assert_eq!(resolved.block_len, vec![1, 3, 0, 0, 3, 0, 0]);
        assert_eq!(resolved.ops[0], ResolvedOp::Jump { target: 4 });
        assert_eq!(resolved, oracle::resolve(&prog, &GotImage::default()));
    }

    /// What a lowering has to get right, as one instruction or an adjacent
    /// pair: the four fusible idioms, calls through each kind of GOT slot,
    /// block enders, and branches whose targets `arb_program` places.
    fn arb_piece() -> impl Strategy<Value = Vec<Instr>> {
        let reg = || (0u8..4).prop_map(Reg);
        let branch = || {
            (0u8..4, reg(), reg(), any::<u32>()).prop_map(|(cond, a, b, target)| Instr::Branch {
                cond: [Cond::Zero, Cond::NotZero, Cond::Less, Cond::GreaterEq][cond as usize],
                a,
                b,
                target,
            })
        };
        let alu = || {
            (reg(), reg(), reg()).prop_map(|(dst, a, b)| Instr::Alu {
                op: AluOp::Add,
                dst,
                a,
                b,
            })
        };
        let alu_imm = (reg(), reg()).prop_map(|(dst, src)| Instr::AluImm {
            op: AluOp::Sub,
            dst,
            src,
            imm: 1,
        });
        let load = (reg(), reg()).prop_map(|(dst, addr)| Instr::Load {
            width: Width::B4,
            dst,
            addr,
            offset: 0,
        });
        let mov = || (reg(), reg()).prop_map(|(dst, src)| Instr::Mov { dst, src });
        prop_oneof![
            (load, alu()).prop_map(|(a, b)| vec![a, b]),
            (alu(), branch()).prop_map(|(a, b)| vec![a, b]),
            (alu_imm, branch()).prop_map(|(a, b)| vec![a, b]),
            (mov(), mov()).prop_map(|(a, b)| vec![a, b]),
            branch().prop_map(|b| vec![b]),
            any::<u32>().prop_map(|target| vec![Instr::Jump { target }]),
            (0u16..4, 0u8..3).prop_map(|(slot, nargs)| vec![Instr::CallExtern { slot, nargs }]),
            Just(vec![Instr::Ret]),
            Just(vec![Instr::Nop]),
        ]
    }

    /// 1–200 instructions, about two thirds of them `Nop` runs, with every
    /// branch target drawn evenly from: anywhere in bounds (so, mostly inside
    /// a run); the first `Nop` of a run and the instruction one past its end;
    /// either half of an adjacent fusible pair; the entry; and past the end —
    /// by 0, by 1, by 77 and by as far as a `u32` goes.
    fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
        let nops = || (1usize..30).prop_map(|n| vec![Instr::Nop; n]);
        let piece = prop_oneof![arb_piece(), arb_piece(), nops()];
        prop::collection::vec(piece, 1..24).prop_map(|pieces| {
            let mut program = pieces.concat();
            program.truncate(200);
            let len = program.len() as u32;
            let is_nop = |at: usize| matches!(program.get(at), Some(Instr::Nop));
            let mut edges = vec![0, len, len + 1, len + 77, u32::MAX];
            for at in 1..program.len() {
                if is_nop(at) != is_nop(at - 1) || can_fuse(&program[at - 1], &program[at]) {
                    edges.extend([at as u32 - 1, at as u32]);
                }
            }
            for instr in &mut program {
                if let Instr::Jump { target } | Instr::Branch { target, .. } = instr {
                    let pick = *target as usize / 2;
                    *target = match *target % 2 {
                        0 => pick as u32 % len,
                        _ => edges[pick % edges.len()],
                    };
                }
            }
            program
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn lowers_to_exactly_what_its_predecessor_did(program in arb_program()) {
            let mut got = GotImage::with_slots(3);
            got.set(0, ExternRef::Resolved(5));
            got.set(2, ExternRef::Data(0x1234));
            prop_assert_eq!(resolve(&program, &got), oracle::resolve(&program, &got));
        }
    }

    #[test]
    fn image_bytes_scale_with_op_count() {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 1).ret();
        let prog = a.finish().unwrap();
        let resolved = resolve(&prog, &GotImage::default());
        assert_eq!(resolved.len(), 2);
        assert!(!resolved.is_empty());
        assert_eq!(resolved.image_bytes(), 2 * RESOLVED_OP_BYTES);
    }

    #[test]
    fn empty_program_faults_at_pc_zero() {
        let (interp, res, resolved) = run_both(&[], &GotImage::default(), &ExternTable::new());
        assert!(resolved.is_empty());
        assert_eq!(interp.unwrap_err(), ExecError::PcOutOfBounds { pc: 0 });
        assert_eq!(res.unwrap_err(), ExecError::PcOutOfBounds { pc: 0 });
    }
}
