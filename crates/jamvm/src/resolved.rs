//! The resolved IR: a lowered, directly-executable form of a decoded program.
//!
//! An interpreter re-decodes operands, chases GOT indirections and charges the
//! memory bus one instruction-fetch per retired instruction on every execution.
//! The injection cache proves most executions are warm re-runs of bytes the
//! receiver has seen before. Dynamic binary instrumentation systems answer the
//! same problem by translating once into a code cache and re-executing the
//! lowered form; [`resolve`] is that translation and [`Vm::execute_resolved`]
//! is the threaded re-execution, the one engine the receiver runs. An
//! instruction-at-a-time interpreter stays only as the reference the
//! differential suites compare it against: `twochains-oracle`, a crate only
//! tests depend on, which states the ISA's arithmetic a second time.
//!
//! ## What lowering does
//!
//! * **Flat fixed-width operands** — every `ResolvedOp` carries pre-decoded
//!   register indices and immediates; the executor never re-inspects encoded
//!   operand forms. The resolved image is modelled at a fixed
//!   `RESOLVED_OP_BYTES` per op for fetch charging.
//! * **GOT indirections resolved** — `CallExtern { slot }` becomes
//!   `ResolvedOp::CallDirect` holding the extern-table index the GOT slot
//!   resolved to. Slots that are unresolved or bound to data lower to
//!   `ResolvedOp::CallUnresolved` / `ResolvedOp::CallNotCallable`, which
//!   raise the *same error the call would* — but only if actually reached,
//!   preserving lazy-error semantics.
//! * **Superinstruction fusion** — hot adjacent pairs fuse into one op slot:
//!   load+ALU (`ResolvedOp::LoadAlu`), ALU+dependent-branch
//!   (`ResolvedOp::AluBranch` / `ResolvedOp::AluImmBranch`, the `sub; jnz`
//!   loop back-edge idiom) and mov+mov (`ResolvedOp::MovMov`, the argument
//!   shuffle prologue idiom). A pair is only fused when its second half is not
//!   a branch target, so every control-transfer destination stays an op
//!   boundary. Fused ops retire both halves (two instructions, two issue
//!   charges, fuel re-checked between the halves) so functional and accounting
//!   behaviour match an instruction-at-a-time execution exactly.
//! * **Runs of `Nop`s as one op** — a run of padding lowers to one
//!   `ResolvedOp::Nops`, which retires the run's instructions at once.
//! * **Block-batched fetch** — instruction-fetch is charged once per
//!   *straight-line block* entry (one bus access spanning the block's bytes in
//!   the resolved image) instead of once per instruction. Block leaders are the
//!   entry op, every branch target and every op that follows a control-flow op.
//!
//! ## What lowering costs the host
//!
//! Lowering is host work the model charges by the byte of the code section,
//! so it should cost what the function's instructions cost. Every packaged jam
//! is over nine tenths `Nop` padding (the toolchain pads `.text` to the
//! paper's fixed frame sizes: 1 345 of the Indirect Put jam's 1 359
//! instructions), and a [`Program`] holds each run of it as the gap between
//! two instructions, so [`resolve`] never visits a `Nop`: it makes two passes
//! over the program's other instructions and three allocations. The first
//! pass collects the in-bounds branch targets into a sorted list. The second
//! fuses, lowers each gap to one `ResolvedOp::Nops` and closes each block as
//! the next one's leader appears, pairing each target with the op it lands
//! on; the few ops that carry a target are then patched from that list. A run
//! stops in front of a target inside it, so a jump into the padding finds an
//! op there and a `Nop` that is a target leads a block.
//!
//! What the run form never changes is the modelled image. Its size is one
//! `RESOLVED_OP_BYTES` op per lowered instruction or fused pair, a run
//! counting each of its instructions, and that is what the slab write and
//! every fetch address are computed from: each op keeps its position in that
//! *materialised* image beside its block span, so a block entry fetches the
//! address and length it would if every `Nop` were an op of its own. The
//! executor retires a run's `count` instructions at once, and runs out of fuel
//! exactly when it would have on one of them. A sender picks its own mix, so
//! nothing depends on the padding being there: without a single `Nop` the
//! same two passes run an instruction at a time.
//!
//! ## Timing contract
//!
//! Compute and data-memory time are charged as an instruction-at-a-time
//! execution charges them. Compute time is a function of two counts — one
//! issue slot per retired instruction, one [`EXTERN_CALL_OVERHEAD`] per extern
//! call, in integer picoseconds — so the executor keeps the counts and derives `compute_time` once, when the
//! jam returns (an execution that ends in an error reports no times at all).
//! Fetch time differs by construction: the resolved executor issues one fetch
//! access per block *entry* where an interpreter issues one per *instruction*,
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
//! cache enforces both: the resolved image rides in the code-cache entry keyed
//! by `(elem_id, code_digest, code_len)`, next to the program it was lowered
//! from; an image hit additionally requires the cached GOT `Arc` to be the one
//! the current message resolved to, and any package reinstall or namespace
//! change purges the cache wholesale.

use twochains_memsim::cost::{CORE_FREQ_GHZ, EXTERN_CALL_OVERHEAD, INSTRS_PER_CYCLE};
use twochains_memsim::{AccessKind, MemoryBus, SimTime};

use crate::encode::Program;
use crate::externs::{ExternCtx, ExternRef, ExternTable, GotImage};
use crate::isa::{hash64, AluOp, Cond, Instr, Width, NUM_REGS};
use crate::memory::JamSpace;
use crate::vm::{ExecError, ExecStats, Vm, VmConfig};

/// Modelled size of one resolved op in the receiver's code cache. The resolved
/// image is wider than the wire encoding (operands are flat, not packed) but
/// every op is the same width, which is what lets fetch spans be computed per
/// block instead of per instruction.
pub(crate) const RESOLVED_OP_BYTES: usize = 16;

/// One op of the resolved IR. Operands are pre-decoded register indices and
/// immediates; calls carry the extern-table index the GOT slot resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedOp {
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
    /// [`ExecError::UnresolvedGot`] *if reached* (lazily, as the call would).
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
    /// A run of `count` `Nop`s (at least one): retires `count` instructions
    /// and does nothing else.
    Nops {
        /// Instructions in the run.
        count: u32,
    },
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

    /// Ops the op stands for in the materialised image: a run one per
    /// instruction, any other op one.
    fn image_ops(&self) -> u32 {
        match *self {
            ResolvedOp::Nops { count } => count,
            _ => 1,
        }
    }
}

/// Where an op sits in the image as the model lays it out, and what entering
/// it fetches: the one entry the executor reads per op it enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ImageSlot {
    /// The op's position in the materialised image, in ops: where its fetch
    /// address is computed from.
    at: u32,
    /// Ops of the materialised image in the straight-line block this op
    /// leads, or 0 if it leads none.
    block_len: u32,
}

/// A program lowered by [`resolve`]: the op vector plus the metadata the
/// executor needs to charge block-batched fetches and to report errors in
/// terms of *original* program counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedProgram {
    ops: Vec<ResolvedOp>,
    /// Per op: its position in the materialised image and its block span.
    slots: Vec<ImageSlot>,
    /// Ops of the materialised image, which is what its modelled size counts.
    image_ops: u32,
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

    /// Modelled byte size of the resolved image — `RESOLVED_OP_BYTES` per
    /// lowered instruction or fused pair, a run of `Nop`s counting each of its
    /// instructions: the span the runtime installs at the image's code base
    /// and the executor charges fetches against.
    pub fn image_bytes(&self) -> usize {
        self.image_ops as usize * RESOLVED_OP_BYTES
    }

    /// Reconstruct the original pc for a resolved pc that left the program.
    /// Out-of-range control-flow targets are mapped past the end of the op
    /// vector preserving their distance beyond the original program's end, so
    /// this inversion is exact.
    fn oob_orig_pc(&self, rpc: usize) -> usize {
        self.orig_len as usize + (rpc - self.ops.len())
    }
}

/// Lower a decoded program against a GOT image into a [`ResolvedProgram`].
///
/// Never fails: GOT slots that would fault lower into lazy-error ops, and
/// out-of-bounds control-flow targets are preserved as out-of-bounds resolved
/// targets. The result is only valid for the exact `(program, got)` pair it
/// was lowered from — see the module docs for the invalidation contract.
pub fn resolve(program: &Program, got: &GotImage) -> ResolvedProgram {
    let len = program.len;
    // Pass 1: the in-bounds branch targets, sorted, each to be paired with
    // the op it lands on. A pair whose second half is a target does not fuse
    // and a run of `Nop`s stops in front of one, so every control transfer
    // lands on an op boundary.
    let mut targets: Vec<(u32, u32)> = program
        .instrs
        .iter()
        .filter_map(|(_, instr)| instr.target())
        .filter(|&target| target < len)
        .map(|target| (target, 0))
        .collect();
    targets.sort_unstable();
    targets.dedup();

    // Pass 2: fuse greedily left to right, lower, and close a block each time
    // the next one's leader appears. An op leads a block iff it is the entry
    // op, its first pc is a target, or the op before it ends a block; a fused
    // pair's second half is never a target, so the targets of pass 1 are the
    // leaders among the resolved ops too. The pcs up to the next instruction
    // or the next target, whichever comes first, are a run of `Nop`s and
    // lower to one op. An op is an instruction, a pair or a run, and a run
    // ends at an instruction, a target or the end: that bounds the op count.
    let bound = 2 * program.instrs.len() + targets.len() + 1;
    let mut ops: Vec<ResolvedOp> = Vec::with_capacity(bound);
    let mut slots: Vec<ImageSlot> = Vec::with_capacity(bound);
    let mut rest = program.instrs.as_slice();
    let mut next_target = 0usize;
    let mut leader = 0usize;
    let mut image = 0u32;
    let mut pc = 0u32;
    while pc < len {
        let ridx = ops.len();
        let is_target = targets
            .get(next_target)
            .is_some_and(|&(target, _)| target == pc);
        if is_target {
            targets[next_target].1 = ridx as u32;
            next_target += 1;
        }
        if ridx > 0 && (is_target || ops[ridx - 1].ends_block()) {
            slots[leader].block_len = image - slots[leader].at;
            leader = ridx;
        }
        let upcoming = targets.get(next_target).map_or(len, |&(target, _)| target);
        let (op, pcs) = match rest {
            [(at, instr), after @ ..] if *at == pc => match after {
                [(next_at, next), ..]
                    if *next_at == pc + 1 && upcoming != pc + 1 && can_fuse(instr, next) =>
                {
                    rest = &after[1..];
                    (lower_fused(instr, next), 2)
                }
                _ => {
                    rest = after;
                    (lower_one(instr, got), 1)
                }
            },
            _ => {
                let end = rest.first().map_or(len, |&(at, _)| at).min(upcoming);
                (ResolvedOp::Nops { count: end - pc }, end - pc)
            }
        };
        slots.push(ImageSlot {
            at: image,
            block_len: 0,
        });
        image += op.image_ops();
        ops.push(op);
        pc += pcs;
    }
    if let Some(open) = slots.get_mut(leader) {
        open.block_len = image - open.at;
    }

    // The ops were lowered carrying original targets: now that every target
    // has its op, patch the few that carry one. A target past the end
    // (possible in an unverified program — executing it faults lazily) is mapped past the end of the ops, preserving its distance
    // beyond the original end so the out-of-bounds error can name the
    // original pc.
    let resolved_len = ops.len() as u32;
    for op in &mut ops {
        if let Some(target) = op.target_mut() {
            *target = match targets.binary_search_by_key(target, |&(pc, _)| pc) {
                Ok(at) => targets[at].1,
                Err(_) => resolved_len + (*target - len),
            };
        }
    }

    ResolvedProgram {
        ops,
        slots,
        image_ops: image,
        orig_len: len,
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
/// target, which [`resolve`] patches once every target has its op.
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
/// in [`lower_fused`]. A `Nop` is a run of one (the oracle lowers it so;
/// [`resolve`] never meets one).
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
        Instr::Nop => ResolvedOp::Nops { count: 1 },
        Instr::Ret => ResolvedOp::Ret,
    }
}

/// Issue time of one instruction: a core cycle at [`CORE_FREQ_GHZ`] over
/// [`INSTRS_PER_CYCLE`] (the paper's cores are "modern superscalar"), charged on
/// top of memory time. Each extern call adds [`EXTERN_CALL_OVERHEAD`] (call and
/// return through the indirection).
fn issue_cost() -> SimTime {
    SimTime::from_cycles(1, CORE_FREQ_GHZ) * (1.0 / INSTRS_PER_CYCLE)
}

#[inline]
fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a % b
            }
        }
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
    /// Functionally equivalent to running the program the image was lowered
    /// from, one instruction at a time, with the GOT it was lowered against:
    /// same results, same memory effects, same errors (including lazy GOT-call
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
        let issue_cost = issue_cost();
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
                let slot = resolved.slots[pc];
                if slot.block_len > 0 {
                    stats.fetch_time += bus.access(
                        cfg.core,
                        cfg.code_base + (slot.at as usize * RESOLVED_OP_BYTES) as u64,
                        slot.block_len as usize * RESOLVED_OP_BYTES,
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
                ResolvedOp::Nops { count } => {
                    // The run's first `Nop` retired above; the rest retire at
                    // once, and the fuel runs out exactly when it would have
                    // on one of them.
                    let rest = u64::from(count) - 1;
                    if stats.instructions + rest > cfg.fuel {
                        return Err(ExecError::FuelExhausted);
                    }
                    stats.instructions += rest;
                }
                ResolvedOp::Ret => {
                    stats.result = regs[0];
                    // Every retired instruction costs one issue slot and every
                    // extern call its overhead, whatever order they came in.
                    stats.compute_time =
                        issue_cost * stats.instructions + EXTERN_CALL_OVERHEAD * stats.extern_calls;
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
/// map, lowering, leaders, block lengths) over six vectors and lowered every
/// `Nop` to an op of its own — but for its lowering step, which now remaps the
/// target `lower_*` leave original. The reference the property test below
/// compares [`ResolvedProgram::materialise`]d images with.
#[cfg(test)]
mod oracle {
    use super::*;

    /// An image an op per lowered instruction or fused pair — a `Nop` as a
    /// run of one — with targets and block lengths in that layout's terms:
    /// the image the model sizes and fetches from.
    #[derive(Debug, PartialEq, Eq)]
    pub(super) struct Materialised {
        pub(super) ops: Vec<ResolvedOp>,
        pub(super) block_len: Vec<u32>,
    }

    impl ResolvedProgram {
        /// Lay the image out as [`Materialised`]: each `Nops` op as `count`
        /// runs of one, each target at the position of the op it names.
        pub(super) fn materialise(&self) -> Materialised {
            let position = |target: u32| match self.slots.get(target as usize) {
                Some(slot) => slot.at,
                None => self.image_ops + (target - self.ops.len() as u32),
            };
            let mut image = Materialised {
                ops: Vec::new(),
                block_len: Vec::new(),
            };
            for (&op, slot) in self.ops.iter().zip(&self.slots) {
                assert_eq!(
                    slot.at as usize,
                    image.ops.len(),
                    "{op:?} sits where it lands"
                );
                let mut op = op;
                if let Some(target) = op.target_mut() {
                    *target = position(*target);
                }
                let n = op.image_ops() as usize;
                let one = match op {
                    ResolvedOp::Nops { .. } => ResolvedOp::Nops { count: 1 },
                    op => op,
                };
                image.ops.extend(std::iter::repeat_n(one, n));
                image.block_len.push(slot.block_len);
                image.block_len.extend(std::iter::repeat_n(0, n - 1));
            }
            assert_eq!(image.ops.len(), self.image_ops as usize);
            image
        }
    }

    /// Map an original branch target to a resolved op index. In-bounds targets
    /// use the pc map; out-of-bounds targets are mapped past the end of the
    /// resolved op vector, preserving their distance beyond the original end.
    fn map_target(target: u32, pc_map: &[u32], orig_len: usize, resolved_len: usize) -> u32 {
        if (target as usize) < orig_len {
            pc_map[target as usize]
        } else {
            (resolved_len + (target as usize - orig_len)) as u32
        }
    }

    pub(super) fn resolve(program: &[Instr], got: &GotImage) -> Materialised {
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

        Materialised { ops, block_len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::Reg;
    use proptest::prelude::*;

    /// [`resolve`] over a program built in-process.
    fn lower(program: &[Instr], got: &GotImage) -> ResolvedProgram {
        resolve(&Program::from(program), got)
    }

    #[test]
    fn a_nop_run_stops_in_front_of_a_branch_target() {
        // 0: jump 4 | 1-3: nop | 4-5: nop (4 is the target) | 6: ret
        let mut prog = vec![Instr::Nop; 7];
        prog[0] = Instr::Jump { target: 4 };
        prog[6] = Instr::Ret;
        let resolved = lower(&prog, &GotImage::default());
        assert_eq!(
            resolved.ops,
            [
                ResolvedOp::Jump { target: 2 },
                ResolvedOp::Nops { count: 3 },
                ResolvedOp::Nops { count: 2 },
                ResolvedOp::Ret,
            ]
        );
        let slots: Vec<(u32, u32)> = resolved
            .slots
            .iter()
            .map(|slot| (slot.at, slot.block_len))
            .collect();
        assert_eq!(slots, [(0, 1), (1, 3), (4, 3), (6, 0)]);
        let image = resolved.materialise();
        assert_eq!(image.block_len, [1, 3, 0, 0, 3, 0, 0]);
        assert_eq!(image.ops[0], ResolvedOp::Jump { target: 4 });
        assert_eq!(image, oracle::resolve(&prog, &GotImage::default()));
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
            prop_assert_eq!(lower(&program, &got).materialise(), oracle::resolve(&program, &got));
        }
    }

    #[test]
    fn image_bytes_scale_with_op_count() {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 1).ret();
        let prog = a.finish().unwrap();
        let resolved = lower(&prog, &GotImage::default());
        assert_eq!(resolved.len(), 2);
        assert!(!resolved.is_empty());
        assert_eq!(resolved.image_bytes(), 2 * RESOLVED_OP_BYTES);
        // A run of padding is one op, and each of its instructions one op of
        // the modelled image.
        let mut padded = prog.clone();
        padded.splice(1..1, [Instr::Nop; 100]);
        let resolved = lower(&padded, &GotImage::default());
        assert_eq!(resolved.len(), 3);
        assert_eq!(resolved.image_bytes(), 102 * RESOLVED_OP_BYTES);
    }

    #[test]
    fn all_alu_ops_behave() {
        assert_eq!(alu(AluOp::Add, u64::MAX, 1), 0, "wrapping add");
        assert_eq!(alu(AluOp::Sub, 0, 1), u64::MAX, "wrapping sub");
        assert_eq!(alu(AluOp::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(alu(AluOp::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(alu(AluOp::Xor, 0b1100, 0b1010), 0b0110);
        assert_eq!(alu(AluOp::Shl, 1, 65), 2, "shift amount masked to 6 bits");
        assert_eq!(alu(AluOp::Shr, 8, 2), 2);
        assert_eq!(alu(AluOp::Rem, 17, 5), 2);
        assert_eq!(
            alu(AluOp::Rem, 17, 0),
            0,
            "divide by zero yields zero, no trap"
        );
    }

    #[test]
    fn got_slots_lower_to_a_direct_call_and_lazy_error_ops() {
        let mut got = GotImage::with_slots(3);
        got.set(0, ExternRef::Resolved(7));
        got.set(2, ExternRef::Data(0x1234));
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 41)
            .call_extern(0, 1)
            .ret()
            .call_extern(1, 0)
            .call_extern(2, 0);
        let resolved = lower(&a.finish().unwrap(), &got);
        assert_eq!(
            resolved.ops[1..],
            [
                ResolvedOp::CallDirect { index: 7, nargs: 1 },
                ResolvedOp::Ret,
                ResolvedOp::CallUnresolved { slot: 1 },
                ResolvedOp::CallNotCallable { slot: 2 },
            ]
        );
    }
}
