//! # twochains-jamvm
//!
//! A small, position-independent register bytecode and interpreter that stands in for
//! the native AArch64 function binaries the paper injects over the network.
//!
//! ## Why a VM instead of native code
//!
//! The paper compiles active-message functions ("jams") with `-fPIC -fno-plt`,
//! statically rewrites every GOT access to indirect through a pointer stored at a
//! known PC-relative location, ships the raw machine code in the message, and jumps
//! into it on arrival. Executing arbitrary native bytes received from the network is
//! exactly the part of the design this reproduction cannot (and should not) do
//! natively; the jam VM preserves every property the mechanism depends on:
//!
//! * **Position independence** — jam bytecode has no absolute addresses; all control
//!   flow is relative and all data is reached through registers set up from the
//!   message (ARGS/USR sections) or through the GOT.
//! * **GOT-indirect external references** — the only way a jam reaches code or data
//!   that lives on the receiver (a ried export, `memcpy`, a hash-table probe) is
//!   [`isa::Instr::CallExtern`] through a *GOT slot index*; the slot table travels
//!   with (or is patched into) the message exactly as in the paper.
//! * **A code blob measured in bytes** — [`encode`] produces the `.text` bytes whose
//!   size rides in the frame and shows up in the latency/bandwidth trade-off of
//!   Figs. 7–8 (the Indirect Put jam is 1408 bytes when shipped).
//! * **Real memory traffic** — every load/store the jam performs goes through a
//!   [`twochains_memsim::MemoryBus`], so the execution cost depends on whether the
//!   message was stashed into the LLC or landed in DRAM.
//!
//! Two execution engines share those properties: the interpreter
//! ([`vm::Vm::execute`]) re-decodes the program every run — the right model for a
//! cold first execution — and the resolved executor
//! ([`vm::Vm::execute_resolved`]) runs a [`resolved`] image lowered once by
//! [`resolve`]: flat pre-decoded operands, GOT indirections turned into direct
//! extern references (with lazy errors preserved), fused superinstructions and
//! block-batched instruction fetch. The two are pinned observationally equal by
//! differential tests; see the [`resolved`] module docs for the lowering, timing
//! and invalidation contracts.
//!
//! The crate is deliberately free of any dependency on the fabric or the runtime: it
//! knows nothing about messages, only about executing verified bytecode against an
//! [`memory::AddressSpace`] and an [`externs::ExternTable`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asm;
pub mod encode;
pub mod externs;
pub mod isa;
pub mod memory;
pub mod resolved;
pub mod verify;
pub mod vm;

pub use asm::Assembler;
pub use encode::{decode_program, encode_program, encoded_size};
pub use externs::{ExternRef, ExternTable, GotImage};
pub use isa::{hash64, hash64_bytes, Instr, Reg};
pub use memory::{AddressSpace, JamSpace, Segment, SegmentKind, SegmentMeta, ShardSpace};
pub use resolved::{resolve, ResolvedOp, ResolvedProgram, RESOLVED_OP_BYTES};
pub use verify::{verify, verify_with_floor, VerifyError};
pub use vm::{ExecError, ExecStats, Vm, VmConfig};
