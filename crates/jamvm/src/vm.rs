//! The interpreter: the reference engine.
//!
//! The runtime executes jams through [`Vm::execute_resolved`] only; the
//! interpreter is what the differential suites (`tests/resolved_exec.rs`,
//! `tests/wrapping_address.rs`) compare that engine against, so its job is to
//! be the plain, instruction-at-a-time statement of the semantics.
//!
//! [`Vm::execute`] runs verified bytecode against a [`JamSpace`] (a plain
//! [`crate::memory::AddressSpace`] or a per-shard
//! [`crate::memory::ShardSpace`] view), an
//! [`ExternTable`] and a [`GotImage`], charging every instruction fetch and every
//! data access to the supplied [`MemoryBus`]. The returned [`ExecStats`] carry both
//! the functional result (the value left in `r0`) and the virtual time the execution
//! cost — which depends on where the code and data landed (LLC if the message was
//! stashed, DRAM otherwise), reproducing the effect the paper measures.

use twochains_memsim::cost::{CORE_FREQ_GHZ, EXTERN_CALL_OVERHEAD, INSTRS_PER_CYCLE};
use twochains_memsim::{AccessKind, MemoryBus, SimTime};

use crate::encode::encoded_size;
use crate::externs::{ExternCtx, ExternRef, ExternTable, GotImage};
use crate::isa::{hash64, AluOp, Cond, Instr, NUM_REGS};
use crate::memory::JamSpace;

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the program (should be prevented by the verifier).
    PcOutOfBounds {
        /// Offending pc.
        pc: usize,
    },
    /// A memory access faulted.
    Fault(String),
    /// A `CallExtern` went through an unresolved GOT slot.
    UnresolvedGot {
        /// The slot index.
        slot: u16,
    },
    /// A GOT slot resolved to a data address but was called as a function.
    NotCallable {
        /// The slot index.
        slot: u16,
    },
    /// The extern function itself failed.
    ExternFailed(String),
    /// The instruction budget was exhausted (runaway loop protection).
    FuelExhausted,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfBounds { pc } => write!(f, "pc {pc} out of bounds"),
            ExecError::Fault(m) => write!(f, "memory fault: {m}"),
            ExecError::UnresolvedGot { slot } => {
                write!(f, "call through unresolved GOT slot {slot}")
            }
            ExecError::NotCallable { slot } => write!(f, "GOT slot {slot} is data, not callable"),
            ExecError::ExternFailed(m) => write!(f, "extern function failed: {m}"),
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Issue time of one instruction: a core cycle at [`CORE_FREQ_GHZ`] over
/// [`INSTRS_PER_CYCLE`] (the paper's cores are "modern superscalar"), charged on
/// top of memory time. Each extern call adds [`EXTERN_CALL_OVERHEAD`] (call and
/// return through the indirection).
pub(crate) fn issue_cost() -> SimTime {
    SimTime::from_cycles(1, CORE_FREQ_GHZ) * (1.0 / INSTRS_PER_CYCLE)
}

/// Per-execution configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Core the receiver thread runs on (for cache-hierarchy charging).
    pub core: usize,
    /// Simulated base address of the code (so instruction fetches hit the same cache
    /// lines the NIC stashed). Zero disables fetch charging.
    pub code_base: u64,
    /// Maximum number of instructions to retire before aborting.
    pub fuel: u64,
    /// Initial values for registers `r0..r2` — the jam entry convention (ARGS base,
    /// USR base, USR length) — so that a cached program runs as it is, whatever
    /// message it runs for.
    pub entry_regs: [u64; 3],
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            core: 0,
            code_base: 0,
            fuel: 10_000_000,
            entry_regs: [0; 3],
        }
    }
}

/// Result of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Value left in `r0` when the jam returned.
    pub result: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Number of extern calls made.
    pub extern_calls: u64,
    /// Fused superinstructions executed (always 0 on the interpreter path; the
    /// resolved executor counts each fused pair it retires).
    pub superinstructions: u64,
    /// Time spent in instruction issue/ALU work.
    pub compute_time: SimTime,
    /// Time spent in data memory accesses (loads, stores, copies, extern memory work).
    pub memory_time: SimTime,
    /// Time spent fetching code (first touch comes from wherever the message landed).
    pub fetch_time: SimTime,
}

impl ExecStats {
    /// Total execution time.
    pub fn total_time(&self) -> SimTime {
        self.compute_time + self.memory_time + self.fetch_time
    }
}

/// The jam interpreter.
#[derive(Debug, Default)]
pub struct Vm;

impl Vm {
    /// Execute `program` to completion.
    ///
    /// The program should have passed [`crate::verify::verify`]; the interpreter
    /// still guards against out-of-bounds pc and faults so a malicious blob cannot
    /// break the host, but verification errors become runtime errors here.
    pub fn execute(
        program: &[Instr],
        got: &GotImage,
        externs: &ExternTable,
        space: &mut dyn JamSpace,
        bus: &mut dyn MemoryBus,
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
        // Byte offset of each instruction within the encoded .text, for fetch charging.
        let mut offsets = Vec::with_capacity(program.len());
        let mut acc = 0usize;
        for i in program {
            offsets.push(acc);
            acc += encoded_size(i);
        }
        let issue_cost = issue_cost();

        loop {
            if stats.instructions >= cfg.fuel {
                return Err(ExecError::FuelExhausted);
            }
            let instr = match program.get(pc) {
                Some(i) => *i,
                None => return Err(ExecError::PcOutOfBounds { pc }),
            };
            stats.instructions += 1;
            stats.compute_time += issue_cost;
            if cfg.code_base != 0 {
                stats.fetch_time += bus.access(
                    cfg.core,
                    cfg.code_base + offsets[pc] as u64,
                    encoded_size(&instr),
                    AccessKind::Fetch,
                );
            }
            let mut next_pc = pc + 1;
            match instr {
                Instr::LoadImm { dst, imm } => regs[dst.0 as usize] = imm,
                Instr::Mov { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
                Instr::Alu { op, dst, a, b } => {
                    let (x, y) = (regs[a.0 as usize], regs[b.0 as usize]);
                    regs[dst.0 as usize] = alu(op, x, y);
                }
                Instr::AluImm { op, dst, src, imm } => {
                    regs[dst.0 as usize] = alu(op, regs[src.0 as usize], imm);
                }
                Instr::Load {
                    width,
                    dst,
                    addr,
                    offset,
                } => {
                    let a = regs[addr.0 as usize].wrapping_add(offset as u64);
                    stats.memory_time += bus.access(cfg.core, a, width.bytes(), AccessKind::Read);
                    regs[dst.0 as usize] = space
                        .read_scalar(a, width.bytes())
                        .map_err(|e| ExecError::Fault(e.to_string()))?;
                }
                Instr::Store {
                    width,
                    src,
                    addr,
                    offset,
                } => {
                    let a = regs[addr.0 as usize].wrapping_add(offset as u64);
                    stats.memory_time += bus.access(cfg.core, a, width.bytes(), AccessKind::Write);
                    space
                        .write_scalar(a, regs[src.0 as usize], width.bytes())
                        .map_err(|e| ExecError::Fault(e.to_string()))?;
                }
                Instr::Memcpy { dst, src, len } => {
                    let (d, s, n) = (
                        regs[dst.0 as usize],
                        regs[src.0 as usize],
                        regs[len.0 as usize] as usize,
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
                Instr::Jump { target } => next_pc = target as usize,
                Instr::Branch { cond, a, b, target } => {
                    let (x, y) = (regs[a.0 as usize], regs[b.0 as usize]);
                    let taken = match cond {
                        Cond::Zero => x == 0,
                        Cond::NotZero => x != 0,
                        Cond::Less => x < y,
                        Cond::GreaterEq => x >= y,
                    };
                    if taken {
                        next_pc = target as usize;
                    }
                }
                Instr::CallExtern { slot, nargs } => {
                    stats.extern_calls += 1;
                    stats.compute_time += EXTERN_CALL_OVERHEAD;
                    let idx = match got.get(slot as usize) {
                        ExternRef::Resolved(i) => i,
                        ExternRef::Unresolved => return Err(ExecError::UnresolvedGot { slot }),
                        ExternRef::Data(_) => return Err(ExecError::NotCallable { slot }),
                    };
                    let mut ctx = ExternCtx {
                        space,
                        bus,
                        core: cfg.core,
                        elapsed: SimTime::ZERO,
                    };
                    let r = externs
                        .call(idx, &mut ctx, &regs[..nargs as usize])
                        .map_err(ExecError::ExternFailed)?;
                    stats.memory_time += ctx.elapsed;
                    regs[0] = r;
                }
                Instr::Hash { dst, src } => regs[dst.0 as usize] = hash64(regs[src.0 as usize]),
                Instr::Nop => {}
                Instr::Ret => {
                    stats.result = regs[0];
                    return Ok(stats);
                }
            }
            pc = next_pc;
        }
    }
}

#[inline]
pub(crate) fn alu(op: AluOp, a: u64, b: u64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::{Reg, Width};
    use crate::memory::{AddressSpace, Segment, SegmentKind};
    use std::sync::Arc;
    use twochains_memsim::hierarchy::FlatMemory;

    fn run(
        program: &[Instr],
        got: &GotImage,
        externs: &ExternTable,
        space: &mut AddressSpace,
    ) -> Result<ExecStats, ExecError> {
        let mut bus = FlatMemory::free();
        Vm::execute(program, got, externs, space, &mut bus, &VmConfig::default())
    }

    #[test]
    fn arithmetic_and_return() {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 6)
            .load_imm(Reg(1), 7)
            .mul(Reg(0), Reg(0), Reg(1))
            .ret();
        let prog = a.finish().unwrap();
        let stats = run(
            &prog,
            &GotImage::default(),
            &ExternTable::new(),
            &mut AddressSpace::new(),
        )
        .unwrap();
        assert_eq!(stats.result, 42);
        assert_eq!(stats.instructions, 4);
        assert!(stats.total_time() > SimTime::ZERO);
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
    fn loop_sums_payload() {
        // Sum 16 u32s stored in a payload segment — the core of Server-Side Sum.
        let mut space = AddressSpace::new();
        let values: Vec<u8> = (1u32..=16).flat_map(|v| v.to_le_bytes()).collect();
        space
            .map(Segment::new(
                "usr",
                0x2000,
                values,
                false,
                SegmentKind::Payload,
            ))
            .unwrap();

        let mut a = Assembler::new();
        // r1 = ptr, r2 = count, r0 = acc
        a.load_imm(Reg(1), 0x2000)
            .load_imm(Reg(2), 16)
            .load_imm(Reg(0), 0)
            .label("loop")
            .load(Width::B4, Reg(3), Reg(1), 0)
            .add(Reg(0), Reg(0), Reg(3))
            .add_imm(Reg(1), Reg(1), 4)
            .alu_imm(AluOp::Sub, Reg(2), Reg(2), 1)
            .jnz(Reg(2), "loop")
            .ret();
        let prog = a.finish().unwrap();
        let stats = run(&prog, &GotImage::default(), &ExternTable::new(), &mut space).unwrap();
        assert_eq!(stats.result, (1..=16u64).sum::<u64>());
        assert!(stats.instructions > 16 * 5);
    }

    #[test]
    fn memcpy_and_store_write_into_heap() {
        let mut space = AddressSpace::new();
        space
            .map(Segment::new(
                "usr",
                0x2000,
                vec![9u8; 64],
                false,
                SegmentKind::Payload,
            ))
            .unwrap();
        space
            .map(Segment::new(
                "heap",
                0x8000,
                vec![0u8; 128],
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 0x8000)
            .load_imm(Reg(2), 0x2000)
            .load_imm(Reg(3), 64)
            .memcpy(Reg(1), Reg(2), Reg(3))
            .load_imm(Reg(4), 0xAB)
            .store(Width::B1, Reg(4), Reg(1), 64)
            .load(Width::B8, Reg(0), Reg(1), 0)
            .ret();
        let prog = a.finish().unwrap();
        let stats = run(&prog, &GotImage::default(), &ExternTable::new(), &mut space).unwrap();
        assert_eq!(stats.result, u64::from_le_bytes([9; 8]));
        assert_eq!(space.read(0x8000, 64).unwrap(), &[9u8; 64][..]);
        assert_eq!(space.read(0x8040, 1).unwrap(), &[0xAB]);
    }

    #[test]
    fn extern_call_through_got() {
        let mut externs = ExternTable::new();
        let idx = externs.register("scale", Arc::new(|_ctx, args| Ok(args[0] * args[1])));
        let mut got = GotImage::with_slots(1);
        got.set(0, ExternRef::Resolved(idx));
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 21)
            .load_imm(Reg(1), 2)
            .call_extern(0, 2)
            .ret();
        let prog = a.finish().unwrap();
        let stats = run(&prog, &got, &externs, &mut AddressSpace::new()).unwrap();
        assert_eq!(stats.result, 42);
        assert_eq!(stats.extern_calls, 1);
    }

    #[test]
    fn unresolved_got_slot_is_an_error() {
        let mut a = Assembler::new();
        a.call_extern(0, 0).ret();
        let prog = a.finish().unwrap();
        let err = run(
            &prog,
            &GotImage::with_slots(1),
            &ExternTable::new(),
            &mut AddressSpace::new(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::UnresolvedGot { slot: 0 });
    }

    #[test]
    fn data_slot_is_not_callable() {
        let mut got = GotImage::with_slots(1);
        got.set(0, ExternRef::Data(0x1234));
        let mut a = Assembler::new();
        a.call_extern(0, 0).ret();
        let prog = a.finish().unwrap();
        let err = run(&prog, &got, &ExternTable::new(), &mut AddressSpace::new()).unwrap_err();
        assert_eq!(err, ExecError::NotCallable { slot: 0 });
    }

    #[test]
    fn extern_failure_propagates() {
        let mut externs = ExternTable::new();
        let idx = externs.register("boom", Arc::new(|_ctx, _args| Err("kaboom".to_string())));
        let mut got = GotImage::with_slots(1);
        got.set(0, ExternRef::Resolved(idx));
        let mut a = Assembler::new();
        a.call_extern(0, 0).ret();
        let prog = a.finish().unwrap();
        let err = run(&prog, &got, &externs, &mut AddressSpace::new()).unwrap_err();
        assert!(matches!(err, ExecError::ExternFailed(m) if m.contains("kaboom")));
    }

    #[test]
    fn fault_on_unmapped_memory() {
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 0xdead_0000)
            .load(Width::B8, Reg(0), Reg(1), 0)
            .ret();
        let prog = a.finish().unwrap();
        let err = run(
            &prog,
            &GotImage::default(),
            &ExternTable::new(),
            &mut AddressSpace::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Fault(_)));
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let mut a = Assembler::new();
        a.label("spin").jump("spin");
        let prog = a.finish().unwrap();
        let mut bus = FlatMemory::free();
        let cfg = VmConfig {
            fuel: 1000,
            ..VmConfig::default()
        };
        let err = Vm::execute(
            &prog,
            &GotImage::default(),
            &ExternTable::new(),
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err, ExecError::FuelExhausted);
    }

    #[test]
    fn fetch_time_charged_when_code_base_set() {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 1).ret();
        let prog = a.finish().unwrap();
        let mut bus = FlatMemory::free();
        bus.per_access = SimTime::from_ns(3);
        let cfg = VmConfig {
            code_base: 0x7000,
            ..VmConfig::default()
        };
        let stats = Vm::execute(
            &prog,
            &GotImage::default(),
            &ExternTable::new(),
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap();
        assert!(
            stats.fetch_time >= SimTime::from_ns(6),
            "two instruction fetches charged"
        );
        assert_eq!(stats.result, 1);
    }

    #[test]
    fn entry_regs_seed_initial_register_state() {
        // r0 + r1, where both registers arrive via the entry convention.
        let mut a = Assembler::new();
        a.add(Reg(0), Reg(0), Reg(1)).ret();
        let prog = a.finish().unwrap();
        let mut bus = FlatMemory::free();
        let cfg = VmConfig {
            entry_regs: [40, 2, 0],
            ..VmConfig::default()
        };
        let stats = Vm::execute(
            &prog,
            &GotImage::default(),
            &ExternTable::new(),
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap();
        assert_eq!(stats.result, 42);
    }

    #[test]
    fn exec_error_display() {
        assert!(ExecError::FuelExhausted.to_string().contains("budget"));
        assert!(ExecError::UnresolvedGot { slot: 2 }
            .to_string()
            .contains("GOT slot 2"));
    }
}
