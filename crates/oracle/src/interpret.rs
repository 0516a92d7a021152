//! The jam interpreter: the reference engine.
//!
//! [`interpret()`] runs a decoded program against a [`JamSpace`], an
//! [`ExternTable`] and a [`GotImage`], one instruction at a time, charging
//! every instruction fetch and every data access to the supplied
//! [`MemoryBus`]. It chases each GOT slot when a call reaches it and charges
//! one fetch per retired instruction; the shipped engine lowers the program
//! once and batches fetches per block, and the differential suites pin the two
//! observationally equal.
//!
//! The arithmetic is stated here again, not borrowed from the engine: the ALU
//! follows [`AluOp`]'s documented semantics, and the issue cost is derived
//! from [`CORE_FREQ_GHZ`] and [`INSTRS_PER_CYCLE`].

use twochains_jamvm::externs::ExternCtx;
use twochains_jamvm::isa::{hash64, AluOp, Cond, NUM_REGS};
use twochains_jamvm::{
    encoded_size, ExecError, ExecStats, ExternRef, ExternTable, GotImage, Instr, JamSpace, VmConfig,
};
use twochains_memsim::cost::{CORE_FREQ_GHZ, EXTERN_CALL_OVERHEAD, INSTRS_PER_CYCLE};
use twochains_memsim::{AccessKind, MemoryBus, SimTime};

/// Issue time of one instruction: a core cycle at [`CORE_FREQ_GHZ`], in whole
/// picoseconds, shared by the [`INSTRS_PER_CYCLE`] instructions it retires.
fn issue_cost() -> SimTime {
    let cycle_ps = (1_000.0 / CORE_FREQ_GHZ).round();
    SimTime::from_ps((cycle_ps / INSTRS_PER_CYCLE).round() as u64)
}

/// `a op b`, as [`AluOp`] documents each operation.
fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b % 64),
        AluOp::Shr => a >> (b % 64),
        AluOp::Rem => a.checked_rem(b).unwrap_or(0),
    }
}

/// Execute `program` to completion.
///
/// The program should have passed [`twochains_jamvm::verify()`]; the interpreter
/// still guards against out-of-bounds pc and faults so a malicious blob cannot
/// break the host, but verification errors become runtime errors here.
pub fn interpret(
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twochains_jamvm::isa::{Reg, Width};
    use twochains_jamvm::{AddressSpace, Assembler, Segment};
    use twochains_memsim::hierarchy::FlatMemory;

    fn run(
        program: &[Instr],
        got: &GotImage,
        externs: &ExternTable,
        space: &mut AddressSpace,
    ) -> Result<ExecStats, ExecError> {
        let mut bus = FlatMemory::free();
        interpret(program, got, externs, space, &mut bus, &VmConfig::default())
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
    fn loop_sums_payload() {
        // Sum 16 u32s stored in a payload segment — the core of Server-Side Sum.
        let mut space = AddressSpace::new();
        let values: Vec<u8> = (1u32..=16).flat_map(|v| v.to_le_bytes()).collect();
        space
            .map(Segment::new("usr", 0x2000, values, false))
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
            .map(Segment::new("usr", 0x2000, vec![9u8; 64], false))
            .unwrap();
        space
            .map(Segment::new("heap", 0x8000, vec![0u8; 128], true))
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
        let err = interpret(
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
        let stats = interpret(
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
        let stats = interpret(
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
}

/// The shipped engine against the interpreter, on hand-written programs that
/// pin one lowering each: fusion, a target that blocks it, lazy GOT errors,
/// out-of-bounds pcs, fuel and block-batched fetch.
#[cfg(test)]
mod against_resolved {
    use super::*;
    use std::sync::Arc;
    use twochains_jamvm::isa::{Reg, Width};
    use twochains_jamvm::{
        resolve, AddressSpace, Assembler, Program, ResolvedProgram, Segment, Vm,
    };
    use twochains_memsim::hierarchy::FlatMemory;

    /// [`resolve`] over a program built in-process.
    fn lower(program: &[Instr], got: &GotImage) -> ResolvedProgram {
        resolve(&Program::from(program), got)
    }

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
        let interp = interpret(program, got, externs, &mut space_a, &mut bus_a, &cfg);
        let resolved = lower(program, got);
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
        let seg = Segment::new("usr", 0x2000, values, false);

        let cfg = VmConfig::default();
        let mut space_a = AddressSpace::new();
        space_a.map(seg.clone()).unwrap();
        let mut bus_a = FlatMemory::free();
        let got = GotImage::default();
        let externs = ExternTable::new();
        let interp = interpret(&prog, &got, &externs, &mut space_a, &mut bus_a, &cfg).unwrap();

        let resolved = lower(&prog, &got);
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
        // The ops each slot lowers to are jamvm's to pin
        // (`got_slots_lower_to_a_direct_call_and_lazy_error_ops`).
        let (interp, res, _) = run_both(&prog, &got, &externs);
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
            let interp = interpret(
                &prog,
                &got,
                &externs,
                &mut AddressSpace::new(),
                &mut bus,
                &cfg,
            );
            let resolved = lower(&prog, &got);
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
        let interp = interpret(
            &prog,
            &got,
            &externs,
            &mut AddressSpace::new(),
            &mut bus,
            &cfg,
        )
        .unwrap();
        let resolved = lower(&prog, &got);
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
    fn empty_program_faults_at_pc_zero() {
        let (interp, res, resolved) = run_both(&[], &GotImage::default(), &ExternTable::new());
        assert!(resolved.is_empty());
        assert_eq!(interp.unwrap_err(), ExecError::PcOutOfBounds { pc: 0 });
        assert_eq!(res.unwrap_err(), ExecError::PcOutOfBounds { pc: 0 });
    }
}
