//! An access whose byte range wraps the address space is a fault.
//!
//! The VM forms effective addresses with wrapping arithmetic, so a
//! verifier-passing jam can name `[u64::MAX - 3, u64::MAX + 5)`. The segment
//! containment test and the cache models' line-range computation used to add
//! the length unchecked: such an access indexed a segment's bytes at offset
//! ~2^64 and panicked (release), or overflowed (debug). A mailbox is memory a
//! remote party writes and the receiver executes — it may reject what it
//! finds there, never panic on it.
//!
//! Nor may it stall on it. A `memcpy`'s length is a register the jam loads
//! freely, and both engines (and `ExternCtx::memcpy`) used to charge the bus
//! for `n` bytes on either side before asking the space whether the range
//! exists: `n = 2^30` from a 4 KiB heap walked 33.5 M modelled DRAM lines and
//! held the drain thread for 267 s before the fault it was always going to
//! return, burning no fuel; `2^40` would take days. The oversized-copy cases
//! below therefore do not *fail* on the code before that fix, they do not
//! finish — which is why they assert a fault and an untouched bus instead of
//! carrying a `should_panic`.
//!
//! Nor may the verifier pass an index the engines will use. It used to check
//! the registers an instruction's semantics *read*, and a `branch.zero` does
//! not read its second operand — but both engines (and the fused
//! `AluBranch` / `AluImmBranch` ops) index `regs[b]` before they look at the
//! condition, so the nine bytes of `branch.zero r0, r200, 1; ret` verified and
//! then panicked the drain thread with "the len is 16 but the index is 200".
//! The verifier now range-checks every register *field* of every form.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::jamvm::isa::{AluOp, Cond, Width};
use two_chains_suite::jamvm::{
    encode_program, resolve, verify, AddressSpace, Assembler, ExecError, ExternTable, GotImage,
    Instr, Reg, Segment, SegmentKind, VerifyError, Vm, VmConfig,
};
use two_chains_suite::memsim::hierarchy::FlatMemory;
use two_chains_suite::memsim::{CoreCacheStats, SharedHierarchy, SimTime, TestbedConfig};
use twochains::builtin::benchmark_package;
use twochains::{AmError, Frame, RuntimeConfig, SenderFleet, TwoChainsHost};

use std::sync::Arc;

const HEAP_BASE: u64 = 0x5000;

/// `load_imm r1, u64::MAX - 3; load.b8 r0, [r1]; ret` and its store and
/// memcpy siblings: every one passes the verifier.
fn wrapping_programs() -> Vec<(&'static str, Vec<Instr>)> {
    let near_top = u64::MAX - 3;
    let program = |build: &dyn Fn(&mut Assembler)| {
        let mut asm = Assembler::new();
        build(&mut asm);
        asm.ret();
        let program = asm.finish().unwrap();
        verify(&program, 0).expect("the verifier passes it");
        program
    };
    vec![
        (
            "load",
            program(&|a| {
                a.load_imm(Reg(1), near_top)
                    .load(Width::B8, Reg(0), Reg(1), 0);
            }),
        ),
        (
            "load through the offset",
            program(&|a| {
                a.load_imm(Reg(1), u64::MAX - 40)
                    .load(Width::B8, Reg(0), Reg(1), 36);
            }),
        ),
        (
            "store",
            program(&|a| {
                a.load_imm(Reg(1), near_top)
                    .store(Width::B8, Reg(0), Reg(1), 0);
            }),
        ),
        (
            "memcpy from a wrapping source",
            program(&|a| {
                a.load_imm(Reg(1), HEAP_BASE)
                    .load_imm(Reg(2), near_top)
                    .load_imm(Reg(3), 16)
                    .memcpy(Reg(1), Reg(2), Reg(3));
            }),
        ),
        (
            "memcpy to a wrapping destination",
            program(&|a| {
                a.load_imm(Reg(1), near_top)
                    .load_imm(Reg(2), HEAP_BASE)
                    .load_imm(Reg(3), 16)
                    .memcpy(Reg(1), Reg(2), Reg(3));
            }),
        ),
    ]
}

#[test]
fn both_engines_fault_on_a_range_that_wraps_the_address_space() {
    let got = GotImage::with_slots(0);
    let externs = ExternTable::new();
    let hierarchy = Arc::new(SharedHierarchy::new(TestbedConfig::tiny_for_tests()));
    // A real per-core bus, so the cache model's line range is computed too.
    let mut bus = hierarchy.core_bus(0);
    let cfg = VmConfig {
        code_base: 0x4000_0000,
        ..VmConfig::default()
    };
    for (what, program) in wrapping_programs() {
        let mut space = AddressSpace::new();
        space
            .map(Segment::new(
                "heap",
                HEAP_BASE,
                vec![7; 64],
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        let interpreted = Vm::execute(&program, &got, &externs, &mut space, &mut bus, &cfg);
        assert!(
            matches!(interpreted, Err(ExecError::Fault(_))),
            "{what}, interpreted: {interpreted:?}"
        );
        let image = resolve(&program, &got);
        let resolved = Vm::execute_resolved(&image, &externs, &mut space, &mut bus, &cfg);
        assert_eq!(resolved, interpreted, "{what}");
        assert_eq!(space.segment("heap").unwrap().data, vec![7; 64], "{what}");
    }
}

/// `memcpy` of `2^30` and `2^40` bytes out of a mapped segment and into one,
/// three or four instructions each, every one passing the verifier. `r0` and
/// `r1` enter holding two mapped addresses (the jam entry convention: ARGS
/// base, USR base).
fn oversized_copies() -> Vec<(&'static str, Vec<Instr>)> {
    // Copy `len` bytes to `[r1]`: from `[r0]`, or from an address nothing maps.
    let copy = |from_nowhere: bool, len: u64| {
        let mut asm = Assembler::new();
        asm.load_imm(Reg(3), len);
        let src = if from_nowhere {
            asm.load_imm(Reg(4), 0x9000_0000_0000);
            Reg(4)
        } else {
            Reg(0)
        };
        asm.memcpy(Reg(1), src, Reg(3)).ret();
        let program = asm.finish().unwrap();
        verify(&program, 0).expect("the verifier passes it");
        program
    };
    vec![
        ("2^30 bytes from a mapped base", copy(false, 1 << 30)),
        ("2^30 bytes to a mapped base", copy(true, 1 << 30)),
        ("2^40 bytes from a mapped base", copy(false, 1 << 40)),
        ("2^40 bytes to a mapped base", copy(true, 1 << 40)),
    ]
}

#[test]
fn both_engines_fault_on_an_oversized_copy_before_charging_it() {
    let got = GotImage::with_slots(0);
    let externs = ExternTable::new();
    let hierarchy = Arc::new(SharedHierarchy::new(TestbedConfig::cluster2021()));
    let mut core_bus = hierarchy.core_bus(0);
    // No fetch charging, so any access either bus sees is the copy's.
    let cfg = VmConfig {
        code_base: 0,
        entry_regs: [HEAP_BASE, HEAP_BASE + 2048, 0],
        ..VmConfig::default()
    };
    let heap: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    for (what, program) in oversized_copies() {
        let mut space = AddressSpace::new();
        space
            .map(Segment::new(
                "heap",
                HEAP_BASE,
                heap.clone(),
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        let image = resolve(&program, &got);

        let mut counting = FlatMemory::free();
        let interpreted = Vm::execute(&program, &got, &externs, &mut space, &mut counting, &cfg);
        assert!(
            matches!(&interpreted, Err(ExecError::Fault(why)) if why.contains("unmapped")),
            "{what}, interpreted: {interpreted:?}"
        );
        let resolved = Vm::execute_resolved(&image, &externs, &mut space, &mut counting, &cfg);
        assert_eq!(resolved, interpreted, "{what}");
        assert_eq!(counting.accesses, 0, "{what}: charged a copy that faulted");

        let on_core = Vm::execute(&program, &got, &externs, &mut space, &mut core_bus, &cfg);
        assert_eq!(on_core, interpreted, "{what}");
        let on_core = Vm::execute_resolved(&image, &externs, &mut space, &mut core_bus, &cfg);
        assert_eq!(on_core, interpreted, "{what}");
        assert_eq!(core_bus.stats(), CoreCacheStats::default(), "{what}");
        assert_eq!(
            (
                hierarchy.stats().dram_accesses,
                hierarchy.dram_model_accesses()
            ),
            (0, 0),
            "{what}"
        );
        assert_eq!(space.segment("heap").unwrap().data, heap, "{what}");
    }
}

/// An injected frame for an element outside the installed package, carrying
/// an empty GOT and `program`.
fn injected(sn: u32, program: &[Instr]) -> Vec<u8> {
    Frame::injected(
        sn,
        999,
        GotImage::with_slots(0).to_bytes(),
        encode_program(program),
        vec![0; 20],
        vec![0; 8],
    )
    .encode()
}

/// What the jams above are rejected with: a fault raised while executing.
fn faults_unmapped(err: &AmError) -> bool {
    matches!(err, AmError::Exec(why) if why.contains("unmapped"))
}

/// Each of `hostile` lands in a slot of its own with a well-behaved frame
/// behind them: every hostile one retires as a rejection (one `rejection`
/// accepts) with its credit, the last frame executes.
fn hostile_frames_are_rejected_alone(
    cfg: RuntimeConfig,
    hostile: Vec<(&'static str, Vec<Instr>)>,
    rejection: fn(&AmError) -> bool,
) {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    // The session installs the credit path.
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let mut raw = fabric.endpoint(a, b).unwrap();

    let mut good = Assembler::new();
    good.load_imm(Reg(0), 77).ret();
    let good = good.finish().unwrap();
    // One hostile frame per slot, the well-behaved one behind them.
    let mut arrival = SimTime::ZERO;
    let programs = hostile.iter().map(|(_, program)| program).chain([&good]);
    for (slot, program) in programs.enumerate() {
        let target = host.mailbox_target(0, slot).unwrap();
        let frame = injected(slot as u32 + 1, program);
        let put = raw
            .put(arrival, &frame, &target.region, target.offset)
            .unwrap();
        arrival = put.delivered;
    }

    let out = host
        .receive_burst(0, usize::MAX, arrival)
        .expect("a faulting jam must not abort the burst");
    let drained: Vec<_> = out
        .frames
        .iter()
        .map(|f| (f.bank, f.slot, f.outcome.result))
        .collect();
    assert_eq!(drained, vec![(0, hostile.len(), 77)]);
    assert_eq!(out.rejected.len(), hostile.len());
    for (slot, (bank, rejected_slot, err)) in out.rejected.iter().enumerate() {
        assert_eq!((*bank, *rejected_slot), (0, slot));
        assert!(rejection(err), "{}: {err:?}", hostile[slot].0);
    }
    let stats = host.stats();
    let frames = hostile.len() as u64 + 1;
    assert_eq!(
        (
            stats.executions,
            stats.frames_rejected,
            stats.credits_returned
        ),
        (1, frames - 1, frames),
        "one credit per retired frame, executed or rejected"
    );
    let lane = fleet.lane(0).unwrap();
    for slot in 0..host.config().mailboxes_per_bank {
        assert_eq!(
            lane.credit_pending(0, slot).unwrap(),
            slot < frames as usize,
            "credit token of (0, {slot})"
        );
    }
}

#[test]
fn receive_burst_rejects_a_wrapping_jam_and_executes_the_next_frame() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default(),
        wrapping_programs(),
        faults_unmapped,
    );
}

#[test]
fn receive_burst_rejects_a_wrapping_jam_under_the_interpreter_and_shard_local_space() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default()
            .with_interpreted_execution()
            .with_shard_local_space(),
        wrapping_programs(),
        faults_unmapped,
    );
}

#[test]
fn receive_burst_rejects_an_oversized_copy_and_executes_the_next_frame() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default(),
        oversized_copies(),
        faults_unmapped,
    );
}

#[test]
fn receive_burst_rejects_an_oversized_copy_under_the_interpreter_and_shard_local_space() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default()
            .with_interpreted_execution()
            .with_shard_local_space(),
        oversized_copies(),
        faults_unmapped,
    );
}

/// Branches on zero / non-zero whose *second* register field — the one the
/// condition ignores — names a register that does not exist: alone, and
/// behind an ALU op it fuses with in the resolved image.
fn unread_register_programs() -> Vec<(&'static str, Vec<Instr>)> {
    let branch = |cond, b, target| Instr::Branch {
        cond,
        a: Reg(0),
        b: Reg(b),
        target,
    };
    vec![
        (
            "branch.zero r0, r200, 1; ret",
            vec![branch(Cond::Zero, 200, 1), Instr::Ret],
        ),
        (
            "add r0, r0, r0; branch.notzero r0, r16, 2; ret",
            vec![
                Instr::Alu {
                    op: AluOp::Add,
                    dst: Reg(0),
                    a: Reg(0),
                    b: Reg(0),
                },
                branch(Cond::NotZero, 16, 2),
                Instr::Ret,
            ],
        ),
        (
            "sub r0, r0, 1; branch.zero r0, r255, 2; ret",
            vec![
                Instr::AluImm {
                    op: AluOp::Sub,
                    dst: Reg(0),
                    src: Reg(0),
                    imm: 1,
                },
                branch(Cond::Zero, 255, 2),
                Instr::Ret,
            ],
        ),
    ]
}

#[test]
fn the_verifier_rejects_a_register_field_the_condition_does_not_read() {
    for (what, program) in unread_register_programs() {
        let at = program.len() - 2;
        assert!(matches!(program[at], Instr::Branch { .. }), "{what}");
        assert_eq!(
            verify(&program, 0),
            Err(VerifyError::BadRegister { at }),
            "{what}"
        );
    }
    assert_eq!(
        encode_program(&unread_register_programs()[0].1),
        [0x09, 0x00, 0x00, 0xc8, 0x01, 0x00, 0x00, 0x00, 0x0d],
        "the nine bytes that took a drain thread down"
    );
}

/// Every instruction form × every register field it encodes, set to the first
/// index past the file (16) and to the last a byte holds (255): no form is
/// exempt, each is `BadRegister` — so neither engine ever sees one.
#[test]
fn every_register_field_of_every_form_is_range_checked() {
    type Form = (&'static str, usize, fn(&[Reg]) -> Instr);
    let forms: [Form; 12] = [
        ("load_imm", 1, |r| Instr::LoadImm { dst: r[0], imm: 1 }),
        ("mov", 2, |r| Instr::Mov {
            dst: r[0],
            src: r[1],
        }),
        ("hash", 2, |r| Instr::Hash {
            dst: r[0],
            src: r[1],
        }),
        ("alu", 3, |r| Instr::Alu {
            op: AluOp::Add,
            dst: r[0],
            a: r[1],
            b: r[2],
        }),
        ("alu_imm", 2, |r| Instr::AluImm {
            op: AluOp::Add,
            dst: r[0],
            src: r[1],
            imm: 1,
        }),
        ("load", 2, |r| Instr::Load {
            width: Width::B8,
            dst: r[0],
            addr: r[1],
            offset: 0,
        }),
        ("store", 2, |r| Instr::Store {
            width: Width::B8,
            src: r[0],
            addr: r[1],
            offset: 0,
        }),
        ("memcpy", 3, |r| Instr::Memcpy {
            dst: r[0],
            src: r[1],
            len: r[2],
        }),
        ("branch.zero", 2, |r| Instr::Branch {
            cond: Cond::Zero,
            a: r[0],
            b: r[1],
            target: 1,
        }),
        ("branch.notzero", 2, |r| Instr::Branch {
            cond: Cond::NotZero,
            a: r[0],
            b: r[1],
            target: 1,
        }),
        ("branch.less", 2, |r| Instr::Branch {
            cond: Cond::Less,
            a: r[0],
            b: r[1],
            target: 1,
        }),
        ("branch.greater_eq", 2, |r| Instr::Branch {
            cond: Cond::GreaterEq,
            a: r[0],
            b: r[1],
            target: 1,
        }),
    ];
    for (what, fields, form) in forms {
        let mut regs = [Reg(1), Reg(2), Reg(3)];
        assert_eq!(verify(&[form(&regs), Instr::Ret], 0), Ok(()), "{what}");
        for field in 0..fields {
            for index in [16, 255] {
                regs[field] = Reg(index);
                assert_eq!(
                    verify(&[form(&regs), Instr::Ret], 0),
                    Err(VerifyError::BadRegister { at: 0 }),
                    "{what}, field {field} = r{index}"
                );
            }
            regs[field] = Reg(1);
        }
    }
    // A call names `r0..nargs`: r15 is the last there is.
    for nargs in [17, 255] {
        assert_eq!(
            verify(&[Instr::CallExtern { slot: 0, nargs }, Instr::Ret], 1),
            Err(VerifyError::BadRegister { at: 0 }),
            "call_extern with {nargs} arguments"
        );
    }
}

fn names_an_invalid_register(err: &AmError) -> bool {
    matches!(err, AmError::BadFrame(why) if why.contains("invalid register"))
}

#[test]
fn receive_burst_rejects_an_unread_bad_register_and_executes_the_next_frame() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default(),
        unread_register_programs(),
        names_an_invalid_register,
    );
}

#[test]
fn receive_burst_rejects_an_unread_bad_register_under_the_interpreter_and_shard_local_space() {
    hostile_frames_are_rejected_alone(
        RuntimeConfig::paper_default()
            .with_interpreted_execution()
            .with_shard_local_space(),
        unread_register_programs(),
        names_an_invalid_register,
    );
}
