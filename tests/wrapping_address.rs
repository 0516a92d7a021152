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
//! The verifier range-checks every register *field* of every form — the walk
//! it consumes is generated from the list that declares the forms — and a
//! byte-mutation sweep over the wire golden's samples holds that whatever it
//! lets through, neither engine panics on.
//!
//! Nor may it read a section as something its bytes do not say. A sender's
//! GOT slot holds a 56-bit payload and an extern index is 32 bits: the parser
//! kept `v as u32`, so under the permissive policy a slot of `2^32 + k`
//! called extern `k`, and two byte strings parsed to one image. Such a frame
//! is now a `GotImage` rejection, retired alone with its credit.
//!
//! Nor may a jam reach ried state by address. A GOT `Data` slot resolves to
//! the address a writable ried object has in the namespace, and no shard maps
//! that address: each holds an instance of its own elsewhere. A jam that
//! stores there faults unmapped, and one that calls the slot is refused as
//! not callable — `call_extern` is the only instruction that reads the GOT.

mod support;

use support::{fleet_testbed, foreign_injected, put, returns_77, FleetBed};
use two_chains_suite::jamvm::isa::{AluOp, Cond, Width};
use two_chains_suite::jamvm::{
    decode_program, encode_program, resolve, verify, AddressSpace, Assembler, ExecError, ExternRef,
    ExternTable, GotImage, Instr, Program, Reg, Segment, VerifyError, Vm, VmConfig,
};
use two_chains_suite::linker::LinkerNamespace;
use two_chains_suite::memsim::hierarchy::FlatMemory;
use two_chains_suite::memsim::{CoreCacheStats, SharedHierarchy, SimTime, TestbedConfig};
use twochains::builtin::benchmark_rieds;
use twochains::{AmError, RuntimeConfig};
use twochains_oracle::interpret;

use std::panic::{catch_unwind, AssertUnwindSafe};
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
        verify(&Program::from(&program[..]), 0).expect("the verifier passes it");
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
            .map(Segment::new("heap", HEAP_BASE, vec![7; 64], true))
            .unwrap();
        let interpreted = interpret(&program, &got, &externs, &mut space, &mut bus, &cfg);
        assert!(
            matches!(interpreted, Err(ExecError::Fault(_))),
            "{what}, interpreted: {interpreted:?}"
        );
        let image = resolve(&Program::from(&program[..]), &got);
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
        verify(&Program::from(&program[..]), 0).expect("the verifier passes it");
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
            .map(Segment::new("heap", HEAP_BASE, heap.clone(), true))
            .unwrap();
        let image = resolve(&Program::from(&program[..]), &got);

        let mut counting = FlatMemory::free();
        let interpreted = interpret(&program, &got, &externs, &mut space, &mut counting, &cfg);
        assert!(
            matches!(&interpreted, Err(ExecError::Fault(why)) if why.contains("unmapped")),
            "{what}, interpreted: {interpreted:?}"
        );
        let resolved = Vm::execute_resolved(&image, &externs, &mut space, &mut counting, &cfg);
        assert_eq!(resolved, interpreted, "{what}");
        assert_eq!(counting.accesses, 0, "{what}: charged a copy that faulted");

        let on_core = interpret(&program, &got, &externs, &mut space, &mut core_bus, &cfg);
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

/// What the jams above are rejected with: a fault raised while executing.
fn faults_unmapped(err: &AmError) -> bool {
    matches!(err, AmError::Exec(why) if why.contains("unmapped"))
}

/// One hostile injection: what it is, its GOT section, its jam, and the
/// test its rejection must pass.
type Hostile = (&'static str, Vec<u8>, Vec<Instr>, fn(&AmError) -> bool);

/// [`hostile_injections_are_rejected_alone`] for jams that need no GOT, all
/// rejected alike.
fn hostile_frames_are_rejected_alone(
    hostile: Vec<(&'static str, Vec<Instr>)>,
    rejection: fn(&AmError) -> bool,
) {
    let with_an_empty_got = |(what, program)| (what, Vec::new(), program, rejection);
    hostile_injections_are_rejected_alone(hostile.into_iter().map(with_an_empty_got).collect());
}

/// Each of `hostile` lands in a slot of its own with a well-behaved frame
/// behind them: every hostile one retires as a rejection (one its own test
/// accepts) with its credit, the last frame executes.
fn hostile_injections_are_rejected_alone(hostile: Vec<Hostile>) {
    // The session installs the credit path.
    let FleetBed {
        wire,
        mut host,
        fleet,
    } = fleet_testbed(RuntimeConfig::paper_default(), None);
    let mut raw = wire.raw();

    // One hostile frame per slot, each an injection outside the installed
    // package, and the well-behaved one behind them.
    let good = returns_77().to_vec();
    let mut arrival = SimTime::ZERO;
    let no_got = Vec::new();
    let injections = hostile.iter().map(|(_, got, program, _)| (got, program));
    for (slot, (got, program)) in injections.chain([(&no_got, &good)]).enumerate() {
        let frame = foreign_injected(slot as u32 + 1, got, program, &[0; 8]);
        arrival = put(&mut raw, &host, 0, slot, arrival, &frame).delivered;
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
        let (what, _, _, rejection) = &hostile[slot];
        assert!(rejection(err), "{what}: {err:?}");
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
    hostile_frames_are_rejected_alone(wrapping_programs(), faults_unmapped);
}

#[test]
fn receive_burst_rejects_an_oversized_copy_and_executes_the_next_frame() {
    hostile_frames_are_rejected_alone(oversized_copies(), faults_unmapped);
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
            verify(&Program::from(&program[..]), 0),
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

/// Every sample of the wire golden (`tests/golden/isa_wire.txt`: one of every
/// form, of every ALU op, width and condition) × every body byte × all 256
/// values, with no knowledge of any form's layout: whatever `decode` and
/// `verify` let through runs under both engines, which neither panic nor
/// disagree; and a mutant that differs from its sample in a register field —
/// any field [`Instr::for_each_reg`] visits — holding 16 or more is
/// `BadRegister`, so neither engine ever sees one.
#[test]
fn every_register_field_of_every_form_is_range_checked() {
    let samples: Vec<Vec<u8>> = include_str!("golden/isa_wire.txt")
        .lines()
        .take_while(|line| *line != "[jams]")
        .filter(|line| !line.starts_with('['))
        .map(|line| {
            let hex = line.split(';').next().unwrap().split_whitespace();
            hex.map(|byte| u8::from_str_radix(byte, 16).unwrap())
                .collect()
        })
        .collect();
    // The samples are every form there is: an opcode the decoder knows and the
    // golden does not fails here, with the form it decodes to.
    for opcode in 0..=255u8 {
        let form = (0..16).find_map(|body| {
            let mut bytes = vec![0; 1 + body];
            bytes[0] = opcode;
            decode_program(&bytes).ok()
        });
        assert_eq!(
            form.is_some(),
            samples.iter().any(|sample| sample[0] == opcode),
            "opcode {opcode:#04x} decodes to {form:?}: the golden needs a sample of it"
        );
    }

    let registers = |instr: &Instr| {
        let mut fields = Vec::new();
        instr.for_each_reg(|reg| fields.push(reg));
        fields
    };
    let got = GotImage::with_slots(4);
    let externs = ExternTable::new();
    let cfg = VmConfig {
        fuel: 64,
        ..VmConfig::default()
    };
    let ret = encode_program(&[Instr::Ret]);
    let (mut verified, mut bad_registers, mut register_fields) = (0, 0, 0);
    for sample in &samples {
        let sample_registers = registers(&decode_program(sample).unwrap().to_instrs()[0]);
        register_fields += sample_registers.len();
        for at in 1..sample.len() {
            for value in 0..=255u8 {
                let mut bytes = sample.clone();
                bytes[at] = value;
                let what = format!("{bytes:02x?}");
                bytes.extend(&ret);
                let Ok(decoded) = decode_program(&bytes) else {
                    continue;
                };
                let program = decoded.to_instrs();
                assert_eq!(program.len(), 2, "{what}");
                let verdict = verify(&decoded, got.len());
                if value >= 16 && registers(&program[0]) != sample_registers {
                    assert_eq!(verdict, Err(VerifyError::BadRegister { at: 0 }), "{what}");
                    bad_registers += 1;
                }
                if verdict.is_err() {
                    continue;
                }
                verified += 1;
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    let mut space = AddressSpace::new();
                    let mut bus = FlatMemory::free();
                    let interpreted =
                        interpret(&program, &got, &externs, &mut space, &mut bus, &cfg);
                    let image = resolve(&decoded, &got);
                    let resolved =
                        Vm::execute_resolved(&image, &externs, &mut space, &mut bus, &cfg);
                    (interpreted, resolved)
                }));
                let (interpreted, resolved) =
                    ran.unwrap_or_else(|_| panic!("{what} verifies, and an engine panicked"));
                assert_eq!(
                    interpreted.map(|stats| stats.result),
                    resolved.map(|stats| stats.result),
                    "{what}"
                );
            }
        }
    }
    // Each field the walk visits is one byte of the sample, refused at each of
    // the 240 values past the register file.
    assert_eq!(bad_registers, register_fields * 240);
    assert!(verified > 10_000, "{verified}");
    // A call names `r0..nargs`: r15 is the last there is.
    for nargs in [17, 255] {
        assert_eq!(
            verify(
                &Program::from(vec![Instr::CallExtern { slot: 0, nargs }, Instr::Ret]),
                1
            ),
            Err(VerifyError::BadRegister { at: 0 }),
            "call_extern with {nargs} arguments"
        );
    }
}

/// GOT sections `GotImage::to_bytes` never writes, each with a jam that would
/// run happily behind it: an extern index of `2^32 + k`, which used to be kept
/// as `k` — the sender's `call_extern` then reached extern `k` under a GOT
/// whose bytes named no such thing — and an unresolved slot with a stray
/// payload byte, which parsed to the same image as the all-zero slot.
fn non_canonical_gots() -> Vec<(&'static str, Vec<u8>, Vec<Instr>)> {
    let mut wide = GotImage::from_refs(vec![ExternRef::Resolved(0)]).to_bytes();
    wide[5] = 1;
    let mut stray = GotImage::with_slots(1).to_bytes();
    stray[7] = 0x80;
    vec![
        (
            "extern index 2^32",
            wide,
            vec![Instr::CallExtern { slot: 0, nargs: 0 }, Instr::Ret],
        ),
        ("unresolved slot, nonzero payload", stray, vec![Instr::Ret]),
    ]
}

/// `table.data`'s address in the namespace the host installed — replayed
/// here, the layout is deterministic — stored to and called through a GOT
/// `Data` slot: neither reaches the heap.
fn ried_state_by_address() -> Vec<Hostile> {
    let mut ns = LinkerNamespace::new();
    for ried in benchmark_rieds() {
        ns.load_ried(&ried, true).unwrap();
    }
    let table = ns.data_addr("table.data").unwrap();
    let mut store = Assembler::new();
    store
        .load_imm(Reg(1), table)
        .store(Width::B8, Reg(1), Reg(1), 0)
        .ret();
    let data_slot = GotImage::from_refs(vec![ExternRef::Data(table)]).to_bytes();
    vec![
        (
            "store to table.data's namespace address",
            Vec::new(),
            store.finish().unwrap(),
            faults_unmapped,
        ),
        (
            "call_extern on a Data slot into table.data",
            data_slot,
            vec![Instr::CallExtern { slot: 0, nargs: 0 }, Instr::Ret],
            |err| matches!(err, AmError::Exec(why) if why.contains("not callable")),
        ),
    ]
}

/// The non-canonical GOT images, and the two ways a jam might reach ried
/// state by address, each retired alone.
#[test]
fn receive_burst_rejects_a_got_image_it_would_have_truncated_and_executes_the_next_frame() {
    for (what, got, _) in non_canonical_gots() {
        assert_eq!(GotImage::from_bytes(&got), None, "{what}");
    }
    let bad_got: fn(&AmError) -> bool = |err| matches!(err, AmError::GotImage);
    let non_canonical = non_canonical_gots()
        .into_iter()
        .map(|(what, got, program)| (what, got, program, bad_got));
    hostile_injections_are_rejected_alone(non_canonical.chain(ried_state_by_address()).collect());
}

fn names_an_invalid_register(err: &AmError) -> bool {
    matches!(err, AmError::Verify(VerifyError::BadRegister { .. }))
}

#[test]
fn receive_burst_rejects_an_unread_bad_register_and_executes_the_next_frame() {
    hostile_frames_are_rejected_alone(unread_register_programs(), names_an_invalid_register);
}
