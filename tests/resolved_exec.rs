//! Differential tests pinning resolved execution to the interpreter. Every
//! dispatch in production rides the resolved path — the interpreter is only
//! the reference it is compared against here, and lives in the test-only
//! `twochains-oracle` crate with an ALU and an issue cost of its own — so a
//! divergence here poisons everything downstream: CI runs this suite by name,
//! ahead of the broad passes.
//!
//! [`Vm::execute_resolved`] over `resolve(program, got)` must be
//! observationally equal to [`interpret`] over `(program, got)` for *any*
//! program — verified or garbage — in results, faults, instruction and
//! extern-call accounting, and memory effects, with charged virtual time
//! matching exactly in compute and data-memory and bounded by the documented
//! block-batching fetch tolerance (see `jamvm::resolved` module docs). The
//! generator deliberately includes unverifiable programs: out-of-range branch
//! targets, calls through unresolved and data-bound GOT slots, and loads and
//! stores through garbage addresses, because the lazy-error contract is the
//! part a lowering bug would break first. Beside arms biased toward those
//! shapes, one arm per field draws from the field's whole range (targets,
//! offsets, GOT slots, up to 16 extern arguments); register fields stay in
//! `0..16`, because an engine indexes its register file before any check and
//! a wider field is the verifier's to refuse. A generated program starts by
//! loading generated values into the registers the entry convention leaves
//! zero, and every `Ret` in it is preceded by a fold of all sixteen registers
//! into `r0`, so a wrong value in any register reaches the result the engines
//! are compared on. Most such programs still end in an error, where only the
//! error and the heap are compared; one more property draws straight-line
//! programs over the forms that cannot fault, so every case compares a result.
//!
//! At runtime level, the resolved-image cache must hand a frame only an image
//! lowered from that frame's own code: a warm host computes what a host
//! lowering every message afresh does, and two senders' programs whose code
//! digests collide each run their own.

use std::sync::Arc;

mod support;

use proptest::prelude::*;

use support::{put, testbed, wire};
use two_chains_suite::jamvm::{
    encode_program, hash64_bytes,
    isa::{AluOp, Cond, Width},
    resolve, AddressSpace, ExecError, ExecStats, ExternRef, ExternTable, GotImage, Instr, Program,
    Reg, Segment, Vm, VmConfig,
};
use two_chains_suite::memsim::hierarchy::FlatMemory;
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{indirect_put_args, ssum_args, BuiltinJam};
use twochains::{spec, Frame, RuntimeConfig, SecurityPolicy};
use twochains_oracle::interpret;

const HEAP_BASE: u64 = 0x5000;
const HEAP_SIZE: usize = 256;

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B1), Just(Width::B4), Just(Width::B8)]
}

/// Every ALU op, from the list that declares them. `AluImm`'s `0..64`
/// immediates reach shift amounts of 32–63, and the small `LoadImm`s reach a
/// remainder by zero.
fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    (0..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Zero),
        Just(Cond::NotZero),
        Just(Cond::Less),
        Just(Cond::GreaterEq),
    ]
}

/// Every ISA shape the resolver lowers, biased toward the fusible pairs
/// (load+ALU, ALU+branch, mov+mov) and including inputs the verifier would
/// reject: branch targets past the end of the program and GOT slots that are
/// unresolved (slot 2) or bound to data (slot 1).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (0u8..16, any::<u64>()).prop_map(|(r, imm)| Instr::LoadImm { dst: Reg(r), imm }),
        // Small immediates keep heap-relative address arithmetic in range
        // often enough that some stores land instead of all faulting.
        (0u8..16, 0u64..128).prop_map(|(r, imm)| Instr::LoadImm { dst: Reg(r), imm }),
        // Address registers within 16 bytes of the top of the address space:
        // an access through one wraps, and must fault alike on both paths.
        (0u8..4, 0u64..16).prop_map(|(r, below)| Instr::LoadImm {
            dst: Reg(r),
            imm: u64::MAX - below
        }),
        (0u8..16, 0u8..16).prop_map(|(d, s)| Instr::Mov {
            dst: Reg(d),
            src: Reg(s)
        }),
        (arb_alu_op(), 0u8..16, 0u8..16, 0u8..16).prop_map(|(op, d, a, b)| Instr::Alu {
            op,
            dst: Reg(d),
            a: Reg(a),
            b: Reg(b)
        }),
        (arb_alu_op(), 0u8..16, 0u8..16, 0u64..64).prop_map(|(op, d, s, imm)| Instr::AluImm {
            op,
            dst: Reg(d),
            src: Reg(s),
            imm
        }),
        (arb_width(), 0u8..16, 0u8..4, 0u32..64).prop_map(|(width, d, a, offset)| Instr::Load {
            width,
            dst: Reg(d),
            addr: Reg(a),
            offset
        }),
        (arb_width(), 0u8..16, 0u8..4, 0u32..64).prop_map(|(width, s, a, offset)| Instr::Store {
            width,
            src: Reg(s),
            addr: Reg(a),
            offset
        }),
        (arb_width(), 0u8..16, 0u8..16, any::<u32>()).prop_map(|(width, d, a, offset)| {
            Instr::Load {
                width,
                dst: Reg(d),
                addr: Reg(a),
                offset,
            }
        }),
        (arb_width(), 0u8..16, 0u8..16, any::<u32>()).prop_map(|(width, s, a, offset)| {
            Instr::Store {
                width,
                src: Reg(s),
                addr: Reg(a),
                offset,
            }
        }),
        (0u8..4, 0u8..4, 0u8..16).prop_map(|(d, s, l)| Instr::Memcpy {
            dst: Reg(d),
            src: Reg(s),
            len: Reg(l)
        }),
        (0u32..140).prop_map(|target| Instr::Jump { target }),
        any::<u32>().prop_map(|target| Instr::Jump { target }),
        (arb_cond(), 0u8..16, 0u8..16, 0u32..140).prop_map(|(cond, a, b, target)| {
            Instr::Branch {
                cond,
                a: Reg(a),
                b: Reg(b),
                target,
            }
        }),
        (arb_cond(), 0u8..16, 0u8..16, any::<u32>()).prop_map(|(cond, a, b, target)| {
            Instr::Branch {
                cond,
                a: Reg(a),
                b: Reg(b),
                target,
            }
        }),
        (0u16..4, 0u8..4).prop_map(|(slot, nargs)| Instr::CallExtern { slot, nargs }),
        // Any slot, and up to 16 argument registers: the widest `nargs` the
        // engines index (`r0..nargs`) without a verifier. Half the slots are
        // the fixture's, so a wide argument list reaches a callable one.
        (prop_oneof![0u16..4, any::<u16>()], 0u8..17)
            .prop_map(|(slot, nargs)| Instr::CallExtern { slot, nargs }),
        (0u8..16, 0u8..16).prop_map(|(d, s)| Instr::Hash {
            dst: Reg(d),
            src: Reg(s)
        }),
        Just(Instr::Nop),
        Just(Instr::Ret),
    ]
}

/// One extern table + GOT covering every `ExternRef` shape the resolver
/// handles: slot 0 and 3 are callable, slot 1 names data, slot 2 is a hole.
fn fixture() -> (ExternTable, GotImage) {
    let mut externs = ExternTable::new();
    let mix = externs.register(
        "mix",
        Arc::new(|_ctx, args: &[u64]| {
            Ok(args
                .iter()
                .fold(0x9E37_79B9u64, |acc, &a| acc.rotate_left(7) ^ a))
        }),
    );
    let mut got = GotImage::with_slots(4);
    got.set(0, ExternRef::Resolved(mix));
    got.set(1, ExternRef::Data(HEAP_BASE));
    got.set(2, ExternRef::Unresolved);
    got.set(3, ExternRef::Resolved(mix));
    (externs, got)
}

fn space() -> AddressSpace {
    let mut space = AddressSpace::new();
    space
        .map(Segment::new(
            "heap",
            HEAP_BASE,
            (0..HEAP_SIZE as u32).map(|i| i as u8).collect(),
            true,
        ))
        .unwrap();
    space
}

fn config() -> VmConfig {
    VmConfig {
        // Nonzero so fetch charging is live on both paths — the timing
        // sandwich below is vacuous without it.
        code_base: 0x4000_0000,
        fuel: 20_000,
        // Registers enter pointing into the heap segment (the jam entry
        // convention: ARGS base, USR base, USR length) so generated loads
        // and stores land in mapped memory often enough to diff real writes.
        entry_regs: [HEAP_BASE, HEAP_BASE + 64, 64],
        ..VmConfig::default()
    }
}

/// A uniform-cost bus: the block-batching fetch bound in the module docs is
/// stated for exactly this bus shape (every access costs the same, so fewer
/// fetch accesses can only mean less fetch time).
fn uniform_bus() -> FlatMemory {
    FlatMemory {
        per_access: SimTime::from_ns(1),
        accesses: 0,
    }
}

/// Programs of `pieces` generated pieces, each an instruction or — one piece
/// in eight — a run of 2–300 `Nop`s, so that a block spans many image lines
/// and generated branches land inside runs. The program first loads a
/// generated value into each of `r3..r16`, which would otherwise start at
/// zero, where most ALU ops agree whatever their operand rule; and every `Ret`
/// is preceded by [`fold_registers`], so a value any register holds reaches
/// the result the engines are compared on.
fn arb_program(pieces: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Instr>> {
    let one = || arb_instr().prop_map(|instr| vec![instr]);
    let nops = (2usize..301).prop_map(|n| vec![Instr::Nop; n]);
    let piece = prop_oneof![one(), one(), one(), one(), one(), one(), one(), nops];
    let seeds = prop::collection::vec(any::<u64>(), 13..14);
    (seeds, prop::collection::vec(piece, pieces)).prop_map(|(seeds, pieces)| {
        let seeded = (3..)
            .zip(seeds)
            .map(|(r, imm)| Instr::LoadImm { dst: Reg(r), imm });
        let body = pieces.concat().into_iter().flat_map(|instr| match instr {
            Instr::Ret => fold_registers(),
            other => vec![other],
        });
        seeded.chain(body).collect()
    })
}

/// Straight-line programs over the five forms that cannot fault — `LoadImm`,
/// `Mov`, `Alu`, `AluImm` and `Hash`, with all nine ALU ops — seeded as
/// [`arb_program`]'s are and closed by [`fold_registers`]. Every one returns,
/// so every case compares a result, where most of `arb_program`'s end in an
/// error and compare only that and the heap. Small `LoadImm`s put zeros and
/// shift amounts of 32–63 in registers; `AluImm`'s `0..64` immediates reach
/// both as well.
fn arb_straight_line() -> impl Strategy<Value = Vec<Instr>> {
    let reg = || (0u8..16).prop_map(Reg);
    let instr = prop_oneof![
        (reg(), any::<u64>()).prop_map(|(dst, imm)| Instr::LoadImm { dst, imm }),
        (reg(), 0u64..64).prop_map(|(dst, imm)| Instr::LoadImm { dst, imm }),
        (reg(), reg()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
        (arb_alu_op(), reg(), reg(), reg()).prop_map(|(op, dst, a, b)| Instr::Alu {
            op,
            dst,
            a,
            b
        }),
        (arb_alu_op(), reg(), reg(), 0u64..64).prop_map(|(op, dst, src, imm)| Instr::AluImm {
            op,
            dst,
            src,
            imm
        }),
        (reg(), reg()).prop_map(|(dst, src)| Instr::Hash { dst, src }),
    ];
    let seeds = prop::collection::vec(any::<u64>(), 13..14);
    (seeds, prop::collection::vec(instr, 1..80)).prop_map(|(seeds, body)| {
        (3..)
            .zip(seeds)
            .map(|(r, imm)| Instr::LoadImm { dst: Reg(r), imm })
            .chain(body)
            .chain(fold_registers())
            .collect()
    })
}

/// `r0 ^= r1 ^ r2 ^ ... ^ r15`, then `Ret`: without it, a register a
/// program computed but did not leave in `r0` or store is compared nowhere.
fn fold_registers() -> Vec<Instr> {
    (1..16)
        .map(|r| Instr::Alu {
            op: AluOp::Xor,
            dst: Reg(0),
            a: Reg(0),
            b: Reg(r),
        })
        .chain([Instr::Ret])
        .collect()
}

type Observed = Result<ExecStats, ExecError>;

fn run_interpreted(program: &[Instr], cfg: &VmConfig) -> (Observed, AddressSpace) {
    let (externs, got) = fixture();
    let mut space = space();
    let mut bus = uniform_bus();
    let out = interpret(program, &got, &externs, &mut space, &mut bus, cfg);
    (out, space)
}

fn run_resolved(program: &[Instr], cfg: &VmConfig) -> (Observed, AddressSpace) {
    let (externs, got) = fixture();
    let resolved = resolve(&Program::from(program), &got);
    let mut space = space();
    let mut bus = uniform_bus();
    let out = Vm::execute_resolved(&resolved, &externs, &mut space, &mut bus, cfg);
    (out, space)
}

/// Run `program` through both engines under `cfg` and hold them to the
/// differential contract; returns what the resolved engine observed.
fn assert_engines_agree(program: &[Instr], cfg: &VmConfig) -> Observed {
    let (interp, interp_space) = run_interpreted(program, cfg);
    let (resolved, resolved_space) = run_resolved(program, cfg);

    match (&interp, &resolved) {
        (Ok(i), Ok(r)) => {
            assert_eq!(i.result, r.result, "result registers diverge");
            assert_eq!(i.instructions, r.instructions, "retired counts diverge");
            assert_eq!(i.extern_calls, r.extern_calls, "extern calls diverge");
            // Fused ops retire two instructions each; the fusion count can
            // never exceed half the retirement count.
            assert!(r.superinstructions * 2 <= r.instructions);
            // Timing: compute and data-memory charges are defined to be
            // identical; fetch obeys the block-batching sandwich on a
            // uniform-cost bus (module docs, "Timing contract").
            assert_eq!(i.compute_time, r.compute_time, "compute time diverges");
            assert_eq!(i.memory_time, r.memory_time, "data-memory time diverges");
            assert!(
                r.fetch_time <= i.fetch_time,
                "batched fetch charged more than per-instruction fetch: {} > {}",
                r.fetch_time,
                i.fetch_time
            );
            assert!(
                r.total_time() >= i.compute_time + i.memory_time,
                "resolved total fell below the compute+memory floor"
            );
        }
        // Rejection behaviour: same error, including lazy GOT errors and
        // out-of-bounds pcs reported in original-pc terms.
        (Err(ei), Err(er)) => assert_eq!(ei, er, "errors diverge"),
        _ => panic!(
            "one path failed where the other succeeded: interp={interp:?} resolved={resolved:?}"
        ),
    }

    // Memory effects: whatever the program stored (or memcpy'd, or wrote
    // through an extern) left the identical heap image behind — on the
    // error paths too, since a fault mid-program leaves earlier stores.
    let interp_heap = &interp_space.segment("heap").unwrap().data;
    let resolved_heap = &resolved_space.segment("heap").unwrap().data;
    assert_eq!(interp_heap, resolved_heap, "heap effects diverge");
    resolved
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential: arbitrary (including unverifiable) programs
    /// observe no difference between interpretation and resolved execution.
    #[test]
    fn resolved_execution_is_observationally_equal_to_the_interpreter(
        program in arb_program(1..120),
    ) {
        let _ = assert_engines_agree(&program, &config());
    }

    /// The same, on a fuel budget small enough that execution often stops
    /// inside a run of `Nop`s: a run retires as one op, and must run out
    /// where the interpreter does.
    #[test]
    fn resolved_execution_runs_out_of_fuel_where_the_interpreter_does(
        program in arb_program(1..40),
        fuel in 1u64..600,
    ) {
        let _ = assert_engines_agree(&program, &VmConfig { fuel, ..config() });
    }

    /// Programs that cannot fault: both engines return, with one result.
    #[test]
    fn straight_line_programs_return_one_result_on_both_engines(
        program in arb_straight_line(),
    ) {
        prop_assert!(assert_engines_agree(&program, &config()).is_ok());
    }

    /// Lowering is deterministic and re-execution of one image is stable:
    /// the same program resolved twice yields the same ops, and running the
    /// image twice from fresh state observes the same outcome.
    #[test]
    fn resolution_is_deterministic(program in arb_program(1..60)) {
        let (_, got) = fixture();
        let program = Program::from(program);
        let a = resolve(&program, &got);
        let b = resolve(&program, &got);
        prop_assert_eq!(&a, &b);
        let instrs = program.to_instrs();
        let (first, _) = run_resolved(&instrs, &config());
        let (second, _) = run_resolved(&instrs, &config());
        prop_assert_eq!(first, second);
    }
}

/// A run of `Nop`s retires as one op: `nop × 1 000; ret` runs out of fuel
/// at 1 000 and returns at 1 001, having retired 1 001 instructions, on both
/// engines; and a run that falls off the end of an unverified program
/// faults at the instruction count.
#[test]
fn a_run_of_nops_retires_as_its_instructions_would() {
    let mut program = vec![Instr::Nop; 1_000];
    program.push(Instr::Ret);
    let at_fuel = |fuel| VmConfig { fuel, ..config() };
    assert_eq!(
        assert_engines_agree(&program, &at_fuel(1_000)),
        Err(ExecError::FuelExhausted)
    );
    let ran = assert_engines_agree(&program, &at_fuel(1_001)).expect("the jam returns");
    assert_eq!(ran.instructions, 1_001);

    program.pop();
    assert_eq!(
        assert_engines_agree(&program, &config()),
        Err(ExecError::PcOutOfBounds { pc: 1_000 })
    );
}

/// Every ALU op on every pair of edge operands — zero, shift amounts either
/// side of 32 and 64, the top bit, all ones — in the four shapes the engine
/// lowers: `Alu` and `AluImm`, each alone and fused with the branch that
/// reads its result. The result register carries the value to the
/// comparison, which a random program's ALU results seldom reach.
#[test]
fn every_alu_op_agrees_on_edge_operands() {
    const EDGES: [u64; 12] = [
        0,
        1,
        2,
        31,
        32,
        33,
        63,
        64,
        65,
        1 << 63,
        u64::MAX,
        0x0123_4567_89AB_CDEF,
    ];
    let load = |r, imm| Instr::LoadImm { dst: Reg(r), imm };
    let to_ret = |target| Instr::Branch {
        cond: Cond::Zero,
        a: Reg(0),
        b: Reg(0),
        target,
    };
    for &op in AluOp::ALL {
        for a in EDGES {
            for b in EDGES {
                let alu = Instr::Alu {
                    op,
                    dst: Reg(0),
                    a: Reg(1),
                    b: Reg(2),
                };
                let alu_imm = Instr::AluImm {
                    op,
                    dst: Reg(0),
                    src: Reg(1),
                    imm: b,
                };
                for program in [
                    vec![load(1, a), load(2, b), alu, Instr::Ret],
                    vec![load(1, a), alu_imm, Instr::Ret],
                    vec![load(1, a), load(2, b), alu, to_ret(4), Instr::Ret],
                    vec![load(1, a), alu_imm, to_ret(3), Instr::Ret],
                ] {
                    let ran = assert_engines_agree(&program, &config());
                    assert!(ran.is_ok(), "{op:?} {a:#x} {b:#x}: {ran:?}");
                }
            }
        }
    }
}

/// A hand-built program hitting every fusion shape, pinned so the generator
/// can never silently stop covering superinstructions: mov+mov (argument
/// shuffle), load+ALU, and the `sub; jnz` loop back-edge (AluImm+Branch).
#[test]
fn fused_superinstructions_retire_both_halves() {
    let program = vec![
        // mov+mov pair -> MovMov.
        Instr::Mov {
            dst: Reg(3),
            src: Reg(0),
        },
        Instr::Mov {
            dst: Reg(4),
            src: Reg(2),
        },
        // load feeding an ALU op -> LoadAlu.
        Instr::Load {
            width: Width::B8,
            dst: Reg(5),
            addr: Reg(3),
            offset: 0,
        },
        Instr::Alu {
            op: AluOp::Add,
            dst: Reg(6),
            a: Reg(5),
            b: Reg(4),
        },
        // countdown loop: AluImm sub feeding a NotZero branch -> AluImmBranch.
        Instr::AluImm {
            op: AluOp::Sub,
            dst: Reg(4),
            src: Reg(4),
            imm: 8,
        },
        Instr::Branch {
            cond: Cond::NotZero,
            a: Reg(4),
            b: Reg(0),
            target: 2,
        },
        Instr::Mov {
            dst: Reg(0),
            src: Reg(6),
        },
        Instr::Ret,
    ];
    let (interp, _) = run_interpreted(&program, &config());
    let (resolved, _) = run_resolved(&program, &config());
    let i = interp.expect("interpreter runs the loop");
    let r = resolved.expect("resolved executor runs the loop");
    assert_eq!(i.result, r.result);
    assert_eq!(i.instructions, r.instructions);
    assert!(
        r.superinstructions > 0,
        "the fusion corpus must actually fuse"
    );
    assert_eq!(i.superinstructions, 0, "the interpreter never fuses");
}

/// Warm and cold dispatch agree: the same message stream through two hosts,
/// one of which drops its injection caches before every message, produces
/// identical results and execution counters. The warm host lowers once per
/// element and runs the cached image after that; the cold host lowers every
/// message afresh — so a cached image computes what a fresh lowering does.
#[test]
fn warm_and_cold_dispatch_agree_end_to_end() {
    let drive = |cold: bool| {
        let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
        let ssum = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        let iput = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
        let target = rx.mailbox_target(0, 0).unwrap();
        let mut results = Vec::new();
        let mut ready = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        for i in 1..=24u32 {
            let payload: Vec<u8> = (1..=i).flat_map(|v| v.to_le_bytes()).collect();
            let (elem, args) = if i % 3 == 0 {
                (iput, indirect_put_args(i as u64 % 5, 8, 4))
            } else {
                (ssum, ssum_args(i))
            };
            if cold {
                rx.invalidate_injection_caches();
            }
            let message = spec(elem).args(args).usr(payload);
            let sent = tx.send_spec(clock, &message, &target).unwrap();
            clock = sent.sender_free();
            let out = rx
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), ready)
                .unwrap();
            ready = out.handler_done;
            results.push(out.result);
        }
        let stats = rx.stats().clone();
        (results, stats)
    };

    let (warm_results, warm) = drive(false);
    let (cold_results, cold) = drive(true);

    assert_eq!(warm_results, cold_results, "per-message results diverge");
    assert_eq!(warm.executions, cold.executions);
    assert_eq!(warm.injected_executions, cold.injected_executions);
    assert_eq!(
        cold.resolved_cache_hits, 0,
        "the cold host lowers every message"
    );
    // The warm host misses once per element, then hits.
    assert_eq!(warm.resolved_cache_misses, 2);
    assert_eq!(warm.resolved_cache_hits, warm.injected_executions - 2);
}

/// `load_imm r0, 77; nop…; ret` and a program of the same 64 bytes whose
/// lane-wise FNV digest is forced onto the victim's: six `nop`s put the
/// immediate of `load_imm r1, X` on an aligned 8-byte lane, and since each
/// step `h → (h ^ lane)·P` is a bijection, `X` is solved in closed form by
/// running the victim's digest back through the lanes after it. The
/// attacker's program then returns `0xBAD`.
fn colliding_programs() -> (Vec<u8>, Vec<u8>) {
    const P: u64 = 0x0000_0100_0000_01B3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    // Newton's iteration for the inverse of an odd number mod 2^64.
    let p_inv = (0..5).fold(P, |inv, _| {
        inv.wrapping_mul(2u64.wrapping_sub(P.wrapping_mul(inv)))
    });
    assert_eq!(P.wrapping_mul(p_inv), 1);
    let lane = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().unwrap());
    let fnv = |bytes: &[u8]| {
        bytes
            .chunks_exact(8)
            .fold(BASIS, |h, l| (h ^ lane(l)).wrapping_mul(P))
    };

    let mut victim = vec![Instr::LoadImm {
        dst: Reg(0),
        imm: 77,
    }];
    victim.extend([Instr::Nop; 53]);
    victim.push(Instr::Ret);
    let attacker = |x: u64| {
        let mut program = vec![Instr::Nop; 6];
        program.push(Instr::LoadImm {
            dst: Reg(1),
            imm: x,
        });
        program.push(Instr::LoadImm {
            dst: Reg(0),
            imm: 0xBAD,
        });
        program.extend([Instr::Nop; 37]);
        program.push(Instr::Ret);
        encode_program(&program)
    };
    let victim = encode_program(&victim);
    let shape = attacker(0);
    assert_eq!((victim.len(), shape.len()), (64, 64));
    // The state the lane at bytes 8..16 must leave behind, and the state in
    // front of it.
    let after = shape[16..]
        .chunks_exact(8)
        .rev()
        .fold(fnv(&victim), |h, l| h.wrapping_mul(p_inv) ^ lane(l));
    let x = after.wrapping_mul(p_inv) ^ fnv(&shape[..8]);
    (victim, attacker(x))
}

/// A sender cannot hijack another sender's function through the resolved
/// cache: the attacker's frame lowers and caches its program under the
/// victim's key, and the victim's frame, sent next as the same element with
/// the same GOT, must still run the victim's code. Under the hardened policy
/// the GOT `Arc` is the element's own, so pointer identity alone would not
/// tell the two apart either.
#[test]
fn a_forged_code_digest_does_not_hand_over_another_senders_image() {
    let (victim, attacker) = colliding_programs();
    assert_ne!(victim, attacker);
    assert_eq!(hash64_bytes(&attacker), hash64_bytes(&victim));
    for security in [SecurityPolicy::Permissive, SecurityPolicy::Hardened] {
        let wire = wire();
        let mut host = wire.host(RuntimeConfig {
            security,
            ..RuntimeConfig::paper_default()
        });
        // A hardened host resolves the GOT of an installed element only.
        let elem = if security == SecurityPolicy::Permissive {
            999
        } else {
            host.builtin_id(BuiltinJam::ServerSideSum).unwrap().0
        };
        let mut raw = wire.raw();
        let mut ready = SimTime::ZERO;
        let mut results = Vec::new();
        for (slot, code) in [&attacker, &victim].into_iter().enumerate() {
            let frame =
                Frame::injected(1, elem, Vec::new(), code.clone(), vec![0; 8], Vec::new()).encode();
            let landed = put(&mut raw, &host, 0, slot, ready, &frame);
            let out = host
                .receive(0, slot, Some(frame.len()), landed.delivered, ready)
                .unwrap();
            ready = out.handler_done;
            results.push(out.result);
        }
        assert_eq!(results, [0xBAD, 77], "{security:?}");
        assert_eq!(host.stats().resolved_cache_hits, 0, "{security:?}");
    }
}
