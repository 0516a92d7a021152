//! Differential tests pinning resolved execution to the interpreter. Every
//! warm dispatch in production rides the resolved path, so a divergence here
//! poisons everything downstream: CI runs this suite by name, ahead of the
//! broad passes.
//!
//! [`Vm::execute_resolved`] over `resolve(program, got)` must be
//! observationally equal to [`Vm::execute`] over `(program, got)` for *any*
//! program — verified or garbage — in results, faults, instruction and
//! extern-call accounting, and memory effects, with charged virtual time
//! matching exactly in compute and data-memory and bounded by the documented
//! block-batching fetch tolerance (see `jamvm::resolved` module docs). The
//! generator deliberately includes unverifiable programs: out-of-range branch
//! targets, calls through unresolved and data-bound GOT slots, and loads and
//! stores through garbage addresses, because the lazy-error contract is the
//! part a lowering bug would break first.

use std::sync::Arc;

use proptest::prelude::*;

use two_chains_suite::jamvm::{
    isa::{AluOp, Cond, Width},
    resolve, AddressSpace, ExecError, ExecStats, ExternRef, ExternTable, GotImage, Instr, Reg,
    Segment, SegmentKind, Vm, VmConfig,
};
use two_chains_suite::memsim::hierarchy::FlatMemory;
use two_chains_suite::memsim::SimTime;

const HEAP_BASE: u64 = 0x5000;
const HEAP_SIZE: usize = 256;

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B1), Just(Width::B4), Just(Width::B8)]
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
    ]
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
        (0u8..4, 0u8..4, 0u8..16).prop_map(|(d, s, l)| Instr::Memcpy {
            dst: Reg(d),
            src: Reg(s),
            len: Reg(l)
        }),
        (0u32..140).prop_map(|target| Instr::Jump { target }),
        (arb_cond(), 0u8..16, 0u8..16, 0u32..140).prop_map(|(cond, a, b, target)| {
            Instr::Branch {
                cond,
                a: Reg(a),
                b: Reg(b),
                target,
            }
        }),
        (0u16..4, 0u8..4).prop_map(|(slot, nargs)| Instr::CallExtern { slot, nargs }),
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
            SegmentKind::Heap,
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

type Observed = Result<ExecStats, ExecError>;

fn run_interpreted(program: &[Instr]) -> (Observed, AddressSpace) {
    let (externs, got) = fixture();
    let mut space = space();
    let mut bus = uniform_bus();
    let out = Vm::execute(program, &got, &externs, &mut space, &mut bus, &config());
    (out, space)
}

fn run_resolved(program: &[Instr]) -> (Observed, AddressSpace) {
    let (externs, got) = fixture();
    let resolved = resolve(program, &got);
    let mut space = space();
    let mut bus = uniform_bus();
    let out = Vm::execute_resolved(&resolved, &externs, &mut space, &mut bus, &config());
    (out, space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential: arbitrary (including unverifiable) programs
    /// observe no difference between interpretation and resolved execution.
    #[test]
    fn resolved_execution_is_observationally_equal_to_the_interpreter(
        program in prop::collection::vec(arb_instr(), 1..120),
    ) {
        let (interp, interp_space) = run_interpreted(&program);
        let (resolved, resolved_space) = run_resolved(&program);

        match (&interp, &resolved) {
            (Ok(i), Ok(r)) => {
                prop_assert_eq!(i.result, r.result, "result registers diverge");
                prop_assert_eq!(i.instructions, r.instructions, "retired counts diverge");
                prop_assert_eq!(i.extern_calls, r.extern_calls, "extern calls diverge");
                // Fused ops retire two instructions each; the fusion count can
                // never exceed half the retirement count.
                prop_assert!(r.superinstructions * 2 <= r.instructions);
                // Timing: compute and data-memory charges are defined to be
                // identical; fetch obeys the block-batching sandwich on a
                // uniform-cost bus (module docs, "Timing contract").
                prop_assert_eq!(i.compute_time, r.compute_time, "compute time diverges");
                prop_assert_eq!(i.memory_time, r.memory_time, "data-memory time diverges");
                prop_assert!(
                    r.fetch_time <= i.fetch_time,
                    "batched fetch charged more than per-instruction fetch: {} > {}",
                    r.fetch_time,
                    i.fetch_time
                );
                prop_assert!(
                    r.total_time() >= i.compute_time + i.memory_time,
                    "resolved total fell below the compute+memory floor"
                );
            }
            // Rejection behaviour: same error, including lazy GOT errors and
            // out-of-bounds pcs reported in original-pc terms.
            (Err(ei), Err(er)) => prop_assert_eq!(ei, er, "errors diverge"),
            _ => prop_assert!(
                false,
                "one path failed where the other succeeded: interp={:?} resolved={:?}",
                interp,
                resolved
            ),
        }

        // Memory effects: whatever the program stored (or memcpy'd, or wrote
        // through an extern) left the identical heap image behind — on the
        // error paths too, since a fault mid-program leaves earlier stores.
        let interp_heap = &interp_space.segment("heap").unwrap().data;
        let resolved_heap = &resolved_space.segment("heap").unwrap().data;
        prop_assert_eq!(interp_heap, resolved_heap, "heap effects diverge");
    }

    /// Lowering is deterministic and re-execution of one image is stable:
    /// the same program resolved twice yields the same ops, and running the
    /// image twice from fresh state observes the same outcome.
    #[test]
    fn resolution_is_deterministic(program in prop::collection::vec(arb_instr(), 1..60)) {
        let (_, got) = fixture();
        let a = resolve(&program, &got);
        let b = resolve(&program, &got);
        prop_assert_eq!(&a, &b);
        let (first, _) = run_resolved(&program);
        let (second, _) = run_resolved(&program);
        prop_assert_eq!(first, second);
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
    let (interp, _) = run_interpreted(&program);
    let (resolved, _) = run_resolved(&program);
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

/// Full-runtime parity: the same message stream through two hosts — one pinned
/// to `Interpret`, one on the default `Resolved` policy — produces identical
/// results and execution counters, while only the resolved host reports
/// resolved-cache traffic.
#[test]
fn runtime_policies_agree_end_to_end() {
    use two_chains_suite::fabric::SimFabric;
    use two_chains_suite::memsim::TestbedConfig;
    use twochains::builtin::{benchmark_package, indirect_put_args, ssum_args, BuiltinJam};
    use twochains::{spec, RuntimeConfig, TwoChainsHost, TwoChainsSender};

    let build = |cfg: RuntimeConfig| {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let mut rx = TwoChainsHost::new(&fabric, b, cfg).unwrap();
        rx.install_package(benchmark_package().unwrap()).unwrap();
        let mut tx =
            TwoChainsSender::new(fabric.endpoint(a, b).unwrap(), benchmark_package().unwrap());
        for jam in [BuiltinJam::ServerSideSum, BuiltinJam::IndirectPut] {
            let id = rx.builtin_id(jam).unwrap();
            tx.set_remote_got(id, &rx.export_got(id).unwrap());
        }
        (rx, tx)
    };
    let drive = |cfg: RuntimeConfig| {
        let (mut rx, mut tx) = build(cfg);
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

    let (interp_results, interp_stats) =
        drive(RuntimeConfig::paper_default().with_interpreted_execution());
    let (resolved_results, resolved_stats) = drive(RuntimeConfig::paper_default());

    assert_eq!(
        interp_results, resolved_results,
        "per-message results diverge"
    );
    assert_eq!(interp_stats.executions, resolved_stats.executions);
    assert_eq!(
        interp_stats.injected_executions,
        resolved_stats.injected_executions
    );
    assert_eq!(
        interp_stats.messages_received,
        resolved_stats.messages_received
    );
    // Policy-specific counters: the interpreting host never touches the
    // resolved cache; the resolved host misses once per element then hits.
    assert_eq!(interp_stats.resolved_cache_hits, 0);
    assert_eq!(interp_stats.resolved_cache_misses, 0);
    assert_eq!(interp_stats.superinstructions_executed, 0);
    assert_eq!(resolved_stats.resolved_cache_misses, 2);
    assert_eq!(
        resolved_stats.resolved_cache_hits,
        resolved_stats.injected_executions - 2
    );
    assert!(resolved_stats.superinstructions_executed > 0);
}
