//! Static verification of jam bytecode.
//!
//! Code that arrived over the network is verified before execution: every register
//! index must be in range, every branch target must land inside the program, every
//! GOT slot referenced must exist in the declared GOT size, and the program must end
//! with (or be guaranteed to reach) a `Ret`. This is the reproduction's analogue of
//! the trust boundary the paper discusses in §V — while the paper executes raw
//! machine code and leans on RKEY protection and deployment isolation, a memory-safe
//! reproduction gets to check the code before running it.
//!
//! "Every register index" means every register *field* an instruction encodes,
//! not every register its semantics read: both engines index the register file
//! with whatever the field holds before they look at what the instruction does
//! with it (a `branch.zero` ignores its second operand's *value*, and still
//! reads `regs[b]`), so a field the verifier skipped is an out-of-bounds index
//! a sender can reach. That holds by construction: the fields come from
//! [`Instr::for_each_reg`], generated from the one list in [`crate::isa`] that
//! also generates the decoder, so a register field that can arrive is a field
//! that is checked. What stays hand-written here is semantics, not layout —
//! where a target may point and what a `CallExtern` may name. The pass
//! allocates nothing and visits each instruction of the [`Program`] once —
//! each one that is not a `Nop`: a `Nop` has no register field, no target
//! and no slot, so a run of padding has nothing to check but where the
//! program ends. [`verify_with_floor`] hands back, from that same pass, the
//! GOT size the program needs, which the runtime caches beside the decoded
//! program.

use crate::encode::Program;
use crate::isa::{Instr, NUM_REGS};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program is empty.
    Empty,
    /// An instruction uses a register index outside `r0..r15`.
    BadRegister {
        /// Instruction index.
        at: usize,
    },
    /// A branch target points outside the program.
    BadTarget {
        /// Instruction index of the branch.
        at: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A `CallExtern` references a GOT slot beyond the declared GOT size.
    BadGotSlot {
        /// Instruction index.
        at: usize,
        /// The referenced slot.
        slot: u16,
        /// Declared number of GOT slots.
        got_slots: usize,
    },
    /// A `CallExtern` declares more than 6 argument registers.
    TooManyArgs {
        /// Instruction index.
        at: usize,
        /// Declared argument count.
        nargs: u8,
    },
    /// Execution can fall off the end of the program (the last reachable
    /// straight-line instruction is not a `Ret` or unconditional `Jump`).
    MissingRet,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::BadRegister { at } => write!(f, "invalid register at instruction {at}"),
            VerifyError::BadTarget { at, target } => {
                write!(f, "branch target {target} out of range at instruction {at}")
            }
            VerifyError::BadGotSlot {
                at,
                slot,
                got_slots,
            } => write!(
                f,
                "GOT slot {slot} referenced at instruction {at} but only {got_slots} slots declared"
            ),
            VerifyError::TooManyArgs { at, nargs } => {
                write!(
                    f,
                    "extern call with {nargs} args at instruction {at} (max 6)"
                )
            }
            VerifyError::MissingRet => {
                write!(f, "control flow can fall off the end of the program")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify `program` against a GOT with `got_slots` slots.
pub fn verify(program: &Program, got_slots: usize) -> Result<(), VerifyError> {
    verify_with_floor(program, got_slots).map(|_floor| ())
}

/// [`verify`], returning the program's *verifier floor*: the smallest GOT slot
/// count it verifies against (its highest `CallExtern` slot + 1, or 0). A
/// cached program is re-checked against a later message's GOT size by
/// comparing that one number.
pub fn verify_with_floor(program: &Program, got_slots: usize) -> Result<usize, VerifyError> {
    if program.is_empty() {
        return Err(VerifyError::Empty);
    }
    let mut floor = 0usize;
    for &(at, ref instr) in &program.instrs {
        let at = at as usize;
        // Layout, from the one list of forms: every register field, read or not.
        let mut registers_exist = true;
        instr.for_each_reg(|reg| registers_exist &= reg.is_valid());
        if !registers_exist {
            return Err(VerifyError::BadRegister { at });
        }
        // Semantics, by hand: where a target may point and what a call may name.
        match *instr {
            Instr::Jump { target } | Instr::Branch { target, .. }
                if target as usize >= program.len() =>
            {
                return Err(VerifyError::BadTarget { at, target });
            }
            Instr::CallExtern { slot, nargs } => {
                // The call passes `r0..nargs`: past `r15` it names a register
                // that does not exist, before it names too many.
                if nargs as usize > NUM_REGS {
                    return Err(VerifyError::BadRegister { at });
                }
                if slot as usize >= got_slots {
                    return Err(VerifyError::BadGotSlot {
                        at,
                        slot,
                        got_slots,
                    });
                }
                if nargs > 6 {
                    return Err(VerifyError::TooManyArgs { at, nargs });
                }
                floor = floor.max(slot as usize + 1);
            }
            _ => {}
        }
    }
    // Termination: the instruction at the last pc must not allow execution to
    // fall through the end of the code, and a `Nop` there would.
    match program.instrs.last() {
        Some(&(at, Instr::Ret | Instr::Jump { .. })) if at as usize == program.len() - 1 => {
            Ok(floor)
        }
        _ => Err(VerifyError::MissingRet),
    }
}

/// `verify` as it stood while it asked each instruction for the registers it
/// *reads* and *writes* (`Instr::reads` / `writes`, moved here with it) — one
/// `Vec` per instruction, and no look at a `Zero` / `NotZero` branch's second
/// operand — and walked every instruction, padding included. The reference
/// the property tests below compare against.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::isa::{Cond, Reg};

    fn reads(instr: &Instr) -> Vec<Reg> {
        match *instr {
            Instr::LoadImm { .. } | Instr::Jump { .. } | Instr::Nop | Instr::Ret => vec![],
            Instr::Mov { src, .. } => vec![src],
            Instr::Alu { a, b, .. } => vec![a, b],
            Instr::AluImm { src, .. } => vec![src],
            Instr::Load { addr, .. } => vec![addr],
            Instr::Store { src, addr, .. } => vec![src, addr],
            Instr::Memcpy { dst, src, len } => vec![dst, src, len],
            Instr::Branch { a, b, cond, .. } => match cond {
                Cond::Zero | Cond::NotZero => vec![a],
                _ => vec![a, b],
            },
            Instr::CallExtern { nargs, .. } => (0..nargs).map(Reg).collect(),
            Instr::Hash { src, .. } => vec![src],
        }
    }

    fn writes(instr: &Instr) -> Option<Reg> {
        match *instr {
            Instr::LoadImm { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Alu { dst, .. }
            | Instr::AluImm { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Hash { dst, .. } => Some(dst),
            Instr::CallExtern { .. } => Some(Reg::R0),
            _ => None,
        }
    }

    pub(super) fn verify(program: &[Instr], got_slots: usize) -> Result<(), VerifyError> {
        if program.is_empty() {
            return Err(VerifyError::Empty);
        }
        for (at, instr) in program.iter().enumerate() {
            // Registers.
            for r in reads(instr) {
                if r.0 as usize >= NUM_REGS {
                    return Err(VerifyError::BadRegister { at });
                }
            }
            if let Some(w) = writes(instr) {
                if w.0 as usize >= NUM_REGS {
                    return Err(VerifyError::BadRegister { at });
                }
            }
            // Branch targets.
            if let Some(t) = instr.target() {
                if t as usize >= program.len() {
                    return Err(VerifyError::BadTarget { at, target: t });
                }
            }
            // Extern calls.
            if let Instr::CallExtern { slot, nargs } = *instr {
                if slot as usize >= got_slots {
                    return Err(VerifyError::BadGotSlot {
                        at,
                        slot,
                        got_slots,
                    });
                }
                if nargs > 6 {
                    return Err(VerifyError::TooManyArgs { at, nargs });
                }
            }
        }
        // Termination: the final instruction must not allow execution to fall through
        // the end of the code.
        match program.last().unwrap() {
            Instr::Ret | Instr::Jump { .. } => Ok(()),
            _ => Err(VerifyError::MissingRet),
        }
    }

    /// The scan `host.rs::injected_program` made for the floor, after `verify`.
    pub(super) fn floor_scan(program: &[Instr]) -> usize {
        program
            .iter()
            .filter_map(|i| match *i {
                Instr::CallExtern { slot, .. } => Some(slot as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Cond, Reg, Width};
    use proptest::prelude::*;

    fn ok_prog() -> Program {
        Program::from(vec![
            Instr::LoadImm {
                dst: Reg(0),
                imm: 1,
            },
            Instr::CallExtern { slot: 0, nargs: 1 },
            Instr::Ret,
        ])
    }

    #[test]
    fn valid_program_passes() {
        assert!(verify(&ok_prog(), 1).is_ok());
    }

    #[test]
    fn empty_program_fails() {
        assert_eq!(verify(&Program::default(), 0), Err(VerifyError::Empty));
    }

    #[test]
    fn bad_register_fails() {
        let p = Program::from(vec![
            Instr::Mov {
                dst: Reg(16),
                src: Reg(0),
            },
            Instr::Ret,
        ]);
        assert_eq!(verify(&p, 0), Err(VerifyError::BadRegister { at: 0 }));
        let p = Program::from(vec![
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg(0),
                a: Reg(0),
                b: Reg(200),
            },
            Instr::Ret,
        ]);
        assert_eq!(verify(&p, 0), Err(VerifyError::BadRegister { at: 0 }));
    }

    #[test]
    fn bad_branch_target_fails() {
        let p = Program::from(vec![Instr::Jump { target: 9 }, Instr::Ret]);
        assert_eq!(
            verify(&p, 0),
            Err(VerifyError::BadTarget { at: 0, target: 9 })
        );
        let p = Program::from(vec![
            Instr::Branch {
                cond: Cond::Zero,
                a: Reg(0),
                b: Reg(0),
                target: 2,
            },
            Instr::Ret,
        ]);
        assert!(matches!(verify(&p, 0), Err(VerifyError::BadTarget { .. })));
    }

    #[test]
    fn got_slot_bounds_enforced() {
        let p = ok_prog();
        assert!(matches!(
            verify(&p, 0),
            Err(VerifyError::BadGotSlot {
                slot: 0,
                got_slots: 0,
                ..
            })
        ));
        assert!(verify(&p, 1).is_ok());
    }

    #[test]
    fn arg_count_limit_enforced() {
        let p = Program::from(vec![Instr::CallExtern { slot: 0, nargs: 7 }, Instr::Ret]);
        assert!(matches!(
            verify(&p, 1),
            Err(VerifyError::TooManyArgs { nargs: 7, .. })
        ));
    }

    #[test]
    fn falling_off_the_end_fails() {
        let p = Program::from(vec![Instr::LoadImm {
            dst: Reg(0),
            imm: 1,
        }]);
        assert_eq!(verify(&p, 0), Err(VerifyError::MissingRet));
        // Ending with an unconditional jump back into the program is allowed.
        let p = Program::from(vec![Instr::Nop, Instr::Jump { target: 0 }]);
        assert!(verify(&p, 0).is_ok());
        // Padding behind the `ret` is what execution falls into.
        let p = Program::from(vec![Instr::Ret, Instr::Nop, Instr::Nop]);
        assert_eq!(verify(&p, 0), Err(VerifyError::MissingRet));
        assert_eq!(
            verify(&Program::from(vec![Instr::Nop; 3]), 0),
            Err(VerifyError::MissingRet)
        );
    }

    #[test]
    fn the_floor_is_the_highest_slot_called_plus_one() {
        assert_eq!(
            verify_with_floor(&Program::from(vec![Instr::Ret]), 0),
            Ok(0)
        );
        let p = Program::from(vec![
            Instr::CallExtern { slot: 4, nargs: 0 },
            Instr::CallExtern { slot: 1, nargs: 6 },
            Instr::Ret,
        ]);
        assert_eq!(verify_with_floor(&p, 9), Ok(5));
        assert_eq!(verify_with_floor(&p, 5), Ok(5));
        assert!(matches!(
            verify_with_floor(&p, 4),
            Err(VerifyError::BadGotSlot { at: 0, slot: 4, .. })
        ));
    }

    #[test]
    fn an_argument_count_names_registers_before_it_is_too_many() {
        let call = |nargs| Program::from(vec![Instr::CallExtern { slot: 3, nargs }, Instr::Ret]);
        for nargs in 7..=16 {
            // r0..r15 exist, so the slot is looked at first, then the count.
            assert_eq!(
                verify(&call(nargs), 4),
                Err(VerifyError::TooManyArgs { at: 0, nargs })
            );
            assert!(matches!(
                verify(&call(nargs), 3),
                Err(VerifyError::BadGotSlot { at: 0, .. })
            ));
        }
        for nargs in [17, 255] {
            assert_eq!(
                verify(&call(nargs), 0),
                Err(VerifyError::BadRegister { at: 0 })
            );
        }
    }

    /// `branch.zero r0, r200, 1; ret`: the one program `verify` and its
    /// predecessor disagree on. Both engines index `regs[b]` whatever the
    /// condition, so the predecessor's `Ok` was a panic in the receiver.
    #[test]
    fn a_branch_on_zero_has_its_second_register_checked_too() {
        for cond in [Cond::Zero, Cond::NotZero] {
            let p = vec![
                Instr::Branch {
                    cond,
                    a: Reg(0),
                    b: Reg(200),
                    target: 1,
                },
                Instr::Ret,
            ];
            assert_eq!(oracle::verify(&p, 0), Ok(()));
            assert_eq!(
                verify(&Program::from(p), 0),
                Err(VerifyError::BadRegister { at: 0 })
            );
        }
    }

    /// Mostly valid, so that a program's later instructions get looked at.
    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..40, any::<u8>()).prop_map(|(pick, wild)| match pick {
            0 => Reg(wild),
            1 => Reg(16),
            _ => Reg(wild % 16),
        })
    }

    /// Every form, with registers over all of `u8`, slots either side of a
    /// 4-slot GOT and argument counts past 6 and 16.
    fn arb_instr() -> impl Strategy<Value = Instr> {
        let cond = || {
            (0u8..4).prop_map(|c| match c {
                0 => Cond::Zero,
                1 => Cond::NotZero,
                2 => Cond::Less,
                _ => Cond::GreaterEq,
            })
        };
        let nargs = || prop_oneof![0u8..7, 0u8..7, 5u8..19, any::<u8>()];
        prop_oneof![
            arb_reg().prop_map(|dst| Instr::LoadImm { dst, imm: 1 }),
            (arb_reg(), arb_reg()).prop_map(|(dst, src)| Instr::Mov { dst, src }),
            (arb_reg(), arb_reg()).prop_map(|(dst, src)| Instr::Hash { dst, src }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dst, a, b)| Instr::Alu {
                op: AluOp::Xor,
                dst,
                a,
                b
            }),
            (arb_reg(), arb_reg()).prop_map(|(dst, src)| Instr::AluImm {
                op: AluOp::Add,
                dst,
                src,
                imm: 3
            }),
            (arb_reg(), arb_reg()).prop_map(|(dst, addr)| Instr::Load {
                width: Width::B4,
                dst,
                addr,
                offset: 8
            }),
            (arb_reg(), arb_reg()).prop_map(|(src, addr)| Instr::Store {
                width: Width::B8,
                src,
                addr,
                offset: 8
            }),
            (arb_reg(), arb_reg(), arb_reg()).prop_map(|(dst, src, len)| Instr::Memcpy {
                dst,
                src,
                len
            }),
            any::<u32>().prop_map(|target| Instr::Jump { target }),
            (cond(), arb_reg(), arb_reg(), any::<u32>())
                .prop_map(|(cond, a, b, target)| Instr::Branch { cond, a, b, target }),
            (0u16..6, nargs()).prop_map(|(slot, nargs)| Instr::CallExtern { slot, nargs }),
            Just(Instr::Nop),
            Just(Instr::Ret),
        ]
    }

    /// 1–24 instructions and runs of 1–9 `Nop`s, with targets up to twice the
    /// length, usually ending in the `Ret` that lets the loop's verdict
    /// through.
    fn arb_program() -> impl Strategy<Value = Vec<Instr>> {
        let one = || arb_instr().prop_map(|instr| vec![instr]);
        let nops = (1usize..10).prop_map(|n| vec![Instr::Nop; n]);
        let piece = prop_oneof![one(), one(), one(), nops];
        (prop::collection::vec(piece, 1..25), 0u8..4).prop_map(|(pieces, end)| {
            let mut program = pieces.concat();
            if end > 0 {
                program.push(Instr::Ret);
            }
            let len = program.len() as u32;
            for instr in &mut program {
                if let Instr::Jump { target } | Instr::Branch { target, .. } = instr {
                    *target %= 2 * len;
                }
            }
            program
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3000))]

        #[test]
        fn verifies_as_its_predecessor_did_but_for_the_ignored_operand(
            instrs in arb_program(),
        ) {
            let program = Program::from(instrs);
            let verdict = verify_with_floor(&program, 4);
            prop_assert_eq!(verify(&program, 4), verdict.clone().map(|_floor| ()));
            // The predecessor walked every instruction, padding included.
            let laid_out = program.to_instrs();
            if let Ok(floor) = verdict {
                prop_assert_eq!(floor, oracle::floor_scan(&laid_out));
                prop_assert_eq!(verify(&program, floor), Ok(()));
            }
            // The predecessor looked at a branch's second operand only under
            // `Less` / `GreaterEq`; no error names the condition, so it says
            // what `verify` says once every branch is one of those.
            let mut compared = laid_out.clone();
            let mut ignored_operand_out_of_range = false;
            for instr in &mut compared {
                if let Instr::Branch { cond: cond @ (Cond::Zero | Cond::NotZero), b, .. } = instr {
                    *cond = Cond::Less;
                    ignored_operand_out_of_range |= !b.is_valid();
                }
            }
            let verdict = verdict.map(|_floor| ());
            prop_assert_eq!(&verdict, &oracle::verify(&compared, 4));
            if !ignored_operand_out_of_range {
                prop_assert_eq!(&verdict, &oracle::verify(&laid_out, 4));
            }
        }
    }

    #[test]
    fn errors_display() {
        assert!(VerifyError::MissingRet.to_string().contains("fall off"));
        assert!(VerifyError::BadGotSlot {
            at: 1,
            slot: 2,
            got_slots: 1
        }
        .to_string()
        .contains("GOT"));
    }
}
