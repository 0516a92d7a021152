//! Binary encoding of jam bytecode — the `.text` section that ships in messages.
//!
//! The encoding is compact but fixed-layout per opcode, so decoding is cheap and the
//! byte size of a jam is a deterministic function of its instruction sequence. The
//! injected-function experiments in the paper reason about code size in bytes (the
//! Indirect Put jam is 1408 bytes on the wire); the toolchain uses this module to
//! measure and pad `.text`.
//!
//! Decoding yields a [`Program`], which holds a run of `Nop` padding as a length:
//! the toolchain pads every packaged jam to the paper's fixed frame sizes, so
//! padding is over nine tenths of each one (1 345 of the Indirect Put jam's
//! 1 359 instructions), and a receiver that decoded, verified and lowered it an
//! instruction at a time would pay for the padding, not the function.

use crate::isa::Instr;

/// A decoded program: each instruction that is not a `Nop`, with its pc, and
/// the instruction count. The pcs between them hold `Nop`s.
///
/// [`decode_program`] builds one without allocating for padding, and
/// [`crate::verify()`] and [`crate::resolve`] visit only the instructions it
/// holds. A program built in-process comes in through `Program::from` an
/// instruction slice or vector; [`Program::to_instrs`] lays it out again,
/// `Nop`s included, for an instruction-at-a-time reader such as the test-only
/// interpreter of `twochains-oracle`. Pcs are
/// `u32`s, as branch targets are: a frame's code length is a `u32` and an
/// instruction is at least one byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// The instructions that are not `Nop`, in pc order, each with its pc.
    pub(crate) instrs: Vec<(u32, Instr)>,
    /// Number of instructions, `Nop`s included.
    pub(crate) len: u32,
}

impl Program {
    /// Number of instructions, `Nop`s included.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the program has no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The program an instruction per pc, `Nop`s included.
    pub fn to_instrs(&self) -> Vec<Instr> {
        let mut out = vec![Instr::Nop; self.len()];
        for &(pc, instr) in &self.instrs {
            out[pc as usize] = instr;
        }
        out
    }

    fn push(&mut self, instr: Instr) {
        if instr != Instr::Nop {
            self.instrs.push((self.len, instr));
        }
        self.len += 1;
    }
}

impl From<&[Instr]> for Program {
    fn from(instrs: &[Instr]) -> Self {
        let mut program = Program::default();
        for &instr in instrs {
            program.push(instr);
        }
        program
    }
}

impl From<Vec<Instr>> for Program {
    fn from(instrs: Vec<Instr>) -> Self {
        Program::from(instrs.as_slice())
    }
}

/// Errors produced while decoding a `.text` blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Unknown opcode byte at the given offset.
    BadOpcode {
        /// Byte offset of the offending opcode.
        offset: usize,
        /// The opcode value.
        opcode: u8,
    },
    /// The blob ended in the middle of an instruction.
    Truncated {
        /// Byte offset where more bytes were expected.
        offset: usize,
    },
    /// A field held an invalid value (e.g. an out-of-range width code).
    BadField {
        /// Byte offset of the instruction.
        offset: usize,
        /// Description of the field.
        field: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode { offset, opcode } => {
                write!(f, "bad opcode {opcode:#04x} at offset {offset}")
            }
            DecodeError::Truncated { offset } => {
                write!(f, "truncated instruction at offset {offset}")
            }
            DecodeError::BadField { offset, field } => {
                write!(f, "invalid {field} field at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encoded size in bytes of one instruction.
pub fn encoded_size(i: &Instr) -> usize {
    i.encoded_size()
}

/// Encode a program to its wire representation.
pub fn encode_program(program: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.iter().map(encoded_size).sum());
    for i in program {
        i.encode(&mut out);
    }
    out
}

const NOP: u8 = Instr::Nop.opcode();

/// Length of the run of `Nop` opcodes `bytes` starts with, eight at a time.
fn nop_run(bytes: &[u8]) -> usize {
    let whole = bytes
        .chunks_exact(8)
        .take_while(|chunk| **chunk == [NOP; 8])
        .count()
        * 8;
    let tail = bytes[whole..].iter().take_while(|&&b| b == NOP);
    whole + tail.count()
}

/// Decode a `.text` blob into a [`Program`].
///
/// A run of `Nop` padding is scanned eight bytes at a time and advances the
/// pc by its length, allocating nothing; every other form is
/// `Instr::decode`, generated from the one list of forms in [`crate::isa`].
pub fn decode_program(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut program = Program::default();
    let mut rest = bytes;
    // `rest` stands on an instruction boundary — which is what makes a `0x0C`
    // at its head a `Nop`, and not a byte of an immediate.
    while let Some((&opcode, after_opcode)) = rest.split_first() {
        rest = if opcode == NOP {
            let run = 1 + nop_run(after_opcode);
            program.len += run as u32;
            &rest[run..]
        } else {
            let offset = bytes.len() - rest.len();
            let (instr, rest) = Instr::decode(opcode, after_opcode, offset)?;
            program.push(instr);
            rest
        };
    }
    Ok(program)
}

/// `decode_program` as it stood before it took padding as runs, with the
/// opcode values and code tables it was written against: the
/// reference the property tests below compare against, and the one statement
/// of the wire layout in this crate that is not the list in [`crate::isa`].
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::isa::{AluOp, Cond, Reg, Width};

    pub(super) mod op {
        pub const LOAD_IMM: u8 = 0x01;
        pub const MOV: u8 = 0x02;
        pub const ALU: u8 = 0x03;
        pub const ALU_IMM: u8 = 0x04;
        pub const LOAD: u8 = 0x05;
        pub const STORE: u8 = 0x06;
        pub const MEMCPY: u8 = 0x07;
        pub const JUMP: u8 = 0x08;
        pub const BRANCH: u8 = 0x09;
        pub const CALL_EXTERN: u8 = 0x0A;
        pub const HASH: u8 = 0x0B;
        pub const NOP: u8 = 0x0C;
        pub const RET: u8 = 0x0D;
    }

    fn alu_from(code: u8) -> Option<AluOp> {
        Some(match code {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::And,
            4 => AluOp::Or,
            5 => AluOp::Xor,
            6 => AluOp::Shl,
            7 => AluOp::Shr,
            8 => AluOp::Rem,
            _ => return None,
        })
    }

    fn width_from(code: u8) -> Option<Width> {
        Some(match code {
            0 => Width::B1,
            1 => Width::B4,
            2 => Width::B8,
            _ => return None,
        })
    }

    fn cond_from(code: u8) -> Option<Cond> {
        Some(match code {
            0 => Cond::Zero,
            1 => Cond::NotZero,
            2 => Cond::Less,
            3 => Cond::GreaterEq,
            _ => return None,
        })
    }

    pub(super) fn decode_program(bytes: &[u8]) -> Result<Vec<Instr>, DecodeError> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let start = pos;
            let opcode = bytes[pos];
            pos += 1;
            let need = |n: usize, pos: usize| -> Result<(), DecodeError> {
                if pos + n <= bytes.len() {
                    Ok(())
                } else {
                    Err(DecodeError::Truncated { offset: start })
                }
            };
            let instr = match opcode {
                op::LOAD_IMM => {
                    need(9, pos)?;
                    let dst = Reg(bytes[pos]);
                    let imm = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
                    pos += 9;
                    Instr::LoadImm { dst, imm }
                }
                op::MOV => {
                    need(2, pos)?;
                    let i = Instr::Mov {
                        dst: Reg(bytes[pos]),
                        src: Reg(bytes[pos + 1]),
                    };
                    pos += 2;
                    i
                }
                op::ALU => {
                    need(4, pos)?;
                    let o = alu_from(bytes[pos]).ok_or(DecodeError::BadField {
                        offset: start,
                        field: "alu op",
                    })?;
                    let i = Instr::Alu {
                        op: o,
                        dst: Reg(bytes[pos + 1]),
                        a: Reg(bytes[pos + 2]),
                        b: Reg(bytes[pos + 3]),
                    };
                    pos += 4;
                    i
                }
                op::ALU_IMM => {
                    need(11, pos)?;
                    let o = alu_from(bytes[pos]).ok_or(DecodeError::BadField {
                        offset: start,
                        field: "alu op",
                    })?;
                    let dst = Reg(bytes[pos + 1]);
                    let src = Reg(bytes[pos + 2]);
                    let imm = u64::from_le_bytes(bytes[pos + 3..pos + 11].try_into().unwrap());
                    pos += 11;
                    Instr::AluImm {
                        op: o,
                        dst,
                        src,
                        imm,
                    }
                }
                op::LOAD => {
                    need(7, pos)?;
                    let width = width_from(bytes[pos]).ok_or(DecodeError::BadField {
                        offset: start,
                        field: "width",
                    })?;
                    let dst = Reg(bytes[pos + 1]);
                    let addr = Reg(bytes[pos + 2]);
                    let offset = u32::from_le_bytes(bytes[pos + 3..pos + 7].try_into().unwrap());
                    pos += 7;
                    Instr::Load {
                        width,
                        dst,
                        addr,
                        offset,
                    }
                }
                op::STORE => {
                    need(7, pos)?;
                    let width = width_from(bytes[pos]).ok_or(DecodeError::BadField {
                        offset: start,
                        field: "width",
                    })?;
                    let src = Reg(bytes[pos + 1]);
                    let addr = Reg(bytes[pos + 2]);
                    let offset = u32::from_le_bytes(bytes[pos + 3..pos + 7].try_into().unwrap());
                    pos += 7;
                    Instr::Store {
                        width,
                        src,
                        addr,
                        offset,
                    }
                }
                op::MEMCPY => {
                    need(3, pos)?;
                    let i = Instr::Memcpy {
                        dst: Reg(bytes[pos]),
                        src: Reg(bytes[pos + 1]),
                        len: Reg(bytes[pos + 2]),
                    };
                    pos += 3;
                    i
                }
                op::JUMP => {
                    need(4, pos)?;
                    let target = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                    pos += 4;
                    Instr::Jump { target }
                }
                op::BRANCH => {
                    need(7, pos)?;
                    let cond = cond_from(bytes[pos]).ok_or(DecodeError::BadField {
                        offset: start,
                        field: "cond",
                    })?;
                    let a = Reg(bytes[pos + 1]);
                    let b = Reg(bytes[pos + 2]);
                    let target = u32::from_le_bytes(bytes[pos + 3..pos + 7].try_into().unwrap());
                    pos += 7;
                    Instr::Branch { cond, a, b, target }
                }
                op::CALL_EXTERN => {
                    need(3, pos)?;
                    let slot = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap());
                    let nargs = bytes[pos + 2];
                    pos += 3;
                    Instr::CallExtern { slot, nargs }
                }
                op::HASH => {
                    need(2, pos)?;
                    let i = Instr::Hash {
                        dst: Reg(bytes[pos]),
                        src: Reg(bytes[pos + 1]),
                    };
                    pos += 2;
                    i
                }
                op::NOP => Instr::Nop,
                op::RET => Instr::Ret,
                other => {
                    return Err(DecodeError::BadOpcode {
                        offset: start,
                        opcode: other,
                    })
                }
            };
            out.push(instr);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::op;
    use super::*;
    use crate::isa::{AluOp, Cond, Reg, Width};
    use proptest::prelude::*;

    fn sample_program() -> Vec<Instr> {
        vec![
            Instr::LoadImm {
                dst: Reg(1),
                imm: 0xDEAD_BEEF_0000_1234,
            },
            Instr::Mov {
                dst: Reg(2),
                src: Reg(1),
            },
            Instr::Alu {
                op: AluOp::Add,
                dst: Reg(3),
                a: Reg(1),
                b: Reg(2),
            },
            Instr::AluImm {
                op: AluOp::Shl,
                dst: Reg(3),
                src: Reg(3),
                imm: 3,
            },
            Instr::Load {
                width: Width::B4,
                dst: Reg(4),
                addr: Reg(3),
                offset: 16,
            },
            Instr::Store {
                width: Width::B8,
                src: Reg(4),
                addr: Reg(3),
                offset: 24,
            },
            Instr::Memcpy {
                dst: Reg(5),
                src: Reg(6),
                len: Reg(7),
            },
            Instr::Jump { target: 9 },
            Instr::Branch {
                cond: Cond::Less,
                a: Reg(1),
                b: Reg(2),
                target: 2,
            },
            Instr::CallExtern { slot: 3, nargs: 2 },
            Instr::Hash {
                dst: Reg(8),
                src: Reg(1),
            },
            Instr::Nop,
            Instr::Ret,
        ]
    }

    #[test]
    fn roundtrip_every_opcode() {
        let prog = sample_program();
        let bytes = encode_program(&prog);
        let decoded = decode_program(&bytes).unwrap();
        assert_eq!(decoded, Program::from(&prog[..]));
        assert_eq!(decoded.to_instrs(), prog);
    }

    #[test]
    fn encoded_size_matches_actual_bytes() {
        for i in sample_program() {
            let bytes = encode_program(&[i]);
            assert_eq!(bytes.len(), encoded_size(&i), "{i:?}");
        }
    }

    #[test]
    fn truncated_blob_is_rejected() {
        // Cut a multi-byte instruction (LoadImm is 10 bytes) in half.
        let mut bytes = encode_program(&[Instr::LoadImm {
            dst: Reg(1),
            imm: 42,
        }]);
        bytes.truncate(5);
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_opcode_is_rejected() {
        assert!(matches!(
            decode_program(&[0xFF]),
            Err(DecodeError::BadOpcode { opcode: 0xFF, .. })
        ));
    }

    #[test]
    fn bad_field_is_rejected() {
        // ALU with op code 42
        let bytes = vec![0x03, 42, 0, 0, 0];
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::BadField {
                field: "alu op",
                ..
            })
        ));
        // Load with width code 9
        let bytes = vec![0x05, 9, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            decode_program(&bytes),
            Err(DecodeError::BadField { field: "width", .. })
        ));
    }

    #[test]
    fn empty_program_decodes_to_empty() {
        assert!(decode_program(&[]).unwrap().is_empty());
        assert!(encode_program(&[]).is_empty());
    }

    /// Body length of `opcode`'s form, and the values to draw its first body
    /// byte from — every code that decodes and one too many, or all 256 when
    /// it is not a code field. Asked of the decoder, not restated here.
    fn body_shape(opcode: u8) -> (usize, u16) {
        let decodes = |first| Instr::decode(opcode, &[first; 16], 0).map(|(instr, _)| instr);
        let instr = decodes(0).expect("a declared opcode");
        let first_bad = (0..=255u8).find(|&first| decodes(first).is_err());
        (
            encoded_size(&instr) - 1,
            first_bad.map_or(256, |code| code as u16 + 1),
        )
    }

    /// Blobs a decoder has to get right: whole instructions of every opcode
    /// with arbitrary field bytes (one alu-op, width or cond code too many),
    /// `Nop` runs of every length and alignment, a stray byte now and then,
    /// and a tail cut anywhere.
    fn biased_bytes() -> impl Strategy<Value = Vec<u8>> {
        let instruction = || {
            (1u8..0x0E, prop::collection::vec(any::<u8>(), 11..12)).prop_map(
                |(opcode, mut body)| {
                    let (len, codes) = body_shape(opcode);
                    body[0] = (body[0] as u16 % codes) as u8;
                    body.truncate(len);
                    body.insert(0, opcode);
                    body
                },
            )
        };
        let nops = || (1usize..40).prop_map(|n| vec![op::NOP; n]);
        let chunk = prop_oneof![
            instruction(),
            instruction(),
            instruction(),
            instruction(),
            nops(),
            nops(),
            nops(),
            prop::collection::vec(any::<u8>(), 1..2),
        ];
        (prop::collection::vec(chunk, 0..24), 0usize..12).prop_map(|(chunks, cut)| {
            let mut bytes = chunks.concat();
            bytes.truncate(bytes.len().saturating_sub(cut.saturating_sub(4)));
            bytes
        })
    }

    /// `decode_program` an instruction per pc, as its predecessor decoded.
    fn laid_out(bytes: &[u8]) -> Result<Vec<Instr>, DecodeError> {
        decode_program(bytes).map(|program| program.to_instrs())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn decodes_arbitrary_bytes_as_its_predecessor_did(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assert_eq!(laid_out(&bytes), oracle::decode_program(&bytes));
        }

        #[test]
        fn decodes_near_valid_bytes_as_its_predecessor_did(bytes in biased_bytes()) {
            prop_assert_eq!(laid_out(&bytes), oracle::decode_program(&bytes));
        }
    }

    #[test]
    fn a_nop_byte_inside_an_immediate_is_not_an_instruction() {
        // load_imm r12, 0x0c0c…0c; nop × 9; ret — and the same cut mid-immediate.
        let mut bytes = vec![op::LOAD_IMM];
        bytes.extend([op::NOP; 9]);
        let cut = bytes.clone();
        bytes.extend([op::NOP; 9]);
        bytes.push(op::RET);
        let program = decode_program(&bytes).unwrap().to_instrs();
        assert_eq!(program.len(), 11);
        assert_eq!(
            program[0],
            Instr::LoadImm {
                dst: Reg(12),
                imm: 0x0c0c_0c0c_0c0c_0c0c
            }
        );
        assert_eq!(
            decode_program(&cut[..9]),
            Err(DecodeError::Truncated { offset: 0 })
        );
    }

    #[test]
    fn padding_is_held_as_a_length() {
        // The sample's 13 instructions, one of them a `Nop`, then padding to
        // the Indirect Put jam's 1 408 bytes and a closing `ret`.
        let sample = encode_program(&sample_program());
        let mut padded = sample.clone();
        padded.resize(1407, op::NOP);
        padded.push(op::RET);
        let program = decode_program(&padded).unwrap();
        let len = sample_program().len() + (1407 - sample.len()) + 1;
        assert_eq!(program.len(), len);
        let pcs: Vec<u32> = program.instrs.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(pcs, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, len as u32 - 1]);
    }

    #[test]
    fn errors_display() {
        let e = DecodeError::BadOpcode {
            offset: 3,
            opcode: 0xAA,
        };
        assert!(e.to_string().contains("0xaa"));
        assert!(DecodeError::Truncated { offset: 1 }
            .to_string()
            .contains("truncated"));
    }
}
