//! Binary encoding of jam bytecode — the `.text` section that ships in messages.
//!
//! The encoding is compact but fixed-layout per opcode, so decoding is cheap and the
//! byte size of a jam is a deterministic function of its instruction sequence. The
//! injected-function experiments in the paper reason about code size in bytes (the
//! Indirect Put jam is 1408 bytes on the wire); the toolchain uses this module to
//! measure and pad `.text`.

use crate::isa::{AluOp, Cond, Instr, Reg, Width};

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

mod op {
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

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::And => 3,
        AluOp::Or => 4,
        AluOp::Xor => 5,
        AluOp::Shl => 6,
        AluOp::Shr => 7,
        AluOp::Rem => 8,
    }
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

fn width_code(w: Width) -> u8 {
    match w {
        Width::B1 => 0,
        Width::B4 => 1,
        Width::B8 => 2,
    }
}

fn width_from(code: u8) -> Option<Width> {
    Some(match code {
        0 => Width::B1,
        1 => Width::B4,
        2 => Width::B8,
        _ => return None,
    })
}

fn cond_code(c: Cond) -> u8 {
    match c {
        Cond::Zero => 0,
        Cond::NotZero => 1,
        Cond::Less => 2,
        Cond::GreaterEq => 3,
    }
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

/// Encoded size in bytes of one instruction.
pub fn encoded_size(i: &Instr) -> usize {
    match i {
        Instr::LoadImm { .. } => 10,
        Instr::Mov { .. } => 3,
        Instr::Alu { .. } => 5,
        Instr::AluImm { .. } => 12,
        Instr::Load { .. } => 8,
        Instr::Store { .. } => 8,
        Instr::Memcpy { .. } => 4,
        Instr::Jump { .. } => 5,
        Instr::Branch { .. } => 8,
        Instr::CallExtern { .. } => 4,
        Instr::Hash { .. } => 3,
        Instr::Nop => 1,
        Instr::Ret => 1,
    }
}

/// Encode a program to its wire representation.
pub fn encode_program(program: &[Instr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.iter().map(encoded_size).sum());
    for i in program {
        encode_instr(i, &mut out);
    }
    out
}

fn encode_instr(i: &Instr, out: &mut Vec<u8>) {
    match *i {
        Instr::LoadImm { dst, imm } => {
            out.push(op::LOAD_IMM);
            out.push(dst.0);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Instr::Mov { dst, src } => {
            out.push(op::MOV);
            out.push(dst.0);
            out.push(src.0);
        }
        Instr::Alu { op: o, dst, a, b } => {
            out.push(op::ALU);
            out.push(alu_code(o));
            out.push(dst.0);
            out.push(a.0);
            out.push(b.0);
        }
        Instr::AluImm {
            op: o,
            dst,
            src,
            imm,
        } => {
            out.push(op::ALU_IMM);
            out.push(alu_code(o));
            out.push(dst.0);
            out.push(src.0);
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Instr::Load {
            width,
            dst,
            addr,
            offset,
        } => {
            out.push(op::LOAD);
            out.push(width_code(width));
            out.push(dst.0);
            out.push(addr.0);
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Instr::Store {
            width,
            src,
            addr,
            offset,
        } => {
            out.push(op::STORE);
            out.push(width_code(width));
            out.push(src.0);
            out.push(addr.0);
            out.extend_from_slice(&offset.to_le_bytes());
        }
        Instr::Memcpy { dst, src, len } => {
            out.push(op::MEMCPY);
            out.push(dst.0);
            out.push(src.0);
            out.push(len.0);
        }
        Instr::Jump { target } => {
            out.push(op::JUMP);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Instr::Branch { cond, a, b, target } => {
            out.push(op::BRANCH);
            out.push(cond_code(cond));
            out.push(a.0);
            out.push(b.0);
            out.extend_from_slice(&target.to_le_bytes());
        }
        Instr::CallExtern { slot, nargs } => {
            out.push(op::CALL_EXTERN);
            out.extend_from_slice(&slot.to_le_bytes());
            out.push(nargs);
        }
        Instr::Hash { dst, src } => {
            out.push(op::HASH);
            out.push(dst.0);
            out.push(src.0);
        }
        Instr::Nop => out.push(op::NOP),
        Instr::Ret => out.push(op::RET),
    }
}

/// The `N` body bytes of the instruction whose opcode stands at `offset`,
/// and what follows them — or `Truncated`, before any field is looked at.
fn split_body<const N: usize>(
    after_opcode: &[u8],
    offset: usize,
) -> Result<(&[u8; N], &[u8]), DecodeError> {
    after_opcode
        .split_first_chunk()
        .ok_or(DecodeError::Truncated { offset })
}

/// Length of the run of `Nop` opcodes `bytes` starts with, eight at a time.
fn nop_run(bytes: &[u8]) -> usize {
    let whole = bytes
        .chunks_exact(8)
        .take_while(|chunk| **chunk == [op::NOP; 8])
        .count()
        * 8;
    let tail = bytes[whole..].iter().take_while(|&&b| b == op::NOP);
    whole + tail.count()
}

/// Decode a `.text` blob back into instructions.
///
/// The output is reserved once — an instruction is at least one byte, so the
/// blob's length bounds the count — and a run of `Nop` padding (over nine
/// tenths of every packaged jam, see [`crate::resolved`]) is appended as one
/// `resize`.
pub fn decode_program(bytes: &[u8]) -> Result<Vec<Instr>, DecodeError> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    // `rest` stands on an instruction boundary — which is what makes a `0x0C`
    // at its head a `Nop`, and not a byte of an immediate. Each arm pushes its
    // instruction and yields the bytes after it.
    while let Some((&opcode, after_opcode)) = rest.split_first() {
        let offset = bytes.len() - rest.len();
        let bad_field = |field| DecodeError::BadField { offset, field };
        rest = match opcode {
            op::NOP => {
                let run = 1 + nop_run(after_opcode);
                out.resize(out.len() + run, Instr::Nop);
                &rest[run..]
            }
            op::RET => {
                out.push(Instr::Ret);
                after_opcode
            }
            op::LOAD_IMM => {
                let (&[dst, imm @ ..], rest) = split_body::<9>(after_opcode, offset)?;
                out.push(Instr::LoadImm {
                    dst: Reg(dst),
                    imm: u64::from_le_bytes(imm),
                });
                rest
            }
            op::MOV => {
                let (&[dst, src], rest) = split_body(after_opcode, offset)?;
                out.push(Instr::Mov {
                    dst: Reg(dst),
                    src: Reg(src),
                });
                rest
            }
            op::ALU => {
                let (&[op, dst, a, b], rest) = split_body(after_opcode, offset)?;
                out.push(Instr::Alu {
                    op: alu_from(op).ok_or(bad_field("alu op"))?,
                    dst: Reg(dst),
                    a: Reg(a),
                    b: Reg(b),
                });
                rest
            }
            op::ALU_IMM => {
                let (&[op, dst, src, imm @ ..], rest) = split_body::<11>(after_opcode, offset)?;
                out.push(Instr::AluImm {
                    op: alu_from(op).ok_or(bad_field("alu op"))?,
                    dst: Reg(dst),
                    src: Reg(src),
                    imm: u64::from_le_bytes(imm),
                });
                rest
            }
            op::LOAD | op::STORE => {
                let (&[width, reg, addr, offset @ ..], rest) =
                    split_body::<7>(after_opcode, offset)?;
                let width = width_from(width).ok_or(bad_field("width"))?;
                let (reg, addr, offset) = (Reg(reg), Reg(addr), u32::from_le_bytes(offset));
                out.push(if opcode == op::LOAD {
                    Instr::Load {
                        width,
                        dst: reg,
                        addr,
                        offset,
                    }
                } else {
                    Instr::Store {
                        width,
                        src: reg,
                        addr,
                        offset,
                    }
                });
                rest
            }
            op::MEMCPY => {
                let (&[dst, src, len], rest) = split_body(after_opcode, offset)?;
                out.push(Instr::Memcpy {
                    dst: Reg(dst),
                    src: Reg(src),
                    len: Reg(len),
                });
                rest
            }
            op::JUMP => {
                let (&target, rest) = split_body(after_opcode, offset)?;
                out.push(Instr::Jump {
                    target: u32::from_le_bytes(target),
                });
                rest
            }
            op::BRANCH => {
                let (&[cond, a, b, target @ ..], rest) = split_body::<7>(after_opcode, offset)?;
                out.push(Instr::Branch {
                    cond: cond_from(cond).ok_or(bad_field("cond"))?,
                    a: Reg(a),
                    b: Reg(b),
                    target: u32::from_le_bytes(target),
                });
                rest
            }
            op::CALL_EXTERN => {
                let (&[slot_lo, slot_hi, nargs], rest) = split_body(after_opcode, offset)?;
                out.push(Instr::CallExtern {
                    slot: u16::from_le_bytes([slot_lo, slot_hi]),
                    nargs,
                });
                rest
            }
            op::HASH => {
                let (&[dst, src], rest) = split_body(after_opcode, offset)?;
                out.push(Instr::Hash {
                    dst: Reg(dst),
                    src: Reg(src),
                });
                rest
            }
            opcode => return Err(DecodeError::BadOpcode { offset, opcode }),
        };
    }
    // A blob of wide instructions holds far fewer than one per byte.
    if out.len() < out.capacity() / 2 {
        out.shrink_to_fit();
    }
    Ok(out)
}

/// `decode_program` as it stood before it sized its output and took padding
/// as runs: the reference the property tests below compare against.
#[cfg(test)]
mod oracle {
    use super::*;

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
        assert_eq!(decoded, prog);
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
        assert_eq!(decode_program(&[]).unwrap(), vec![]);
        assert!(encode_program(&[]).is_empty());
    }

    /// Blobs a decoder has to get right: whole instructions of every opcode
    /// with arbitrary field bytes, `Nop` runs of every alignment, stray bytes,
    /// and a tail cut anywhere.
    /// Blobs a decoder has to get right: whole instructions of every opcode
    /// with arbitrary field bytes (one alu-op, width or cond code too many),
    /// `Nop` runs of every length and alignment, a stray byte now and then,
    /// and a tail cut anywhere.
    fn biased_bytes() -> impl Strategy<Value = Vec<u8>> {
        let instruction = || {
            (1u8..0x0E, prop::collection::vec(any::<u8>(), 11..12)).prop_map(
                |(opcode, mut body)| {
                    let (codes, len) = match opcode {
                        op::LOAD_IMM => (256, 9),
                        op::ALU_IMM => (10, 11),
                        op::ALU => (10, 4),
                        op::LOAD | op::STORE => (4, 7),
                        op::BRANCH => (5, 7),
                        op::JUMP => (256, 4),
                        op::MEMCPY | op::CALL_EXTERN => (256, 3),
                        op::MOV | op::HASH => (256, 2),
                        _ => (256, 0),
                    };
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn decodes_arbitrary_bytes_as_its_predecessor_did(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assert_eq!(decode_program(&bytes), oracle::decode_program(&bytes));
        }

        #[test]
        fn decodes_near_valid_bytes_as_its_predecessor_did(bytes in biased_bytes()) {
            prop_assert_eq!(decode_program(&bytes), oracle::decode_program(&bytes));
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
        let program = decode_program(&bytes).unwrap();
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
    fn the_output_is_reserved_once_and_sheds_large_slack() {
        // Padding-heavy: one instruction per byte, the reservation is the need.
        let mut padded = encode_program(&sample_program());
        padded.resize(1408, op::NOP);
        let program = decode_program(&padded).unwrap();
        assert!(program.capacity() <= padded.len());
        // Wide instructions: ten bytes each, nine tenths of it would be slack.
        let wide = encode_program(
            &[Instr::LoadImm {
                dst: Reg(1),
                imm: 7,
            }; 100],
        );
        let program = decode_program(&wide).unwrap();
        assert_eq!(program.len(), 100);
        assert!(program.capacity() < 200, "{}", program.capacity());
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
