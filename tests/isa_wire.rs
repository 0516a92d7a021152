//! The jam wire format, as bytes.
//!
//! `tests/golden/isa_wire.txt` holds one instruction of every form with a
//! distinct value in every field (two swapped fields change the bytes), every
//! `AluOp`, `Width` and `Cond` in an instruction that carries one, and the
//! length and content hash of the `.text` of every builtin jam — the Indirect
//! Put jam is 1 408 bytes on the wire and every modelled number downstream
//! depends on it. The file was captured from the hand-written encoder and
//! decoder before the instruction forms were declared once in `jamvm::isa`;
//! it is compared *exactly*, in both directions: the samples below encode to
//! the golden's bytes, and the golden's bytes decode to the samples. It is the
//! statement of the layout that does not come from the list in `isa.rs`.
//!
//! Every sample verifies as `[sample, Ret]` against a four-slot GOT (branch
//! targets of 1, a GOT slot of 2), because `tests/wrapping_address.rs` reads
//! them from the golden as the seeds of its byte-mutation sweep.
//!
//! A change that moves the wire format on purpose says so, and replaces the
//! golden with the text the failing assertion prints.

use two_chains_suite::jamvm::isa::{AluOp, Cond, Width};
use two_chains_suite::jamvm::{
    decode_program, encode_program, encoded_size, hash64_bytes, Instr, Reg,
};
use twochains::builtin::benchmark_package;

const GOLDEN: &str = include_str!("golden/isa_wire.txt");

fn forms() -> Vec<Instr> {
    vec![
        Instr::LoadImm {
            dst: Reg(10),
            imm: 0x0102_0304_0506_0708,
        },
        Instr::Mov {
            dst: Reg(1),
            src: Reg(2),
        },
        Instr::Alu {
            op: AluOp::Xor,
            dst: Reg(1),
            a: Reg(2),
            b: Reg(3),
        },
        Instr::AluImm {
            op: AluOp::Shl,
            dst: Reg(4),
            src: Reg(5),
            imm: 0x1112_1314_1516_1718,
        },
        Instr::Load {
            width: Width::B4,
            dst: Reg(6),
            addr: Reg(7),
            offset: 0x2122_2324,
        },
        Instr::Store {
            width: Width::B8,
            src: Reg(8),
            addr: Reg(9),
            offset: 0x3132_3334,
        },
        Instr::Memcpy {
            dst: Reg(11),
            src: Reg(12),
            len: Reg(13),
        },
        Instr::Jump { target: 1 },
        Instr::Branch {
            cond: Cond::Less,
            a: Reg(14),
            b: Reg(15),
            target: 1,
        },
        Instr::CallExtern { slot: 2, nargs: 3 },
        Instr::Hash {
            dst: Reg(3),
            src: Reg(0),
        },
        Instr::Nop,
        Instr::Ret,
    ]
}

fn alu_ops() -> Vec<Instr> {
    [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Rem,
    ]
    .into_iter()
    .map(|op| Instr::Alu {
        op,
        dst: Reg(12),
        a: Reg(13),
        b: Reg(14),
    })
    .collect()
}

fn widths() -> Vec<Instr> {
    [Width::B1, Width::B4, Width::B8]
        .into_iter()
        .map(|width| Instr::Load {
            width,
            dst: Reg(12),
            addr: Reg(13),
            offset: 0x4142_4344,
        })
        .collect()
}

fn conds() -> Vec<Instr> {
    [Cond::Zero, Cond::NotZero, Cond::Less, Cond::GreaterEq]
        .into_iter()
        .map(|cond| Instr::Branch {
            cond,
            a: Reg(12),
            b: Reg(13),
            target: 1,
        })
        .collect()
}

fn sections() -> [(&'static str, Vec<Instr>); 4] {
    [
        ("forms", forms()),
        ("alu ops", alu_ops()),
        ("widths", widths()),
        ("conds", conds()),
    ]
}

fn hex(bytes: &[u8]) -> String {
    let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
    hex.join(" ")
}

fn unhex(hex: &str) -> Vec<u8> {
    hex.split_whitespace()
        .map(|byte| u8::from_str_radix(byte, 16).expect("a hex byte"))
        .collect()
}

/// What the encoder says today, in the golden's format.
fn actual() -> String {
    let mut text = String::new();
    for (section, instrs) in sections() {
        text += &format!("[{section}]\n");
        for instr in instrs {
            text += &format!("{} ; {instr:?}\n", hex(&encode_program(&[instr])));
        }
    }
    text += "[jams]\n";
    let package = benchmark_package().unwrap();
    for (_, jam) in package.jams() {
        text += &format!(
            "{} ; {} bytes, hash64_bytes {:#018x}\n",
            jam.name,
            jam.text.len(),
            hash64_bytes(&jam.text)
        );
    }
    text
}

#[test]
fn every_form_and_every_builtin_jam_encodes_to_the_golden_bytes() {
    let actual = actual();
    if actual.trim() != GOLDEN.trim() {
        let diverged = actual
            .lines()
            .zip(GOLDEN.trim().lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.trim().lines().count()));
        panic!(
            "the wire format diverged from the golden at line {} \
             (golden: {:?}, actual: {:?}).\nFull actual text:\n{actual}",
            diverged + 1,
            GOLDEN.trim().lines().nth(diverged),
            actual.lines().nth(diverged),
        );
    }
}

#[test]
fn the_golden_bytes_decode_to_the_samples() {
    let mut lines = GOLDEN.lines();
    for (section, instrs) in sections() {
        assert_eq!(lines.next(), Some(&*format!("[{section}]")));
        for instr in instrs {
            let line = lines.next().expect("one line per sample");
            let bytes = unhex(line.split(';').next().unwrap());
            assert_eq!(decode_program(&bytes), Ok(vec![instr]), "{line}");
            assert_eq!(encoded_size(&instr), bytes.len(), "{line}");
        }
    }
    assert_eq!(lines.next(), Some("[jams]"));
    // A section decodes as one program too: boundaries come from the sizes.
    for (section, instrs) in sections() {
        assert_eq!(
            decode_program(&encode_program(&instrs)),
            Ok(instrs),
            "{section}"
        );
    }
}
