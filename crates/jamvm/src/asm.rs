//! A small assembler with labels, used by the build toolchain to author jams.
//!
//! The assembler collects instructions and named labels, then resolves label
//! references into absolute instruction indices when [`Assembler::finish`] is called.
//! Forward references are allowed.

use std::collections::HashMap;

use crate::isa::{AluOp, Cond, Instr, Reg, Width};

/// Error produced when a program cannot be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label: {l}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label: {l}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// The assembler.
#[derive(Debug, Default, Clone)]
pub struct Assembler {
    program: Vec<Instr>,
    /// Jumps and branches emitted with a placeholder target, and the label each
    /// awaits, in program order.
    fixups: Vec<(usize, String)>,
    labels: HashMap<String, u32>,
    dup: Option<String>,
}

impl Assembler {
    /// Create an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_string(), self.program.len() as u32)
            .is_some()
        {
            self.dup = Some(name.to_string());
        }
        self
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.program.push(i);
        self
    }

    /// `dst = imm`
    pub fn load_imm(&mut self, dst: Reg, imm: u64) -> &mut Self {
        self.push(Instr::LoadImm { dst, imm })
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Mov { dst, src })
    }

    /// `dst = a + b`
    pub fn add(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Add,
            dst,
            a,
            b,
        })
    }

    /// `dst = a - b`
    pub fn sub(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Sub,
            dst,
            a,
            b,
        })
    }

    /// `dst = a * b`
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Instr::Alu {
            op: AluOp::Mul,
            dst,
            a,
            b,
        })
    }

    /// `dst = src <op> imm`
    pub fn alu_imm(&mut self, op: AluOp, dst: Reg, src: Reg, imm: u64) -> &mut Self {
        self.push(Instr::AluImm { op, dst, src, imm })
    }

    /// `dst = src + imm`
    pub fn add_imm(&mut self, dst: Reg, src: Reg, imm: u64) -> &mut Self {
        self.alu_imm(AluOp::Add, dst, src, imm)
    }

    /// Load with the given width.
    pub fn load(&mut self, width: Width, dst: Reg, addr: Reg, offset: u32) -> &mut Self {
        self.push(Instr::Load {
            width,
            dst,
            addr,
            offset,
        })
    }

    /// Store with the given width.
    pub fn store(&mut self, width: Width, src: Reg, addr: Reg, offset: u32) -> &mut Self {
        self.push(Instr::Store {
            width,
            src,
            addr,
            offset,
        })
    }

    /// Bulk copy.
    pub fn memcpy(&mut self, dst: Reg, src: Reg, len: Reg) -> &mut Self {
        self.push(Instr::Memcpy { dst, src, len })
    }

    /// Unconditional jump to a label.
    pub fn jump(&mut self, label: &str) -> &mut Self {
        self.push_awaiting(label, Instr::Jump { target: 0 })
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: &str) -> &mut Self {
        self.push_awaiting(
            label,
            Instr::Branch {
                cond,
                a,
                b,
                target: 0,
            },
        )
    }

    /// Append a jump or branch whose target `finish` fills in from `label`.
    fn push_awaiting(&mut self, label: &str, i: Instr) -> &mut Self {
        self.fixups.push((self.program.len(), label.to_string()));
        self.push(i)
    }

    /// Branch if `a` is zero.
    pub fn jz(&mut self, a: Reg, label: &str) -> &mut Self {
        self.branch(Cond::Zero, a, a, label)
    }

    /// Branch if `a` is non-zero.
    pub fn jnz(&mut self, a: Reg, label: &str) -> &mut Self {
        self.branch(Cond::NotZero, a, a, label)
    }

    /// Call an external symbol through a GOT slot.
    pub fn call_extern(&mut self, slot: u16, nargs: u8) -> &mut Self {
        self.push(Instr::CallExtern { slot, nargs })
    }

    /// Hash `src` into `dst`.
    pub fn hash(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Instr::Hash { dst, src })
    }

    /// Return.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Instr::Ret)
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.program.is_empty()
    }

    /// Resolve labels and produce the final instruction sequence.
    pub fn finish(self) -> Result<Vec<Instr>, AsmError> {
        if let Some(d) = self.dup {
            return Err(AsmError::DuplicateLabel(d));
        }
        let mut program = self.program;
        for (at, label) in self.fixups {
            let resolved = *self
                .labels
                .get(&label)
                .ok_or(AsmError::UndefinedLabel(label))?;
            match &mut program[at] {
                Instr::Jump { target } | Instr::Branch { target, .. } => *target = resolved,
                other => unreachable!("a fix-up names a jump or a branch, not {other:?}"),
            }
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 3)
            .label("loop")
            .alu_imm(AluOp::Sub, Reg(0), Reg(0), 1)
            .jnz(Reg(0), "loop")
            .jump("end")
            .push(Instr::Nop)
            .label("end")
            .ret();
        let prog = a.finish().unwrap();
        assert_eq!(prog[2].target(), Some(1), "backward branch to loop");
        assert_eq!(prog[3].target(), Some(5), "forward jump to end");
        assert_eq!(prog.len(), 6);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new();
        a.jump("nowhere");
        assert_eq!(a.finish(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Assembler::new();
        a.label("x").push(Instr::Nop).label("x").ret();
        assert_eq!(a.finish(), Err(AsmError::DuplicateLabel("x".into())));
    }

    #[test]
    fn builder_methods_emit_expected_instructions() {
        let mut a = Assembler::new();
        a.load_imm(Reg(1), 7)
            .mov(Reg(2), Reg(1))
            .add(Reg(3), Reg(1), Reg(2))
            .sub(Reg(3), Reg(3), Reg(1))
            .mul(Reg(3), Reg(3), Reg(2))
            .add_imm(Reg(3), Reg(3), 5)
            .load(Width::B8, Reg(4), Reg(3), 0)
            .store(Width::B4, Reg(4), Reg(3), 8)
            .memcpy(Reg(5), Reg(6), Reg(7))
            .call_extern(2, 1)
            .hash(Reg(8), Reg(1))
            .ret();
        assert_eq!(a.len(), 12);
        assert!(!a.is_empty());
        let prog = a.finish().unwrap();
        assert!(matches!(prog[0], Instr::LoadImm { imm: 7, .. }));
        assert!(matches!(prog[9], Instr::CallExtern { slot: 2, nargs: 1 }));
        assert!(matches!(prog[11], Instr::Ret));
    }

    #[test]
    fn errors_display() {
        assert!(AsmError::UndefinedLabel("a".into())
            .to_string()
            .contains("undefined"));
        assert!(AsmError::DuplicateLabel("b".into())
            .to_string()
            .contains("duplicate"));
    }
}
