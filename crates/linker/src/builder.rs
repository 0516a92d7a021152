//! The build toolchain: jam definitions in, packages out.
//!
//! The paper's build tools take a directory of canonical single-source-file jam and
//! ried definitions (`jam_append.amc`, `ried_array.rdc`), compile each jam twice —
//! once GOT-rewritten for injection and once unmodified into the Local Function
//! shared library — and install the package plus a generated header. The
//! [`PackageBuilder`] does the equivalent for jam-VM programs:
//!
//! * verifies and encodes each definition into a [`JamObject`],
//! * optionally pads `.text` to a target byte size (the paper's Indirect Put code is
//!   1408 bytes on the wire; padding lets the reproduction match the footprint that
//!   the message-size arithmetic of Figs. 7–8 depends on),
//! * records the same program as the locally invocable variant (the Local Function
//!   library "generated ... from the same source"), and
//! * assigns element IDs.

use twochains_jamvm::{encode_program, encoded_size, Instr};

use crate::error::LinkError;
use crate::object::JamObject;
use crate::package::{Package, PackageElement};
use crate::ried::Ried;
use crate::symbol::SymbolRef;

/// A single jam definition handed to the toolchain (the `.amc` source analogue).
#[derive(Debug, Clone)]
pub struct JamDefinition {
    /// Element name, canonically `jam_<something>`.
    pub name: String,
    /// The program.
    pub program: Vec<Instr>,
    /// Symbolic GOT (external references, in slot order).
    pub got: Vec<SymbolRef>,
    /// Size of the fixed ARGS block the jam expects.
    pub(crate) args_size: usize,
    /// If set, pad `.text` with `Nop`s to exactly this many bytes.
    pub(crate) pad_text_to: Option<usize>,
}

impl JamDefinition {
    /// A minimal definition with no externals and no padding.
    pub fn new(name: &str, program: Vec<Instr>) -> Self {
        JamDefinition {
            name: name.to_string(),
            program,
            got: Vec::new(),
            args_size: 0,
            pad_text_to: None,
        }
    }

    /// Set the symbolic GOT.
    pub fn with_got(mut self, got: Vec<SymbolRef>) -> Self {
        self.got = got;
        self
    }

    /// Set the ARGS block size.
    pub fn with_args_size(mut self, n: usize) -> Self {
        self.args_size = n;
        self
    }

    /// Request `.text` padding to `n` bytes.
    pub fn padded_to(mut self, n: usize) -> Self {
        self.pad_text_to = Some(n);
        self
    }
}

/// Pad a program with `Nop`s appended *after* its terminator until its encoded size
/// reaches `target` bytes. The padding is never executed (control flow returns at the
/// original terminator) and branch targets are untouched; a final `Ret` keeps the
/// verifier's fall-through check satisfied.
fn pad_program(mut program: Vec<Instr>, target: usize) -> Result<Vec<Instr>, LinkError> {
    let current: usize = program.iter().map(encoded_size).sum();
    if current > target {
        return Err(LinkError::InvalidDefinition(format!(
            "program is {current} bytes, larger than pad target {target}"
        )));
    }
    let needed = target - current;
    if needed == 0 {
        return Ok(program);
    }
    // needed-1 Nops plus one trailing Ret (both 1 byte) hit the target exactly.
    program.extend(std::iter::repeat_n(Instr::Nop, needed - 1));
    program.push(Instr::Ret);
    Ok(program)
}

/// The package build toolchain.
#[derive(Debug, Default)]
pub struct PackageBuilder {
    name: String,
    jams: Vec<JamDefinition>,
    rieds: Vec<Ried>,
}

impl PackageBuilder {
    /// Start building a package called `name`.
    pub fn new(name: &str) -> Self {
        PackageBuilder {
            name: name.to_string(),
            jams: Vec::new(),
            rieds: Vec::new(),
        }
    }

    /// Add a jam definition.
    pub fn jam(mut self, def: JamDefinition) -> Self {
        self.jams.push(def);
        self
    }

    /// Add a ried.
    pub fn ried(mut self, ried: Ried) -> Self {
        self.rieds.push(ried);
        self
    }

    /// Build the package: rieds first (so their element IDs are stable for loaders),
    /// then jams in definition order.
    pub fn build(self) -> Result<Package, LinkError> {
        let mut pkg = Package::new(&self.name);
        for ried in self.rieds {
            pkg.add(PackageElement::Ried(ried))?;
        }
        for def in self.jams {
            if def.name.is_empty() {
                return Err(LinkError::InvalidDefinition("jam needs a name".into()));
            }
            let program = match def.pad_text_to {
                Some(target) => pad_program(def.program, target)?,
                None => def.program,
            };
            let text = encode_program(&program);
            let obj = JamObject::new(&def.name, text, def.got, def.args_size)?;
            pkg.add(PackageElement::Jam(obj))?;
        }
        Ok(pkg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ried::RiedBuilder;
    use twochains_jamvm::{Assembler, Reg};

    fn sum_program() -> Vec<Instr> {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 0)
            .load_imm(Reg(1), 4)
            .label("loop")
            .add(Reg(0), Reg(0), Reg(1))
            .alu_imm(twochains_jamvm::isa::AluOp::Sub, Reg(1), Reg(1), 1)
            .jnz(Reg(1), "loop")
            .ret();
        a.finish().unwrap()
    }

    #[test]
    fn build_produces_objects_and_ids() {
        let pkg = PackageBuilder::new("pkg")
            .ried(RiedBuilder::new("ried_array").build())
            .jam(JamDefinition::new("jam_sum", sum_program()).with_args_size(16))
            .build()
            .unwrap();
        assert_eq!(pkg.len(), 2);
        let id = pkg.id_of("jam_sum").unwrap();
        let jam = pkg.jam(id).unwrap();
        assert_eq!(jam.args_size, 16);
        assert!(jam.code_size() > 0);
    }

    #[test]
    fn padding_reaches_exact_size_and_preserves_semantics() {
        let def = JamDefinition::new("jam_sum", sum_program()).padded_to(1408);
        let pkg = PackageBuilder::new("pkg").jam(def).build().unwrap();
        let jam = pkg.jam(pkg.id_of("jam_sum").unwrap()).unwrap();
        assert_eq!(
            jam.code_size(),
            1408,
            "the paper's Indirect Put code footprint"
        );
        // The padded program still runs and produces the same result.
        use twochains_jamvm::{resolve, AddressSpace, ExternTable, GotImage, Vm, VmConfig};
        use twochains_memsim::hierarchy::FlatMemory;
        let mut bus = FlatMemory::free();
        let stats = Vm::execute_resolved(
            &resolve(&jam.program().unwrap(), &GotImage::default()),
            &ExternTable::new(),
            &mut AddressSpace::new(),
            &mut bus,
            &VmConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.result, 4 + 3 + 2 + 1);
    }

    #[test]
    fn padding_smaller_than_program_is_rejected() {
        let def = JamDefinition::new("jam_sum", sum_program()).padded_to(4);
        assert!(matches!(
            PackageBuilder::new("pkg").jam(def).build(),
            Err(LinkError::InvalidDefinition(_))
        ));
    }

    #[test]
    fn builder_propagates_verification_failures() {
        // References GOT slot 0 but declares no symbols.
        let mut a = Assembler::new();
        a.call_extern(0, 0).ret();
        let def = JamDefinition::new("jam_bad", a.finish().unwrap());
        assert!(matches!(
            PackageBuilder::new("pkg").jam(def).build(),
            Err(LinkError::VerifyFailed(_))
        ));
    }

    #[test]
    fn unnamed_jam_rejected() {
        let def = JamDefinition::new("", sum_program());
        assert!(matches!(
            PackageBuilder::new("pkg").jam(def).build(),
            Err(LinkError::InvalidDefinition(_))
        ));
    }

    #[test]
    fn rieds_get_lower_ids_than_jams() {
        let pkg = PackageBuilder::new("pkg")
            .jam(JamDefinition::new("jam_sum", sum_program()))
            .ried(RiedBuilder::new("ried_a").build())
            .ried(RiedBuilder::new("ried_b").build())
            .build()
            .unwrap();
        assert_eq!(pkg.id_of("ried_a").unwrap().0, 0);
        assert_eq!(pkg.id_of("ried_b").unwrap().0, 1);
        assert_eq!(pkg.id_of("jam_sum").unwrap().0, 2);
    }
}
