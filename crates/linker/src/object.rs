//! The jam object — the reproduction's ELF stand-in.
//!
//! A [`JamObject`] is what the build toolchain produces from a jam definition and
//! what a sender packs (in part) into an active message: position-independent
//! `.text` bytecode, a *symbolic* GOT listing the external names the code
//! references (one [`SymbolRef`] per slot), and the size of the fixed ARGS block
//! the jam expects. Objects live in a [`Package`](crate::Package) in memory; no
//! serialized form exists, because a receiver installs the package it is handed.

use twochains_jamvm::{decode_program, verify, Program};

use crate::error::LinkError;
use crate::symbol::SymbolRef;

/// A relocatable, injectable function object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JamObject {
    /// Element name within its package (e.g. `"jam_indirect_put"`).
    pub name: String,
    /// Encoded bytecode (`.text`).
    pub text: Vec<u8>,
    /// Symbolic GOT: slot *i* of the shipped GOT image resolves `got[i]`.
    pub got: Vec<SymbolRef>,
    /// Size in bytes of the fixed ARGS block this jam expects in the frame.
    pub(crate) args_size: usize,
}

impl JamObject {
    /// Construct an object from already-encoded text. Verifies the bytecode against
    /// the declared GOT size.
    pub fn new(
        name: &str,
        text: Vec<u8>,
        got: Vec<SymbolRef>,
        args_size: usize,
    ) -> Result<Self, LinkError> {
        let program = decode_program(&text).map_err(|e| LinkError::DecodeFailed(e.to_string()))?;
        verify(&program, got.len()).map_err(|e| LinkError::VerifyFailed(e.to_string()))?;
        Ok(JamObject {
            name: name.to_string(),
            text,
            got,
            args_size,
        })
    }

    /// Decode the `.text` back into instructions.
    pub fn program(&self) -> Result<Program, LinkError> {
        decode_program(&self.text).map_err(|e| LinkError::DecodeFailed(e.to_string()))
    }

    /// Size in bytes of the code as shipped in a message.
    pub fn code_size(&self) -> usize {
        self.text.len()
    }

    /// Size in bytes of the GOT image as shipped in a message (8 bytes per slot,
    /// matching [`twochains_jamvm::GotImage::to_bytes`]).
    pub fn got_size(&self) -> usize {
        self.got.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolRef;
    use twochains_jamvm::{encode_program, Assembler, Reg};

    fn simple_text() -> Vec<u8> {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 5).call_extern(0, 1).ret();
        encode_program(&a.finish().unwrap())
    }

    fn object() -> JamObject {
        JamObject::new(
            "jam_test",
            simple_text(),
            vec![SymbolRef::func("scale")],
            16,
        )
        .unwrap()
    }

    #[test]
    fn construction_verifies_bytecode() {
        // Referencing GOT slot 0 with an empty GOT must fail verification.
        let err = JamObject::new("bad", simple_text(), vec![], 0).unwrap_err();
        assert!(matches!(err, LinkError::VerifyFailed(_)));
        // Garbage text must fail decoding.
        let err = JamObject::new("bad", vec![0xFF, 0xFF], vec![], 0).unwrap_err();
        assert!(matches!(err, LinkError::DecodeFailed(_)));
    }

    #[test]
    fn sizes_reflect_sections() {
        let obj = object();
        assert_eq!(obj.code_size(), obj.text.len());
        assert_eq!(obj.got_size(), 8);
        assert_eq!(obj.args_size, 16);
    }
}
