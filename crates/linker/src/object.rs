//! The jam object format — the reproduction's ELF stand-in.
//!
//! A [`JamObject`] is what the build toolchain produces from a jam definition and
//! what a sender packs (in part) into an active message: position-independent
//! `.text` bytecode, optional `.rodata`, a *symbolic* GOT listing the external names
//! the code references (one [`SymbolRef`] per slot), and the size of the fixed ARGS
//! block the jam expects. The binary serialization carries a magic number and format
//! version so stale or foreign blobs are rejected, the way an ELF loader checks
//! `e_ident`.

use twochains_jamvm::{decode_program, encode_program, verify, Instr, Program};

use crate::error::LinkError;
use crate::symbol::SymbolRef;

/// The object format version. Version 3 dropped version 2's
/// cross-shard-writes declaration byte: every shard executes against writable
/// ried instances of its own, so there is nothing left to declare.
const JAM_VERSION: u32 = 3;

/// Magic bytes identifying a serialized jam object ("JAM" + format version).
pub const JAM_MAGIC: [u8; 4] = *b"JAM\x03";

/// A relocatable, injectable function object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JamObject {
    /// Element name within its package (e.g. `"jam_indirect_put"`).
    pub name: String,
    /// Encoded bytecode (`.text`).
    pub text: Vec<u8>,
    /// Read-only data pulled in by the toolchain (`.rodata`).
    pub rodata: Vec<u8>,
    /// Symbolic GOT: slot *i* of the shipped GOT image resolves `got[i]`.
    pub got: Vec<SymbolRef>,
    /// Size in bytes of the fixed ARGS block this jam expects in the frame.
    pub args_size: usize,
    /// Object format / ABI version of the producing toolchain.
    pub version: u32,
}

impl JamObject {
    /// Construct an object from already-encoded text. Verifies the bytecode against
    /// the declared GOT size.
    pub fn new(
        name: &str,
        text: Vec<u8>,
        rodata: Vec<u8>,
        got: Vec<SymbolRef>,
        args_size: usize,
    ) -> Result<Self, LinkError> {
        let program = decode_program(&text).map_err(|e| LinkError::DecodeFailed(e.to_string()))?;
        verify(&program, got.len()).map_err(|e| LinkError::VerifyFailed(e.to_string()))?;
        Ok(JamObject {
            name: name.to_string(),
            text,
            rodata,
            got,
            args_size,
            version: JAM_VERSION,
        })
    }

    /// Construct from decoded instructions (encodes them for you).
    pub fn from_program(
        name: &str,
        program: &[Instr],
        rodata: Vec<u8>,
        got: Vec<SymbolRef>,
        args_size: usize,
    ) -> Result<Self, LinkError> {
        Self::new(name, encode_program(program), rodata, got, args_size)
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

    /// Serialize to the on-disk / on-wire object format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&JAM_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(self.args_size as u32).to_le_bytes());
        out.extend_from_slice(&(self.text.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.text);
        out.extend_from_slice(&(self.rodata.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.rodata);
        out.extend_from_slice(&(self.got.len() as u16).to_le_bytes());
        for s in &self.got {
            out.extend_from_slice(&s.to_bytes());
        }
        out
    }

    /// Deserialize an object, validating magic, version and bytecode.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LinkError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], LinkError> {
            if *pos + n > bytes.len() {
                return Err(LinkError::BadObjectFormat("truncated object".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let magic = take(&mut pos, 4)?;
        if magic != JAM_MAGIC {
            return Err(LinkError::BadObjectFormat(format!("bad magic {magic:?}")));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if version != JAM_VERSION {
            return Err(LinkError::BadObjectFormat(format!(
                "unsupported version {version}"
            )));
        }
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| LinkError::BadObjectFormat("name not utf8".into()))?;
        let args_size = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let text_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let text = take(&mut pos, text_len)?.to_vec();
        let rodata_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let rodata = take(&mut pos, rodata_len)?.to_vec();
        let got_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let mut got = Vec::with_capacity(got_len);
        for _ in 0..got_len {
            let (sym, used) = SymbolRef::from_bytes(&bytes[pos..])
                .ok_or_else(|| LinkError::BadObjectFormat("bad symbol entry".into()))?;
            pos += used;
            got.push(sym);
        }
        Self::new(&name, text, rodata, got, args_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolRef;
    use twochains_jamvm::{Assembler, Reg};

    fn simple_program() -> Vec<Instr> {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 5).call_extern(0, 1).ret();
        a.finish().unwrap()
    }

    fn object() -> JamObject {
        JamObject::from_program(
            "jam_test",
            &simple_program(),
            b"hello\0".to_vec(),
            vec![SymbolRef::func("scale")],
            16,
        )
        .unwrap()
    }

    #[test]
    fn construction_verifies_bytecode() {
        // Referencing GOT slot 0 with an empty GOT must fail verification.
        let err = JamObject::from_program("bad", &simple_program(), vec![], vec![], 0).unwrap_err();
        assert!(matches!(err, LinkError::VerifyFailed(_)));
        // Garbage text must fail decoding.
        let err = JamObject::new("bad", vec![0xFF, 0xFF], vec![], vec![], 0).unwrap_err();
        assert!(matches!(err, LinkError::DecodeFailed(_)));
    }

    #[test]
    fn serialization_roundtrip() {
        let obj = object();
        let bytes = obj.to_bytes();
        let back = JamObject::from_bytes(&bytes).unwrap();
        assert_eq!(back, obj);
        assert_eq!(back.program().unwrap().to_instrs(), simple_program());
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        let obj = object();
        let mut bytes = obj.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            JamObject::from_bytes(&bytes),
            Err(LinkError::BadObjectFormat(_))
        ));
        let bytes = obj.to_bytes();
        assert!(matches!(
            JamObject::from_bytes(&bytes[..bytes.len() - 3]),
            Err(LinkError::BadObjectFormat(_))
        ));
        let mut bytes = obj.to_bytes();
        bytes[4] = 9; // version
        assert!(matches!(
            JamObject::from_bytes(&bytes),
            Err(LinkError::BadObjectFormat(_))
        ));
    }

    #[test]
    fn a_version_2_object_is_refused() {
        // Version 2 carried a cross-shard-writes byte right after `args_size`.
        let obj = object();
        let mut v2 = obj.to_bytes();
        v2[3] = 2;
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        v2.insert(4 + 4 + 2 + obj.name.len() + 4, 0);
        assert!(matches!(
            JamObject::from_bytes(&v2),
            Err(LinkError::BadObjectFormat(_))
        ));
        // Under the current magic, the version word alone refuses it.
        v2[..4].copy_from_slice(&JAM_MAGIC);
        assert!(matches!(
            JamObject::from_bytes(&v2),
            Err(LinkError::BadObjectFormat(m)) if m == "unsupported version 2"
        ));
    }

    #[test]
    fn sizes_reflect_sections() {
        let obj = object();
        assert_eq!(obj.code_size(), obj.text.len());
        assert_eq!(obj.got_size(), 8);
        assert_eq!(obj.args_size, 16);
    }
}
