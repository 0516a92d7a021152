//! The jam instruction set.
//!
//! A small register machine: 16 general-purpose 64-bit registers, relative branches,
//! byte/word/doubleword loads and stores, a bulk copy, and an external call that goes
//! through a GOT slot — the bytecode-level analogue of the paper's "all references to
//! the global offset table redirect through a pointer stored at a fixed PC-relative
//! location".
//!
//! # One list
//!
//! The `jam_isa!` invocation at the bottom of this file is *the* description of
//! the instruction set: per form its doc comment, its opcode byte, its name and
//! its typed fields. A form's wire layout is its opcode and then its fields in
//! declared order, little endian, each as its `Field` implementation writes it
//! — so everything that is layout is generated from the list: the [`Instr`]
//! enum itself, its encoded size, its encoder, its decoder and
//! [`Instr::for_each_reg`], the walk over every register *field* that
//! [`crate::verify()`] range-checks. A field an engine can index is therefore
//! checked because it was declared, not because someone remembered it. The
//! code enums ([`AluOp`], [`Width`], [`Cond`]) are one variant list each, wire
//! code = list position.
//!
//! To add a form, add one entry. `tests/isa_wire.rs` (the wire format as
//! committed bytes) and the byte-mutation sweep of `tests/wrapping_address.rs`
//! then fail until `tests/golden/isa_wire.txt` holds a sample of it.
//!
//! What is *not* generated is what an instruction means: the verifier's rules
//! for a `CallExtern` (slot, argument count, the GOT floor) and for a branch
//! target, the lowering ([`crate::resolved`]) and the two executors
//! ([`crate::vm`]). Those are hand-written `match`es the compiler checks for
//! exhaustiveness and `tests/resolved_exec.rs` holds against each other; a
//! table interpreted at run time would lose both.

use std::fmt;

use crate::encode::DecodeError;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;

/// A register index (`r0`–`r15`).
///
/// By convention, `r0`–`r5` carry arguments into a jam and into extern calls, and
/// `r0` carries return values out; `r15` is a scratch register the assembler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Whether the register index is valid.
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < NUM_REGS
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One field of an instruction as it travels: `SIZE` bytes, little endian.
///
/// Every form's wire layout is one opcode byte and then its fields in declared
/// order, so the encoder, the decoder and the sizes are folds over a form's
/// field types and nothing else.
pub(crate) trait Field: Copy {
    /// Bytes on the wire.
    const SIZE: usize;
    /// What [`DecodeError::BadField`] calls a field of this type.
    const WHAT: &'static str = "field";
    /// Append the wire bytes.
    fn put(self, out: &mut Vec<u8>);
    /// Read back `SIZE` bytes; `None` for a code no value has.
    fn get(bytes: &[u8]) -> Option<Self>;
    /// The register this field names, if it is one.
    #[inline(always)]
    fn reg(self) -> Option<Reg> {
        None
    }
}

impl Field for Reg {
    const SIZE: usize = 1;
    fn put(self, out: &mut Vec<u8>) {
        out.push(self.0);
    }
    // Any byte: whether the register exists is the verifier's question.
    fn get(bytes: &[u8]) -> Option<Self> {
        Some(Reg(bytes[0]))
    }
    #[inline(always)]
    fn reg(self) -> Option<Reg> {
        Some(self)
    }
}

macro_rules! integer_fields {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            const SIZE: usize = size_of::<$ty>();
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Option<Self> {
                Some(<$ty>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

integer_fields!(u8, u16, u32, u64);

/// A one-byte code field: an enum whose wire code is its variant's position
/// in the list, which is also its discriminant.
macro_rules! code_field {
    ($(#[$doc:meta])* $name:ident, $what:literal { $($(#[$vdoc:meta])* $variant:ident,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl $name {
            /// Every variant, at the index that is its wire code.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];
        }

        impl Field for $name {
            const SIZE: usize = 1;
            const WHAT: &'static str = $what;
            fn put(self, out: &mut Vec<u8>) {
                out.push(self as u8);
            }
            fn get(bytes: &[u8]) -> Option<Self> {
                Self::ALL.get(bytes[0] as usize).copied()
            }
        }
    };
}

code_field! {
    /// Width of a memory access.
    Width, "width" {
        /// 1 byte.
        B1,
        /// 4 bytes (little endian).
        B4,
        /// 8 bytes (little endian).
        B8,
    }
}

impl Width {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Width::B1 => 1,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

code_field! {
    /// Condition for conditional branches.
    Cond, "cond" {
        /// Branch if the register is zero.
        Zero,
        /// Branch if the register is non-zero.
        NotZero,
        /// Branch if `a < b` (unsigned).
        Less,
        /// Branch if `a >= b` (unsigned).
        GreaterEq,
    }
}

code_field! {
    /// Binary ALU operations.
    AluOp, "alu op" {
        /// Wrapping addition.
        Add,
        /// Wrapping subtraction.
        Sub,
        /// Wrapping multiplication.
        Mul,
        /// Bitwise and.
        And,
        /// Bitwise or.
        Or,
        /// Bitwise xor.
        Xor,
        /// Logical shift left (by the low 6 bits of the rhs).
        Shl,
        /// Logical shift right (by the low 6 bits of the rhs).
        Shr,
        /// Unsigned remainder (rhs of zero yields zero, no trap).
        Rem,
    }
}

/// The instruction forms, declared once: per form its doc comment, opcode byte,
/// name and typed fields in wire order (the field group is optional, so `Nop`
/// and `Ret` stay unit variants).
macro_rules! jam_isa {
    ($(
        $(#[$doc:meta])*
        $opcode:literal $name:ident $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* })?,
    )*) => {
        /// One jam instruction. Instruction indices (not byte offsets) are the unit of
        /// control flow: branch targets are absolute instruction indices produced by the
        /// assembler from labels, which keeps the bytecode position independent.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Instr {
            $($(#[$doc])* $name $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        impl Instr {
            /// The opcode byte this form travels under.
            pub(crate) const fn opcode(&self) -> u8 {
                match self {
                    $(Instr::$name { .. } => $opcode,)*
                }
            }

            /// Encoded size in bytes: the opcode and every field.
            pub(crate) const fn encoded_size(&self) -> usize {
                match self {
                    $(Instr::$name { .. } => 1 $($(+ <$ty as Field>::SIZE)*)?,)*
                }
            }

            /// Append the wire bytes: the opcode, then the fields in declared order.
            pub(crate) fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.opcode());
                match *self {
                    $(Instr::$name $({ $($field,)* })? => {
                        $($($field.put(out);)*)?
                    })*
                }
            }

            /// Decode the instruction whose opcode stood at `offset`, from the bytes
            /// after it; yields what follows the instruction. A body cut short is
            /// `Truncated` before any of its fields is looked at.
            #[allow(unused_mut, unused_variables)] // a unit form has no body to walk
            #[inline(always)]
            pub(crate) fn decode(
                opcode: u8,
                after_opcode: &[u8],
                offset: usize,
            ) -> Result<(Instr, &[u8]), DecodeError> {
                match opcode {
                    $($opcode => {
                        const BODY: usize = 0 $($(+ <$ty as Field>::SIZE)*)?;
                        let (body, rest) = after_opcode
                            .split_first_chunk::<BODY>()
                            .ok_or(DecodeError::Truncated { offset })?;
                        let mut body = &body[..];
                        Ok((Instr::$name $({ $($field: take(&mut body, offset)?,)* })?, rest))
                    })*
                    opcode => Err(DecodeError::BadOpcode { offset, opcode }),
                }
            }

            /// Visit every register *field* the instruction encodes, in wire order —
            /// whether or not its semantics read it: these are the indices both
            /// engines use on the register file.
            #[inline(always)]
            pub fn for_each_reg(&self, mut visit: impl FnMut(Reg)) {
                match *self {
                    $(Instr::$name $({ $($field,)* })? => {
                        $($(if let Some(reg) = $field.reg() {
                            visit(reg);
                        })*)?
                    })*
                }
            }
        }
    };
}

/// The next field of `body`, which [`Instr::decode`] has sized to hold it.
#[inline(always)]
fn take<T: Field>(body: &mut &[u8], offset: usize) -> Result<T, DecodeError> {
    let (bytes, rest) = body.split_at(T::SIZE);
    *body = rest;
    T::get(bytes).ok_or(DecodeError::BadField {
        offset,
        field: T::WHAT,
    })
}

jam_isa! {
    /// `dst = imm`
    0x01 LoadImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = src`
    0x02 Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a <op> b`
    0x03 Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = src <op> imm`
    0x04 AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        src: Reg,
        /// Immediate right operand.
        imm: u64,
    },
    /// `dst = *(addr + offset)` with the given width (zero-extended).
    0x05 Load {
        /// Access width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Base address register.
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: u32,
    },
    /// `*(addr + offset) = src` with the given width (truncated).
    0x06 Store {
        /// Access width.
        width: Width,
        /// Source register.
        src: Reg,
        /// Base address register.
        addr: Reg,
        /// Constant byte offset added to the base.
        offset: u32,
    },
    /// Copy `len` bytes from `src` to `dst` (registers hold addresses; `len` is a
    /// register holding the byte count). The workhorse of Indirect Put.
    0x07 Memcpy {
        /// Destination address register.
        dst: Reg,
        /// Source address register.
        src: Reg,
        /// Length register.
        len: Reg,
    },
    /// Unconditional branch to instruction index `target`.
    0x08 Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Conditional branch.
    0x09 Branch {
        /// Condition to evaluate.
        cond: Cond,
        /// First register operand.
        a: Reg,
        /// Second register operand (ignored for Zero/NotZero).
        b: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Call the external function bound to GOT slot `slot`, passing `nargs` arguments
    /// from `r0..` and leaving the result in `r0`. This is the *only* mechanism by
    /// which injected code reaches receiver-resident code or data.
    0x0A CallExtern {
        /// GOT slot index.
        slot: u16,
        /// Number of argument registers to pass (0–6).
        nargs: u8,
    },
    /// Mix the value of `src` with a 64-bit finalizer hash into `dst` (the hash-probe
    /// primitive the Indirect Put jam uses to pick a bucket).
    0x0B Hash {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// No operation (used by the toolchain to pad `.text` to a target size, the way
    /// the paper's fixed frames round code up to 64-byte boundaries).
    0x0C Nop,
    /// Return from the jam; the value in `r0` is the jam's result.
    0x0D Ret,
}

impl Instr {
    /// Branch target, if this is a control-flow instruction.
    pub fn target(&self) -> Option<u32> {
        match *self {
            Instr::Jump { target } | Instr::Branch { target, .. } => Some(target),
            _ => None,
        }
    }
}

/// The well-known hash finalizer used by [`Instr::Hash`]; exposed so that receiver
/// side code (rieds, tests, examples) can compute the same bucket a jam will compute.
#[inline]
pub fn hash64(x: u64) -> u64 {
    // splitmix64 finalizer
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash a byte slice to 64 bits (FNV-1a over 8-byte lanes, finalized with
/// [`hash64`]). This is the content key the runtime's injected-code cache uses to
/// recognise a previously decoded `.text`/GOT blob without re-decoding it.
pub fn hash64_bytes(bytes: &[u8]) -> u64 {
    let fold = |h: u64, lane: u64| (h ^ lane).wrapping_mul(0x0000_0100_0000_01B3);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let mut h = words.fold(0xcbf2_9ce4_8422_2325u64, |h, word| {
        fold(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        )
    });
    if !tail.is_empty() {
        // Only the last, short lane is zero-padded.
        let mut lane = [0u8; 8];
        lane[..tail.len()].copy_from_slice(tail);
        h = fold(h, u64::from_le_bytes(lane));
    }
    hash64(h ^ bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_bytes_is_deterministic_and_length_sensitive() {
        let a = hash64_bytes(b"two-chains");
        assert_eq!(a, hash64_bytes(b"two-chains"));
        assert_ne!(a, hash64_bytes(b"two-chainz"));
        // Trailing zero bytes must not collide with a shorter slice (the zero-padded
        // final lane is disambiguated by folding in the length).
        assert_ne!(hash64_bytes(&[1, 2, 3]), hash64_bytes(&[1, 2, 3, 0]));
        assert_ne!(hash64_bytes(&[]), hash64_bytes(&[0]));
    }

    /// The loop `hash64_bytes` replaced: every lane, whole or short, copied
    /// into a zeroed buffer.
    fn hash64_bytes_lane_by_lane(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for chunk in bytes.chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            h = (h ^ u64::from_le_bytes(lane)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash64(h ^ bytes.len() as u64)
    }

    #[test]
    fn hash64_bytes_equals_the_lane_by_lane_loop_on_every_input() {
        // The digest keys the injection caches and picks the resolved slab (a
        // modelled address): it must not move for any input.
        let mut x = 0x2c4a_11e5u64;
        let mut next = || {
            x = hash64(x);
            x
        };
        for len in 0..=64usize {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                hash64_bytes(&bytes),
                hash64_bytes_lane_by_lane(&bytes),
                "{len}"
            );
        }
        for _ in 0..1000 {
            let len = (next() % 2048) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                hash64_bytes(&bytes),
                hash64_bytes_lane_by_lane(&bytes),
                "{len}"
            );
        }
    }

    #[test]
    fn a_code_is_its_position_in_the_list() {
        // `put` is `self as u8` and `get` indexes `ALL`: should the two ever be
        // declared apart, declaration order must not silently become wire format.
        fn holds<T: Field + PartialEq + std::fmt::Debug>(all: &[T]) {
            for (code, &value) in all.iter().enumerate() {
                let mut wire = Vec::new();
                value.put(&mut wire);
                assert_eq!(wire, [code as u8], "{value:?}");
                assert_eq!(T::get(&wire), Some(value));
            }
            assert_eq!(T::get(&[all.len() as u8]), None);
            assert_eq!(T::get(&[255]), None);
        }
        holds(AluOp::ALL);
        holds(Width::ALL);
        holds(Cond::ALL);
        assert_eq!(
            (AluOp::ALL.len(), Width::ALL.len(), Cond::ALL.len()),
            (9, 3, 4)
        );
        assert_eq!(AluOp::ALL[8], AluOp::Rem);
        assert_eq!(Width::ALL[2], Width::B8);
        assert_eq!(Cond::ALL[3], Cond::GreaterEq);
    }

    #[test]
    fn the_walk_visits_every_register_field_in_wire_order() {
        let regs = |instr: Instr| {
            let mut seen = Vec::new();
            instr.for_each_reg(|reg| seen.push(reg.0));
            seen
        };
        let branch = Instr::Branch {
            cond: Cond::Zero,
            a: Reg(7),
            b: Reg(200),
            target: 1,
        };
        assert_eq!(regs(branch), [7, 200], "read or not");
        let alu = Instr::Alu {
            op: AluOp::Add,
            dst: Reg(3),
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(regs(alu), [3, 1, 2]);
        let call = Instr::CallExtern { slot: 9, nargs: 9 };
        assert_eq!(regs(call), [0u8; 0], "integers are not registers");
        assert_eq!(regs(Instr::Ret), [0u8; 0]);
    }

    #[test]
    fn the_generated_enum_keeps_the_layout_of_the_hand_written_one() {
        // Both engines and the injected-code cache hold `Instr`s by value.
        assert_eq!((size_of::<Instr>(), align_of::<Instr>()), (16, 8));
    }

    #[test]
    fn register_display_and_validity() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert!(Reg(15).is_valid());
        assert!(!Reg(16).is_valid());
    }

    #[test]
    fn width_sizes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B4.bytes(), 4);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(1), hash64(2));
        // Low bits should differ for consecutive keys (bucket spreading).
        let buckets: std::collections::HashSet<u64> = (0..64).map(|k| hash64(k) % 64).collect();
        assert!(
            buckets.len() > 32,
            "expected decent spread, got {}",
            buckets.len()
        );
    }
}
