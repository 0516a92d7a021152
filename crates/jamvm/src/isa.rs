//! The jam instruction set.
//!
//! A small register machine: 16 general-purpose 64-bit registers, relative branches,
//! byte/word/doubleword loads and stores, a bulk copy, and an external call that goes
//! through a GOT slot — the bytecode-level analogue of the paper's "all references to
//! the global offset table redirect through a pointer stored at a fixed PC-relative
//! location".

use std::fmt;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;

/// A register index (`r0`–`r15`).
///
/// By convention, `r0`–`r5` carry arguments into a jam and into extern calls, and
/// `r0` carries return values out; `r15` is a scratch register the assembler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// First argument / return value register.
    pub const R0: Reg = Reg(0);
    /// Second argument register.
    pub const R1: Reg = Reg(1);
    /// Third argument register.
    pub const R2: Reg = Reg(2);
    /// Fourth argument register.
    pub const R3: Reg = Reg(3);
    /// Fifth argument register.
    pub const R4: Reg = Reg(4);
    /// Sixth argument register.
    pub const R5: Reg = Reg(5);

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

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 4 bytes (little endian).
    B4,
    /// 8 bytes (little endian).
    B8,
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

/// Condition for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if the register is zero.
    Zero,
    /// Branch if the register is non-zero.
    NotZero,
    /// Branch if `a < b` (unsigned).
    Less,
    /// Branch if `a >= b` (unsigned).
    GreaterEq,
}

/// Binary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
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

/// One jam instruction. Instruction indices (not byte offsets) are the unit of
/// control flow: branch targets are absolute instruction indices produced by the
/// assembler from labels, which keeps the bytecode position independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `dst = imm`
    LoadImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a <op> b`
    Alu {
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
    AluImm {
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
    Load {
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
    Store {
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
    Memcpy {
        /// Destination address register.
        dst: Reg,
        /// Source address register.
        src: Reg,
        /// Length register.
        len: Reg,
    },
    /// Unconditional branch to instruction index `target`.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Conditional branch.
    Branch {
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
    CallExtern {
        /// GOT slot index.
        slot: u16,
        /// Number of argument registers to pass (0–6).
        nargs: u8,
    },
    /// Mix the value of `src` with a 64-bit finalizer hash into `dst` (the hash-probe
    /// primitive the Indirect Put jam uses to pick a bucket).
    Hash {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// No operation (used by the toolchain to pad `.text` to a target size, the way
    /// the paper's fixed frames round code up to 64-byte boundaries).
    Nop,
    /// Return from the jam; the value in `r0` is the jam's result.
    Ret,
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
