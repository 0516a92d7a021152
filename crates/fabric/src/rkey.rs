//! Remote access keys and permissions.
//!
//! The IBTA standard (and therefore UCX) protects remotely accessible memory with a
//! 32-bit remote key generated by the HCA when a region is registered; an initiator
//! must present the key with every one-sided operation and the request is rejected in
//! hardware if the key does not match (paper §V). The paper also proposes, as a
//! security extension, adding an *execute* permission bit alongside the IBTA read /
//! write / atomic bits — we implement that bit so the security-policy experiments in
//! the core crate can use it.

use crate::error::{FabricError, FabricResult};

/// Permission bits attached to a registered region. All four bits derive the
/// region's `RKey`; a put, the only remote access the fabric posts, checks
/// `remote_write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessFlags {
    /// Remote read (RDMA get) allowed.
    pub(crate) remote_read: bool,
    /// Remote write (RDMA put) allowed.
    pub(crate) remote_write: bool,
    /// Remote atomics allowed.
    pub(crate) remote_atomic: bool,
    /// Remote *execute* allowed — the paper's proposed IBTA extension: the region may
    /// hold injected function code that the receiver will run.
    pub remote_execute: bool,
}

impl AccessFlags {
    /// Read + write + atomic + execute — what a reactive mailbox registers with in
    /// the most permissive ("all code and data together, RWX pages") configuration.
    pub const fn rwx() -> Self {
        AccessFlags {
            remote_read: true,
            remote_write: true,
            remote_atomic: true,
            remote_execute: true,
        }
    }

    /// Read + write, no execute — for payload-only (Local Function) mailboxes or the
    /// separated data area of the hardened configuration.
    pub const fn rw() -> Self {
        AccessFlags {
            remote_read: true,
            remote_write: true,
            remote_atomic: true,
            remote_execute: false,
        }
    }

    /// Encode to a compact bitmask (bit0=read, bit1=write, bit2=atomic, bit3=execute).
    pub fn bits(self) -> u32 {
        (self.remote_read as u32)
            | (self.remote_write as u32) << 1
            | (self.remote_atomic as u32) << 2
            | (self.remote_execute as u32) << 3
    }
}

/// A 32-bit remote access key.
///
/// Like a real HCA, the key is derived from the registration parameters (base
/// virtual address, length, permissions) plus a per-registration nonce, so keys are
/// unguessable-in-practice but deterministic given the nonce — which keeps
/// simulations reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct RKey(pub(crate) u32);

impl RKey {
    /// Generate a key for a registration. `nonce` plays the role of the HCA's
    /// internal key counter.
    pub(crate) fn generate(base_addr: u64, len: usize, flags: AccessFlags, nonce: u32) -> Self {
        // A small mixing function (xorshift-multiply) over the inputs; this is not a
        // cryptographic MAC, mirroring the (known-weak, see ReDMArk) IBTA scheme.
        let mut x = base_addr
            ^ ((len as u64) << 17)
            ^ ((flags.bits() as u64) << 49)
            ^ ((nonce as u64) << 32 | nonce as u64);
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 29;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 32;
        RKey((x as u32) ^ ((x >> 32) as u32))
    }

    /// Validate a presented key against the expected one, as the HCA does on every
    /// inbound one-sided operation.
    pub fn validate(self, presented: RKey) -> FabricResult<()> {
        if self == presented {
            Ok(())
        } else {
            Err(FabricError::InvalidRkey {
                presented: presented.0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_roundtrip_through_bits() {
        for bits in 0..16u32 {
            let f = AccessFlags {
                remote_read: bits & 1 != 0,
                remote_write: bits & 2 != 0,
                remote_atomic: bits & 4 != 0,
                remote_execute: bits & 8 != 0,
            };
            assert_eq!(f.bits(), bits);
        }
        assert_eq!(AccessFlags::rwx().bits(), 0b1111);
        assert_eq!(AccessFlags::rw().bits(), 0b0111);
    }

    #[test]
    fn keys_depend_on_all_inputs() {
        let base = RKey::generate(0x1000, 4096, AccessFlags::rwx(), 7);
        assert_ne!(
            base,
            RKey::generate(0x2000, 4096, AccessFlags::rwx(), 7),
            "address"
        );
        assert_ne!(
            base,
            RKey::generate(0x1000, 8192, AccessFlags::rwx(), 7),
            "length"
        );
        assert_ne!(
            base,
            RKey::generate(0x1000, 4096, AccessFlags::rw(), 7),
            "permissions"
        );
        assert_ne!(
            base,
            RKey::generate(0x1000, 4096, AccessFlags::rwx(), 8),
            "nonce"
        );
        // but deterministic for identical inputs
        assert_eq!(base, RKey::generate(0x1000, 4096, AccessFlags::rwx(), 7));
    }

    #[test]
    fn validation_accepts_only_exact_key() {
        let k = RKey::generate(0x4000, 64, AccessFlags::rw(), 1);
        assert!(k.validate(k).is_ok());
        let wrong = RKey(k.0.wrapping_add(1));
        assert_eq!(
            k.validate(wrong),
            Err(FabricError::InvalidRkey { presented: wrong.0 })
        );
    }
}
