//! Error types for fabric operations.

use std::fmt;

/// Result alias for fabric operations.
pub type FabricResult<T> = Result<T, FabricError>;

/// Errors surfaced by the simulated fabric. These mirror the failure modes of a real
/// RDMA stack: bad keys and permission violations are rejected "at the hardware
/// level" (the paper, §V), and malformed requests are caught before they are posted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The RKEY presented with a remote access does not match the target region.
    InvalidRkey {
        /// The key that was presented.
        presented: u32,
    },
    /// The RKEY is valid but the requested operation is not permitted by the
    /// permissions the region was registered with.
    PermissionDenied {
        /// Human-readable description of the attempted operation.
        op: &'static str,
    },
    /// The access falls outside the registered region.
    OutOfBounds {
        /// Start offset of the attempted access.
        offset: usize,
        /// Length of the attempted access.
        len: usize,
        /// Size of the region.
        region_len: usize,
    },
    /// Referenced a host that does not exist in the fabric.
    NoSuchHost(usize),
    /// Referenced a region that has been deregistered or never existed.
    NoSuchRegion(u32),
    /// An endpoint was asked to reach a host it is not connected to.
    NotConnected {
        /// Source host.
        from: usize,
        /// Destination host.
        to: usize,
    },
    /// Attempted to register a zero-length region or otherwise malformed request.
    InvalidArgument(&'static str),
    /// Atomic operations must be naturally aligned to 8 bytes.
    Misaligned {
        /// Offending offset.
        offset: usize,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::InvalidRkey { presented } => {
                write!(f, "remote access rejected: invalid rkey {presented:#010x}")
            }
            FabricError::PermissionDenied { op } => {
                write!(f, "remote access rejected: permission denied for {op}")
            }
            FabricError::OutOfBounds { offset, len, region_len } => write!(
                f,
                "remote access out of bounds: offset {offset} len {len} exceeds region of {region_len} bytes"
            ),
            FabricError::NoSuchHost(h) => write!(f, "no such host: {h}"),
            FabricError::NoSuchRegion(k) => write!(f, "no such region for rkey {k:#010x}"),
            FabricError::NotConnected { from, to } => {
                write!(f, "host {from} has no endpoint to host {to}")
            }
            FabricError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
            FabricError::Misaligned { offset } => {
                write!(f, "atomic access misaligned at offset {offset}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_useful_messages() {
        let cases: Vec<(FabricError, &str)> = vec![
            (
                FabricError::InvalidRkey { presented: 0xdead },
                "invalid rkey",
            ),
            (
                FabricError::PermissionDenied { op: "put" },
                "permission denied for put",
            ),
            (
                FabricError::OutOfBounds {
                    offset: 10,
                    len: 20,
                    region_len: 16,
                },
                "out of bounds",
            ),
            (FabricError::NoSuchHost(3), "no such host"),
            (FabricError::NoSuchRegion(7), "no such region"),
            (FabricError::NotConnected { from: 0, to: 1 }, "no endpoint"),
            (FabricError::InvalidArgument("zero length"), "zero length"),
            (FabricError::Misaligned { offset: 3 }, "misaligned"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&FabricError::NoSuchHost(0));
    }
}
