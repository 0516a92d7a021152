//! Reactive mailboxes (§III-A, Fig. 1).
//!
//! A mailbox is a slice of a registered, remotely writable (and, in the permissive
//! configuration, executable) memory region. The sender deposits a whole frame with
//! one one-sided put; the receiver waits on the frame's final byte (`SIG_MAG`).
//! For fixed-size frames the signal position is known up front; for variable frames
//! the receiver first waits on the header magic (`MAG`), reads the frame length, and
//! then waits on the final byte — exactly the two-step protocol of Fig. 1.

use std::sync::Arc;

use twochains_fabric::{MemoryRegion, RegionDescriptor};

use crate::error::{AmError, AmResult};
use crate::frame::{header, signal_at, HDR_MAG, MIN_WIRE_LEN, SIG_MAG};

/// Where a sender should aim a frame: the mailbox's region descriptor plus the
/// mailbox's offset within it. This is what travels over the out-of-band bootstrap
/// channel during connection setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxTarget {
    /// Descriptor of the registered region holding the mailbox.
    pub region: RegionDescriptor,
    /// Byte offset of the mailbox within the region.
    pub offset: usize,
    /// Capacity of the mailbox in bytes.
    pub capacity: usize,
}

/// A receiver-side reactive mailbox.
#[derive(Debug, Clone)]
pub struct ReactiveMailbox {
    region: Arc<MemoryRegion>,
    offset: usize,
    capacity: usize,
}

impl ReactiveMailbox {
    /// Create a mailbox over `capacity` bytes of `region` starting at `offset`.
    pub fn new(region: Arc<MemoryRegion>, offset: usize, capacity: usize) -> AmResult<Self> {
        // checked_add: an adversarial (offset, capacity) pair must error instead of
        // wrapping past the region bound in release builds.
        let end = offset.checked_add(capacity).ok_or_else(|| {
            AmError::InvalidConfig(format!(
                "mailbox bounds overflow: offset {offset} + capacity {capacity}"
            ))
        })?;
        if end > region.len() {
            return Err(AmError::InvalidConfig(format!(
                "mailbox [{offset}, {end}) exceeds region of {} bytes",
                region.len()
            )));
        }
        if capacity < MIN_WIRE_LEN {
            return Err(AmError::InvalidConfig("mailbox capacity too small".into()));
        }
        Ok(ReactiveMailbox {
            region,
            offset,
            capacity,
        })
    }

    /// The sender-facing target description.
    pub fn target(&self) -> MailboxTarget {
        MailboxTarget {
            region: self.region.descriptor(),
            offset: self.offset,
            capacity: self.capacity,
        }
    }

    /// Simulated virtual address of the start of the mailbox (used to charge the
    /// receiver's reads against the cache hierarchy — the same lines the NIC stashed).
    pub fn base_addr(&self) -> u64 {
        self.region.addr_of(self.offset)
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Check for a complete fixed-size frame of `frame_len` bytes: a single acquire
    /// load of the signal byte.
    pub(crate) fn poll_fixed(&self, frame_len: usize) -> AmResult<bool> {
        if frame_len > self.capacity {
            return Err(AmError::FrameTooLarge {
                needed: frame_len,
                capacity: self.capacity,
            });
        }
        let signal = self.offset + signal_at(frame_len);
        Ok(self.region.load_acquire_u8(signal)? == SIG_MAG)
    }

    /// Check for a variable-size frame: wait on the header magic, read the length,
    /// then check the final byte. Returns the frame length if a complete frame is
    /// present; a declared length no frame can have (under header + trailer, or
    /// over the capacity) is an error — no signal byte could ever complete it.
    pub fn poll_variable(&self) -> AmResult<Option<usize>> {
        if self
            .region
            .load_acquire_u8(self.offset + header::HDR_MAG.at)?
            != HDR_MAG
        {
            return Ok(None);
        }
        let frame_len = self.region.load_u32(self.offset + header::LEN.at)? as usize;
        if frame_len < MIN_WIRE_LEN || frame_len > self.capacity {
            return Err(AmError::BadFrame(format!(
                "frame length {frame_len} out of range"
            )));
        }
        let signal = self.offset + signal_at(frame_len);
        if self.region.load_acquire_u8(signal)? == SIG_MAG {
            Ok(Some(frame_len))
        } else {
            Ok(None)
        }
    }

    /// Read the first `frame_len` bytes of the mailbox (the complete frame).
    pub fn read_frame(&self, frame_len: usize) -> AmResult<Vec<u8>> {
        Ok(self.region.read(self.offset, frame_len)?)
    }

    /// Read the first `frame_len` bytes of the mailbox into `out` (resized to
    /// exactly `frame_len`), reusing its capacity. The receiver's hot path keeps one
    /// scratch buffer alive across messages, so steady-state receives neither
    /// allocate nor zero-fill: `read_into` overwrites the whole range.
    pub(crate) fn read_frame_into(&self, frame_len: usize, out: &mut Vec<u8>) -> AmResult<()> {
        out.resize(frame_len, 0);
        self.region.read_into(self.offset, out)?;
        Ok(())
    }

    /// Reset the mailbox after processing a frame of `frame_len` bytes: clear the
    /// header magic and the signal byte so the slot can be reused.
    pub fn clear(&self, frame_len: usize) -> AmResult<()> {
        self.region
            .store_release_u8(self.offset + header::HDR_MAG.at, 0)?;
        self.region
            .store_release_u8(self.offset + signal_at(frame_len), 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, FrameView};
    use twochains_fabric::AccessFlags;

    fn region() -> Arc<MemoryRegion> {
        MemoryRegion::new(1, 0x2000_0000, 64 * 1024, AccessFlags::rwx(), 9).unwrap()
    }

    #[test]
    fn construction_validates_bounds() {
        let r = region();
        assert!(ReactiveMailbox::new(Arc::clone(&r), 0, 4096).is_ok());
        assert!(ReactiveMailbox::new(Arc::clone(&r), 60 * 1024, 8 * 1024).is_err());
        // The floor is a header and a trailer: the shortest frame fits.
        assert!(ReactiveMailbox::new(Arc::clone(&r), 0, MIN_WIRE_LEN).is_ok());
        assert!(ReactiveMailbox::new(r, 0, MIN_WIRE_LEN - 1).is_err());
    }

    #[test]
    fn fixed_polling_sees_frame_after_signal_lands() {
        let r = region();
        let mb = ReactiveMailbox::new(Arc::clone(&r), 1024, 8192).unwrap();
        let frame = Frame::local(1, 0, vec![0; 20], vec![5; 64]);
        let bytes = frame.encode();
        assert!(!mb.poll_fixed(bytes.len()).unwrap());
        // Simulate the NIC's write: payload then release of the final byte.
        r.write(1024, &bytes).unwrap();
        r.store_release_u8(1024 + signal_at(bytes.len()), SIG_MAG)
            .unwrap();
        assert!(mb.poll_fixed(bytes.len()).unwrap());
        let back = mb.read_frame(bytes.len()).unwrap();
        // Every byte of the frame, header to trailer, and it parses back.
        assert_eq!(back, bytes);
        let view = FrameView::parse(&back).unwrap();
        assert_eq!(
            (view.header, view.args, view.usr),
            (frame.header, &frame.args[..], &frame.usr[..])
        );
        mb.clear(bytes.len()).unwrap();
        assert!(!mb.poll_fixed(bytes.len()).unwrap());
    }

    #[test]
    fn variable_polling_reads_length_from_header() {
        let r = region();
        let mb = ReactiveMailbox::new(Arc::clone(&r), 0, 16 * 1024).unwrap();
        assert_eq!(mb.poll_variable().unwrap(), None);
        let frame = Frame::injected(2, 1, vec![0; 16], vec![0; 256], vec![0; 20], vec![1; 128]);
        let bytes = frame.encode();
        r.write(0, &bytes).unwrap();
        r.store_release_u8(signal_at(bytes.len()), SIG_MAG).unwrap();
        assert_eq!(mb.poll_variable().unwrap(), Some(bytes.len()));
        mb.clear(bytes.len()).unwrap();
        assert_eq!(mb.poll_variable().unwrap(), None);
    }

    #[test]
    fn variable_polling_rejects_absurd_lengths() {
        let r = region();
        let mb = ReactiveMailbox::new(Arc::clone(&r), 0, 4096).unwrap();
        // Craft a header that claims a gigantic frame.
        let mut bytes = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
        header::LEN.set(&mut bytes, 1_000_000);
        r.write(0, &bytes).unwrap();
        r.store_release_u8(header::HDR_MAG.at, HDR_MAG).unwrap();
        assert!(matches!(mb.poll_variable(), Err(AmError::BadFrame(_))));
    }

    #[test]
    fn oversized_fixed_poll_is_rejected() {
        let r = region();
        let mb = ReactiveMailbox::new(r, 0, 4096).unwrap();
        assert!(matches!(
            mb.poll_fixed(8192),
            Err(AmError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn overflowing_bounds_are_rejected_not_wrapped() {
        let r = region();
        // usize::MAX + capacity would wrap to a small value without checked_add.
        assert!(ReactiveMailbox::new(Arc::clone(&r), usize::MAX - 64, 4096).is_err());
        assert!(ReactiveMailbox::new(r, usize::MAX, usize::MAX).is_err());
    }

    #[test]
    fn read_frame_into_reuses_buffer_and_matches_read_frame() {
        let r = region();
        let mb = ReactiveMailbox::new(Arc::clone(&r), 0, 8192).unwrap();
        let bytes = Frame::local(3, 0, vec![1; 20], vec![9; 40]).encode();
        r.write(0, &bytes).unwrap();
        let mut scratch = Vec::new();
        mb.read_frame_into(bytes.len(), &mut scratch).unwrap();
        assert_eq!(scratch, mb.read_frame(bytes.len()).unwrap());
        let cap = scratch.capacity();
        mb.read_frame_into(bytes.len(), &mut scratch).unwrap();
        assert_eq!(scratch.capacity(), cap, "second read must not reallocate");
    }

    #[test]
    fn base_addr_reflects_offset() {
        let r = region();
        let mb = ReactiveMailbox::new(Arc::clone(&r), 512, 4096).unwrap();
        assert_eq!(mb.base_addr(), r.base_addr() + 512);
        assert_eq!(mb.capacity(), 4096);
        assert_eq!(mb.target().offset, 512);
    }
}
