//! Registered memory regions.
//!
//! A [`MemoryRegion`] is the simulated analogue of memory pinned and registered with
//! an InfiniBand HCA for one-sided remote access: a contiguous buffer with a base
//! "virtual address" in the owning host's simulated address space, an `RKey`
//! guarding remote access, and permission bits.
//!
//! ## Ordering protocol
//!
//! The backing store is a slice of `AtomicU64` words holding the bytes
//! little-endian (byte *i* is bits `8*(i%8)..` of word *i*/8), so the region can be
//! shared freely between the threads that play the roles of the two hosts and the
//! NIC, and a frame moves as one run of words rather than byte by byte. Every access
//! is a whole-word atomic — there is no mixed-size access to race with:
//!
//! * Bulk data ([`MemoryRegion::write`], [`MemoryRegion::fill`],
//!   [`MemoryRegion::read_into`]) moves whole words with `Relaxed` stores/loads. A
//!   range that starts or ends inside a word merges its bytes into that word with
//!   one `Relaxed` read-modify-write, so two writers of *adjacent* byte ranges that
//!   share a word never lose each other's bytes.
//! * *Signal* bytes (the `MAG` / `SIG MAG` magic bytes of the Two-Chains frame,
//!   §III-A of the paper, and the credit tokens) are published by
//!   [`MemoryRegion::store_release_u8`] — a `Release` read-modify-write of the
//!   containing word — and consumed by [`MemoryRegion::load_acquire_u8`], an
//!   `Acquire` load of that word.
//!
//! A reader whose acquire load observes the signal byte's new value read the word
//! from the release RMW or from a later RMW of the same word (which continues its
//! release sequence), so it is guaranteed to observe every byte written before the
//! publish — exactly the ordering guarantee the paper relies on from RDMA writes on
//! its testbed ("Modern servers like the one we use as a testbed for this study
//! enforce ordering"), and the same publish/consume discipline the Two-Chains
//! mailbox uses. The guarantee needs the signal byte to be written *only* by the
//! release: a writer that also covers it with the relaxed bulk write lets the
//! reader pair with that copy and see the signal over an incomplete body.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{FabricError, FabricResult};
use crate::rkey::{AccessFlags, RKey};

/// Out-of-band description of a registered region: everything a peer needs in order
/// to target it with one-sided operations. In a real deployment this is what travels
/// over the bootstrap channel (sockets, MPI, etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionDescriptor {
    /// Owning host.
    pub host: usize,
    /// Base simulated virtual address.
    pub base_addr: u64,
    /// Length in bytes.
    pub len: usize,
    /// Remote access key.
    pub(crate) rkey: RKey,
    /// Permissions granted to remote peers.
    pub flags: AccessFlags,
}

/// A registered, remotely accessible memory region.
#[derive(Debug)]
pub struct MemoryRegion {
    /// The bytes, little-endian in 8-byte words; the last word may be partial.
    words: Box<[AtomicU64]>,
    len: usize,
    base_addr: u64,
    host: usize,
    rkey: RKey,
    flags: AccessFlags,
}

impl MemoryRegion {
    /// Create a region of `len` bytes at `base_addr` in `host`'s address space.
    /// Normally called through `SimFabric::register`, which allocates the address and
    /// the rkey nonce.
    pub fn new(
        host: usize,
        base_addr: u64,
        len: usize,
        flags: AccessFlags,
        nonce: u32,
    ) -> FabricResult<Arc<Self>> {
        if len == 0 {
            return Err(FabricError::InvalidArgument(
                "cannot register a zero-length region",
            ));
        }
        let words = (0..len.div_ceil(8)).map(|_| AtomicU64::new(0)).collect();
        let rkey = RKey::generate(base_addr, len, flags, nonce);
        Ok(Arc::new(MemoryRegion {
            words,
            len,
            base_addr,
            host,
            rkey,
            flags,
        }))
    }

    /// The region's descriptor for out-of-band exchange.
    pub fn descriptor(&self) -> RegionDescriptor {
        RegionDescriptor {
            host: self.host,
            base_addr: self.base_addr,
            len: self.len,
            rkey: self.rkey,
            flags: self.flags,
        }
    }

    /// Owning host id.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Base simulated virtual address.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region is empty (never true for successfully registered regions).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The remote key guarding this region.
    pub(crate) fn rkey(&self) -> RKey {
        self.rkey
    }

    /// The permissions granted at registration time.
    pub fn flags(&self) -> AccessFlags {
        self.flags
    }

    /// Simulated virtual address of `offset` within the region.
    pub fn addr_of(&self, offset: usize) -> u64 {
        self.base_addr + offset as u64
    }

    fn check_bounds(&self, offset: usize, len: usize) -> FabricResult<()> {
        if offset
            .checked_add(len)
            .map(|end| end <= self.len)
            .unwrap_or(false)
        {
            Ok(())
        } else {
            Err(FabricError::OutOfBounds {
                offset,
                len,
                region_len: self.len,
            })
        }
    }

    /// Split the byte range `[offset, offset + len)` into the bytes of a partial
    /// head word, the run of whole words, and the bytes of a partial tail word.
    fn split(offset: usize, len: usize) -> (usize, Range<usize>, usize) {
        let head = ((8 - offset % 8) % 8).min(len);
        let first = (offset + head) / 8;
        (head, first..first + (len - head) / 8, (len - head) % 8)
    }

    /// Replace the `bytes.len()` (< 8) bytes of word `word` from byte `at` on with
    /// one read-modify-write, so a concurrent writer of the word's other bytes
    /// loses nothing.
    fn merge(&self, word: usize, at: usize, bytes: &[u8], order: Ordering) {
        if bytes.is_empty() {
            return;
        }
        let (mut value, mut mask) = ([0u8; 8], [0u8; 8]);
        value[at..at + bytes.len()].copy_from_slice(bytes);
        mask[at..at + bytes.len()].fill(0xff);
        let (value, mask) = (u64::from_le_bytes(value), u64::from_le_bytes(mask));
        let _ = self.words[word]
            .fetch_update(order, Ordering::Relaxed, |old| Some((old & !mask) | value));
    }

    /// Copy `out.len()` (< 8) bytes of word `word` from byte `at` on into `out`.
    fn peek(&self, word: usize, at: usize, out: &mut [u8]) {
        if out.is_empty() {
            return;
        }
        let bytes = self.words[word].load(Ordering::Relaxed).to_le_bytes();
        out.copy_from_slice(&bytes[at..at + out.len()]);
    }

    /// Write `data` at `offset` with relaxed ordering (bulk payload movement).
    pub fn write(&self, offset: usize, data: &[u8]) -> FabricResult<()> {
        self.check_bounds(offset, data.len())?;
        let (head, whole, tail) = Self::split(offset, data.len());
        let (head, rest) = data.split_at(head);
        let (body, tail) = rest.split_at(rest.len() - tail);
        self.merge(offset / 8, offset % 8, head, Ordering::Relaxed);
        for (word, chunk) in self.words[whole.clone()].iter().zip(body.chunks_exact(8)) {
            let chunk = chunk.try_into().expect("chunks_exact yields 8 bytes");
            word.store(u64::from_le_bytes(chunk), Ordering::Relaxed);
        }
        self.merge(whole.end, 0, tail, Ordering::Relaxed);
        Ok(())
    }

    /// Read `len` bytes at `offset` with relaxed ordering.
    pub fn read(&self, offset: usize, len: usize) -> FabricResult<Vec<u8>> {
        self.check_bounds(offset, len)?;
        let mut out = vec![0u8; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Read into a caller-provided buffer (avoids the allocation of [`MemoryRegion::read`]).
    pub fn read_into(&self, offset: usize, out: &mut [u8]) -> FabricResult<()> {
        self.check_bounds(offset, out.len())?;
        let (head, whole, tail) = Self::split(offset, out.len());
        let (head, rest) = out.split_at_mut(head);
        let (body, tail) = rest.split_at_mut(rest.len() - tail);
        self.peek(offset / 8, offset % 8, head);
        for (word, chunk) in self.words[whole.clone()]
            .iter()
            .zip(body.chunks_exact_mut(8))
        {
            chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        self.peek(whole.end, 0, tail);
        Ok(())
    }

    /// Fill `len` bytes at `offset` with `value`.
    pub fn fill(&self, offset: usize, len: usize, value: u8) -> FabricResult<()> {
        self.check_bounds(offset, len)?;
        let (head, whole, tail) = Self::split(offset, len);
        let pattern = [value; 8];
        self.merge(offset / 8, offset % 8, &pattern[..head], Ordering::Relaxed);
        for word in &self.words[whole.clone()] {
            word.store(u64::from_le_bytes(pattern), Ordering::Relaxed);
        }
        self.merge(whole.end, 0, &pattern[..tail], Ordering::Relaxed);
        Ok(())
    }

    /// Publish a signal byte: a `Release` read-modify-write of the containing word
    /// that makes all previous relaxed writes visible to any reader that observes
    /// this byte with [`MemoryRegion::load_acquire_u8`].
    pub fn store_release_u8(&self, offset: usize, value: u8) -> FabricResult<()> {
        self.check_bounds(offset, 1)?;
        self.merge(offset / 8, offset % 8, &[value], Ordering::Release);
        Ok(())
    }

    /// Consume a signal byte with `Acquire` ordering.
    pub fn load_acquire_u8(&self, offset: usize) -> FabricResult<u8> {
        self.check_bounds(offset, 1)?;
        let word = self.words[offset / 8].load(Ordering::Acquire);
        Ok(word.to_le_bytes()[offset % 8])
    }

    /// Convenience: load a little-endian u32 with relaxed ordering.
    pub fn load_u32(&self, offset: usize) -> FabricResult<u32> {
        let mut buf = [0u8; 4];
        self.read_into(offset, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::sync::Arc;

    fn region(len: usize) -> Arc<MemoryRegion> {
        MemoryRegion::new(0, 0x10_0000, len, AccessFlags::rwx(), 1).unwrap()
    }

    #[test]
    fn zero_length_rejected() {
        assert!(matches!(
            MemoryRegion::new(0, 0, 0, AccessFlags::rw(), 0),
            Err(FabricError::InvalidArgument(_))
        ));
    }

    #[test]
    fn write_read_roundtrip() {
        let r = region(256);
        r.write(10, b"two-chains").unwrap();
        assert_eq!(r.read(10, 10).unwrap(), b"two-chains");
        let mut buf = [0u8; 4];
        r.read_into(10, &mut buf).unwrap();
        assert_eq!(&buf, b"two-");
    }

    #[test]
    fn bounds_are_enforced() {
        let r = region(64);
        assert!(r.write(60, &[0; 8]).is_err());
        assert!(r.read(64, 1).is_err());
        assert!(r.read(0, 65).is_err());
        assert!(r.write(0, &[0; 64]).is_ok());
        // offset+len overflow does not panic
        assert!(r.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn scalar_helpers() {
        let r = region(64);
        r.write(16, &0x1234_5678u32.to_le_bytes()).unwrap();
        assert_eq!(r.load_u32(16).unwrap(), 0x1234_5678);
    }

    #[test]
    fn signal_bytes_roundtrip() {
        let r = region(64);
        assert_eq!(r.load_acquire_u8(63).unwrap(), 0);
        r.store_release_u8(63, 0xAB).unwrap();
        assert_eq!(r.load_acquire_u8(63).unwrap(), 0xAB);
    }

    #[test]
    fn fill_sets_range() {
        let r = region(32);
        r.fill(4, 8, 0x5A).unwrap();
        assert_eq!(r.read(4, 8).unwrap(), vec![0x5A; 8]);
        assert_eq!(r.read(0, 4).unwrap(), vec![0; 4]);
        assert!(r.fill(30, 8, 1).is_err());
    }

    #[test]
    fn descriptor_reflects_registration() {
        let r = region(128);
        let d = r.descriptor();
        assert_eq!(d.host, 0);
        assert_eq!(d.base_addr, 0x10_0000);
        assert_eq!(d.len, 128);
        assert_eq!(d.rkey, r.rkey());
        assert_eq!(d.flags, AccessFlags::rwx());
        assert_eq!(r.addr_of(12), 0x10_000C);
        assert!(!r.is_empty());
    }

    #[test]
    fn publish_consume_across_threads() {
        // Writer publishes a payload then the signal byte with release; reader spins
        // on acquire until it sees the signal and must then observe the payload. The
        // signal sits at every offset within its word, and the body ends mid-word
        // right before it, so the body's tail merge and the publish share a word.
        for phase in 0..8 {
            let signal = 4088 + phase;
            let body = vec![7u8; signal - 3];
            let r = region(4096);
            std::thread::scope(|s| {
                s.spawn(|| {
                    r.write(3, &body).unwrap();
                    r.store_release_u8(signal, 1).unwrap();
                });
                while r.load_acquire_u8(signal).unwrap() == 0 {
                    std::hint::spin_loop();
                }
                assert_eq!(r.read(3, body.len()).unwrap(), body, "signal at {signal}");
            });
        }
    }

    /// One seeded random op applied to the region and to a `Vec<u8>` model.
    fn model_step(rng: &mut StdRng, r: &MemoryRegion, model: &mut [u8]) {
        let len = model.len();
        // Mostly short ranges, so head-only, tail-only and both-inside-one-word
        // cases dominate; sometimes one that runs past the end.
        let offset = rng.gen_range(0..len + 2);
        let n = match rng.gen_range(0..4u32) {
            0 => rng.gen_range(0..len + 2),
            _ => rng.gen_range(0..20usize),
        };
        let in_bounds = offset + n <= len;
        let value = rng.gen::<u64>() as u8;
        match rng.gen_range(0..4u32) {
            0 => {
                let data: Vec<u8> = (0..n).map(|_| rng.gen::<u64>() as u8).collect();
                assert_eq!(r.write(offset, &data).is_ok(), in_bounds);
                if in_bounds {
                    model[offset..offset + n].copy_from_slice(&data);
                }
            }
            1 => {
                assert_eq!(r.fill(offset, n, value).is_ok(), in_bounds);
                if in_bounds {
                    model[offset..offset + n].fill(value);
                }
            }
            2 => {
                assert_eq!(r.store_release_u8(offset, value).is_ok(), offset < len);
                if offset < len {
                    model[offset] = value;
                    assert_eq!(r.load_acquire_u8(offset).unwrap(), value);
                }
            }
            _ => {
                let mut out = vec![0xEEu8; n];
                assert_eq!(r.read_into(offset, &mut out).is_ok(), in_bounds);
                if in_bounds {
                    assert_eq!(out, model[offset..offset + n], "read {offset}+{n}");
                }
            }
        }
    }

    #[test]
    fn byte_semantics_match_a_vec_model() {
        // Region lengths on, just past and just short of a word boundary: the last
        // word is partial for two of them.
        for (seed, len) in [(1u64, 64usize), (2, 61), (3, 67), (4, 5)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = region(len);
            let mut model = vec![0u8; len];
            for step in 0..20_000 {
                model_step(&mut rng, &r, &mut model);
                // Every byte the op did not name is untouched.
                assert_eq!(r.read(0, len).unwrap(), model, "len {len} step {step}");
            }
        }
    }

    #[test]
    fn adjacent_writers_sharing_a_word_lose_no_byte() {
        // Thread A owns bytes [0, 13) and thread B bytes [13, 32): word 1 (bytes
        // 8..16) is shared, and each write of a range merges into it. A thread is the
        // only writer of its bytes, so it must always read back its own last write.
        let r = region(32);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                barrier.wait();
                for i in 0..20_000u32 {
                    r.write(0, &[i as u8; 13]).unwrap();
                    assert_eq!(r.read(0, 13).unwrap(), [i as u8; 13]);
                }
            });
            s.spawn(|| {
                barrier.wait();
                for i in 0..20_000u32 {
                    r.fill(13, 19, i as u8).unwrap();
                    r.store_release_u8(13, i as u8).unwrap();
                    assert_eq!(r.read(13, 19).unwrap(), [i as u8; 19]);
                }
            });
        });
    }
}
