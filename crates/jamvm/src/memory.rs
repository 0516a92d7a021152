//! The address space a jam executes against.
//!
//! A jam never sees host pointers. The runtime maps *segments* — the message's ARGS
//! and USR sections and the receiver's heap objects exported by rieds — into a
//! simulated address space, and the VM resolves every load/store against those
//! segments. This mirrors the paper's layout where the injected code addresses its
//! arguments and payload PC-relative within the mailbox frame and reaches everything
//! else through the GOT.
//!
//! # One space per shard
//!
//! [`AddressSpace`] is the one form: a set of segments, owned outright and
//! `&mut` everywhere. Every receiver shard runs its jams in a space of its
//! own — the per-message ARGS/USR sections and the shard's private instance
//! of every ried data object — so no lock is taken and no shard can reach
//! another's state.
//!
//! The [`JamSpace`] trait is the VM- and extern-facing abstraction: externs
//! take it as `&mut dyn JamSpace`, and the engine is compiled against the
//! type it is handed.
//!
//! # Names are scanned, message segments are recycled
//!
//! A space holds about ten segments, and every access already finds its
//! segment by scanning them for the address; a name is found the same way.
//! There is no name index to keep in step, so [`AddressSpace::unmap`] is one
//! `Vec::remove` and [`AddressSpace::map`] allocates nothing.
//!
//! The scan for a non-empty range runs last-mapped-first. [`AddressSpace::map`]
//! keeps segments disjoint, so such a range lies inside at most one of them
//! and the order cannot change which — but the per-message sections are
//! mapped last and are what a jam's loop reads, so they are found at once. An
//! *empty* range is different: `[x, x)` at an address where one segment ends
//! and the next begins (or where a zero-length segment sits) lies "inside"
//! each of them, and which one answers decides whether an empty write is
//! `Ok` or [`MemFault::ReadOnly`]. Empty ranges are therefore still scanned
//! first-mapped-first. Scalars of the ISA's widths (1, 4, 8 bytes) are
//! fixed-size loads and stores.
//!
//! A frame's sections (`msg.args`, `msg.usr` and, from a chain's first
//! continuation stage on, `chain.ctx`) are mapped once per frame in the
//! shard's own space. Each later stage of the chain starts from the bytes
//! that arrived again: [`AddressSpace::refill`] overwrites a mapped
//! segment's bytes in place, found by its mapping index, and changes no
//! mapping, so it scans neither names nor ranges.
//!
//! `unmap` hands the segment back whole. The runtime unmaps a frame's
//! sections when its dispatch returns and keeps them to build the next
//! frame's in: it clears and refills the name and the bytes and sets base
//! and permission again, so the buffers are reused but nothing of a
//! previous occupant survives — a segment is exactly as long as the section
//! it was last filled with, and an access past that is
//! [`MemFault::Unmapped`]. So is an access whose range wraps the address
//! space, whatever is mapped.

/// One mapped segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Name used to address the segment from the host side.
    pub name: String,
    /// Simulated base virtual address.
    pub base: u64,
    /// Backing bytes.
    pub data: Vec<u8>,
    /// Whether jam stores to this segment are allowed.
    pub writable: bool,
}

impl Segment {
    /// Create a segment.
    pub fn new(name: &str, base: u64, data: Vec<u8>, writable: bool) -> Self {
        Segment {
            name: name.to_string(),
            base,
            data,
            writable,
        }
    }

    /// End address (exclusive).
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }

    /// Whether `[addr, addr+len)` lies entirely inside this segment. A range
    /// that wraps the address space lies inside nothing.
    #[inline]
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base
            && addr
                .checked_add(len as u64)
                .is_some_and(|end| end <= self.end())
    }
}

/// A memory access fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// No segment maps the requested range.
    Unmapped {
        /// Faulting address.
        addr: u64,
        /// Access length.
        len: usize,
    },
    /// A store targeted a read-only segment.
    ReadOnly {
        /// Faulting address.
        addr: u64,
        /// Name of the segment.
        segment: String,
    },
    /// Two segments would overlap.
    Overlap {
        /// Name of the segment being mapped.
        name: String,
    },
    /// A segment with this name is already mapped.
    DuplicateName(String),
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::Unmapped { addr, len } => write!(f, "unmapped access at {addr:#x} len {len}"),
            MemFault::ReadOnly { addr, segment } => {
                write!(f, "write to read-only segment {segment} at {addr:#x}")
            }
            MemFault::Overlap { name } => write!(f, "segment {name} overlaps an existing mapping"),
            MemFault::DuplicateName(n) => write!(f, "segment name {n} already mapped"),
        }
    }
}

impl std::error::Error for MemFault {}

/// The set of segments a jam can address.
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    segments: Vec<Segment>,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Map a segment. Fails on name collision or address overlap.
    pub fn map(&mut self, seg: Segment) -> Result<(), MemFault> {
        if self.segment(&seg.name).is_some() {
            return Err(MemFault::DuplicateName(seg.name));
        }
        for existing in &self.segments {
            let disjoint = seg.end() <= existing.base || existing.end() <= seg.base;
            if !disjoint {
                return Err(MemFault::Overlap { name: seg.name });
            }
        }
        self.segments.push(seg);
        Ok(())
    }

    /// Overwrite the bytes of the segment mapped `index`-th (counting from 0,
    /// in mapping order) with `bytes`, which must be exactly as long as it is.
    /// No mapping changes — name, base, length and permission stay — so
    /// there is nothing to check against the other segments: no name scan
    /// and no overlap scan. Fails with [`MemFault::Unmapped`] (at the
    /// segment's base, or 0 when there is none) if no segment was mapped
    /// `index`-th or it is not `bytes.len()` long.
    pub fn refill(&mut self, index: usize, bytes: &[u8]) -> Result<(), MemFault> {
        match self.segments.get_mut(index) {
            Some(seg) if seg.data.len() == bytes.len() => {
                seg.data.copy_from_slice(bytes);
                Ok(())
            }
            seg => Err(MemFault::Unmapped {
                addr: seg.map_or(0, |s| s.base),
                len: bytes.len(),
            }),
        }
    }

    /// Unmap a segment by name, returning it whole: the runtime copies results
    /// out of it, or refills its buffers for the next message's section.
    pub fn unmap(&mut self, name: &str) -> Option<Segment> {
        let idx = self.segments.iter().position(|s| s.name == name)?;
        Some(self.segments.remove(idx))
    }

    /// Borrow a segment by name.
    pub fn segment(&self, name: &str) -> Option<&Segment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Names of all mapped segments.
    pub fn segment_names(&self) -> Vec<&str> {
        self.segments.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of mapped segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Index of the segment that holds `[addr, addr + len)`.
    ///
    /// Mapped segments are disjoint, so a non-empty range lies inside at most
    /// one and the scan may run in any order: it runs last-mapped-first, the
    /// per-message sections being mapped last and read most. An empty range
    /// at a boundary two segments share lies "inside" both, and which one
    /// answers decides an empty write's permission fault — there the
    /// first-mapped answers.
    ///
    /// The scalar read's chain (this, `bytes`, `load`, `read_scalar`) is
    /// `inline(always)`: the resolved executor reads from several places in
    /// one loop, and with a plain hint one link or another stays a call.
    #[inline(always)]
    fn locate(&self, addr: u64, len: usize) -> Option<usize> {
        if len == 0 {
            self.segments.iter().position(|s| s.contains(addr, 0))
        } else {
            self.segments.iter().rposition(|s| s.contains(addr, len))
        }
    }

    #[inline]
    fn find(&self, addr: u64, len: usize) -> Result<usize, MemFault> {
        self.locate(addr, len)
            .ok_or(MemFault::Unmapped { addr, len })
    }

    /// Read `len` bytes at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], MemFault> {
        self.bytes(addr, len)
            .ok_or(MemFault::Unmapped { addr, len })
    }

    /// [`AddressSpace::read`] with no fault built for an unmapped range.
    #[inline(always)]
    fn bytes(&self, addr: u64, len: usize) -> Option<&[u8]> {
        let seg = &self.segments[self.locate(addr, len)?];
        let off = (addr - seg.base) as usize;
        Some(&seg.data[off..off + len])
    }

    /// The bytes of `[addr, addr + len)` for writing, honouring the
    /// segment's write permission.
    #[inline]
    fn bytes_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemFault> {
        let idx = self.find(addr, len)?;
        let seg = &mut self.segments[idx];
        if !seg.writable {
            return Err(MemFault::ReadOnly {
                addr,
                segment: seg.name.clone(),
            });
        }
        let off = (addr - seg.base) as usize;
        Ok(&mut seg.data[off..off + len])
    }

    /// Write `data` at `addr`, honouring the segment's write permission.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.bytes_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Read a little-endian scalar of `width` bytes, zero-extended to u64.
    #[inline(always)]
    pub fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
        self.load(addr, width)
            .ok_or(MemFault::Unmapped { addr, len: width })
    }

    /// [`AddressSpace::read_scalar`] with no fault built for an unmapped
    /// range. The widths the ISA has are fixed-size loads.
    #[inline(always)]
    fn load(&self, addr: u64, width: usize) -> Option<u64> {
        let bytes = self.bytes(addr, width)?;
        Some(match width {
            1 => u64::from(bytes[0]),
            4 => u64::from(u32::from_le_bytes(bytes.try_into().expect("four bytes"))),
            8 => u64::from_le_bytes(bytes.try_into().expect("eight bytes")),
            _ => {
                let mut buf = [0u8; 8];
                buf[..width].copy_from_slice(bytes);
                u64::from_le_bytes(buf)
            }
        })
    }

    /// Write the low `width` bytes of `value` little-endian at `addr`.
    #[inline]
    pub fn write_scalar(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemFault> {
        let bytes = self.bytes_mut(addr, width)?;
        match width {
            1 => bytes[0] = value as u8,
            4 => {
                *<&mut [u8; 4]>::try_from(bytes).expect("four bytes") = (value as u32).to_le_bytes()
            }
            8 => *<&mut [u8; 8]>::try_from(bytes).expect("eight bytes") = value.to_le_bytes(),
            _ => bytes.copy_from_slice(&value.to_le_bytes()[..width]),
        }
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` within the address space (the
    /// ranges may overlap; the source is read whole before anything lands).
    pub fn copy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let from = self.find(src, len)?;
        let to = self.find(dst, len)?;
        if !self.segments[to].writable {
            return Err(MemFault::ReadOnly {
                addr: dst,
                segment: self.segments[to].name.clone(),
            });
        }
        let src_off = (src - self.segments[from].base) as usize;
        let dst_off = (dst - self.segments[to].base) as usize;
        if from == to {
            self.segments[to]
                .data
                .copy_within(src_off..src_off + len, dst_off);
        } else {
            let [source, dest] = self
                .segments
                .get_disjoint_mut([from, to])
                .expect("two distinct indices `find` returned");
            dest.data[dst_off..dst_off + len].copy_from_slice(&source.data[src_off..src_off + len]);
        }
        Ok(())
    }
}

/// Metadata of a mapped segment, as surfaced to extern functions through
/// [`JamSpace::segment_meta`] (externs address exported objects by symbolic name,
/// never by host pointer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Simulated base virtual address.
    pub base: u64,
    /// Segment length in bytes.
    pub len: usize,
    /// Whether jam stores to this segment are allowed.
    pub writable: bool,
}

impl SegmentMeta {
    fn of(seg: &Segment) -> Self {
        SegmentMeta {
            base: seg.base,
            len: seg.data.len(),
            writable: seg.writable,
        }
    }
}

/// What the VM and extern functions need from an address space: externs take
/// it as `&mut dyn JamSpace`, and the engine is generic over it.
pub trait JamSpace {
    /// Read a little-endian scalar of `width` bytes, zero-extended to u64.
    fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault>;
    /// Write the low `width` bytes of `value` little-endian at `addr`.
    fn write_scalar(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemFault>;
    /// Read `len` bytes at `addr` into a fresh buffer.
    fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault>;
    /// Write `data` at `addr`, honouring the owning segment's write permission.
    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault>;
    /// Copy `len` bytes from `src` to `dst` within the space.
    fn copy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), MemFault>;
    /// Metadata of the segment mapped under `name`, if any.
    fn segment_meta(&self, name: &str) -> Option<SegmentMeta>;
}

impl JamSpace for AddressSpace {
    #[inline(always)]
    fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
        AddressSpace::read_scalar(self, addr, width)
    }

    // Always inlined, like `read_scalar`: the resolved executor is compiled
    // against this type, and a store it calls out of line changes the code
    // of the whole loop around it.
    #[inline(always)]
    fn write_scalar(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemFault> {
        AddressSpace::write_scalar(self, addr, value, width)
    }

    fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        self.read(addr, len).map(<[u8]>::to_vec)
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        self.write(addr, data)
    }

    fn copy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), MemFault> {
        AddressSpace::copy(self, dst, src, len)
    }

    fn segment_meta(&self, name: &str) -> Option<SegmentMeta> {
        self.segment(name).map(SegmentMeta::of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(Segment::new("args", 0x1000, vec![0; 64], false))
            .unwrap();
        s.map(Segment::new("payload", 0x2000, vec![7; 256], false))
            .unwrap();
        s.map(Segment::new("heap", 0x10000, vec![0; 4096], true))
            .unwrap();
        s
    }

    #[test]
    fn map_rejects_overlap_and_duplicates() {
        let mut s = space();
        assert!(matches!(
            s.map(Segment::new("x", 0x1010, vec![0; 16], true)),
            Err(MemFault::Overlap { .. })
        ));
        assert!(matches!(
            s.map(Segment::new("heap", 0x90000, vec![0; 16], true)),
            Err(MemFault::DuplicateName(_))
        ));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn read_write_respect_permissions() {
        let mut s = space();
        s.write(0x10000, b"hello").unwrap();
        assert_eq!(s.read(0x10000, 5).unwrap(), b"hello");
        assert!(matches!(
            s.write(0x1000, b"x"),
            Err(MemFault::ReadOnly { .. })
        ));
        assert!(matches!(s.read(0x5000, 4), Err(MemFault::Unmapped { .. })));
        // Cross-segment access is unmapped even if both ends exist.
        assert!(matches!(s.read(0x103F, 8), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn scalars_roundtrip() {
        let mut s = space();
        s.write_scalar(0x10008, 0xAABB_CCDD, 4).unwrap();
        assert_eq!(s.read_scalar(0x10008, 4).unwrap(), 0xAABB_CCDD);
        s.write_scalar(0x10010, u64::MAX, 8).unwrap();
        assert_eq!(s.read_scalar(0x10010, 8).unwrap(), u64::MAX);
        s.write_scalar(0x10020, 0x1234, 1).unwrap();
        assert_eq!(
            s.read_scalar(0x10020, 1).unwrap(),
            0x34,
            "truncated to one byte"
        );
    }

    #[test]
    fn copy_moves_payload_into_heap() {
        let mut s = space();
        s.copy(0x10000, 0x2000, 128).unwrap();
        assert!(s.read(0x10000, 128).unwrap().iter().all(|&b| b == 7));
        // copy into read-only fails
        assert!(s.copy(0x1000, 0x2000, 8).is_err());
        // zero-length copy is fine anywhere mapped or not
        assert!(s.copy(0x1000, 0x2000, 0).is_ok());
    }

    #[test]
    fn unmap_returns_segment_and_reindexes() {
        let mut s = space();
        let seg = s.unmap("payload").unwrap();
        assert_eq!(seg.data.len(), 256);
        assert!(s.segment("payload").is_none());
        assert!(
            s.segment("heap").is_some(),
            "other segments still reachable after reindex"
        );
        assert!(s.unmap("payload").is_none());
        assert_eq!(s.segment_names().len(), 2);
    }

    #[test]
    fn unmap_from_the_middle_keeps_every_later_segment_addressable() {
        // Six one-byte-tagged segments; take out each position in turn.
        let names = ["s0", "s1", "s2", "s3", "s4", "s5"];
        for gone in 0..names.len() {
            let mut s = AddressSpace::new();
            for (i, name) in names.iter().enumerate() {
                let base = 0x1000 * (i as u64 + 1);
                s.map(Segment::new(name, base, vec![i as u8; 16], true))
                    .unwrap();
            }
            assert_eq!(s.unmap(names[gone]).unwrap().data, vec![gone as u8; 16]);
            assert_eq!(s.len(), names.len() - 1);
            for (i, name) in names.iter().enumerate() {
                let base = 0x1000 * (i as u64 + 1);
                if i == gone {
                    assert!(s.segment(name).is_none());
                    assert!(matches!(s.read(base, 1), Err(MemFault::Unmapped { .. })));
                    continue;
                }
                assert_eq!(s.segment(name).unwrap().base, base, "{name} after {gone}");
                s.write(base, &[0xF0 | i as u8]).unwrap();
                assert_eq!(s.read(base, 2).unwrap(), [0xF0 | i as u8, i as u8]);
            }
            // The name is free again and lands behind the others.
            s.map(Segment::new(names[gone], 0x9000, vec![9; 4], false))
                .unwrap();
            assert_eq!(s.segment(names[gone]).unwrap().base, 0x9000);
            assert_eq!(*s.segment_names().last().unwrap(), names[gone]);
        }
    }

    #[test]
    fn per_frame_map_refill_unmap_cycles_leave_the_space_unchanged() {
        // What a receiver shard does per frame: map two sections, and for a
        // chain refill them and map (then refill) the context cell, stage by
        // stage; unmap all of them at the end. Resident segments are mapped
        // before them.
        let mut s = space();
        let resident = s.segment_names().join(",");
        let scratch =
            |name: &str, base: u64, fill: u8| Segment::new(name, base, vec![fill; 32], true);
        for round in 0..10_000u32 {
            let fill = round as u8;
            let first = s.len();
            s.map(scratch("msg.args", 0x4_0000, fill)).unwrap();
            s.map(scratch("msg.usr", 0x5_0000, !fill)).unwrap();
            for stage in 0..round % 4 {
                // The previous stage scribbled over every section it had.
                for base in [0x4_0000, 0x5_0000, 0x6_0000] {
                    let _ = s.write(base, &[0xEE; 32]);
                }
                s.refill(first, &[fill; 32]).unwrap();
                s.refill(first + 1, &[!fill; 32]).unwrap();
                let cell = [stage as u8; 32];
                if stage == 0 {
                    s.map(scratch("chain.ctx", 0x6_0000, cell[0])).unwrap();
                } else {
                    s.refill(first + 2, &cell).unwrap();
                }
                assert_eq!(s.read(0x4_0000, 32).unwrap(), [fill; 32]);
                assert_eq!(s.read(0x5_0000, 32).unwrap(), [!fill; 32]);
                assert_eq!(s.read(0x6_0000, 32).unwrap(), cell);
            }
            assert_eq!(s.segment("msg.usr").unwrap().base, 0x5_0000);
            for name in ["msg.args", "msg.usr", "chain.ctx"] {
                assert_eq!(
                    s.unmap(name).is_some(),
                    name != "chain.ctx" || round % 4 > 0
                );
            }
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.segment_names().join(","), resident);
        assert_eq!(s.segment("heap").unwrap().base, 0x10000);
        assert_eq!(s.segment("payload").unwrap().data.len(), 256);
        assert!(s.segment("msg.args").is_none() && s.segment("chain.ctx").is_none());
        assert!(s.read(0x2000, 256).unwrap().iter().all(|&b| b == 7));
    }

    #[test]
    fn refill_overwrites_one_segment_in_place_and_maps_nothing() {
        let mut s = space();
        let names = s.segment_names().join(",");
        // The read-only `args` segment: a refill is the host's write, not a
        // jam's, so the permission stays and does not stop it.
        s.refill(0, &[5; 64]).unwrap();
        assert_eq!(s.read(0x1000, 64).unwrap(), [5; 64]);
        assert!(matches!(
            s.write(0x1000, &[1]),
            Err(MemFault::ReadOnly { .. })
        ));
        assert!(s.read(0x2000, 256).unwrap().iter().all(|&b| b == 7));
        // A length other than the segment's, or no such segment, is refused
        // and leaves the bytes as they were.
        assert_eq!(
            s.refill(1, &[0; 255]),
            Err(MemFault::Unmapped {
                addr: 0x2000,
                len: 255
            })
        );
        assert_eq!(
            s.refill(3, &[0; 8]),
            Err(MemFault::Unmapped { addr: 0, len: 8 })
        );
        assert!(s.read(0x2000, 256).unwrap().iter().all(|&b| b == 7));
        assert_eq!(s.segment_names().join(","), names);
    }

    #[test]
    fn segment_helpers() {
        let s = space();
        let heap = s.segment("heap").unwrap();
        assert_eq!(heap.end(), 0x10000 + 4096);
        assert!(heap.contains(0x10FFF, 1));
        assert!(!heap.contains(0x10FFF, 2));
        assert!(!s.is_empty());
    }

    #[test]
    fn faults_display() {
        assert!(MemFault::Unmapped { addr: 0x10, len: 4 }
            .to_string()
            .contains("unmapped"));
        assert!(MemFault::ReadOnly {
            addr: 1,
            segment: "args".into()
        }
        .to_string()
        .contains("read-only"));
    }

    /// The look-up as it was before non-empty ranges were scanned
    /// last-mapped-first and scalars became fixed-size loads: every range is
    /// found first-mapped-first, every scalar goes through a byte copy.
    struct ForwardScan(Vec<Segment>);

    impl ForwardScan {
        fn find(&self, addr: u64, len: usize) -> Result<usize, MemFault> {
            self.0
                .iter()
                .position(|s| s.contains(addr, len))
                .ok_or(MemFault::Unmapped { addr, len })
        }
    }

    impl JamSpace for ForwardScan {
        fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
            let seg = &self.0[self.find(addr, len)?];
            let off = (addr - seg.base) as usize;
            Ok(seg.data[off..off + len].to_vec())
        }

        fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
            let idx = self.find(addr, data.len())?;
            let seg = &mut self.0[idx];
            if !seg.writable {
                return Err(MemFault::ReadOnly {
                    addr,
                    segment: seg.name.clone(),
                });
            }
            let off = (addr - seg.base) as usize;
            seg.data[off..off + data.len()].copy_from_slice(data);
            Ok(())
        }

        fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
            let mut buf = [0u8; 8];
            buf[..width].copy_from_slice(&self.read_bytes(addr, width)?);
            Ok(u64::from_le_bytes(buf))
        }

        fn write_scalar(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemFault> {
            self.write_bytes(addr, &value.to_le_bytes()[..width])
        }

        fn copy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), MemFault> {
            if len == 0 {
                return Ok(());
            }
            let bytes = self.read_bytes(src, len)?;
            self.write_bytes(dst, &bytes)
        }

        fn segment_meta(&self, name: &str) -> Option<SegmentMeta> {
            self.0.iter().find(|s| s.name == name).map(SegmentMeta::of)
        }
    }

    /// A seeded stream of small numbers.
    struct Seeded(u64);

    impl Seeded {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = crate::isa::hash64(self.0);
            self.0 % n
        }
    }

    /// 1–12 disjoint segments `s0`, `s1`, ... laid out upwards from 0x1000 —
    /// adjacent or a few bytes apart, some zero-length, read-only beside
    /// writable — in a seeded mapping order, so the last-mapped is anywhere in
    /// the layout.
    fn seeded_segments(rng: &mut Seeded) -> Vec<Segment> {
        let mut cursor = 0x1000;
        let mut segments: Vec<Segment> = (0..1 + rng.below(12))
            .map(|i| {
                cursor += [0, 0, 1, 5, 40][rng.below(5) as usize];
                let len = [0, 1, 3, 8, 17, 33][rng.below(6) as usize];
                let fill = (i as u8 + 1) * 16;
                let data = (0..len).map(|b| fill + b as u8 % 16).collect();
                let seg = Segment::new(&format!("s{i}"), cursor, data, rng.below(3) != 0);
                cursor += len;
                seg
            })
            .collect();
        for i in (1..segments.len()).rev() {
            segments.swap(i, rng.below(i as u64 + 1) as usize);
        }
        segments
    }

    /// Every range of 0..=16 bytes that ends at, crosses or starts one byte
    /// past a boundary of `segments`.
    fn boundary_ranges(segments: &[Segment]) -> Vec<(u64, usize)> {
        let mut ranges = Vec::new();
        for boundary in segments.iter().flat_map(|s| [s.base, s.end()]) {
            for len in 0..=16u64 {
                for addr in boundary - len - 1..=boundary + 1 {
                    ranges.push((addr, len as usize));
                }
            }
        }
        ranges.sort_unstable();
        ranges.dedup();
        ranges
    }

    /// Drive `space` and `oracle` through the same reads, writes, scalars and
    /// copies over `ranges`; every answer — value or fault, with its address
    /// and segment name — must agree.
    fn sweep(
        space: &mut dyn JamSpace,
        oracle: &mut dyn JamSpace,
        ranges: &[(u64, usize)],
        seed: u64,
    ) {
        let mut rng = Seeded(seed);
        for &(addr, len) in ranges {
            let what = format!("seed {seed}: [{addr:#x}, +{len})");
            assert_eq!(
                space.read_bytes(addr, len),
                oracle.read_bytes(addr, len),
                "{what}"
            );
            let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            assert_eq!(
                space.write_bytes(addr, &data),
                oracle.write_bytes(addr, &data),
                "{what}"
            );
            if [1, 4, 8].contains(&len) {
                assert_eq!(
                    space.read_scalar(addr, len),
                    oracle.read_scalar(addr, len),
                    "{what}"
                );
                let value = rng.below(u64::MAX);
                assert_eq!(
                    space.write_scalar(addr, value, len),
                    oracle.write_scalar(addr, value, len),
                    "{what} <- {value:#x}"
                );
                assert_eq!(
                    space.read_scalar(addr, len),
                    oracle.read_scalar(addr, len),
                    "{what}"
                );
            }
            let (other, _) = ranges[rng.below(ranges.len() as u64) as usize];
            for (dst, src) in [(addr, other), (other, addr)] {
                assert_eq!(
                    space.copy(dst, src, len),
                    oracle.copy(dst, src, len),
                    "{what}: copy {dst:#x} <- {src:#x}"
                );
            }
        }
        // Whatever landed, landed in the same bytes.
        for &(addr, len) in ranges {
            assert_eq!(space.read_bytes(addr, len), oracle.read_bytes(addr, len));
        }
    }

    #[test]
    fn scan_order_and_scalar_widths_are_invisible() {
        let mut covered = [0u32; 3];
        for seed in 1..=40u64 {
            let mut rng = Seeded(seed);
            let segments = seeded_segments(&mut rng);
            let ranges = boundary_ranges(&segments);
            let mut space = AddressSpace::new();
            for seg in &segments {
                space.map(seg.clone()).unwrap();
            }
            let mut oracle = ForwardScan(segments.clone());
            for &(addr, len) in &ranges {
                let found = oracle.find(addr, len);
                covered[0] += u32::from(found.is_ok());
                covered[1] += u32::from(found.is_ok_and(|idx| !segments[idx].writable));
                // An empty range that a read-only and a writable segment
                // both hold: which one answers shows.
                let mut holders = segments.iter().filter(|s| s.contains(addr, len));
                let first = holders.next().map(|s| s.writable);
                covered[2] += u32::from(holders.any(|s| Some(s.writable) != first));
            }
            for name in ["s0", "s1", "nothing"] {
                assert_eq!(space.segment_meta(name), oracle.segment_meta(name));
            }
            sweep(&mut space, &mut oracle, &ranges, seed);
        }
        // Mapped reads, read-only writes and contested empty ranges all
        // occurred.
        assert!(covered.iter().all(|&n| n >= 20), "{covered:?}");
    }
}
