//! The address space a jam executes against.
//!
//! A jam never sees host pointers. The runtime maps *segments* — the message's ARGS
//! and USR sections, the receiver's heap objects exported by rieds, read-only data —
//! into a simulated address space, and the VM resolves every load/store against those
//! segments. This mirrors the paper's layout where the injected code addresses its
//! arguments and payload PC-relative within the mailbox frame and reaches everything
//! else through the GOT.
//!
//! # The read-mostly / per-shard split
//!
//! [`AddressSpace`] is the plain, exclusively-owned form: one process, one set of
//! segments, `&mut` everywhere. Putting a host's single `AddressSpace` behind one
//! mutex for the whole map → execute → unmap window serialises every receiver shard
//! on every message, which is the second wall-clock ceiling of the multi-shard
//! drain (next to the cache-hierarchy lock).
//!
//! [`ShardSpace`] is the read-mostly execution view that removes that lock for
//! read-only and shard-local handlers. It layers two spaces:
//!
//! * **`local`** — segments this shard owns exclusively: the per-message ARGS/USR
//!   sections and the shard's private scratch/heap instances. Mapped, written and
//!   unmapped with zero synchronisation.
//! * **`shared_ro`** — an [`Arc`]-shared [`AddressSpace`] holding the process-wide
//!   *read-only* segments (rodata, read-only data exports). Because nothing writes
//!   it after publication, any number of shards read it concurrently without locks;
//!   a write to a `shared_ro` address faults with [`MemFault::ReadOnly`].
//!
//! Lookup order is local first, then shared — a shard-local mapping shadows a
//! shared name, which is exactly how per-shard heap instances get resolved by the
//! same symbolic names the exclusive path uses. Handlers that *declare* cross-shard
//! writes do not use a `ShardSpace` at all: the runtime routes them to the single
//! exclusive `AddressSpace` under its mutex, the correctness fallback.
//!
//! The [`JamSpace`] trait is the VM- and extern-facing abstraction both forms
//! implement, so the interpreter is agnostic about which mode a message runs in.
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
//! fixed-size loads and stores, and the read a [`ShardSpace`] tries on its
//! local space first builds no fault it would then throw away.
//!
//! `unmap` hands the segment back whole. The runtime maps two or three
//! per-message segments (`msg.*`, `chain.*`) around every execution and keeps
//! the ones it unmapped to build the next message's in: it clears and refills
//! the name and the bytes and sets base, permission and kind again, so the
//! buffers are reused but nothing of a previous occupant survives — a segment
//! is exactly as long as the section it was last filled with, and an access
//! past that is [`MemFault::Unmapped`]. So is an access whose range wraps the
//! address space, whatever is mapped.

use std::sync::Arc;

/// What a segment holds; used for permissions and for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// The injected code itself (`CODE` section of the frame).
    Code,
    /// The fixed-size argument block (`ARGS`).
    Args,
    /// The user payload (`USR`).
    Payload,
    /// Receiver-resident mutable state exported by a ried (heaps, tables, arrays).
    Heap,
    /// Read-only data (string constants and the like that the toolchain "implicitly
    /// pulls in ... to support functions like printf").
    Rodata,
}

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
    /// Classification.
    pub kind: SegmentKind,
}

impl Segment {
    /// Create a segment.
    pub fn new(name: &str, base: u64, data: Vec<u8>, writable: bool, kind: SegmentKind) -> Self {
        Segment {
            name: name.to_string(),
            base,
            data,
            writable,
            kind,
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

    /// Mutably borrow a segment by name.
    pub fn segment_mut(&mut self, name: &str) -> Option<&mut Segment> {
        self.segments.iter_mut().find(|s| s.name == name)
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
    /// Classification.
    pub kind: SegmentKind,
}

impl SegmentMeta {
    fn of(seg: &Segment) -> Self {
        SegmentMeta {
            base: seg.base,
            len: seg.data.len(),
            writable: seg.writable,
            kind: seg.kind,
        }
    }
}

/// What the VM and extern functions need from an address space. Implemented by
/// the exclusively-owned [`AddressSpace`] and by the read-mostly per-shard
/// [`ShardSpace`], so the same interpreter serves both execution modes.
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

    #[inline]
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

/// The read-mostly per-shard execution view: an exclusively-owned local
/// [`AddressSpace`] (per-message ARGS/USR, per-shard scratch/heap instances)
/// over an `Arc`-shared read-only base. See the module docs for the locking
/// story; in short, nothing here takes any lock, ever.
#[derive(Debug, Clone)]
pub struct ShardSpace {
    /// Shard-owned segments; lookups hit these first (shadowing the base).
    pub local: AddressSpace,
    /// Process-wide read-only segments, shared by every shard without locks.
    shared_ro: Arc<AddressSpace>,
}

impl ShardSpace {
    /// Build a shard view over the given read-only base. The base must contain
    /// only non-writable segments — a writable segment here would let two
    /// shards race through the supposedly lock-free path, so it is rejected.
    pub fn new(shared_ro: Arc<AddressSpace>) -> Result<Self, MemFault> {
        if let Some(seg) = shared_ro.segments.iter().find(|s| s.writable) {
            return Err(MemFault::ReadOnly {
                addr: seg.base,
                segment: seg.name.clone(),
            });
        }
        Ok(ShardSpace {
            local: AddressSpace::new(),
            shared_ro,
        })
    }

    /// Replace the shared read-only base (live update / package reinstall).
    pub fn set_shared_ro(&mut self, shared_ro: Arc<AddressSpace>) -> Result<(), MemFault> {
        if let Some(seg) = shared_ro.segments.iter().find(|s| s.writable) {
            return Err(MemFault::ReadOnly {
                addr: seg.base,
                segment: seg.name.clone(),
            });
        }
        self.shared_ro = shared_ro;
        Ok(())
    }

    /// The shared read-only base.
    pub fn shared_ro(&self) -> &Arc<AddressSpace> {
        &self.shared_ro
    }

    /// The fault of a write the local space does not map: read-only if the
    /// shared base holds the range, unmapped otherwise.
    fn shared_write_fault(&self, addr: u64, len: usize) -> MemFault {
        match self.shared_ro.find(addr, len) {
            Ok(idx) => MemFault::ReadOnly {
                addr,
                segment: self.shared_ro.segments[idx].name.clone(),
            },
            Err(unmapped) => unmapped,
        }
    }
}

impl JamSpace for ShardSpace {
    #[inline(always)]
    fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
        match self.local.load(addr, width) {
            Some(value) => Ok(value),
            None => self.shared_ro.read_scalar(addr, width),
        }
    }

    #[inline]
    fn write_scalar(&mut self, addr: u64, value: u64, width: usize) -> Result<(), MemFault> {
        match self.local.write_scalar(addr, value, width) {
            Err(MemFault::Unmapped { .. }) => Err(self.shared_write_fault(addr, width)),
            other => other,
        }
    }

    fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
        match self.local.read(addr, len) {
            Ok(bytes) => Ok(bytes.to_vec()),
            Err(MemFault::Unmapped { .. }) => self.shared_ro.read(addr, len).map(<[u8]>::to_vec),
            Err(e) => Err(e),
        }
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        match self.local.write(addr, data) {
            Err(MemFault::Unmapped { .. }) => Err(self.shared_write_fault(addr, data.len())),
            other => other,
        }
    }

    fn copy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let copied = if self.local.find(src, len).is_ok() {
            self.local.copy(dst, src, len)
        } else {
            let bytes = self.shared_ro.read(src, len)?;
            self.local.write(dst, bytes)
        };
        match copied {
            // The source is mapped, so the range nothing local maps is `dst`.
            Err(MemFault::Unmapped { .. }) => Err(self.shared_write_fault(dst, len)),
            other => other,
        }
    }

    fn segment_meta(&self, name: &str) -> Option<SegmentMeta> {
        self.local
            .segment(name)
            .or_else(|| self.shared_ro.segment(name))
            .map(SegmentMeta::of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(Segment::new(
            "args",
            0x1000,
            vec![0; 64],
            false,
            SegmentKind::Args,
        ))
        .unwrap();
        s.map(Segment::new(
            "payload",
            0x2000,
            vec![7; 256],
            false,
            SegmentKind::Payload,
        ))
        .unwrap();
        s.map(Segment::new(
            "heap",
            0x10000,
            vec![0; 4096],
            true,
            SegmentKind::Heap,
        ))
        .unwrap();
        s
    }

    #[test]
    fn map_rejects_overlap_and_duplicates() {
        let mut s = space();
        assert!(matches!(
            s.map(Segment::new(
                "x",
                0x1010,
                vec![0; 16],
                true,
                SegmentKind::Heap
            )),
            Err(MemFault::Overlap { .. })
        ));
        assert!(matches!(
            s.map(Segment::new(
                "heap",
                0x90000,
                vec![0; 16],
                true,
                SegmentKind::Heap
            )),
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
                s.map(Segment::new(
                    name,
                    base,
                    vec![i as u8; 16],
                    true,
                    SegmentKind::Heap,
                ))
                .unwrap();
            }
            assert_eq!(s.unmap(names[gone]).unwrap().data, vec![gone as u8; 16]);
            assert_eq!(s.len(), names.len() - 1);
            for (i, name) in names.iter().enumerate() {
                let base = 0x1000 * (i as u64 + 1);
                if i == gone {
                    assert!(s.segment(name).is_none() && s.segment_mut(name).is_none());
                    assert!(matches!(s.read(base, 1), Err(MemFault::Unmapped { .. })));
                    continue;
                }
                assert_eq!(s.segment(name).unwrap().base, base, "{name} after {gone}");
                s.segment_mut(name).unwrap().data[0] = 0xF0 | i as u8;
                assert_eq!(s.read(base, 2).unwrap(), [0xF0 | i as u8, i as u8]);
            }
            // The name is free again and lands behind the others.
            s.map(Segment::new(
                names[gone],
                0x9000,
                vec![9; 4],
                false,
                SegmentKind::Args,
            ))
            .unwrap();
            assert_eq!(s.segment(names[gone]).unwrap().base, 0x9000);
            assert_eq!(*s.segment_names().last().unwrap(), names[gone]);
        }
    }

    #[test]
    fn per_message_map_unmap_cycles_leave_the_space_unchanged() {
        // What a receiver shard does per message (two segments) and per chain
        // stage (three), over resident segments mapped before and between them.
        let mut s = space();
        let resident = s.segment_names().join(",");
        let scratch = |name: &str, base: u64, fill: u8| {
            Segment::new(name, base, vec![fill; 32], true, SegmentKind::Args)
        };
        for round in 0..10_000u32 {
            let fill = round as u8;
            s.map(scratch("msg.args", 0x4_0000, fill)).unwrap();
            s.map(scratch("msg.usr", 0x5_0000, !fill)).unwrap();
            if round % 3 == 0 {
                for (name, base) in [
                    ("chain.ctx", 0x6_0000),
                    ("chain.args", 0x7_0000),
                    ("chain.usr", 0x8_0000),
                ] {
                    s.map(scratch(name, base, fill)).unwrap();
                }
                assert_eq!(s.read(0x7_0000, 1).unwrap(), [fill]);
                // Stage segments go first, in mapping order: each unmap is from
                // the middle of the list.
                for name in ["chain.ctx", "chain.args", "chain.usr"] {
                    assert_eq!(s.unmap(name).unwrap().data[0], fill);
                }
            }
            assert_eq!(s.segment("msg.usr").unwrap().data[0], !fill);
            assert_eq!(s.unmap("msg.args").unwrap().data[0], fill);
            assert_eq!(s.unmap("msg.usr").unwrap().data[0], !fill);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.segment_names().join(","), resident);
        assert_eq!(s.segment("heap").unwrap().base, 0x10000);
        assert_eq!(s.segment("payload").unwrap().data.len(), 256);
        assert!(s.segment("msg.args").is_none() && s.segment("chain.ctx").is_none());
        assert!(s.read(0x2000, 256).unwrap().iter().all(|&b| b == 7));
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

    fn shard_space() -> ShardSpace {
        let mut ro = AddressSpace::new();
        ro.map(Segment::new(
            "lib.rodata",
            0x4000,
            (0..64u8).collect(),
            false,
            SegmentKind::Rodata,
        ))
        .unwrap();
        let mut s = ShardSpace::new(Arc::new(ro)).unwrap();
        s.local
            .map(Segment::new(
                "heap",
                0x10000,
                vec![0; 256],
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        s
    }

    #[test]
    fn shard_space_layers_local_over_shared_ro() {
        let mut s = shard_space();
        // Reads reach both layers; writes only the local one.
        assert_eq!(s.read_bytes(0x4000, 4).unwrap(), vec![0, 1, 2, 3]);
        s.write_scalar(0x10000, 0xAB, 1).unwrap();
        assert_eq!(s.read_scalar(0x10000, 1).unwrap(), 0xAB);
        // Copy from the shared base into the local heap works lock-free.
        JamSpace::copy(&mut s, 0x10010, 0x4000, 8).unwrap();
        assert_eq!(
            s.read_bytes(0x10010, 8).unwrap(),
            (0..8u8).collect::<Vec<_>>()
        );
        // Writing the shared base faults as read-only, not unmapped.
        assert!(matches!(
            s.write_scalar(0x4000, 1, 8),
            Err(MemFault::ReadOnly { .. })
        ));
        // Untouched addresses are unmapped.
        assert!(matches!(
            s.read_bytes(0x9999_0000, 1),
            Err(MemFault::Unmapped { .. })
        ));
    }

    #[test]
    fn shard_space_local_shadows_shared_names() {
        let mut s = shard_space();
        s.local
            .map(Segment::new(
                "lib.rodata",
                0x8000,
                vec![9; 16],
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        let meta = s.segment_meta("lib.rodata").unwrap();
        assert_eq!(meta.base, 0x8000, "local instance wins the name lookup");
        assert!(meta.writable);
        assert_eq!(s.segment_meta("heap").unwrap().len, 256);
        assert!(s.segment_meta("missing").is_none());
    }

    #[test]
    fn shard_space_rejects_writable_shared_base() {
        let mut ro = AddressSpace::new();
        ro.map(Segment::new(
            "heap",
            0x1000,
            vec![0; 8],
            true,
            SegmentKind::Heap,
        ))
        .unwrap();
        assert!(matches!(
            ShardSpace::new(Arc::new(ro)),
            Err(MemFault::ReadOnly { .. })
        ));
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

    /// [`ShardSpace`]'s layering over two [`ForwardScan`]s: local first, the
    /// shared base for what nothing local maps, read-only.
    struct ForwardShard {
        local: ForwardScan,
        shared: ForwardScan,
    }

    impl JamSpace for ForwardShard {
        fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, MemFault> {
            self.local
                .read_bytes(addr, len)
                .or_else(|_| self.shared.read_bytes(addr, len))
        }

        fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
            match self.local.write_bytes(addr, data) {
                Err(MemFault::Unmapped { addr, len }) => Err(match self.shared.find(addr, len) {
                    Ok(idx) => MemFault::ReadOnly {
                        addr,
                        segment: self.shared.0[idx].name.clone(),
                    },
                    Err(unmapped) => unmapped,
                }),
                other => other,
            }
        }

        fn read_scalar(&self, addr: u64, width: usize) -> Result<u64, MemFault> {
            self.local
                .read_scalar(addr, width)
                .or_else(|_| self.shared.read_scalar(addr, width))
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
            self.local
                .segment_meta(name)
                .or_else(|| self.shared.segment_meta(name))
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

    /// 1–12 disjoint segments laid out upwards from `origin` — adjacent or a
    /// few bytes apart, some zero-length, read-only beside writable — in a
    /// seeded mapping order, so the last-mapped is anywhere in the layout.
    fn seeded_segments(rng: &mut Seeded, origin: u64, prefix: &str) -> Vec<Segment> {
        let mut cursor = origin;
        let mut segments: Vec<Segment> = (0..1 + rng.below(12))
            .map(|i| {
                cursor += [0, 0, 1, 5, 40][rng.below(5) as usize];
                let len = [0, 1, 3, 8, 17, 33][rng.below(6) as usize];
                let fill = (i as u8 + 1) * 16;
                let data = (0..len).map(|b| fill + b as u8 % 16).collect();
                let seg = Segment::new(
                    &format!("{prefix}{i}"),
                    cursor,
                    data,
                    rng.below(3) != 0,
                    SegmentKind::Heap,
                );
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
        let mut covered = [0u32; 4];
        for seed in 1..=40u64 {
            let mut rng = Seeded(seed);
            let segments = seeded_segments(&mut rng, 0x1000, "s");
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
            sweep(&mut space, &mut oracle, &ranges, seed);

            // The same layout as a shard's local space, over a read-only base
            // laid out from a nearby origin (so the two interleave and
            // overlap) that also maps a segment called `s0`.
            let origin = 0x1000 + rng.below(64);
            let mut shared = seeded_segments(&mut rng, origin, "ro");
            for seg in &mut shared {
                seg.writable = false;
            }
            shared[0].name = "s0".into();
            let mut base = AddressSpace::new();
            for seg in &shared {
                base.map(seg.clone()).unwrap();
            }
            let mut shard = ShardSpace::new(Arc::new(base)).unwrap();
            for seg in &segments {
                shard.local.map(seg.clone()).unwrap();
            }
            let mut oracle = ForwardShard {
                local: ForwardScan(segments),
                shared: ForwardScan(shared.clone()),
            };
            for name in ["s0", "s1", "ro1", "nothing"] {
                assert_eq!(shard.segment_meta(name), oracle.segment_meta(name));
            }
            assert_eq!(shard.segment_meta("s0"), oracle.local.segment_meta("s0"));
            let mut ranges = ranges;
            ranges.extend(boundary_ranges(&shared));
            for &(addr, len) in &ranges {
                covered[3] += u32::from(
                    oracle.local.find(addr, len).is_err() && oracle.shared.find(addr, len).is_ok(),
                );
            }
            sweep(&mut shard, &mut oracle, &ranges, seed);
        }
        // Mapped reads, read-only writes, contested empty ranges and ranges
        // only the shared base maps all occurred.
        assert!(covered.iter().all(|&n| n >= 20), "{covered:?}");
    }
}
