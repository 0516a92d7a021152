//! External functions and the GOT image.
//!
//! Everything an injected jam reaches outside its own code and the message sections
//! goes through the GOT: the jam executes `CallExtern { slot, .. }`, the slot indexes
//! the *GOT image* that travelled with (or was patched into) the message, and the
//! resolved entry names a function registered on the receiver by a ried. This module
//! provides the receiver-side half: the [`ExternTable`] of callable functions and the
//! [`GotImage`] of resolved slots.

use std::sync::Arc;

use twochains_memsim::{AccessKind, MemoryBus, SimTime};

use crate::memory::JamSpace;

/// Context handed to extern functions: the jam's address space plus the memory bus so
/// receiver-side work (hash-table probes, copies into the heap) is charged like any
/// other memory traffic.
pub struct ExternCtx<'a> {
    /// The address space of the executing jam (exclusive or per-shard view).
    pub space: &'a mut dyn JamSpace,
    /// The memory hierarchy to charge accesses against.
    pub bus: &'a mut dyn MemoryBus,
    /// Core the receiver thread runs on.
    pub core: usize,
    /// Accumulated extra time charged by extern functions during this call.
    pub elapsed: SimTime,
}

impl<'a> ExternCtx<'a> {
    /// Read a u64 at `addr`, charging the bus.
    pub fn read_u64(&mut self, addr: u64) -> Result<u64, String> {
        self.elapsed += self.bus.access(self.core, addr, 8, AccessKind::Read);
        self.space.read_scalar(addr, 8).map_err(|e| e.to_string())
    }

    /// Write a u64 at `addr`, charging the bus.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), String> {
        self.elapsed += self.bus.access(self.core, addr, 8, AccessKind::Write);
        self.space
            .write_scalar(addr, value, 8)
            .map_err(|e| e.to_string())
    }

    /// Copy `len` bytes from `src` to `dst`, charging the bus for both sides
    /// of a copy the space accepted (a faulting one is charged nothing: the
    /// length may be the jam's to choose).
    pub fn memcpy(&mut self, dst: u64, src: u64, len: usize) -> Result<(), String> {
        if len == 0 {
            return Ok(());
        }
        self.space.copy(dst, src, len).map_err(|e| e.to_string())?;
        self.elapsed += self.bus.access(self.core, src, len, AccessKind::Read);
        self.elapsed += self.bus.access(self.core, dst, len, AccessKind::Write);
        Ok(())
    }

    /// Charge extra computation time (for extern functions that model non-memory work).
    pub fn charge(&mut self, t: SimTime) {
        self.elapsed += t;
    }
}

/// An extern function callable from jam bytecode.
pub type ExternFn = Arc<dyn Fn(&mut ExternCtx<'_>, &[u64]) -> Result<u64, String> + Send + Sync>;

/// A reference stored in a GOT slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternRef {
    /// Resolved to an index into the receiver's [`ExternTable`].
    Resolved(u32),
    /// Resolved to a data address in the jam's address space (GOT entries can also
    /// name data objects, e.g. a ried-exported table header).
    Data(u64),
    /// Not resolved — calling through it is an error (mirrors a missing symbol).
    Unresolved,
}

/// The per-message table of resolved GOT slots (the paper's `GOTP` section).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GotImage {
    slots: Vec<ExternRef>,
}

impl GotImage {
    /// An image with `n` unresolved slots.
    pub fn with_slots(n: usize) -> Self {
        GotImage {
            slots: vec![ExternRef::Unresolved; n],
        }
    }

    /// Build directly from resolved references.
    pub fn from_refs(slots: Vec<ExternRef>) -> Self {
        GotImage { slots }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Set a slot.
    pub fn set(&mut self, slot: usize, r: ExternRef) {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, ExternRef::Unresolved);
        }
        self.slots[slot] = r;
    }

    /// Get a slot.
    pub fn get(&self, slot: usize) -> ExternRef {
        self.slots
            .get(slot)
            .copied()
            .unwrap_or(ExternRef::Unresolved)
    }

    /// Whether every slot is resolved.
    pub fn fully_resolved(&self) -> bool {
        self.slots
            .iter()
            .all(|s| !matches!(s, ExternRef::Unresolved))
    }

    /// Serialize to the wire format carried in the message frame (8 bytes per slot:
    /// a tag byte + 7 bytes of payload, little endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.slots.len() * 8);
        for s in &self.slots {
            match *s {
                ExternRef::Resolved(idx) => {
                    out.push(1);
                    out.extend_from_slice(&(idx as u64).to_le_bytes()[..7]);
                }
                ExternRef::Data(addr) => {
                    out.push(2);
                    out.extend_from_slice(&addr.to_le_bytes()[..7]);
                }
                ExternRef::Unresolved => {
                    out.push(0);
                    out.extend_from_slice(&[0u8; 7]);
                }
            }
        }
        out
    }

    /// Deserialize from the wire format. Returns `None` if the length is not a
    /// multiple of 8, a tag is unknown, or a payload holds what [`Self::to_bytes`]
    /// never writes (an extern index past `u32`, a nonzero unresolved slot): an
    /// image that parses is the only byte string that parses to it.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if !bytes.len().is_multiple_of(8) {
            return None;
        }
        let mut slots = Vec::with_capacity(bytes.len() / 8);
        for chunk in bytes.chunks_exact(8) {
            let mut val = [0u8; 8];
            val[..7].copy_from_slice(&chunk[1..]);
            let v = u64::from_le_bytes(val);
            slots.push(match chunk[0] {
                0 if v == 0 => ExternRef::Unresolved,
                1 => ExternRef::Resolved(u32::try_from(v).ok()?),
                2 => ExternRef::Data(v),
                _ => return None,
            });
        }
        Some(GotImage { slots })
    }
}

/// The receiver-side table of callable extern functions, populated by loaded rieds.
#[derive(Clone, Default)]
pub struct ExternTable {
    funcs: Vec<(String, ExternFn)>,
}

impl std::fmt::Debug for ExternTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternTable")
            .field(
                "functions",
                &self
                    .funcs
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl ExternTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function under `name`, returning its index. Re-registering a name
    /// replaces the previous binding (library reload semantics) and keeps the index.
    pub fn register(&mut self, name: &str, f: ExternFn) -> u32 {
        if let Some(idx) = self.index_of(name) {
            self.funcs[idx as usize].1 = f;
            idx
        } else {
            self.funcs.push((name.to_string(), f));
            (self.funcs.len() - 1) as u32
        }
    }

    /// Find a function's index by name.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.funcs
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u32)
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Names of registered functions, in index order.
    pub fn names(&self) -> Vec<&str> {
        self.funcs.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Call function `index` with `args`.
    pub fn call(&self, index: u32, ctx: &mut ExternCtx<'_>, args: &[u64]) -> Result<u64, String> {
        let (_, f) = self
            .funcs
            .get(index as usize)
            .ok_or_else(|| format!("extern index {index} out of range"))?;
        f(ctx, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AddressSpace, Segment, SegmentKind};
    use proptest::prelude::*;
    use twochains_memsim::hierarchy::FlatMemory;

    fn ctx_parts() -> (AddressSpace, FlatMemory) {
        let mut space = AddressSpace::new();
        space
            .map(Segment::new(
                "heap",
                0x1000,
                vec![0; 256],
                true,
                SegmentKind::Heap,
            ))
            .unwrap();
        (space, FlatMemory::free())
    }

    #[test]
    fn register_and_call() {
        let mut table = ExternTable::new();
        let idx = table.register("add_one", Arc::new(|_ctx, args| Ok(args[0] + 1)));
        assert_eq!(table.index_of("add_one"), Some(idx));
        let (mut space, mut bus) = ctx_parts();
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: SimTime::ZERO,
        };
        assert_eq!(table.call(idx, &mut ctx, &[41]).unwrap(), 42);
        assert!(table.call(99, &mut ctx, &[]).is_err());
    }

    #[test]
    fn reregistering_keeps_index() {
        let mut table = ExternTable::new();
        let a = table.register("f", Arc::new(|_, _| Ok(1)));
        let _b = table.register("g", Arc::new(|_, _| Ok(2)));
        let a2 = table.register("f", Arc::new(|_, _| Ok(10)));
        assert_eq!(
            a, a2,
            "reload keeps the index so existing GOT images stay valid"
        );
        assert_eq!(table.len(), 2);
        let (mut space, mut bus) = ctx_parts();
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: SimTime::ZERO,
        };
        assert_eq!(
            table.call(a, &mut ctx, &[]).unwrap(),
            10,
            "new binding is used"
        );
    }

    #[test]
    fn extern_ctx_helpers_touch_memory_and_charge_bus() {
        let (mut space, mut bus) = ctx_parts();
        bus.per_access = SimTime::from_ns(5);
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: SimTime::ZERO,
        };
        ctx.write_u64(0x1000, 777).unwrap();
        assert_eq!(ctx.read_u64(0x1000).unwrap(), 777);
        ctx.memcpy(0x1040, 0x1000, 8).unwrap();
        assert_eq!(ctx.read_u64(0x1040).unwrap(), 777);
        assert!(
            ctx.elapsed >= SimTime::from_ns(5 * 5),
            "bus charges accumulate"
        );
        ctx.charge(SimTime::from_ns(100));
        assert!(ctx.elapsed >= SimTime::from_ns(125));
        assert!(ctx.read_u64(0xdead_0000).is_err());
    }

    #[test]
    fn an_oversized_memcpy_faults_before_it_is_charged() {
        // Charged first, either copy walks 2^30 / 2^40 bytes of a real bus
        // line by line — minutes to days — before returning the same fault.
        let (mut space, mut bus) = ctx_parts();
        bus.per_access = SimTime::from_ns(5);
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: SimTime::ZERO,
        };
        let from_heap = ctx.memcpy(0x1080, 0x1000, 1 << 30).unwrap_err();
        assert!(from_heap.contains("unmapped"), "{from_heap}");
        let to_heap = ctx.memcpy(0x1000, 0x9000_0000, 1 << 40).unwrap_err();
        assert!(to_heap.contains("unmapped"), "{to_heap}");
        assert_eq!(ctx.elapsed, SimTime::ZERO);
        // A copy that lands is charged for both sides, as ever.
        ctx.memcpy(0x1080, 0x1000, 64).unwrap();
        assert_eq!(ctx.elapsed, SimTime::from_ns(10));
        assert_eq!(bus.accesses, 2);
    }

    #[test]
    fn got_image_slots_and_resolution() {
        let mut got = GotImage::with_slots(2);
        assert!(!got.fully_resolved());
        got.set(0, ExternRef::Resolved(3));
        got.set(1, ExternRef::Data(0xBEEF));
        assert!(got.fully_resolved());
        assert_eq!(got.get(0), ExternRef::Resolved(3));
        assert_eq!(
            got.get(7),
            ExternRef::Unresolved,
            "out of range reads as unresolved"
        );
        got.set(4, ExternRef::Resolved(1));
        assert_eq!(got.len(), 5, "setting past the end grows the image");
    }

    #[test]
    fn got_image_wire_roundtrip() {
        let got = GotImage::from_refs(vec![
            ExternRef::Resolved(7),
            ExternRef::Unresolved,
            ExternRef::Data(0x0001_0000_2000),
        ]);
        let bytes = got.to_bytes();
        assert_eq!(bytes.len(), 24);
        let back = GotImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, got);
        assert!(
            GotImage::from_bytes(&bytes[..23]).is_none(),
            "length must be multiple of 8"
        );
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(GotImage::from_bytes(&bad).is_none(), "unknown tag rejected");
    }

    #[test]
    fn a_got_payload_the_encoder_never_writes_is_refused_not_truncated() {
        // Tag 1 with 2^32 + 7: kept as `v as u32`, it called extern 7.
        let mut wide = GotImage::from_refs(vec![ExternRef::Resolved(7)]).to_bytes();
        wide[5] = 1;
        assert_eq!(GotImage::from_bytes(&wide), None);
        // Tag 0 with anything behind it parsed to the all-zero slot's image.
        let mut stray = GotImage::with_slots(2).to_bytes();
        stray[15] = 0x80;
        assert_eq!(GotImage::from_bytes(&stray), None);
        // The largest of each still parses.
        let edge = GotImage::from_refs(vec![
            ExternRef::Resolved(u32::MAX),
            ExternRef::Data((1 << 56) - 1),
            ExternRef::Unresolved,
        ]);
        assert_eq!(GotImage::from_bytes(&edge.to_bytes()), Some(edge));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Near-valid images — tags 0 to 3, payloads of every width down to
        /// zero: whatever parses is the only byte string that does.
        #[test]
        fn a_got_image_that_parses_serializes_to_the_bytes_it_came_from(
            slots in prop::collection::vec((0u8..4, any::<u64>(), 0usize..6), 0..6),
        ) {
            let bytes: Vec<u8> = slots
                .iter()
                .flat_map(|&(tag, payload, width)| {
                    let payload = payload >> [8, 24, 32, 33, 56, 63][width];
                    let mut slot = (payload << 8).to_le_bytes();
                    slot[0] = tag;
                    slot
                })
                .collect();
            if let Some(image) = GotImage::from_bytes(&bytes) {
                prop_assert_eq!(image.to_bytes(), bytes);
            }
        }
    }

    #[test]
    fn table_names_in_index_order() {
        let mut t = ExternTable::new();
        t.register("a", Arc::new(|_, _| Ok(0)));
        t.register("b", Arc::new(|_, _| Ok(0)));
        assert_eq!(t.names(), vec!["a", "b"]);
        assert!(!t.is_empty());
    }
}
