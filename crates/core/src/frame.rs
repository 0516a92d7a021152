//! Active-message frame layout.
//!
//! A frame is what one one-sided put deposits into a reactive mailbox (Figs. 1–3 of
//! the paper):
//!
//! ```text
//! | HDR (36 B) | GOTP | CODE | ARGS | USR | TRAILER (4 B, ends in SIG_MAG) |
//! ```
//!
//! *Injected Function* frames carry the patched GOT image (`GOTP`) and the function
//! bytecode (`CODE`); *Local Function* frames set both lengths to zero and carry only
//! the element ID that indexes the receiver's Local Function library. The final byte
//! of the frame is the signal magic the receiver spins on: because the fabric
//! delivers the put in order, publishing its last byte with release, a receiver that
//! observes `SIG_MAG` is guaranteed to observe the whole frame.
//!
//! With the paper's Indirect Put jam (1392 B of code + 16 B GOT image) and its 20-byte
//! ARGS block, the one-integer frame is 64 bytes in Local mode and 1472 bytes in
//! Injected mode — the exact sizes §VII-A quotes.
//!
//! ## The wire records
//!
//! Every byte the wire carries outside a section belongs to a field of one of four
//! records, each declared once below as [`Field`]s that start where their
//! predecessor ends: the [`header`], the [`trailer`], a container's
//! [`batch_prefix`] and a chain's [`chain_stage`]. The encoders, both parsers and
//! the mailbox's readiness peeks read their offsets there, and a field marked
//! `reserved` is written zero and refused nonzero. `tests/golden/frame_wire.txt`
//! renders the four records and a sample of each wire shape.
//!
//! ## Chain descriptors
//!
//! A frame may additionally carry a **chain descriptor**: an ordered list of up to
//! [`CHAIN_MAX_STAGES`] continuation stages the receiver runs after the header's
//! primary element, each an `(elem_id, arg-mapping)` pair resolved through the Local
//! Function library. The descriptor rides in the header's
//! [`header::CHAIN_VERSION`] and [`header::CHAIN_STAGES`] plus one [`chain_stage`]
//! record per stage between the header and the GOT image. Version 0 is the legacy
//! layout — both fields were always written as zero, so every pre-chain frame
//! decodes as a chain-free version-0 frame and every version-0 frame claiming
//! stages is rejected as corrupt.
//!
//! ## Multi-frame batch containers
//!
//! A sender aggregating its data path posts a **batch container** instead of N
//! individual frames: one put whose payload is
//!
//! ```text
//! | OUTER HDR (36 B) | prefix + frame | prefix + frame | ... | TRAILER (4 B) |
//! ```
//!
//! The outer header is a frame header, so the receiver's mailbox readiness
//! protocol ([`header::HDR_MAG`], then [`header::LEN`], then [`SIG_MAG`] as the
//! final release-published byte) applies to a batch without modification. A
//! nonzero [`header::BATCH_VERSION`] marks a container (single frames always write
//! 0 there) and [`header::BATCH_COUNT`] counts its inner frames. Each inner frame
//! is a complete, independently valid wire frame — own header, own sequence
//! number, own trailer — behind a [`batch_prefix`] naming its length and
//! destination mailbox slot. The outer sequence number echoes the *first* inner
//! frame's, so one release header publishes the whole batch while per-inner-frame
//! sequence numbers are preserved for the receiver's gap detection, replay
//! suppression and per-frame credit retirement.

use crate::error::{AmError, AmResult};

/// One field of a wire record: `width` bytes (1 to 4, little-endian) at byte `at`
/// of the record. A `reserved` field is written zero and refused nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field {
    /// Offset of the field's first byte within its record.
    pub at: usize,
    /// Width in bytes.
    pub width: usize,
    /// Always zero on the wire.
    pub reserved: bool,
}

impl Field {
    const fn first(width: usize) -> Field {
        Field {
            at: 0,
            width,
            reserved: false,
        }
    }

    const fn then(self, width: usize) -> Field {
        Field {
            at: self.end(),
            width,
            reserved: false,
        }
    }

    const fn then_reserved(self, width: usize) -> Field {
        Field {
            reserved: true,
            ..self.then(width)
        }
    }

    /// Where the field's successor starts.
    pub(crate) const fn end(self) -> usize {
        self.at + self.width
    }

    /// The largest value the field carries.
    pub(crate) const fn max(self) -> u64 {
        (1 << (8 * self.width)) - 1
    }

    /// The field's value in `record`.
    #[inline]
    pub fn get(self, record: &[u8]) -> u32 {
        let mut le = [0u8; 4];
        le[..self.width].copy_from_slice(&record[self.at..self.end()]);
        u32::from_le_bytes(le)
    }

    /// Write the low `width` bytes of `value` into `record`.
    #[inline]
    pub fn set(self, record: &mut [u8], value: u32) {
        record[self.at..self.end()].copy_from_slice(&value.to_le_bytes()[..self.width]);
    }
}

/// A record's fields, named, in wire order.
pub type Record = [(&'static str, Field)];

/// The header every frame and container starts with.
pub mod header {
    use super::Field;

    /// [`FRAME_MAGIC`](super::FRAME_MAGIC).
    pub const MAGIC: Field = Field::first(4);
    /// The sender's sequence number; a container's is its first inner frame's.
    pub const SN: Field = MAGIC.then(4);
    /// Total length on the wire, header and trailer included.
    pub const LEN: Field = SN.then(4);
    /// Package element ID of the active message.
    pub const ELEM: Field = LEN.then(4);
    /// Nonzero when the frame carries code (Injected Function).
    pub const INJECTED: Field = ELEM.then(2);
    /// GOT image length.
    pub const GOT_LEN: Field = INJECTED.then(2);
    /// Code section length.
    pub const CODE_LEN: Field = GOT_LEN.then(4);
    /// ARGS block length.
    pub const ARGS_LEN: Field = CODE_LEN.then(2);
    /// USR payload length.
    pub const USR_LEN: Field = ARGS_LEN.then(4);
    /// The four section lengths, in the order the sections follow the header.
    pub const SECTION_LENS: [Field; 4] = [GOT_LEN, CODE_LEN, ARGS_LEN, USR_LEN];
    /// Chain-descriptor version: 0, or [`CHAIN_VERSION`](super::CHAIN_VERSION).
    pub const CHAIN_VERSION: Field = USR_LEN.then(1);
    /// Number of chain-stage records after the header.
    pub const CHAIN_STAGES: Field = CHAIN_VERSION.then(1);
    /// Batch-container version: 0 in every single frame, or
    /// [`BATCH_VERSION`](super::BATCH_VERSION).
    pub const BATCH_VERSION: Field = CHAIN_STAGES.then(1);
    /// A container's inner-frame count.
    pub const BATCH_COUNT: Field = BATCH_VERSION.then(1);
    /// Reserved.
    pub const RESERVED: Field = BATCH_COUNT.then_reserved(1);
    /// [`HDR_MAG`](super::HDR_MAG), the paper's `MAG`: the byte a receiver
    /// waits on before it reads [`LEN`].
    pub const HDR_MAG: Field = RESERVED.then(1);
    /// The record.
    pub const FIELDS: [(&str, Field); 15] = [
        ("magic", MAGIC),
        ("sn", SN),
        ("len", LEN),
        ("elem", ELEM),
        ("injected", INJECTED),
        ("got_len", GOT_LEN),
        ("code_len", CODE_LEN),
        ("args_len", ARGS_LEN),
        ("usr_len", USR_LEN),
        ("chain_version", CHAIN_VERSION),
        ("chain_stages", CHAIN_STAGES),
        ("batch_version", BATCH_VERSION),
        ("batch_count", BATCH_COUNT),
        ("reserved", RESERVED),
        ("hdr_mag", HDR_MAG),
    ];
}

/// The record every frame and container ends with.
pub mod trailer {
    use super::Field;

    /// The low bytes of the header's sequence number.
    pub const SN_ECHO: Field = Field::first(3);
    /// [`SIG_MAG`](super::SIG_MAG), the frame's last byte, published with release.
    pub const SIG_MAG: Field = SN_ECHO.then(1);
    /// The record.
    pub const FIELDS: [(&str, Field); 2] = [("sn_echo", SN_ECHO), ("sig_mag", SIG_MAG)];
}

/// The record in front of each inner frame of a batch container.
pub mod batch_prefix {
    use super::Field;

    /// The inner frame's wire length.
    pub const LEN: Field = Field::first(4);
    /// The inner frame's destination mailbox slot within the container's bank.
    pub const SLOT: Field = LEN.then(2);
    /// Reserved.
    pub const RESERVED: Field = SLOT.then_reserved(2);
    /// The record.
    pub const FIELDS: [(&str, Field); 3] = [("len", LEN), ("slot", SLOT), ("reserved", RESERVED)];
}

/// One continuation stage of a chain descriptor.
pub mod chain_stage {
    use super::Field;

    /// Package element ID of the stage.
    pub const ELEM: Field = Field::first(4);
    /// The stage's [`ChainArgMap`](super::ChainArgMap).
    pub const ARG_MAP: Field = ELEM.then(1);
    /// Reserved.
    pub const RESERVED: Field = ARG_MAP.then_reserved(3);
    /// The record.
    pub const FIELDS: [(&str, Field); 3] =
        [("elem", ELEM), ("arg_map", ARG_MAP), ("reserved", RESERVED)];
}

/// Frame magic ("TCAM").
pub const FRAME_MAGIC: u32 = 0x4D41_4354;
/// Size of the fixed header.
pub const FRAME_HEADER_SIZE: usize = header::HDR_MAG.end();
/// Size of the trailer (sequence echo + signal magic).
pub const FRAME_TRAILER_SIZE: usize = trailer::SIG_MAG.end();
/// The shortest thing the wire carries: a header and a trailer with nothing
/// between. The one length floor — the configuration, the mailbox, its
/// readiness poll, both parsers and the container builder refuse anything less.
pub(crate) const MIN_WIRE_LEN: usize = FRAME_HEADER_SIZE + FRAME_TRAILER_SIZE;
/// Magic byte marking the end of the header (the paper's `MAG`).
pub const HDR_MAG: u8 = 0xC3;
/// Signal magic byte at the end of the frame (the paper's `SIG MAG`).
pub const SIG_MAG: u8 = 0xA5;
/// Current chain-descriptor wire version ([`header::CHAIN_VERSION`]). Version 0
/// is the legacy chain-free layout.
pub const CHAIN_VERSION: u8 = 1;
/// Maximum number of continuation stages one frame can carry after its primary
/// element.
pub const CHAIN_MAX_STAGES: usize = 8;
/// Wire size of one [`chain_stage`] record.
pub const CHAIN_STAGE_WIRE_SIZE: usize = chain_stage::RESERVED.end();
/// Current multi-frame batch-container version ([`header::BATCH_VERSION`]).
pub const BATCH_VERSION: u8 = 1;
/// Wire size of one [`batch_prefix`] record.
pub const BATCH_PREFIX_SIZE: usize = batch_prefix::RESERVED.end();
/// Maximum number of inner frames one batch container can carry (the count
/// rides in the one-byte [`header::BATCH_COUNT`]).
pub const BATCH_MAX_FRAMES: usize = 255;
/// Fixed wire overhead of a batch container beyond its inner frames' own bytes:
/// the outer header plus the trailer (each inner frame additionally pays one
/// [`BATCH_PREFIX_SIZE`] prefix).
pub const BATCH_OVERHEAD: usize = MIN_WIRE_LEN;

/// Offset of the signal byte of a frame or container of `len` bytes.
pub(crate) const fn signal_at(len: usize) -> usize {
    len + trailer::SIG_MAG.at - FRAME_TRAILER_SIZE
}

/// How a continuation stage receives its operand (its entry registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChainArgMap {
    /// The stage's first entry register points at the 8-byte per-chain context
    /// holding the previous stage's result — jam *k*'s result registers feed
    /// jam *k+1*'s entry registers. The default, and the paper-shaped pipeline
    /// behaviour.
    #[default]
    Result = 0,
    /// The stage re-reads the frame's original ARGS block (its second entry
    /// register still points at the chain context, so the stage can consult
    /// the running result too).
    KeepArgs = 1,
}

impl ChainArgMap {
    fn from_wire(b: u32) -> Option<ChainArgMap> {
        match b {
            0 => Some(ChainArgMap::Result),
            1 => Some(ChainArgMap::KeepArgs),
            _ => None,
        }
    }
}

/// One continuation stage of a chain: which element runs and how its operand
/// is mapped from the stage before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ChainStage {
    /// Package element ID, resolved through the receiver's Local Function
    /// library.
    pub elem_id: u32,
    /// Entry-register mapping for this stage.
    pub map: ChainArgMap,
}

/// Ordered continuation stages a frame carries after its primary element.
///
/// A `Some(descriptor)` with zero stages is a *version-1* frame that happens to
/// chain nothing — it round-trips distinctly from a legacy (version-0) frame,
/// which carries `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainDescriptor {
    len: u8,
    stages: [ChainStage; CHAIN_MAX_STAGES],
}

impl ChainDescriptor {
    /// An empty (zero-stage) version-1 descriptor.
    pub fn new() -> ChainDescriptor {
        ChainDescriptor {
            len: 0,
            stages: [ChainStage {
                elem_id: 0,
                map: ChainArgMap::Result,
            }; CHAIN_MAX_STAGES],
        }
    }

    /// Append a continuation stage. Errors once the frame-format ceiling of
    /// [`CHAIN_MAX_STAGES`] stages is reached.
    pub fn push(&mut self, stage: ChainStage) -> AmResult<()> {
        if usize::from(self.len) >= CHAIN_MAX_STAGES {
            return Err(AmError::BadFrame(format!(
                "chain descriptor full: the wire format carries at most {CHAIN_MAX_STAGES} continuation stages"
            )));
        }
        self.stages[usize::from(self.len)] = stage;
        self.len += 1;
        Ok(())
    }

    /// The continuation stages, in execution order.
    pub fn stages(&self) -> &[ChainStage] {
        &self.stages[..usize::from(self.len)]
    }

    /// Number of continuation stages.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the descriptor chains nothing after the primary element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes this descriptor occupies on the wire (between header and GOT).
    pub fn wire_len(&self) -> usize {
        self.len() * CHAIN_STAGE_WIRE_SIZE
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for stage in self.stages() {
            let mut record = [0u8; CHAIN_STAGE_WIRE_SIZE];
            chain_stage::ELEM.set(&mut record, stage.elem_id);
            chain_stage::ARG_MAP.set(&mut record, stage.map as u32);
            out.extend_from_slice(&record);
        }
    }
}

/// Wire length of an optional chain descriptor.
fn chain_wire_len(chain: Option<&ChainDescriptor>) -> usize {
    chain.map_or(0, ChainDescriptor::wire_len)
}

/// Wire length of a frame: header, chain records, the four sections, trailer.
fn wire_len(chain: Option<&ChainDescriptor>, sections: [&[u8]; 4]) -> usize {
    MIN_WIRE_LEN + chain_wire_len(chain) + sections.iter().map(|s| s.len()).sum::<usize>()
}

/// Decoded frame header: the fields that are not section lengths, which each
/// section slice carries itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sequence number assigned by the sender.
    pub sn: u32,
    /// Package element ID of the active message.
    pub elem_id: u32,
    /// Whether the frame carries code (Injected Function).
    pub injected: bool,
}

/// A complete frame, section by section: the builder tests and benchmarks
/// encode from. The receiver reads arrived bytes as a [`FrameView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Header fields.
    pub header: FrameHeader,
    /// Continuation stages after the primary element (`None` for a legacy
    /// version-0 frame).
    pub chain: Option<ChainDescriptor>,
    /// Patched GOT image bytes (empty for Local frames).
    pub got: Vec<u8>,
    /// Encoded function bytecode (empty for Local frames).
    pub code: Vec<u8>,
    /// Fixed argument block.
    pub args: Vec<u8>,
    /// User payload.
    pub usr: Vec<u8>,
}

impl Frame {
    /// Build a Local Function frame.
    pub fn local(sn: u32, elem_id: u32, args: Vec<u8>, usr: Vec<u8>) -> Frame {
        let mut frame = Self::injected(sn, elem_id, Vec::new(), Vec::new(), args, usr);
        frame.header.injected = false;
        frame
    }

    /// Build an Injected Function frame.
    pub fn injected(
        sn: u32,
        elem_id: u32,
        got: Vec<u8>,
        code: Vec<u8>,
        args: Vec<u8>,
        usr: Vec<u8>,
    ) -> Frame {
        Frame {
            header: FrameHeader {
                sn,
                elem_id,
                injected: true,
            },
            chain: None,
            got,
            code,
            args,
            usr,
        }
    }

    /// Attach a chain descriptor, upgrading the frame to the version-1 layout.
    pub fn with_chain(mut self, chain: ChainDescriptor) -> Frame {
        self.chain = Some(chain);
        self
    }

    /// Total size of the frame on the wire.
    pub fn wire_size(&self) -> usize {
        wire_len(
            self.chain.as_ref(),
            [&self.got, &self.code, &self.args, &self.usr],
        )
    }

    /// Encode the frame into wire bytes, ending with `SIG_MAG`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.encode_into(&mut out);
        out
    }

    /// Encode the frame into `out` (cleared first), reusing its capacity. This is the
    /// steady-state path: a sender that keeps one scratch buffer alive performs zero
    /// heap allocations per send once the buffer has grown to the frame size.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_wire_into(
            self.header.sn,
            self.header.elem_id,
            self.header.injected,
            self.chain.as_ref(),
            [&self.got, &self.code, &self.args, &self.usr],
            out,
        );
    }
}

/// Validate that section lengths fit their header fields. The sender calls this
/// before encoding so an oversized section is a sender-side error instead of a
/// silently truncated header the receiver would misattribute to a malformed wire
/// frame.
pub(crate) fn validate_section_lens(sections: [&[u8]; 4]) -> AmResult<()> {
    let names = ["GOT image", "code section", "ARGS block", "USR payload"];
    for ((what, section), field) in names.iter().zip(sections).zip(header::SECTION_LENS) {
        let (len, bits) = (section.len(), 8 * field.width);
        if len as u64 > field.max() {
            return Err(AmError::BadFrame(format!(
                "{what} of {len} bytes overflows a u{bits} field"
            )));
        }
    }
    Ok(())
}

/// The one header writer: both magics, `sn` and `len` set, every other field
/// zero for the caller to fill.
fn header_record(sn: u32, len: usize) -> [u8; FRAME_HEADER_SIZE] {
    let mut record = [0u8; FRAME_HEADER_SIZE];
    header::MAGIC.set(&mut record, FRAME_MAGIC);
    header::SN.set(&mut record, sn);
    header::LEN.set(&mut record, len as u32);
    header::HDR_MAG.set(&mut record, HDR_MAG.into());
    record
}

/// The one trailer writer: `sn`'s echo, then [`SIG_MAG`].
fn trailer_record(sn: u32) -> [u8; FRAME_TRAILER_SIZE] {
    let mut record = [0u8; FRAME_TRAILER_SIZE];
    trailer::SN_ECHO.set(&mut record, sn);
    trailer::SIG_MAG.set(&mut record, SIG_MAG.into());
    record
}

/// Encode one frame directly from its constituent sections into `out` (cleared
/// first). [`Frame::encode_into`] and the sender's template fast path both funnel
/// through this, so the wire bytes are identical whether a frame was materialised as
/// a [`Frame`] or streamed from cached GOT/code slices.
pub(crate) fn encode_wire_into(
    sn: u32,
    elem_id: u32,
    injected: bool,
    chain: Option<&ChainDescriptor>,
    sections: [&[u8]; 4],
    out: &mut Vec<u8>,
) {
    let len = wire_len(chain, sections);
    let (version, stages) = chain.map_or((0, 0), |c| (CHAIN_VERSION, c.len()));
    let mut record = header_record(sn, len);
    header::ELEM.set(&mut record, elem_id);
    header::INJECTED.set(&mut record, injected.into());
    for (field, section) in header::SECTION_LENS.into_iter().zip(sections) {
        field.set(&mut record, section.len() as u32);
    }
    header::CHAIN_VERSION.set(&mut record, version.into());
    header::CHAIN_STAGES.set(&mut record, stages as u32);
    out.clear();
    out.reserve(len);
    out.extend_from_slice(&record);
    if let Some(c) = chain {
        c.encode_into(out);
    }
    for section in sections {
        out.extend_from_slice(section);
    }
    out.extend_from_slice(&trailer_record(sn));
    debug_assert_eq!(out.len(), len);
}

/// What both parsers check first: the length floor and both header magics.
fn check_prologue(bytes: &[u8], what: &str) -> AmResult<()> {
    if bytes.len() < MIN_WIRE_LEN {
        return Err(AmError::BadFrame(format!(
            "{what} too short: {} bytes",
            bytes.len()
        )));
    }
    let magic = header::MAGIC.get(bytes);
    if magic != FRAME_MAGIC {
        return Err(AmError::BadFrame(format!(
            "{what} has bad magic {magic:#010x}"
        )));
    }
    if header::HDR_MAG.get(bytes) != u32::from(HDR_MAG) {
        return Err(AmError::BadFrame(format!(
            "{what} is missing its header magic byte"
        )));
    }
    Ok(())
}

/// What both parsers check last: the trailer of the `len` bytes at the start of
/// `bytes` ends in [`SIG_MAG`] and echoes `sn`.
#[inline]
fn check_trailer(bytes: &[u8], len: usize, sn: u32, what: &str) -> AmResult<()> {
    let record = &bytes[len - FRAME_TRAILER_SIZE..len];
    if trailer::SIG_MAG.get(record) != u32::from(SIG_MAG) {
        return Err(AmError::BadFrame(format!("{what} missing signal magic")));
    }
    let echo = trailer::SN_ECHO.get(record);
    let expected = sn & trailer::SN_ECHO.max() as u32;
    if echo != expected {
        // The echo is the primary forensic signal once reorder faults exist:
        // carry both sides so a log line pinpoints which frame overwrote which.
        return Err(AmError::BadFrame(format!(
            "{what} sequence echo mismatch: header sn {sn} expects echo {expected:#08x}, trailer carries {echo:#08x}"
        )));
    }
    Ok(())
}

/// Refuse a `record` laid out as `fields` whose reserved field is nonzero;
/// `what` names the record in the error.
fn check_reserved(record: &[u8], fields: &Record, what: impl FnOnce() -> String) -> AmResult<()> {
    for &(name, field) in fields.iter().filter(|(_, field)| field.reserved) {
        let bytes = &record[field.at..field.end()];
        if bytes.iter().any(|&b| b != 0) {
            let what = what();
            return Err(AmError::BadFrame(format!(
                "{what}: reserved `{name}` reads {bytes:02x?}"
            )));
        }
    }
    Ok(())
}

/// A validated frame whose sections borrow the receive buffer.
///
/// The receiver's hot path parses arrived bytes into a `FrameView`, hashes the
/// borrowed `code`/`got` slices to probe the injected-code cache, and copies only
/// the `args`/`usr` sections (which the jam may mutate) into its address space. The
/// GOT and code sections are never copied out of the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    /// Decoded header fields.
    pub header: FrameHeader,
    /// Continuation stages after the primary element (`None` for a legacy
    /// version-0 frame).
    pub chain: Option<ChainDescriptor>,
    /// Patched GOT image bytes (empty for Local frames).
    pub got: &'a [u8],
    /// Encoded function bytecode (empty for Local frames).
    pub code: &'a [u8],
    /// Fixed argument block.
    pub args: &'a [u8],
    /// User payload.
    pub usr: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parse and validate wire bytes without copying any section.
    pub fn parse(bytes: &'a [u8]) -> AmResult<FrameView<'a>> {
        check_prologue(bytes, "frame")?;
        let batch_version = header::BATCH_VERSION.get(bytes);
        if batch_version != 0 {
            return Err(AmError::BadFrame(format!(
                "multi-frame batch container (version {batch_version}) passed to the single-frame parser"
            )));
        }
        check_reserved(bytes, &header::FIELDS, || "header".into())?;
        let field = |f: Field| f.get(bytes) as usize;
        let sn = header::SN.get(bytes);
        let frame_len = field(header::LEN);
        let chain_version = header::CHAIN_VERSION.get(bytes);
        let chain_stage_count = field(header::CHAIN_STAGES);
        if chain_version == 0 && chain_stage_count != 0 {
            // Legacy layout: both fields were always written zero, so a
            // version-0 frame claiming stages is corrupt, not old.
            return Err(AmError::BadFrame(format!(
                "version-0 frame claims {chain_stage_count} chain stages"
            )));
        }
        if chain_version > u32::from(CHAIN_VERSION) {
            return Err(AmError::BadFrame(format!(
                "unknown chain version {chain_version} (this receiver speaks up to {CHAIN_VERSION})"
            )));
        }
        if chain_stage_count > CHAIN_MAX_STAGES {
            return Err(AmError::BadFrame(format!(
                "chain descriptor claims {chain_stage_count} stages, wire maximum is {CHAIN_MAX_STAGES}"
            )));
        }
        let chain_len = chain_stage_count * CHAIN_STAGE_WIRE_SIZE;
        let sections = header::SECTION_LENS.map(field);
        let expected = sections
            .iter()
            .try_fold(MIN_WIRE_LEN + chain_len, |n, &s| n.checked_add(s))
            .ok_or_else(|| AmError::BadFrame("section lengths overflow".into()))?;
        if frame_len != expected || bytes.len() < frame_len {
            return Err(AmError::BadFrame(format!(
                "inconsistent lengths: header says {frame_len}, sections say {expected}, buffer {}",
                bytes.len()
            )));
        }
        check_trailer(bytes, frame_len, sn, "frame")?;
        let chain = if chain_version == 0 {
            None
        } else {
            let mut c = ChainDescriptor::new();
            for i in 0..chain_stage_count {
                let at = FRAME_HEADER_SIZE + i * CHAIN_STAGE_WIRE_SIZE;
                let record = &bytes[at..at + CHAIN_STAGE_WIRE_SIZE];
                check_reserved(record, &chain_stage::FIELDS, || format!("chain stage {i}"))?;
                let map_byte = chain_stage::ARG_MAP.get(record);
                let map = ChainArgMap::from_wire(map_byte).ok_or_else(|| {
                    AmError::BadFrame(format!(
                        "chain stage {i} carries unknown arg-map byte {map_byte:#04x}"
                    ))
                })?;
                c.push(ChainStage {
                    elem_id: chain_stage::ELEM.get(record),
                    map,
                })
                .expect("stage count already bounded by CHAIN_MAX_STAGES");
            }
            Some(c)
        };
        // The lengths are checked against `frame_len` above: the splits hold.
        let body = &bytes[FRAME_HEADER_SIZE + chain_len..frame_len - FRAME_TRAILER_SIZE];
        let (got, rest) = body.split_at(sections[0]);
        let (code, rest) = rest.split_at(sections[1]);
        let (args, usr) = rest.split_at(sections[2]);
        Ok(FrameView {
            header: FrameHeader {
                sn,
                elem_id: header::ELEM.get(bytes),
                injected: header::INJECTED.get(bytes) != 0,
            },
            chain,
            got,
            code,
            args,
            usr,
        })
    }

    /// Byte offset of the GOT image within the frame.
    pub fn got_offset(&self) -> usize {
        FRAME_HEADER_SIZE + chain_wire_len(self.chain.as_ref())
    }

    /// Byte offset of the code section within the frame.
    pub fn code_offset(&self) -> usize {
        self.got_offset() + self.got.len()
    }

    /// Byte offset of the ARGS block within the frame.
    pub fn args_offset(&self) -> usize {
        self.code_offset() + self.code.len()
    }

    /// Byte offset of the USR payload within the frame.
    pub fn usr_offset(&self) -> usize {
        self.args_offset() + self.args.len()
    }
}

/// Whether `bytes` begin with a batch-container header: a frame header with a
/// nonzero [`header::BATCH_VERSION`]. Single frames always write it zero, so
/// detection is unambiguous.
pub fn is_batch(bytes: &[u8]) -> bool {
    check_prologue(bytes, "").is_ok() && header::BATCH_VERSION.get(bytes) != 0
}

/// Incremental builder for a multi-frame batch container.
///
/// A sender lane pushes complete encoded wire frames (each with its destination
/// mailbox slot) and finishes the container into one buffer whose final byte is
/// the release-published [`SIG_MAG`] — one put covers the whole batch.
#[derive(Debug, Default)]
pub struct FrameBatch {
    /// Prefixed inner-frame bytes (everything between outer header and trailer).
    body: Vec<u8>,
    count: usize,
    first_sn: Option<u32>,
}

impl FrameBatch {
    /// An empty builder.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// Number of inner frames pushed so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no frame has been pushed since the last [`FrameBatch::clear`].
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total container size on the wire if finished now.
    pub fn wire_size(&self) -> usize {
        BATCH_OVERHEAD + self.body.len()
    }

    /// Container size if a frame of `frame_len` bytes were pushed next.
    pub fn wire_size_with(&self, frame_len: usize) -> usize {
        self.wire_size() + BATCH_PREFIX_SIZE + frame_len
    }

    /// Append one complete encoded wire frame destined for mailbox `slot`.
    /// The frame must carry its own valid header and trailer — the builder
    /// checks the cheap invariants (length, magic, signal byte) so a corrupt
    /// buffer is a sender-side error, not a wire frame the receiver rejects.
    pub fn push(&mut self, slot: u16, frame: &[u8]) -> AmResult<()> {
        if self.count >= BATCH_MAX_FRAMES {
            return Err(AmError::BadFrame(format!(
                "batch container full: the one-byte count field carries at most {BATCH_MAX_FRAMES} frames"
            )));
        }
        if frame.len() < MIN_WIRE_LEN {
            return Err(AmError::BadFrame(format!(
                "inner frame of {} bytes is shorter than header + trailer",
                frame.len()
            )));
        }
        if header::MAGIC.get(frame) != FRAME_MAGIC || frame[signal_at(frame.len())] != SIG_MAG {
            return Err(AmError::BadFrame(
                "inner frame is not a complete encoded wire frame".into(),
            ));
        }
        self.first_sn.get_or_insert(header::SN.get(frame));
        let mut prefix = [0u8; BATCH_PREFIX_SIZE];
        batch_prefix::LEN.set(&mut prefix, frame.len() as u32);
        batch_prefix::SLOT.set(&mut prefix, slot.into());
        self.body.extend_from_slice(&prefix);
        self.body.extend_from_slice(frame);
        self.count += 1;
        Ok(())
    }

    /// Encode the finished container into `out` (cleared first), reusing its
    /// capacity. Errors on an empty batch — a container must publish at least
    /// one frame.
    pub fn finish_into(&self, out: &mut Vec<u8>) -> AmResult<()> {
        let sn = self
            .first_sn
            .ok_or_else(|| AmError::BadFrame("batch container holds no frames".into()))?;
        // The outer header routes nothing itself, it only publishes the batch.
        let mut record = header_record(sn, self.wire_size());
        header::BATCH_VERSION.set(&mut record, BATCH_VERSION.into());
        header::BATCH_COUNT.set(&mut record, self.count as u32);
        out.clear();
        out.reserve(self.wire_size());
        out.extend_from_slice(&record);
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&trailer_record(sn));
        debug_assert_eq!(out.len(), self.wire_size());
        Ok(())
    }

    /// Reset the builder for the next batch, keeping the allocation.
    pub fn clear(&mut self) {
        self.body.clear();
        self.count = 0;
        self.first_sn = None;
    }
}

/// A validated batch container whose inner frames borrow the receive buffer —
/// the container-level counterpart of [`FrameView`]. Each inner frame still
/// goes through [`FrameView::parse`] individually when dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchView<'a> {
    /// The batch sequence number (echoes the first inner frame's).
    pub sn: u32,
    /// Total container length on the wire.
    pub wire_len: usize,
    frames: Vec<(u16, &'a [u8])>,
}

impl<'a> BatchView<'a> {
    /// Parse and validate a batch container without copying any inner frame.
    /// A container truncated mid-frame is rejected with the offending inner
    /// frame's sequence number in the error — the forensic signal that names
    /// which message the cut landed on.
    pub fn parse(bytes: &'a [u8]) -> AmResult<BatchView<'a>> {
        check_prologue(bytes, "batch container")?;
        let version = header::BATCH_VERSION.get(bytes);
        if version == 0 {
            return Err(AmError::BadFrame(
                "single frame passed to the batch-container parser".into(),
            ));
        }
        if version != u32::from(BATCH_VERSION) {
            return Err(AmError::BadFrame(format!(
                "unknown batch version {version} (this receiver speaks up to {BATCH_VERSION})"
            )));
        }
        let count = header::BATCH_COUNT.get(bytes) as usize;
        if count == 0 {
            return Err(AmError::BadFrame(
                "batch container claims zero inner frames".into(),
            ));
        }
        check_reserved(bytes, &header::FIELDS, || "batch header".into())?;
        let sn = header::SN.get(bytes);
        let wire_len = header::LEN.get(bytes) as usize;
        if wire_len < BATCH_OVERHEAD {
            return Err(AmError::BadFrame(format!(
                "batch header claims {wire_len} bytes, below the container minimum"
            )));
        }
        // Walk the inner frames against what actually arrived, not just the
        // declared length: a truncated container must name the frame the cut
        // landed on, and the declared length is validated by the walk itself.
        let body_end = wire_len - FRAME_TRAILER_SIZE;
        let avail = bytes.len();
        let mut frames = Vec::with_capacity(count);
        let mut pos = FRAME_HEADER_SIZE;
        for i in 0..count {
            let start = pos + BATCH_PREFIX_SIZE;
            if start > body_end || start > avail {
                return Err(AmError::BadFrame(format!(
                    "batch container truncated before inner frame {i}'s length prefix \
                     ({} of {wire_len} bytes present)",
                    avail.min(body_end)
                )));
            }
            let prefix = &bytes[pos..start];
            let flen = batch_prefix::LEN.get(prefix) as usize;
            let slot = batch_prefix::SLOT.get(prefix) as u16;
            check_reserved(prefix, &batch_prefix::FIELDS, || {
                format!("inner frame {i}'s prefix")
            })?;
            if flen < MIN_WIRE_LEN {
                return Err(AmError::BadFrame(format!(
                    "inner frame {i} claims {flen} bytes, shorter than header + trailer"
                )));
            }
            let end = start
                .checked_add(flen)
                .ok_or_else(|| AmError::BadFrame(format!("inner frame {i}'s length overflows")))?;
            if end > body_end || end > avail {
                // The cut landed inside this frame. Echo its sequence number
                // when its header made it across — that is the number the
                // sender's retransmit machinery keys on.
                let echo =
                    (start + header::SN.end() <= avail).then(|| header::SN.get(&bytes[start..]));
                return Err(AmError::BadFrame(match echo {
                    Some(inner_sn) => format!(
                        "batch container truncated inside inner frame {i} (sn {inner_sn}): \
                         frame needs {flen} bytes, {} remain",
                        avail.min(body_end).saturating_sub(start)
                    ),
                    None => format!("batch container truncated inside inner frame {i}'s header"),
                }));
            }
            let inner = &bytes[start..end];
            let imagic = header::MAGIC.get(inner);
            if imagic != FRAME_MAGIC {
                return Err(AmError::BadFrame(format!(
                    "inner frame {i} has bad magic {imagic:#010x}"
                )));
            }
            frames.push((slot, inner));
            pos = end;
        }
        if pos != body_end {
            return Err(AmError::BadFrame(format!(
                "batch length mismatch: header says {wire_len}, inner frames end at {pos}",
            )));
        }
        if wire_len > avail {
            return Err(AmError::BadFrame(format!(
                "batch container truncated before its trailer ({avail} of {wire_len} bytes)"
            )));
        }
        check_trailer(bytes, wire_len, sn, "batch container")?;
        let first_sn = header::SN.get(frames[0].1);
        if first_sn != sn {
            return Err(AmError::BadFrame(format!(
                "batch header sn {sn} disagrees with first inner frame sn {first_sn}"
            )));
        }
        Ok(BatchView {
            sn,
            wire_len,
            frames,
        })
    }

    /// The inner frames in wire order: `(destination slot, frame bytes)`.
    pub fn frames(&self) -> &[(u16, &'a [u8])] {
        &self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes` parse, and into exactly `f`'s header, chain and sections.
    fn assert_parses_to(bytes: &[u8], f: &Frame) {
        let view = FrameView::parse(bytes).unwrap();
        assert_eq!(view.header, f.header);
        assert_eq!(view.chain, f.chain);
        assert_eq!(view.got, &f.got[..]);
        assert_eq!(view.code, &f.code[..]);
        assert_eq!(view.args, &f.args[..]);
        assert_eq!(view.usr, &f.usr[..]);
    }

    /// The parse error `bytes` meet.
    fn rejection(bytes: &[u8]) -> String {
        match FrameView::parse(bytes) {
            Err(AmError::BadFrame(msg)) => msg,
            other => panic!("corrupt frame accepted: {other:?}"),
        }
    }

    #[test]
    fn local_frame_size_matches_paper_one_integer_case() {
        // 20-byte ARGS block + one 4-byte integer payload -> exactly 64 bytes.
        let f = Frame::local(1, 2, vec![0; 20], vec![0; 4]);
        assert_eq!(f.wire_size(), 64);
        assert!(!f.header.injected);
    }

    #[test]
    fn injected_frame_size_matches_paper_one_integer_case() {
        // The Indirect Put jam ships 1392 B of code + 16 B of GOT image = 1408 B of
        // "code" on top of the Local frame -> 1472 bytes.
        let f = Frame::injected(1, 2, vec![0; 16], vec![0; 1392], vec![0; 20], vec![0; 4]);
        assert_eq!(f.wire_size(), 1472);
        assert!(f.header.injected);
    }

    #[test]
    fn encode_parse_roundtrip() {
        let f = Frame::injected(
            7,
            3,
            vec![1; 24],
            vec![2; 100],
            vec![3; 20],
            (0u32..50).flat_map(|v| v.to_le_bytes()).collect(),
        );
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_size());
        assert_eq!(bytes[signal_at(bytes.len())], SIG_MAG);
        assert_eq!(bytes[header::HDR_MAG.at], HDR_MAG);
        assert_parses_to(&bytes, &f);
    }

    #[test]
    fn section_offsets_partition_the_frame() {
        let f = Frame::injected(1, 1, vec![0; 16], vec![0; 64], vec![0; 20], vec![0; 8]);
        let bytes = f.encode();
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.got_offset(), 36);
        assert_eq!(view.code_offset(), 52);
        assert_eq!(view.args_offset(), 116);
        assert_eq!(view.usr_offset(), 136);
        assert_eq!(
            view.usr_offset() + view.usr.len() + FRAME_TRAILER_SIZE,
            f.wire_size()
        );
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let f = Frame::local(5, 1, vec![0; 20], vec![9; 16]);
        let good = f.encode();
        let corrupt = |at: usize, value: u8| {
            let mut bad = good.clone();
            bad[at] = value;
            rejection(&bad)
        };
        assert!(corrupt(header::MAGIC.at, 0).contains("bad magic"));
        assert!(corrupt(header::HDR_MAG.at, 0).contains("header magic"));
        assert!(corrupt(signal_at(good.len()), 0).contains("signal magic"));
        assert!(corrupt(header::LEN.at, 0xFF).contains("inconsistent lengths"));
        // The encoder writes the reserved byte zero; the parser holds it to that.
        let msg = corrupt(header::RESERVED.at, 1);
        assert!(msg.contains("header: reserved `reserved`"), "{msg}");

        // The corrupted header reads sn 5 ^ 0xFF = 0xFA; the trailer still
        // echoes the original sn 5. Both values must be in the message — they
        // are the debugging signal under reorder faults.
        let msg = corrupt(header::SN.at, 5 ^ 0xFF);
        assert!(msg.contains("sequence echo mismatch"), "{msg}");
        assert!(
            msg.contains("header sn 250"),
            "expected value missing: {msg}"
        );
        assert!(msg.contains("0x000005"), "observed echo missing: {msg}");

        assert!(FrameView::parse(&good[..10]).is_err(), "short buffer");
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_capacity() {
        let frames = [
            Frame::local(3, 1, vec![1; 20], vec![2; 48]),
            Frame::injected(4, 2, vec![5; 16], vec![6; 200], vec![7; 20], vec![8; 12]),
        ];
        let mut scratch = Vec::new();
        for f in &frames {
            f.encode_into(&mut scratch);
            assert_eq!(
                scratch,
                f.encode(),
                "encode_into must be byte-identical to encode"
            );
        }
        // The scratch buffer only ever grows; a second pass over the same frames
        // performs no further allocation.
        let cap = scratch.capacity();
        for f in &frames {
            f.encode_into(&mut scratch);
        }
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn local_and_injected_differ_only_by_code_sections() {
        let args = vec![7u8; 20];
        let usr = vec![9u8; 256];
        let local = Frame::local(1, 4, args.clone(), usr.clone());
        let injected = Frame::injected(1, 4, vec![0; 16], vec![0; 1392], args, usr);
        assert_eq!(injected.wire_size() - local.wire_size(), 1408);
        assert_eq!(local.header.elem_id, injected.header.elem_id);
    }

    fn chain_of(ids: &[u32]) -> ChainDescriptor {
        let mut c = ChainDescriptor::new();
        for &id in ids {
            c.push(ChainStage {
                elem_id: id,
                map: ChainArgMap::Result,
            })
            .unwrap();
        }
        c
    }

    #[test]
    fn chained_frame_roundtrips_and_shifts_sections() {
        let chain = chain_of(&[11, 12, 13]);
        let f = Frame::injected(9, 10, vec![1; 16], vec![2; 64], vec![3; 20], vec![4; 8])
            .with_chain(chain);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_size());
        assert_eq!(header::CHAIN_VERSION.get(&bytes), u32::from(CHAIN_VERSION));
        assert_eq!(header::CHAIN_STAGES.get(&bytes), 3);
        assert_parses_to(&bytes, &f);
        assert_eq!(
            FrameView::parse(&bytes).unwrap().got_offset(),
            FRAME_HEADER_SIZE + 3 * CHAIN_STAGE_WIRE_SIZE
        );
    }

    #[test]
    fn zero_stage_chain_is_distinct_from_legacy() {
        let base = Frame::local(5, 6, vec![0; 20], vec![0; 4]);
        let v1 = base.clone().with_chain(ChainDescriptor::new());
        // Same wire size — a zero-stage descriptor occupies no section bytes —
        // but the version field distinguishes the layouts and round-trips.
        assert_eq!(v1.wire_size(), base.wire_size());
        let legacy_bytes = base.encode();
        let v1_bytes = v1.encode();
        assert_eq!(header::CHAIN_VERSION.get(&legacy_bytes), 0);
        assert_eq!(
            header::CHAIN_VERSION.get(&v1_bytes),
            u32::from(CHAIN_VERSION)
        );
        assert_eq!(FrameView::parse(&legacy_bytes).unwrap().chain, None);
        assert_eq!(
            FrameView::parse(&v1_bytes).unwrap().chain,
            Some(ChainDescriptor::new())
        );
    }

    #[test]
    fn max_stage_chain_roundtrips_and_overflow_is_rejected() {
        let ids: Vec<u32> = (100..100 + CHAIN_MAX_STAGES as u32).collect();
        let mut chain = chain_of(&ids);
        assert_eq!(chain.len(), CHAIN_MAX_STAGES);
        assert!(
            chain
                .push(ChainStage {
                    elem_id: 999,
                    map: ChainArgMap::KeepArgs,
                })
                .is_err(),
            "ninth stage must be refused"
        );
        let f = Frame::local(1, 2, vec![0; 20], vec![0; 4]).with_chain(chain);
        let wire = f.encode();
        let view = FrameView::parse(&wire).unwrap();
        let got: Vec<u32> = view
            .chain
            .unwrap()
            .stages()
            .iter()
            .map(|s| s.elem_id)
            .collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn corrupted_chain_fields_are_rejected() {
        let f = Frame::local(1, 2, vec![0; 20], vec![0; 4]).with_chain(chain_of(&[7]));
        let good = f.encode();
        let corrupt = |field: Field, at: usize, value: u32| {
            let mut bad = good.clone();
            field.set(&mut bad[at..], value);
            rejection(&bad)
        };
        let msg = corrupt(header::CHAIN_VERSION, 0, 0);
        assert!(msg.contains("version-0 frame claims 1"), "{msg}");
        let msg = corrupt(header::CHAIN_VERSION, 0, 9);
        assert!(msg.contains("unknown chain version 9"), "{msg}");
        let msg = corrupt(header::CHAIN_STAGES, 0, CHAIN_MAX_STAGES as u32 + 1);
        assert!(msg.contains("wire maximum"), "{msg}");
        // A stage count that disagrees with the header's length.
        let msg = corrupt(header::CHAIN_STAGES, 0, 2);
        assert!(msg.contains("inconsistent lengths"), "{msg}");

        let stage = FRAME_HEADER_SIZE;
        let msg = corrupt(chain_stage::ARG_MAP, stage, 0x7F);
        assert!(msg.contains("arg-map"), "{msg}");
        // The encoder writes the stage's reserved bytes zero; the parser holds
        // each of them to that.
        for value in [1, 1 << 8, 1 << 16] {
            let msg = corrupt(chain_stage::RESERVED, stage, value);
            assert!(msg.contains("chain stage 0: reserved `reserved`"), "{msg}");
        }
    }

    fn sample_batch(sns: &[u32]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut batch = FrameBatch::new();
        let mut inners = Vec::new();
        for (i, &sn) in sns.iter().enumerate() {
            let f = Frame::local(sn, 7, vec![i as u8; 20], vec![0xAB; 4 + i]);
            let wire = f.encode();
            batch.push(i as u16, &wire).unwrap();
            inners.push(wire);
        }
        let mut out = Vec::new();
        batch.finish_into(&mut out).unwrap();
        (out, inners)
    }

    #[test]
    fn batch_container_roundtrips_inner_frames_and_slots() {
        let sns = [40u32, 41, 42, 43];
        let (wire, inners) = sample_batch(&sns);
        assert!(is_batch(&wire));
        assert_eq!(header::BATCH_VERSION.get(&wire), u32::from(BATCH_VERSION));
        assert_eq!(header::BATCH_COUNT.get(&wire), 4);
        assert_eq!(wire[header::HDR_MAG.at], HDR_MAG);
        assert_eq!(wire[signal_at(wire.len())], SIG_MAG);
        // The outer header satisfies the mailbox readiness protocol: its
        // length covers the whole container.
        assert_eq!(header::LEN.get(&wire) as usize, wire.len());
        let view = BatchView::parse(&wire).unwrap();
        assert_eq!(view.sn, 40);
        assert_eq!(view.frames().len(), 4);
        for (i, (slot, bytes)) in view.frames().iter().enumerate() {
            assert_eq!(usize::from(*slot), i);
            assert_eq!(*bytes, &inners[i][..]);
            let inner = FrameView::parse(bytes).unwrap();
            assert_eq!(inner.header.sn, sns[i]);
        }
    }

    #[test]
    fn single_frames_are_never_mistaken_for_batches() {
        let single = Frame::local(9, 1, vec![0; 20], vec![0; 4]).encode();
        assert!(!is_batch(&single));
        assert!(matches!(
            BatchView::parse(&single),
            Err(AmError::BadFrame(_))
        ));
        // And a container fed to the single-frame parser is loudly refused.
        let (batch, _) = sample_batch(&[1, 2]);
        let msg = rejection(&batch);
        assert!(msg.contains("batch container"), "{msg}");
    }

    #[test]
    fn truncated_batch_echoes_the_offending_inner_sequence_number() {
        let (wire, inners) = sample_batch(&[70, 71, 72]);
        // Cut inside the third inner frame, past its header.
        let third_start =
            FRAME_HEADER_SIZE + 2 * BATCH_PREFIX_SIZE + inners[0].len() + inners[1].len();
        let cut = third_start + BATCH_PREFIX_SIZE + 12;
        match BatchView::parse(&wire[..cut]) {
            Err(AmError::BadFrame(msg)) => {
                assert!(msg.contains("truncated"), "{msg}");
                assert!(msg.contains("sn 72"), "offending sn missing: {msg}");
            }
            other => panic!("truncated batch accepted: {other:?}"),
        }
    }

    #[test]
    fn corrupted_batch_containers_are_rejected() {
        let (good, _) = sample_batch(&[5, 6]);
        let corrupt = |field: Field, at: usize, value: u32| {
            let mut bad = good.clone();
            field.set(&mut bad[at..], value);
            match BatchView::parse(&bad) {
                Err(AmError::BadFrame(msg)) => msg,
                other => panic!("corrupt container accepted: {other:?}"),
            }
        };
        let msg = corrupt(header::BATCH_VERSION, 0, u32::from(BATCH_VERSION) + 1);
        assert!(msg.contains("unknown batch version"), "{msg}");
        let msg = corrupt(header::BATCH_COUNT, 0, 0);
        assert!(msg.contains("zero inner frames"), "{msg}");
        // A count that disagrees with the body.
        let msg = corrupt(header::BATCH_COUNT, 0, 3);
        assert!(msg.contains("truncated"), "{msg}");
        let msg = corrupt(header::RESERVED, 0, 1);
        assert!(msg.contains("batch header: reserved"), "{msg}");
        let msg = corrupt(batch_prefix::RESERVED, FRAME_HEADER_SIZE, 1 << 8);
        assert!(msg.contains("inner frame 0's prefix"), "{msg}");
        let msg = corrupt(trailer::SIG_MAG, good.len() - FRAME_TRAILER_SIZE, 0);
        assert!(msg.contains("signal magic"), "{msg}");
        // The outer sn no longer matches the trailer's echo: both values are
        // in the message, as a single frame's are.
        let msg = corrupt(header::SN, 0, 5 ^ 0xFF);
        assert!(
            msg.contains("header sn 250") && msg.contains("trailer carries 0x000005"),
            "{msg}"
        );
    }

    #[test]
    fn batch_builder_enforces_its_invariants() {
        let mut b = FrameBatch::new();
        let mut out = Vec::new();
        assert!(b.finish_into(&mut out).is_err(), "empty batch");
        assert!(b.push(0, &[0u8; 10]).is_err(), "short inner frame");
        let f = Frame::local(1, 2, vec![0; 20], vec![0; 4]).encode();
        b.push(3, &f).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.wire_size(), BATCH_OVERHEAD + BATCH_PREFIX_SIZE + f.len());
        assert_eq!(
            b.wire_size_with(f.len()),
            b.wire_size() + BATCH_PREFIX_SIZE + f.len()
        );
        b.clear();
        assert!(b.is_empty());
        assert!(b.finish_into(&mut out).is_err(), "cleared batch is empty");
    }
}
