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
//! delivers the put in order (or the sender fences before a separate signal put), a
//! receiver that observes `SIG_MAG` is guaranteed to observe the whole frame.
//!
//! With the paper's Indirect Put jam (1392 B of code + 16 B GOT image) and its 20-byte
//! ARGS block, the one-integer frame is 64 bytes in Local mode and 1472 bytes in
//! Injected mode — the exact sizes §VII-A quotes.
//!
//! ## Chain descriptors
//!
//! A frame may additionally carry a **chain descriptor**: an ordered list of up to
//! [`CHAIN_MAX_STAGES`] continuation stages the receiver runs after the header's
//! primary element, each an `(elem_id, arg-mapping)` pair resolved through the Local
//! Function library. The descriptor rides in two previously reserved header bytes
//! (byte 30: chain version, byte 31: continuation-stage count) plus one 8-byte record
//! per stage between the header and the GOT image. Version 0 is the legacy layout —
//! both bytes were always written as zero, so every pre-chain frame decodes as a
//! chain-free version-0 frame and every version-0 frame claiming stages is rejected
//! as corrupt.
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
//! The outer header reuses the single-frame header shape so the receiver's mailbox
//! readiness protocol ([`HDR_MAG`] at byte 35, total length at bytes 8–11, [`SIG_MAG`]
//! as the final release-published byte) applies to a batch without modification. The
//! three previously reserved header bytes disambiguate: byte 32 carries the batch
//! format version ([`BATCH_VERSION`]; single frames always write 0 there), byte 33
//! the inner-frame count, byte 34 stays reserved-zero. Each inner frame is a
//! complete, independently valid wire frame — own header, own sequence number, own
//! trailer — preceded by an 8-byte prefix (u32 LE frame length, u16 LE destination
//! mailbox slot, 2 reserved zero bytes). The outer sequence number (bytes 4–7)
//! echoes the *first* inner frame's, so one release header publishes the whole
//! batch while per-inner-frame sequence numbers are preserved for the receiver's
//! gap detection, replay suppression and per-frame credit retirement.

use crate::error::{AmError, AmResult};

/// Frame magic ("TCAM").
pub const FRAME_MAGIC: u32 = 0x4D41_4354;
/// Size of the fixed header.
pub const FRAME_HEADER_SIZE: usize = 36;
/// Size of the trailer (sequence echo + signal magic).
pub const FRAME_TRAILER_SIZE: usize = 4;
/// The shortest thing the wire carries: a header and a trailer with nothing
/// between. The one length floor — the mailbox's readiness poll, both parsers
/// and the container builder refuse anything that declares less.
pub(crate) const MIN_WIRE_LEN: usize = FRAME_HEADER_SIZE + FRAME_TRAILER_SIZE;
/// Magic byte marking the end of the header (the paper's `MAG`).
pub const HDR_MAG: u8 = 0xC3;
/// Signal magic byte at the end of the frame (the paper's `SIG MAG`).
pub const SIG_MAG: u8 = 0xA5;
/// Current chain-descriptor wire version (header byte 30). Version 0 is the
/// legacy chain-free layout.
pub const CHAIN_VERSION: u8 = 1;
/// Maximum number of continuation stages one frame can carry after its primary
/// element.
pub const CHAIN_MAX_STAGES: usize = 8;
/// Wire size of one chain-stage record: elem_id (u32 LE), arg-map byte, 3
/// reserved zero bytes.
pub const CHAIN_STAGE_WIRE_SIZE: usize = 8;
/// Current multi-frame batch-container version (header byte 32). Single frames
/// always write 0 there, so a nonzero byte 32 unambiguously marks a container.
pub const BATCH_VERSION: u8 = 1;
/// Wire size of the per-inner-frame prefix inside a batch container: frame
/// length (u32 LE), destination mailbox slot (u16 LE), 2 reserved zero bytes.
pub const BATCH_PREFIX_SIZE: usize = 8;
/// Maximum number of inner frames one batch container can carry (the count
/// rides in the one-byte header field 33).
pub const BATCH_MAX_FRAMES: usize = 255;
/// Fixed wire overhead of a batch container beyond its inner frames' own bytes:
/// the outer header plus the trailer (each inner frame additionally pays one
/// [`BATCH_PREFIX_SIZE`] prefix).
pub const BATCH_OVERHEAD: usize = FRAME_HEADER_SIZE + FRAME_TRAILER_SIZE;

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
    fn from_wire(b: u8) -> Option<ChainArgMap> {
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
            out.extend_from_slice(&stage.elem_id.to_le_bytes());
            out.push(stage.map as u8);
            out.extend_from_slice(&[0u8; 3]);
        }
    }
}

/// Wire length of an optional chain descriptor.
fn chain_wire_len(chain: Option<&ChainDescriptor>) -> usize {
    chain.map_or(0, ChainDescriptor::wire_len)
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sequence number assigned by the sender.
    pub sn: u32,
    /// Total frame length in bytes including header and trailer.
    pub frame_len: u32,
    /// Package element ID of the active message.
    pub elem_id: u32,
    /// Whether the frame carries code (Injected Function).
    pub injected: bool,
    /// GOT image length in bytes.
    pub got_len: u16,
    /// Code length in bytes.
    pub code_len: u32,
    /// ARGS block length in bytes.
    pub args_len: u16,
    /// USR payload length in bytes.
    pub usr_len: u32,
}

/// A complete frame, section by section.
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
        Self::build(sn, elem_id, false, Vec::new(), Vec::new(), args, usr)
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
        Self::build(sn, elem_id, true, got, code, args, usr)
    }

    fn build(
        sn: u32,
        elem_id: u32,
        injected: bool,
        got: Vec<u8>,
        code: Vec<u8>,
        args: Vec<u8>,
        usr: Vec<u8>,
    ) -> Frame {
        let frame_len = (FRAME_HEADER_SIZE
            + got.len()
            + code.len()
            + args.len()
            + usr.len()
            + FRAME_TRAILER_SIZE) as u32;
        Frame {
            header: FrameHeader {
                sn,
                frame_len,
                elem_id,
                injected,
                got_len: got.len() as u16,
                code_len: code.len() as u32,
                args_len: args.len() as u16,
                usr_len: usr.len() as u32,
            },
            chain: None,
            got,
            code,
            args,
            usr,
        }
    }

    /// Attach a chain descriptor, upgrading the frame to the version-1 layout
    /// and growing `frame_len` by the descriptor's wire size.
    pub fn with_chain(mut self, chain: ChainDescriptor) -> Frame {
        let old = chain_wire_len(self.chain.as_ref());
        self.header.frame_len = self.header.frame_len - old as u32 + chain.wire_len() as u32;
        self.chain = Some(chain);
        self
    }

    /// Total size of the frame on the wire.
    pub fn wire_size(&self) -> usize {
        self.header.frame_len as usize
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

    /// Byte offset of the signal byte (the last byte of the frame).
    pub fn signal_offset(&self) -> usize {
        self.wire_size() - 1
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
            &self.got,
            &self.code,
            &self.args,
            &self.usr,
            out,
        );
        debug_assert_eq!(out.len(), self.wire_size());
    }

    /// Decode wire bytes back into an owned frame, validating magics and lengths.
    pub fn decode(bytes: &[u8]) -> AmResult<Frame> {
        Ok(FrameView::parse(bytes)?.to_frame())
    }
}

/// Validate that section lengths fit the wire header's fixed-width fields (GOT and
/// ARGS ride in `u16` fields, code and USR in `u32`). The sender calls this before
/// encoding so an oversized section is a sender-side error instead of a silently
/// truncated header the receiver would misattribute to a malformed wire frame.
pub(crate) fn validate_section_lens(
    got: &[u8],
    code: &[u8],
    args: &[u8],
    usr: &[u8],
) -> AmResult<()> {
    if got.len() > u16::MAX as usize {
        return Err(AmError::BadFrame(format!(
            "GOT image of {} bytes exceeds the u16 wire field",
            got.len()
        )));
    }
    if args.len() > u16::MAX as usize {
        return Err(AmError::BadFrame(format!(
            "ARGS block of {} bytes exceeds the u16 wire field",
            args.len()
        )));
    }
    if code.len() > u32::MAX as usize {
        return Err(AmError::BadFrame(format!(
            "code section of {} bytes exceeds the u32 wire field",
            code.len()
        )));
    }
    if usr.len() > u32::MAX as usize {
        return Err(AmError::BadFrame(format!(
            "USR payload of {} bytes exceeds the u32 wire field",
            usr.len()
        )));
    }
    Ok(())
}

/// Encode one frame directly from its constituent sections into `out` (cleared
/// first). [`Frame::encode_into`] and the sender's template fast path both funnel
/// through this, so the wire bytes are identical whether a frame was materialised as
/// a [`Frame`] or streamed from cached GOT/code slices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_wire_into(
    sn: u32,
    elem_id: u32,
    injected: bool,
    chain: Option<&ChainDescriptor>,
    got: &[u8],
    code: &[u8],
    args: &[u8],
    usr: &[u8],
    out: &mut Vec<u8>,
) {
    let frame_len = (FRAME_HEADER_SIZE
        + chain_wire_len(chain)
        + got.len()
        + code.len()
        + args.len()
        + usr.len()
        + FRAME_TRAILER_SIZE) as u32;
    out.clear();
    out.reserve(frame_len as usize);
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&sn.to_le_bytes());
    out.extend_from_slice(&frame_len.to_le_bytes());
    out.extend_from_slice(&elem_id.to_le_bytes());
    out.extend_from_slice(&(injected as u16).to_le_bytes());
    out.extend_from_slice(&(got.len() as u16).to_le_bytes());
    out.extend_from_slice(&(code.len() as u32).to_le_bytes());
    out.extend_from_slice(&(args.len() as u16).to_le_bytes());
    out.extend_from_slice(&(usr.len() as u32).to_le_bytes());
    match chain {
        Some(c) => {
            out.push(CHAIN_VERSION);
            out.push(c.len() as u8);
        }
        None => out.extend_from_slice(&[0u8; 2]),
    }
    out.extend_from_slice(&[0u8; 3]);
    out.push(HDR_MAG);
    debug_assert_eq!(out.len(), FRAME_HEADER_SIZE);
    if let Some(c) = chain {
        c.encode_into(out);
    }
    out.extend_from_slice(got);
    out.extend_from_slice(code);
    out.extend_from_slice(args);
    out.extend_from_slice(usr);
    // Trailer: low 3 bytes of the sequence number, then the signal magic.
    out.extend_from_slice(&sn.to_le_bytes()[..3]);
    out.push(SIG_MAG);
    debug_assert_eq!(out.len(), frame_len as usize);
}

/// A validated frame whose sections borrow the receive buffer — the zero-copy
/// counterpart of [`Frame::decode`].
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
        if bytes.len() < MIN_WIRE_LEN {
            return Err(AmError::BadFrame(format!(
                "frame too short: {} bytes",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != FRAME_MAGIC {
            return Err(AmError::BadFrame(format!("bad magic {magic:#010x}")));
        }
        if bytes[FRAME_HEADER_SIZE - 1] != HDR_MAG {
            return Err(AmError::BadFrame("missing header magic byte".into()));
        }
        if bytes[32] != 0 {
            return Err(AmError::BadFrame(format!(
                "multi-frame batch container (version {}) passed to the single-frame parser",
                bytes[32]
            )));
        }
        let sn = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let frame_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let elem_id = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let injected = u16::from_le_bytes(bytes[16..18].try_into().unwrap()) != 0;
        let got_len = u16::from_le_bytes(bytes[18..20].try_into().unwrap()) as usize;
        let code_len = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        let args_len = u16::from_le_bytes(bytes[24..26].try_into().unwrap()) as usize;
        let usr_len = u32::from_le_bytes(bytes[26..30].try_into().unwrap()) as usize;
        let chain_version = bytes[30];
        let chain_stage_count = bytes[31] as usize;
        let chain_len = match chain_version {
            // Legacy layout: both bytes were always written zero, so a
            // version-0 frame claiming stages is corrupt, not old.
            0 if chain_stage_count != 0 => {
                return Err(AmError::BadFrame(format!(
                    "version-0 frame claims {chain_stage_count} chain stages"
                )));
            }
            0 => 0,
            CHAIN_VERSION => {
                if chain_stage_count > CHAIN_MAX_STAGES {
                    return Err(AmError::BadFrame(format!(
                        "chain descriptor claims {chain_stage_count} stages, wire maximum is {CHAIN_MAX_STAGES}"
                    )));
                }
                chain_stage_count * CHAIN_STAGE_WIRE_SIZE
            }
            v => {
                return Err(AmError::BadFrame(format!(
                    "unknown chain version {v} (this receiver speaks up to {CHAIN_VERSION})"
                )));
            }
        };
        let expected = FRAME_HEADER_SIZE
            .checked_add(chain_len)
            .and_then(|n| n.checked_add(got_len))
            .and_then(|n| n.checked_add(code_len))
            .and_then(|n| n.checked_add(args_len))
            .and_then(|n| n.checked_add(usr_len))
            .and_then(|n| n.checked_add(FRAME_TRAILER_SIZE))
            .ok_or_else(|| AmError::BadFrame("section lengths overflow".into()))?;
        if frame_len != expected || bytes.len() < frame_len {
            return Err(AmError::BadFrame(format!(
                "inconsistent lengths: header says {frame_len}, sections say {expected}, buffer {}",
                bytes.len()
            )));
        }
        if bytes[frame_len - 1] != SIG_MAG {
            return Err(AmError::BadFrame("missing signal magic".into()));
        }
        if bytes[frame_len - 4..frame_len - 1] != sn.to_le_bytes()[..3] {
            // The echo is the primary forensic signal once reorder faults
            // exist: carry both sides so a log line pinpoints which frame
            // overwrote which.
            let observed = u32::from_le_bytes([
                bytes[frame_len - 4],
                bytes[frame_len - 3],
                bytes[frame_len - 2],
                0,
            ]);
            return Err(AmError::BadFrame(format!(
                "sequence echo mismatch: header sn {sn} expects echo {:#08x}, trailer carries {observed:#08x}",
                sn & 0x00FF_FFFF
            )));
        }
        let chain = if chain_version == 0 {
            None
        } else {
            let mut c = ChainDescriptor::new();
            for i in 0..chain_stage_count {
                let off = FRAME_HEADER_SIZE + i * CHAIN_STAGE_WIRE_SIZE;
                let stage_elem = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
                let map = ChainArgMap::from_wire(bytes[off + 4]).ok_or_else(|| {
                    AmError::BadFrame(format!(
                        "chain stage {i} carries unknown arg-map byte {:#04x}",
                        bytes[off + 4]
                    ))
                })?;
                c.push(ChainStage {
                    elem_id: stage_elem,
                    map,
                })
                .expect("stage count already bounded by CHAIN_MAX_STAGES");
            }
            Some(c)
        };
        let mut pos = FRAME_HEADER_SIZE + chain_len;
        let mut take = |n: usize| {
            let s = &bytes[pos..pos + n];
            pos += n;
            s
        };
        Ok(FrameView {
            header: FrameHeader {
                sn,
                frame_len: frame_len as u32,
                elem_id,
                injected,
                got_len: got_len as u16,
                code_len: code_len as u32,
                args_len: args_len as u16,
                usr_len: usr_len as u32,
            },
            chain,
            got: take(got_len),
            code: take(code_len),
            args: take(args_len),
            usr: take(usr_len),
        })
    }

    /// Materialise an owned [`Frame`] (copies every section).
    pub fn to_frame(&self) -> Frame {
        Frame {
            header: self.header,
            chain: self.chain,
            got: self.got.to_vec(),
            code: self.code.to_vec(),
            args: self.args.to_vec(),
            usr: self.usr.to_vec(),
        }
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

/// Whether `bytes` begin with a batch-container header: the outer shape of a
/// frame header (magic + `HDR_MAG`) with a nonzero batch-version byte 32.
/// Single frames always write byte 32 as zero, so detection is unambiguous.
pub fn is_batch(bytes: &[u8]) -> bool {
    bytes.len() >= FRAME_HEADER_SIZE
        && u32::from_le_bytes(bytes[0..4].try_into().unwrap()) == FRAME_MAGIC
        && bytes[FRAME_HEADER_SIZE - 1] == HDR_MAG
        && bytes[32] != 0
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

    /// The batch sequence number: the first inner frame's.
    pub fn first_sn(&self) -> Option<u32> {
        self.first_sn
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
        let magic = u32::from_le_bytes(frame[0..4].try_into().unwrap());
        if magic != FRAME_MAGIC || frame[frame.len() - 1] != SIG_MAG {
            return Err(AmError::BadFrame(
                "inner frame is not a complete encoded wire frame".into(),
            ));
        }
        let sn = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        self.first_sn.get_or_insert(sn);
        self.body
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.body.extend_from_slice(&slot.to_le_bytes());
        self.body.extend_from_slice(&[0u8; 2]);
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
        let total = self.wire_size() as u32;
        out.clear();
        out.reserve(total as usize);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&sn.to_le_bytes());
        out.extend_from_slice(&total.to_le_bytes());
        // elem_id / injected / section lengths / chain bytes: all zero — the
        // outer header routes nothing itself, it only publishes the batch.
        out.extend_from_slice(&[0u8; 20]);
        out.push(BATCH_VERSION);
        out.push(self.count as u8);
        out.push(0);
        out.push(HDR_MAG);
        debug_assert_eq!(out.len(), FRAME_HEADER_SIZE);
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&sn.to_le_bytes()[..3]);
        out.push(SIG_MAG);
        debug_assert_eq!(out.len(), total as usize);
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
        if bytes.len() < BATCH_OVERHEAD {
            return Err(AmError::BadFrame(format!(
                "batch container too short: {} bytes",
                bytes.len()
            )));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != FRAME_MAGIC {
            return Err(AmError::BadFrame(format!("bad batch magic {magic:#010x}")));
        }
        if bytes[FRAME_HEADER_SIZE - 1] != HDR_MAG {
            return Err(AmError::BadFrame(
                "batch container missing header magic byte".into(),
            ));
        }
        match bytes[32] {
            0 => {
                return Err(AmError::BadFrame(
                    "single frame passed to the batch-container parser".into(),
                ));
            }
            BATCH_VERSION => {}
            v => {
                return Err(AmError::BadFrame(format!(
                    "unknown batch version {v} (this receiver speaks up to {BATCH_VERSION})"
                )));
            }
        }
        let count = bytes[33] as usize;
        if count == 0 {
            return Err(AmError::BadFrame(
                "batch container claims zero inner frames".into(),
            ));
        }
        if bytes[34] != 0 {
            return Err(AmError::BadFrame(format!(
                "batch header reserved byte carries {:#04x}",
                bytes[34]
            )));
        }
        let sn = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let wire_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
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
            let flen = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let slot = u16::from_le_bytes(bytes[pos + 4..pos + 6].try_into().unwrap());
            if bytes[pos + 6] != 0 || bytes[pos + 7] != 0 {
                return Err(AmError::BadFrame(format!(
                    "inner frame {i}'s prefix reserved bytes are nonzero"
                )));
            }
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
                let echo = (start + 8 <= avail)
                    .then(|| u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap()));
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
            let imagic = u32::from_le_bytes(inner[0..4].try_into().unwrap());
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
        if bytes[wire_len - 1] != SIG_MAG {
            return Err(AmError::BadFrame("batch missing signal magic".into()));
        }
        if bytes[wire_len - 4..wire_len - 1] != sn.to_le_bytes()[..3] {
            return Err(AmError::BadFrame(format!(
                "batch sequence echo mismatch for sn {sn}"
            )));
        }
        let first_sn = u32::from_le_bytes(frames[0].1[4..8].try_into().unwrap());
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
    fn encode_decode_roundtrip() {
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
        assert_eq!(bytes[bytes.len() - 1], SIG_MAG);
        assert_eq!(bytes[FRAME_HEADER_SIZE - 1], HDR_MAG);
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn section_offsets_partition_the_frame() {
        let f = Frame::injected(1, 1, vec![0; 16], vec![0; 64], vec![0; 20], vec![0; 8]);
        assert_eq!(f.got_offset(), 36);
        assert_eq!(f.code_offset(), 52);
        assert_eq!(f.args_offset(), 116);
        assert_eq!(f.usr_offset(), 136);
        assert_eq!(f.signal_offset(), f.wire_size() - 1);
        assert_eq!(
            f.usr_offset() + f.usr.len() + FRAME_TRAILER_SIZE,
            f.wire_size()
        );
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let f = Frame::local(5, 1, vec![0; 20], vec![9; 16]);
        let good = f.encode();

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "magic"
        );

        let mut bad = good.clone();
        bad[FRAME_HEADER_SIZE - 1] = 0;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "hdr mag"
        );

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = 0;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "sig mag"
        );

        let mut bad = good.clone();
        bad[8] = 0xFF; // frame_len
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "length"
        );

        let mut bad = good.clone();
        bad[4] ^= 0xFF; // sn no longer matches trailer echo
        match Frame::decode(&bad) {
            Err(AmError::BadFrame(msg)) => {
                // The corrupted header reads sn 5 ^ 0xFF = 0xFA; the trailer
                // still echoes the original sn 5. Both values must be in the
                // message — they are the debugging signal under reorder faults.
                assert!(msg.contains("sequence echo mismatch"), "{msg}");
                assert!(
                    msg.contains("header sn 250"),
                    "expected value missing: {msg}"
                );
                assert!(msg.contains("0x000005"), "observed echo missing: {msg}");
            }
            other => panic!("sn echo corruption not caught: {other:?}"),
        }

        assert!(Frame::decode(&good[..10]).is_err(), "short buffer");
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
    fn frame_view_borrows_sections_and_roundtrips() {
        let f = Frame::injected(9, 5, vec![1; 16], vec![2; 64], vec![3; 20], vec![4; 32]);
        let bytes = f.encode();
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.header, f.header);
        assert_eq!(view.got, &f.got[..]);
        assert_eq!(view.code, &f.code[..]);
        assert_eq!(view.args, &f.args[..]);
        assert_eq!(view.usr, &f.usr[..]);
        assert_eq!(view.got_offset(), f.got_offset());
        assert_eq!(view.code_offset(), f.code_offset());
        assert_eq!(view.args_offset(), f.args_offset());
        assert_eq!(view.usr_offset(), f.usr_offset());
        assert_eq!(view.to_frame(), f);
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
        assert_eq!(
            f.got_offset(),
            FRAME_HEADER_SIZE + 3 * CHAIN_STAGE_WIRE_SIZE
        );
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_size());
        assert_eq!(bytes[30], CHAIN_VERSION);
        assert_eq!(bytes[31], 3);
        let view = FrameView::parse(&bytes).unwrap();
        assert_eq!(view.chain, Some(chain));
        assert_eq!(view.got, &f.got[..]);
        assert_eq!(view.args, &f.args[..]);
        assert_eq!(view.usr, &f.usr[..]);
        assert_eq!(view.got_offset(), f.got_offset());
        assert_eq!(view.to_frame(), f);
    }

    #[test]
    fn zero_stage_chain_is_distinct_from_legacy() {
        let base = Frame::local(5, 6, vec![0; 20], vec![0; 4]);
        let v1 = base.clone().with_chain(ChainDescriptor::new());
        // Same wire size — a zero-stage descriptor occupies no section bytes —
        // but the version byte distinguishes the layouts and round-trips.
        assert_eq!(v1.wire_size(), base.wire_size());
        let legacy_bytes = base.encode();
        let v1_bytes = v1.encode();
        assert_eq!(legacy_bytes[30], 0);
        assert_eq!(v1_bytes[30], CHAIN_VERSION);
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

        // Version-0 frame claiming stages.
        let mut bad = good.clone();
        bad[30] = 0;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "v0 with stages"
        );

        // Unknown future version.
        let mut bad = good.clone();
        bad[30] = 9;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "unknown version"
        );

        // Stage count past the wire ceiling.
        let mut bad = good.clone();
        bad[31] = CHAIN_MAX_STAGES as u8 + 1;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "too many stages"
        );

        // Invalid arg-map byte inside the stage record.
        let mut bad = good.clone();
        bad[FRAME_HEADER_SIZE + 4] = 0x7F;
        match Frame::decode(&bad) {
            Err(AmError::BadFrame(msg)) => {
                assert!(msg.contains("arg-map"), "{msg}")
            }
            other => panic!("bad arg-map byte not caught: {other:?}"),
        }

        // Stage count that disagrees with frame_len.
        let mut bad = good.clone();
        bad[31] = 2;
        assert!(
            matches!(Frame::decode(&bad), Err(AmError::BadFrame(_))),
            "length mismatch"
        );
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
        assert_eq!(wire[32], BATCH_VERSION);
        assert_eq!(wire[33], 4);
        assert_eq!(wire[FRAME_HEADER_SIZE - 1], HDR_MAG);
        assert_eq!(wire[wire.len() - 1], SIG_MAG);
        // The outer header satisfies the mailbox readiness protocol: length at
        // bytes 8-11 covers the whole container.
        let total = u32::from_le_bytes(wire[8..12].try_into().unwrap()) as usize;
        assert_eq!(total, wire.len());
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
        match FrameView::parse(&batch) {
            Err(AmError::BadFrame(msg)) => {
                assert!(msg.contains("batch container"), "{msg}")
            }
            other => panic!("container accepted as a frame: {other:?}"),
        }
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

        let mut bad = good.clone();
        bad[32] = BATCH_VERSION + 1;
        assert!(matches!(BatchView::parse(&bad), Err(AmError::BadFrame(_))));

        let mut bad = good.clone();
        bad[33] = 0; // zero frames
        assert!(matches!(BatchView::parse(&bad), Err(AmError::BadFrame(_))));

        let mut bad = good.clone();
        bad[33] = 3; // count disagrees with the body
        assert!(matches!(BatchView::parse(&bad), Err(AmError::BadFrame(_))));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] = 0; // signal magic
        assert!(matches!(BatchView::parse(&bad), Err(AmError::BadFrame(_))));

        let mut bad = good.clone();
        bad[4] ^= 0xFF; // outer sn no longer matches trailer echo / first inner
        assert!(matches!(BatchView::parse(&bad), Err(AmError::BadFrame(_))));
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
        assert_eq!(b.first_sn(), Some(1));
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
