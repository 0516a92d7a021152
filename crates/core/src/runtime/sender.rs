//! The initiator-side runtime: frame packing, template caching and one-sided puts.
//!
//! A [`TwoChainsSender`] has one way to send: [`TwoChainsSender::send_spec`]
//! encodes a [`MessageSpec`]'s frame (patching in the GOT image the receiver
//! exported during setup) and pushes it with one one-sided put. It has one
//! encoder, [`TwoChainsSender::encode_next`], which the fleet's lanes and any
//! caller that needs wire bytes without a put go through too. Its
//! steady-state fast path mirrors the receiver's caches: a per-element frame
//! template (pre-patched GOT + encoded code as `Arc<[u8]>`) and one reusable
//! wire-encode buffer make a warm send a pure memcpy.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use twochains_fabric::Endpoint;
use twochains_jamvm::GotImage;
use twochains_linker::{ElementId, Package};
use twochains_memsim::SimTime;

use super::spec::MessageSpec;
use super::AmSendOutcome;
use crate::builtin::BuiltinJam;
use crate::config::InvocationMode;
use crate::error::{AmError, AmResult};
use crate::frame::{encode_wire_into, BATCH_OVERHEAD, BATCH_PREFIX_SIZE};
use crate::mailbox::MailboxTarget;
use crate::stats::RuntimeStats;

/// Fixed packing cost per frame (the message packing routines of §III-A).
const PACK_FIXED: SimTime = SimTime::from_ns(35);
/// Per-byte packing cost, in nanoseconds.
const PACK_NS_PER_BYTE: f64 = 0.002;

/// A sender-side cached frame template for one element: the receiver-patched GOT
/// image and the encoded code, captured once and memcpy'd into every later frame.
#[derive(Debug, Clone)]
struct FrameTemplate {
    got: Arc<[u8]>,
    code: Arc<[u8]>,
}

/// The sender-side runtime object.
pub struct TwoChainsSender {
    endpoint: Endpoint,
    package: Package,
    /// GOT images exported by the receiver, keyed by element id.
    remote_gots: HashMap<u32, Arc<[u8]>>,
    /// Per-element frame templates (pre-patched GOT + encoded code).
    templates: HashMap<u32, FrameTemplate>,
    /// Reusable wire-encode buffer; steady-state sends do not allocate.
    encode_buf: Vec<u8>,
    sn: u32,
    stats: RuntimeStats,
}

impl std::fmt::Debug for TwoChainsSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoChainsSender")
            .field("package", &self.package.name())
            .field("sn", &self.sn)
            .field("templates", &self.templates.len())
            .finish()
    }
}

impl TwoChainsSender {
    /// Create a sender over an existing endpoint, with the package it will inject from.
    pub fn new(endpoint: Endpoint, package: Package) -> Self {
        TwoChainsSender {
            endpoint,
            package,
            remote_gots: HashMap::new(),
            templates: HashMap::new(),
            encode_buf: Vec::new(),
            sn: 0,
            stats: RuntimeStats::new(),
        }
    }

    /// Record the GOT image the receiver exported for `elem` (out-of-band exchange
    /// during setup). Replacing an element's GOT drops its frame template; the next
    /// send re-patches once and re-caches.
    pub fn set_remote_got(&mut self, elem: ElementId, got: &GotImage) {
        self.remote_gots.insert(elem.0, got.to_bytes().into());
        self.templates.remove(&elem.0);
    }

    /// Sender statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The underlying endpoint (for flushes and resets between benchmark phases).
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    /// The frame template for `elem`, building (and counting) it on first use.
    /// One hash lookup either way: a hit returns the occupied entry directly, a
    /// miss fills the vacant slot it already holds.
    fn template(&mut self, elem: ElementId) -> AmResult<&FrameTemplate> {
        match self.templates.entry(elem.0) {
            Entry::Occupied(entry) => {
                self.stats.template_hits += 1;
                Ok(entry.into_mut())
            }
            Entry::Vacant(slot) => {
                self.stats.template_misses += 1;
                let jam = self.package.jam(elem)?;
                let got = self.remote_gots.get(&elem.0).cloned().ok_or_else(|| {
                    AmError::Link(format!("no remote GOT for element {}", elem.0))
                })?;
                let code: Arc<[u8]> = jam.text.clone().into();
                Ok(slot.insert(FrameTemplate { got, code }))
            }
        }
    }

    /// The allocation-free send path for a [`MessageSpec`]: encode the spec's
    /// frame (single-element or chained) directly from the template cache and
    /// the spec's borrowed sections into the reusable scratch buffer, then
    /// put. A bare sender has no transmit window — the
    /// [`SenderFleet`](super::SenderFleet)'s lanes each keep one.
    ///
    /// The spec is borrowed, not consumed: build it once, send it every
    /// iteration — steady-state sends perform zero heap allocations.
    pub fn send_spec(
        &mut self,
        now: SimTime,
        spec: &MessageSpec,
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        // The buffer (and its capacity) comes back whether the send succeeds
        // or not.
        let mut buf = std::mem::take(&mut self.encode_buf);
        let sent = self
            .encode_next(spec, &mut buf)
            .and_then(|_| self.put_frame(now, &buf, target));
        self.encode_buf = buf;
        sent
    }

    /// Encode the next message for `spec` into `buf` (cleared first) without
    /// sending it — the one encoder every frame goes through: the sender's own
    /// sends, the fleet's lanes, and callers that only want the wire bytes.
    /// Validates the sections (against the wire fields, then together with
    /// the element's template), builds the chain descriptor and only then
    /// stamps the next sequence number, so a refused spec burns none. Returns
    /// the stamped number.
    pub fn encode_next(&mut self, spec: &MessageSpec, buf: &mut Vec<u8>) -> AmResult<u32> {
        let (elem, args, usr) = (spec.elem(), spec.args_bytes(), spec.usr_bytes());
        crate::frame::validate_section_lens([&[], &[], args, usr])?;
        let chain = spec.chain_descriptor()?;
        let sn = self.sn.wrapping_add(1);
        let (injected, sections) = match spec.invocation() {
            InvocationMode::Local => (false, [&[][..], &[], args, usr]),
            InvocationMode::Injected => {
                let tpl = self.template(elem)?;
                let sections = [&tpl.got[..], &tpl.code[..], args, usr];
                crate::frame::validate_section_lens(sections)?;
                (true, sections)
            }
        };
        encode_wire_into(sn, elem.0, injected, chain.as_ref(), sections, buf);
        self.sn = sn;
        Ok(sn)
    }

    /// The one place a data-path put is issued: capacity check, then one put
    /// `pack_time` after `now`. Touches no counter — the two callers below
    /// count differently.
    fn put(
        &mut self,
        now: SimTime,
        pack_time: SimTime,
        bytes: &[u8],
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        if bytes.len() > target.capacity {
            return Err(AmError::FrameTooLarge {
                needed: bytes.len(),
                capacity: target.capacity,
            });
        }
        let put = self
            .endpoint
            .put(now + pack_time, bytes, &target.region, target.offset)?;
        Ok(AmSendOutcome {
            pack_time,
            put,
            wire_bytes: bytes.len(),
        })
    }

    /// Post one encoded frame standalone, charged the §III-A packing cost of
    /// one message.
    pub(crate) fn put_frame(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        let pack_time = PACK_FIXED + SimTime::from_ns_f64(bytes.len() as f64 * PACK_NS_PER_BYTE);
        let sent = self.put(now, pack_time, bytes, target)?;
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(sent)
    }

    /// Post one multi-frame batch container (built by the fleet from frames
    /// encoded via [`TwoChainsSender::encode_next`]) with a single put into
    /// the carrier mailbox. The software packing cost stays per message
    /// (`frames` × fixed + container bytes × per-byte — marshalling every
    /// frame is real work the batch cannot skip); what the batch amortizes is
    /// the *posting*: one NIC doorbell, one tx-pipeline serialization, one
    /// transmit-window entry for the whole container. Counters: every inner
    /// frame lands in `messages_sent` exactly as a standalone send would, and
    /// the container shape is recorded in `batch_puts`/`batched_frames`.
    pub(crate) fn put_batch(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        frames: usize,
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        let pack_time = SimTime::from_ns_f64(
            PACK_FIXED.as_ns() * frames as f64 + bytes.len() as f64 * PACK_NS_PER_BYTE,
        );
        let sent = self.put(now, pack_time, bytes, target)?;
        // `bytes_sent` counts the *frame* bytes (what a per-frame schedule
        // would have counted), so the counter stays schedule-invariant — how
        // frames grouped into containers depends on credit arrival timing.
        // The container envelope (fixed header/trailer + one prefix per
        // frame) is recoverable from `batch_puts`/`batched_frames`.
        let envelope = BATCH_OVERHEAD + frames * BATCH_PREFIX_SIZE;
        self.stats.messages_sent += frames as u64;
        self.stats.bytes_sent += bytes.len().saturating_sub(envelope) as u64;
        self.stats.batch_puts += 1;
        self.stats.batched_frames += frames as u64;
        Ok(sent)
    }

    /// Element id helper for the builtin benchmark jams. A package without the
    /// jam yields [`AmError::UnknownElementName`] carrying the missing name —
    /// not a sentinel id the caller cannot act on.
    pub fn builtin_id(&self, jam: BuiltinJam) -> AmResult<ElementId> {
        let name = jam.element_name();
        self.package
            .id_of(name)
            .ok_or_else(|| AmError::UnknownElementName(name.to_string()))
    }

    /// Sender-side counters, mutably (the fleet's lanes account their
    /// flow-control events here so a host-wide `merge()` sees them).
    pub(crate) fn stats_mut(&mut self) -> &mut RuntimeStats {
        &mut self.stats
    }

    /// Re-put previously sent wire bytes (reliability-layer retransmit). The
    /// frame is byte-identical to the original — same sequence number, same
    /// trailer — so the receiver's replay filter can suppress it if the
    /// original did land. Deliberately *not* counted in `messages_sent` /
    /// `bytes_sent` (the message was already counted once; a lossy run's
    /// steady counters must stay equal to the lossless run's) and charged no
    /// pack cost (the bytes are already encoded): only `frames_retransmitted`
    /// and the put's own fabric time record the recovery.
    pub(crate) fn retransmit_frame(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        target: &MailboxTarget,
    ) -> AmResult<SimTime> {
        let put = self
            .endpoint
            .put(now, bytes, &target.region, target.offset)?;
        self.stats.frames_retransmitted += 1;
        Ok(put.sender_free)
    }
}
