//! The receiver's half of the one-sided flow-control path (§VI-A2): credit
//! returns as real fabric traffic.
//!
//! [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet)
//! registers one [`BankFlags`] credit table and one [`NackFlags`] table per
//! lane in the *sender's* address space and builds the receiver's one
//! [`CreditReturn`] per shard straight from their two descriptors: a
//! reverse-direction endpoint (receiver → sender) plus the cumulative per-slot
//! drain counts that generate the token sequence.
//!
//! Every retired frame (drained, dispatch-rejected or quarantined) produces
//! exactly one credit *token*, but tokens no longer travel one put at a time:
//! the shard **accumulates** them in a per-row pending set and **flushes**
//! one multi-byte [`Endpoint::put`] covering the dirty span of each row. The
//! flush put is charged like any other fabric traffic — the drain core pays
//! the posting cost in virtual time, the put contends for the receiver's
//! transmit NIC, and its DMA delivery installs the bytes on the sender host,
//! posting invalidations to the sender cores' inboxes exactly like inbound
//! frames do on the receiver. Batching moves the per-put fixed cost off the
//! drain hot path: N retirements cost one `put(span)` instead of N
//! `put(1 byte)`s.
//!
//! # The flush state machine
//!
//! A slot is *pending* between [`CreditReturn::accumulate`] (its frame
//! retired, its next token minted) and the flush that publishes the token.
//! There are three flush triggers. Two are `accumulate`'s own — it evaluates
//! them on every token, against state only this module holds, and hands back
//! whatever it posted — and the third is the host's:
//!
//! 1. **Row-fill**: the slot's whole row is pending. A full row is the widest
//!    span one put can cover, so waiting longer buys nothing.
//! 2. **Headroom watermark**: the tokens a shard withholds are credits the
//!    sender cannot spend; when the withheld total leaves the sender within a
//!    watermark of exhausting its completion window (handed over when the
//!    credit path is installed), the backlog is flushed at once so batching
//!    never becomes a light-load latency stall. The watermark follows the
//!    observed retire rate ([`adaptive_watermark_for`]); a window so narrow
//!    that it fires on every token is the one-put-per-credit behaviour.
//! 3. **Idle / abort** ([`CreditReturn::flush`], unconditional): the host
//!    calls it at the end of every burst scan — and on every error exit from
//!    one — so a token can never be stranded by an empty bank or a failed
//!    dispatch.
//!
//! `accumulate` additionally forces a flush if the slot is *already* pending:
//! two unflushed tokens on one slot would collapse into the newest byte and
//! lose a credit, so the backlog is posted first. (A burst scan visits each
//! slot once and ends in a flush, so the guard is unreachable in the normal
//! schedules — it makes correctness unconditional rather than scheduling-
//! dependent.)
//!
//! # Span encoding and ordering
//!
//! A flushed row span runs from its lowest to its highest dirty slot and
//! always **ends on a dirty slot's token**, because `put` publishes its final
//! byte with release ordering. Gap slots inside the span are *rewritten
//! byte-identically* (the slot's current token, or the fresh 0 for a
//! never-drained slot): every token byte is single-writer and the sender's
//! [`BankFlags::try_acquire`] compares values, so an idempotent rewrite can
//! never mint a credit — the same argument that makes replay re-publication
//! ([`CreditReturn::put_credit_replay`]) safe. Interior bytes land before the
//! final byte's release publication (fabric delivery is one ordered unit,
//! the same contract the multi-byte frame put already relies on), and a poll
//! observing an interior token races only with its own slot's refill, which
//! the value-compare protocol tolerates by construction.
//!
//! # Why the flush counters live outside [`RuntimeStats`](crate::RuntimeStats)
//!
//! The per-slot drain counts, the pending set and the lifetime flush totals
//! all live in [`CreditReturn`], not in the resettable stats: a stats reset
//! between benchmark phases must not restart the token sequence (a repeated
//! token is an invisible credit) and must not orphan pending tokens (a
//! zeroed pending set is a lost credit). The resettable
//! `credit_flushes`/`credit_flush_bytes`/`credit_flush_max_span` counters in
//! `RuntimeStats` are the *observability* view, folded in per flush by the
//! host; the engine's own state is deliberately immune to them.

use twochains_fabric::{Endpoint, RegionDescriptor};
use twochains_memsim::SimTime;

use crate::bank::{BankFlags, NackFlags, ShardMask};
use crate::error::{AmError, AmResult};

/// One shard's credit-return context: the reverse endpoint, the target table,
/// and the per-slot drain counters that generate the token sequence.
///
/// Owned by the shard (`ReceiverShard`), so drain threads return credits with
/// no shared state: the endpoint serializes on the NIC models exactly like the
/// forward path does. The drain counters deliberately live *outside*
/// [`RuntimeStats`]: a stats reset between benchmark phases must not restart
/// the token sequence, or a token could repeat its predecessor and the sender
/// would never observe the credit.
#[derive(Debug)]
pub(crate) struct CreditReturn {
    endpoint: Endpoint,
    descriptor: RegionDescriptor,
    /// The stream this table belongs to — kept so a misrouted bank is a loud
    /// error instead of a silent credit into the wrong row (which would both
    /// grant a phantom credit and permanently withhold a real one).
    stream: usize,
    streams: usize,
    per_bank: usize,
    /// Cumulative drains per owned slot, indexed `row_of(bank) * per_bank +
    /// slot` ([`ShardMask::row_of`]).
    drains: Vec<u64>,
    /// Slots whose newest token is minted but not yet flushed (same indexing
    /// as `drains`). Outside [`RuntimeStats`](crate::RuntimeStats) resets for
    /// the same reason `drains` is: zeroing it mid-phase would lose credits.
    pending: Vec<bool>,
    /// How many slots are pending across all rows — the withheld-credit total
    /// the watermark trigger compares against the completion window.
    pending_total: usize,
    /// The paired sender lane's completion window: the credits it can have
    /// outstanding, so the most this shard may withhold.
    window: usize,
    /// Lifetime flush totals (flush puts, wire bytes, largest span), outside
    /// the resettable stats — see the module docs. The per-flush deltas the
    /// host folds into `RuntimeStats` come from [`FlushOutcome`].
    lifetime_flushes: u64,
    lifetime_flush_bytes: u64,
    lifetime_flush_max_span: u64,
    /// EWMA of the virtual-time interval between token mints, in nanoseconds
    /// (0.0 until the second mint). In the closed fill/drain loop the retire
    /// interval *is* the observable proxy for the sender's credit-acquire
    /// latency: the sender reacquires a slot one refill after it retires, so
    /// the rate tokens are minted here is the rate credits turn around there.
    /// Drives the runtime-adaptive headroom watermark.
    ewma_retire_gap_ns: f64,
    /// Virtual time of the most recent mint, the EWMA's sample anchor.
    last_mint: Option<SimTime>,
    /// The stream's NACK table state. Like `drains`, the counters live
    /// outside [`RuntimeStats`](crate::RuntimeStats) so a stats reset cannot
    /// repeat a token.
    nack: NackReturn,
}

/// NACK-table state for one stream (receiver side).
#[derive(Debug)]
struct NackReturn {
    descriptor: RegionDescriptor,
    /// Per-row report counters driving the row token sequence.
    seqs: Vec<u64>,
    /// Last record published per row, cached so a coalesced span put can
    /// rewrite interior rows byte-identically (a value-compared token that
    /// does not change cannot re-fire a report).
    records: Vec<[u8; 5]>,
}

/// Timing/traffic outcome of one credit-path put (replay re-publication or a
/// coalesced NACK span), for the caller's stats.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditPutOutcome {
    /// When the drain core is free again (posting overhead paid).
    pub sender_free: SimTime,
    /// Payload bytes moved on the wire.
    pub bytes: usize,
}

/// Traffic one [`CreditReturn::flush`] posted: the per-flush delta the host
/// folds into the resettable `RuntimeStats` counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlushOutcome {
    /// When the drain core is free again (every span put's posting paid).
    pub sender_free: SimTime,
    /// Wire bytes across all span puts in this flush (gap-fill included).
    pub bytes: u64,
    /// Span puts posted (one per dirty row).
    pub puts: u64,
    /// Largest single span in bytes.
    pub max_span: u64,
}

impl CreditReturn {
    /// Build the return path for the shard paired with `stream` of `streams`:
    /// one row of `per_bank` credit slots per bank of `banks_total` the
    /// stream owns (`bank % streams`), aimed at `tables`, the descriptors of
    /// the lane's credit and NACK tables in that order; `window` is the
    /// lane's completion window, which the watermark trigger keeps headroom
    /// in.
    pub(crate) fn new(
        endpoint: Endpoint,
        stream: usize,
        streams: usize,
        banks_total: usize,
        per_bank: usize,
        (descriptor, nack): (RegionDescriptor, RegionDescriptor),
        window: usize,
    ) -> Self {
        let rows = ShardMask::rows_owned(stream, streams, banks_total);
        CreditReturn {
            endpoint,
            descriptor,
            stream,
            streams,
            per_bank,
            drains: vec![0; rows * per_bank],
            pending: vec![false; rows * per_bank],
            pending_total: 0,
            window,
            lifetime_flushes: 0,
            lifetime_flush_bytes: 0,
            lifetime_flush_max_span: 0,
            ewma_retire_gap_ns: 0.0,
            last_mint: None,
            nack: NackReturn {
                descriptor: nack,
                seqs: vec![0; rows],
                records: vec![[0u8; 5]; rows],
            },
        }
    }

    /// The descriptor of the sender-side table this return path targets —
    /// the identity `drive_pipeline` checks to make sure the host's installed
    /// credit path actually points at the fleet being driven.
    pub(crate) fn descriptor(&self) -> RegionDescriptor {
        self.descriptor
    }

    /// How many mailboxes the stream owns (rows × `per_bank`).
    pub(crate) fn slots(&self) -> usize {
        self.drains.len()
    }

    /// Lifetime flush totals `(flush puts, wire bytes, largest span)` —
    /// cumulative since construction, immune to stats resets (module docs).
    pub(crate) fn lifetime_flush_totals(&self) -> (u64, u64, u64) {
        (
            self.lifetime_flushes,
            self.lifetime_flush_bytes,
            self.lifetime_flush_max_span,
        )
    }

    /// Mint the next credit token for (`bank`, `slot`) at drain-virtual time
    /// `now`, mark the slot pending, and flush if a trigger says so (module
    /// docs): the token otherwise travels on a later flush. The caller must
    /// only invoke this *after* the slot's mailbox has been cleared — the
    /// flush put's release publication is what lets the sender's acquire load
    /// order its refill behind the clear.
    ///
    /// Returns the flushes posted, in posting order, for the caller to charge:
    /// first the one forced because the slot already held an unflushed token
    /// (two pending tokens on one byte would collapse into the newest and
    /// lose a credit, so the backlog goes first), then the one row-fill or
    /// the watermark triggered. The drain core posts them back to back, so
    /// the second starts where the first left it free.
    pub(crate) fn accumulate(
        &mut self,
        now: SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<[Option<FlushOutcome>; 2]> {
        if ShardMask::owner_of(bank, self.streams) != self.stream {
            return Err(AmError::InvalidConfig(format!(
                "bank {bank} is not owned by stream {} of {}: crediting it here \
                 would write another slot's token",
                self.stream, self.streams
            )));
        }
        if slot >= self.per_bank {
            return Err(AmError::InvalidConfig(format!(
                "no credit slot {slot} in a {}-slot bank row",
                self.per_bank
            )));
        }
        let row = ShardMask::row_of(bank, self.streams);
        let idx = row * self.per_bank + slot;
        if idx >= self.drains.len() {
            return Err(AmError::InvalidConfig(format!(
                "no credit row for mailbox ({bank}, {slot})"
            )));
        }
        let forced = if self.pending[idx] {
            self.flush(now)?
        } else {
            None
        };
        if let Some(prev) = self.last_mint {
            let gap = now.as_ns() - prev.as_ns();
            if gap > 0.0 {
                self.ewma_retire_gap_ns = if self.ewma_retire_gap_ns == 0.0 {
                    gap
                } else {
                    0.875 * self.ewma_retire_gap_ns + 0.125 * gap
                };
            }
        }
        self.last_mint = Some(now);
        self.drains[idx] += 1;
        self.pending[idx] = true;
        self.pending_total += 1;
        let base = row * self.per_bank;
        let row_full = self.pending[base..base + self.per_bank].iter().all(|&p| p);
        let watermark =
            adaptive_watermark_for(self.ewma_retire_gap_ns, self.window, WATERMARK_FLOOR);
        let triggered = if row_full || self.pending_total >= self.window.saturating_sub(watermark) {
            self.flush(forced.map_or(now, |f| f.sender_free))?
        } else {
            None
        };
        Ok([forced, triggered])
    }

    /// Publish every pending token: one multi-byte put per dirty row,
    /// covering the span from its lowest to its highest dirty slot (gap
    /// slots rewritten byte-identically — see the module docs). Returns
    /// `None` when nothing was pending. The row puts serialize on the drain
    /// core's posting path, so `sender_free` accumulates across rows exactly
    /// like back-to-back puts did before coalescing.
    pub(crate) fn flush(&mut self, now: SimTime) -> AmResult<Option<FlushOutcome>> {
        if self.pending_total == 0 {
            return Ok(None);
        }
        let rows = self.drains.len() / self.per_bank;
        let mut clock = now;
        let mut bytes = 0u64;
        let mut puts = 0u64;
        let mut max_span = 0u64;
        let mut buf: Vec<u8> = Vec::with_capacity(self.per_bank);
        for row in 0..rows {
            let base = row * self.per_bank;
            let Some(first) = (0..self.per_bank).find(|&s| self.pending[base + s]) else {
                continue;
            };
            let last = (0..self.per_bank)
                .rfind(|&s| self.pending[base + s])
                .expect("a row with a first dirty slot has a last one");
            buf.clear();
            for slot in first..=last {
                let idx = base + slot;
                let token = if self.pending[idx] {
                    self.pending[idx] = false;
                    self.pending_total -= 1;
                    BankFlags::token_for(self.drains[idx] - 1)
                } else if self.drains[idx] > 0 {
                    // Gap-fill: the slot's current token, byte-identical.
                    BankFlags::token_for(self.drains[idx] - 1)
                } else {
                    // Never drained: 0 is the fresh value the table holds.
                    0
                };
                buf.push(token);
            }
            // The span ends on `last`, a dirty slot, so the put's release
            // byte is a freshly minted token.
            let offset = BankFlags::offset_of(row, first, self.per_bank);
            let out = self.endpoint.put(clock, &buf, &self.descriptor, offset)?;
            clock = out.sender_free;
            bytes += out.bytes as u64;
            puts += 1;
            max_span = max_span.max(buf.len() as u64);
        }
        debug_assert_eq!(self.pending_total, 0, "flush must drain every row");
        self.lifetime_flushes += puts;
        self.lifetime_flush_bytes += bytes;
        self.lifetime_flush_max_span = self.lifetime_flush_max_span.max(max_span);
        Ok(Some(FlushOutcome {
            sender_free: clock,
            bytes,
            puts,
            max_span,
        }))
    }

    /// Idempotently re-put the *current* token for (`bank`, `slot`) after a
    /// suppressed replay: the duplicate frame's credit "is returned" by
    /// re-publishing the token its real retirement already wrote, without
    /// advancing the drain count. The sender's `try_acquire` compares tokens,
    /// so re-writing an unchanged byte can never mint an extra credit — which
    /// is exactly what keeps a duplicated frame from letting the lane clobber
    /// an undrained slot. A replay that races ahead of the slot's very first
    /// drain has no token to re-publish and is skipped (0 bytes). If the
    /// slot's newest token is still pending, this publishes it early — the
    /// credit is genuinely owed, and the later flush rewrites the same byte
    /// idempotently, so the retirement still yields exactly one observable
    /// token.
    pub(crate) fn put_credit_replay(
        &mut self,
        now: SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<CreditPutOutcome> {
        if ShardMask::owner_of(bank, self.streams) != self.stream {
            return Err(AmError::InvalidConfig(format!(
                "bank {bank} is not owned by stream {} of {}",
                self.stream, self.streams
            )));
        }
        let row = ShardMask::row_of(bank, self.streams);
        let idx = row * self.per_bank + slot;
        if slot >= self.per_bank || idx >= self.drains.len() {
            return Err(AmError::InvalidConfig(format!(
                "no credit row for mailbox ({bank}, {slot})"
            )));
        }
        if self.drains[idx] == 0 {
            return Ok(CreditPutOutcome {
                sender_free: now,
                bytes: 0,
            });
        }
        let token = BankFlags::token_for(self.drains[idx] - 1);
        let offset = BankFlags::offset_of(row, slot, self.per_bank);
        let out = self.endpoint.put(now, &[token], &self.descriptor, offset)?;
        Ok(CreditPutOutcome {
            sender_free: out.sender_free,
            bytes: out.bytes,
        })
    }

    /// Post every due sequence-gap report of one scan into the sender's NACK
    /// table as **one** coalesced put: each missing sn's 5-byte record
    /// (`missing_sn` LE + the row's next token) is staged into its row
    /// (`missing_sn % rows` — the receiver cannot know which bank a *lost*
    /// frame was destined for, and the sender locates the frame by sn in its
    /// wire cache anyway), then a single span put covers the lowest through
    /// the highest staged row, ending on the highest row's token byte so the
    /// release publication covers the whole span. Interior rows not staged
    /// this scan are rewritten byte-identically from the record cache —
    /// value-compared tokens cannot re-fire a report. Two sns colliding on
    /// one row in the same scan keep only the newest record, exactly the
    /// overwrite behaviour the per-gap puts had (the sender's watchdog
    /// backstops any report lost this way). No-op on an empty scan.
    pub(crate) fn put_nacks(
        &mut self,
        now: SimTime,
        missing: &[u32],
    ) -> AmResult<CreditPutOutcome> {
        let nack = &mut self.nack;
        if missing.is_empty() {
            return Ok(CreditPutOutcome {
                sender_free: now,
                bytes: 0,
            });
        }
        let rows = nack.seqs.len();
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &sn in missing {
            let row = sn as usize % rows;
            nack.records[row] = NackFlags::record_for(sn, BankFlags::token_for(nack.seqs[row]));
            nack.seqs[row] += 1;
            lo = lo.min(row);
            hi = hi.max(row);
        }
        // Span from lo's record start to hi's token byte (offset +4 within
        // the row): the final byte is the newest token, release-published.
        let base = NackFlags::row_offset(lo);
        let mut buf = vec![0u8; NackFlags::row_offset(hi) + 5 - base];
        for row in lo..=hi {
            let off = NackFlags::row_offset(row) - base;
            buf[off..off + 5].copy_from_slice(&nack.records[row]);
        }
        let out = self.endpoint.put(now, &buf, &nack.descriptor, base)?;
        Ok(CreditPutOutcome {
            sender_free: out.sender_free,
            bytes: out.bytes,
        })
    }
}

/// The headroom watermark a shard starts from, until its retire-rate EWMA
/// has a first sample to size it by.
const WATERMARK_FLOOR: usize = 4;

/// How far into the future (virtual nanoseconds) a pending-but-unpublished
/// credit is allowed to age before the headroom math forces a flush. At the
/// observed retire rate, `HORIZON / gap` tokens mint inside this horizon;
/// the watermark keeps the window from shrinking by more than that before
/// the sender sees fresh credits.
const ADAPTIVE_WATERMARK_HORIZON_NS: f64 = 32_768.0;

/// The runtime-adaptive flush watermark: how much completion-window headroom
/// to keep before flushing, from the EWMA of the retire interval — the
/// receiver-side proxy for the sender's observed acquire latency (the faster
/// tokens mint, the hotter the sender is spinning on credits, the earlier
/// they should be published). With no EWMA sample yet (`ewma_gap_ns == 0`),
/// returns `fallback`. Otherwise: tokens expected to mint within the
/// horizon bound how many we may hold back (`allowed`, clamped to
/// `1..=window-1`), and the watermark is the rest of the window — fast
/// retiring (small gap) allows a large backlog and a low watermark; slow
/// retiring pushes the watermark up so the starved sender is refilled early.
pub(crate) fn adaptive_watermark_for(ewma_gap_ns: f64, window: usize, fallback: usize) -> usize {
    if ewma_gap_ns <= 0.0 || window == 0 {
        return fallback;
    }
    let allowed = (ADAPTIVE_WATERMARK_HORIZON_NS / ewma_gap_ns) as usize;
    let allowed = allowed.clamp(1, window.saturating_sub(1).max(1));
    (window - allowed.min(window)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twochains_fabric::{AccessFlags, SimFabric};
    use twochains_memsim::TestbedConfig;

    /// One stream's return path over a simulated fabric — `rows` banks of
    /// `per_bank` slots, a lane window of `window` — and the sender-side
    /// credit table its puts land in (a NACK table is registered beside it).
    fn rig(rows: usize, per_bank: usize, window: usize) -> (CreditReturn, BankFlags) {
        let (fabric, sender, receiver) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let sender_host = fabric.host(sender).unwrap();
        let region = |len| sender_host.register(len, AccessFlags::rw()).unwrap();
        let flags =
            BankFlags::new(region(BankFlags::table_len(rows, per_bank)), rows, per_bank).unwrap();
        let nacks = NackFlags::new(region(NackFlags::table_len(rows)), rows).unwrap();
        let endpoint = fabric.endpoint(receiver, sender).unwrap();
        let tables = (flags.descriptor(), nacks.descriptor());
        let credit = CreditReturn::new(endpoint, 0, 1, rows, per_bank, tables, window);
        (credit, flags)
    }

    #[test]
    fn a_part_filled_row_below_the_watermark_is_withheld() {
        let (mut credit, flags) = rig(2, 4, 16);
        for (bank, slot) in [(0, 0), (0, 1), (0, 3), (1, 2)] {
            let flushed = credit.accumulate(SimTime::ZERO, bank, slot).unwrap();
            assert!(flushed.iter().all(Option::is_none), "({bank}, {slot})");
            assert!(!flags.credit_pending(bank, slot).unwrap());
        }
        let idle = credit.flush(SimTime::ZERO).unwrap().unwrap();
        assert_eq!((idle.puts, idle.bytes, idle.max_span), (2, 5, 4));
        assert!(flags.credit_pending(0, 3).unwrap() && flags.credit_pending(1, 2).unwrap());
        assert!(
            !flags.credit_pending(0, 2).unwrap(),
            "a gap slot is rewritten, not credited"
        );
    }

    #[test]
    fn row_fill_fires_on_the_slot_that_completes_the_row_and_flushes_its_span() {
        let (mut credit, flags) = rig(2, 4, 16);
        for slot in [2, 0, 3] {
            let flushed = credit.accumulate(SimTime::ZERO, 1, slot).unwrap();
            assert!(flushed.iter().all(Option::is_none), "slot {slot}");
        }
        let [forced, filled] = credit.accumulate(SimTime::ZERO, 1, 1).unwrap();
        assert!(forced.is_none());
        let filled = filled.expect("the fourth of four slots fills the row");
        assert_eq!((filled.puts, filled.bytes, filled.max_span), (1, 4, 4));
        for slot in 0..4 {
            assert!(flags.credit_pending(1, slot).unwrap());
            assert!(!flags.credit_pending(0, slot).unwrap());
        }
        assert!(credit.flush(SimTime::ZERO).unwrap().is_none());
    }

    /// Tokens minted `gap_ns` apart into one wide row (so row-fill stays out
    /// of it): how many are pending when the watermark flushes them.
    fn watermark_fires_at(gap_ns: u64, window: usize) -> usize {
        let (mut credit, _flags) = rig(1, 64, window);
        for slot in 0..64 {
            let now = SimTime::from_ns(gap_ns * slot as u64);
            let [forced, fired] = credit.accumulate(now, 0, slot).unwrap();
            assert!(forced.is_none());
            if let Some(fired) = fired {
                assert_eq!(fired.bytes as usize, slot + 1, "the whole backlog goes");
                return slot + 1;
            }
        }
        panic!("the watermark never fired in a window of {window}");
    }

    #[test]
    fn the_watermark_fires_at_window_minus_watermark_pending_tokens() {
        // (retire gap in ns, window, pending tokens at the flush). Gap 0 never
        // gives the EWMA a sample, so the floor of 4 stands; after a sample
        // the horizon allows 32 768 / gap withheld tokens, within 1..window.
        for (gap_ns, window, pending) in [
            (0, 10, 6),
            (0, 32, 28),
            (0, 2, 1),
            (8_192, 10, 4),
            (8_192, 32, 4),
            (100, 10, 9),
            (100_000, 10, 2),
        ] {
            assert_eq!(
                watermark_fires_at(gap_ns, window),
                pending,
                "gap {gap_ns} ns, window {window}"
            );
        }
    }

    #[test]
    fn a_second_token_on_a_pending_slot_posts_the_backlog_first() {
        let (mut credit, mut flags) = rig(1, 16, 10);
        for slot in [0, 1] {
            let flushed = credit.accumulate(SimTime::ZERO, 0, slot).unwrap();
            assert!(flushed.iter().all(Option::is_none));
        }
        // Slot 0 retires again 100 us later with its first token unflushed:
        // the backlog goes out, and the slow retire rate the gap shows puts
        // the watermark at one withheld token, so the new one follows it.
        let now = SimTime::from_ns(100_000);
        let [forced, fired] = credit.accumulate(now, 0, 0).unwrap();
        let (forced, fired) = (forced.unwrap(), fired.unwrap());
        assert_eq!((forced.puts, forced.bytes), (1, 2));
        assert_eq!((fired.puts, fired.bytes), (1, 1));
        // Posting order: the drain core is free of the first put before it
        // posts the second, each paying the same posting cost.
        assert_eq!(
            fired.sender_free - forced.sender_free,
            forced.sender_free - now
        );
        // The sender reads slot 0's newest token and slot 1's first; both of
        // slot 0's were published, each by its own put.
        assert!(flags.try_acquire(0, 0).unwrap() && flags.try_acquire(0, 1).unwrap());
        assert!(!flags.try_acquire(0, 0).unwrap());
        assert_eq!(credit.lifetime_flush_totals(), (2, 3, 2));
    }

    #[test]
    fn adaptive_watermark_tracks_the_retire_rate() {
        // No sample yet: the fallback stands.
        assert_eq!(adaptive_watermark_for(0.0, 64, 5), 5);
        // Fast retiring (small gap): many tokens mint inside the horizon,
        // so the backlog may grow and the watermark drops to the floor.
        assert_eq!(adaptive_watermark_for(100.0, 64, 5), 1);
        // Slow retiring (gap beyond the horizon): at most one token may be
        // held back, so the watermark covers nearly the whole window.
        assert_eq!(adaptive_watermark_for(100_000.0, 64, 5), 63);
        // Mid-rate: horizon/gap = 4 tokens allowed, watermark = 64 - 4.
        assert_eq!(adaptive_watermark_for(8_192.0, 64, 5), 60);
        // Degenerate windows never underflow and never return zero.
        assert_eq!(adaptive_watermark_for(100.0, 1, 5), 1);
        assert_eq!(adaptive_watermark_for(100.0, 0, 5), 5);
    }
}
