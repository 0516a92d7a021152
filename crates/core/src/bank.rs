//! Mailbox banks and sender-side flow control (§VI-A2).
//!
//! For the injection-rate benchmark the receiver exposes M banks of N mailboxes. The
//! sender keeps one credit token per mailbox slot in its own registered memory
//! (`BankFlags`): it may refill a slot once the receiver has written that slot's
//! next token (with a one-sided put back to the sender, coalesced per row of
//! slots). This keeps flow control entirely outside the hot reactive-mailbox path,
//! unlike the UCX baseline whose per-message flow control Figs. 5–6 measure.

use std::sync::Arc;

use twochains_fabric::{MemoryRegion, RegionDescriptor};

use crate::error::{AmError, AmResult};
use crate::mailbox::ReactiveMailbox;

/// Which banks a receiver shard owns: bank `b` belongs to shard `shard` iff
/// `b % num_shards == shard`. This is the single definition of the deterministic
/// ownership map — the runtime's `receive`/`receive_burst`, the burst scan
/// and the bench drain driver all route through it, so no two shards ever
/// poll (let alone drain) the same mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardMask {
    /// The shard index (`< num_shards`).
    pub shard: usize,
    /// Total number of shards.
    pub num_shards: usize,
}

impl ShardMask {
    /// The mask selecting the banks shard `shard` of `num_shards` owns.
    pub fn new(shard: usize, num_shards: usize) -> Self {
        ShardMask {
            shard,
            num_shards: num_shards.max(1),
        }
    }

    /// The shard that owns `bank` under a `num_shards`-way split — the one
    /// formula every ownership check delegates to.
    pub(crate) fn owner_of(bank: usize, num_shards: usize) -> usize {
        bank % num_shards.max(1)
    }

    /// The row of `bank` in its owner's per-shard tables (credit tokens, NACK
    /// rows, replay filter): the owner sees every `num_shards`-th bank, so its
    /// `k`-th bank is row `k` — the inverse of [`ShardMask::owner_of`].
    pub(crate) fn row_of(bank: usize, num_shards: usize) -> usize {
        bank / num_shards.max(1)
    }

    /// How many of `banks` banks shard `shard` of `num_shards` owns — the
    /// number of rows its tables hold: one past the [`ShardMask::row_of`] of
    /// its last bank, none for a shard past the banks.
    pub(crate) fn rows_owned(shard: usize, num_shards: usize, banks: usize) -> usize {
        (0..banks)
            .filter(|&b| Self::owner_of(b, num_shards) == shard)
            .count()
    }

    /// Whether this mask owns `bank`.
    pub fn owns(&self, bank: usize) -> bool {
        Self::owner_of(bank, self.num_shards) == self.shard % self.num_shards
    }
}

/// The receiver-side bank structure: `banks × per_bank` mailboxes carved out of one
/// registered region.
#[derive(Debug, Clone)]
pub struct MailboxBank {
    mailboxes: Vec<ReactiveMailbox>,
    banks: usize,
    per_bank: usize,
}

impl MailboxBank {
    /// Carve `banks × per_bank` mailboxes of `capacity` bytes each out of `region`.
    pub fn new(
        region: Arc<MemoryRegion>,
        banks: usize,
        per_bank: usize,
        capacity: usize,
    ) -> AmResult<Self> {
        if banks == 0 || per_bank == 0 {
            return Err(AmError::InvalidConfig(
                "need at least one bank and one mailbox".into(),
            ));
        }
        // checked_mul: adversarial geometry must error instead of wrapping in release.
        let needed = banks
            .checked_mul(per_bank)
            .and_then(|n| n.checked_mul(capacity))
            .ok_or_else(|| {
                AmError::InvalidConfig(format!(
                    "bank geometry overflows: {banks} banks x {per_bank} mailboxes x {capacity} B"
                ))
            })?;
        if needed > region.len() {
            return Err(AmError::InvalidConfig(format!(
                "bank needs {needed} bytes but region has {}",
                region.len()
            )));
        }
        let mut mailboxes = Vec::with_capacity(banks * per_bank);
        for i in 0..banks * per_bank {
            mailboxes.push(ReactiveMailbox::new(
                Arc::clone(&region),
                i * capacity,
                capacity,
            )?);
        }
        Ok(MailboxBank {
            mailboxes,
            banks,
            per_bank,
        })
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Mailboxes per bank.
    pub fn per_bank(&self) -> usize {
        self.per_bank
    }

    /// Total number of mailboxes.
    pub fn total(&self) -> usize {
        self.mailboxes.len()
    }

    /// The mailbox at (`bank`, `slot`).
    pub fn mailbox(&self, bank: usize, slot: usize) -> AmResult<&ReactiveMailbox> {
        if bank >= self.banks || slot >= self.per_bank {
            return Err(AmError::InvalidConfig(format!(
                "no mailbox ({bank}, {slot})"
            )));
        }
        Ok(&self.mailboxes[bank * self.per_bank + slot])
    }

    /// Iterate over every mailbox with its (bank, slot) coordinates.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, &ReactiveMailbox)> {
        self.mailboxes
            .iter()
            .enumerate()
            .map(move |(i, m)| (i / self.per_bank, i % self.per_bank, m))
    }

    /// The burst scan — the receiver's one readiness scan: one poll pass over
    /// the banks `mask` owns, partitioning the slots into up to `max_frames`
    /// *ready* frames (`(bank, slot, frame_len)`) and quarantined *poisoned*
    /// slots. Readiness (and the frame length) comes from the variable-frame
    /// two-step protocol ([`ReactiveMailbox::poll_variable`]): the header magic
    /// is checked, the length read, and the signal byte confirmed; empty and
    /// half-written slots are left untouched. A poisoned slot is one whose
    /// header magic is set but whose declared length is out of range (the poll
    /// errors): it is never ready, so without quarantining it here a receiver
    /// would never reclaim it — a one-put denial of service per slot; its
    /// header magic is cleared (making the slot reusable) and it is reported as
    /// `(bank, slot, error)`. Each owned slot is polled exactly once per scan.
    #[allow(clippy::type_complexity)]
    pub(crate) fn scan_burst(
        &self,
        mask: ShardMask,
        max_frames: usize,
    ) -> (Vec<(usize, usize, usize)>, Vec<(usize, usize, AmError)>) {
        let mut ready = Vec::new();
        let mut poisoned = Vec::new();
        for (bank, slot, mailbox) in self.iter() {
            if !mask.owns(bank) {
                continue;
            }
            match mailbox.poll_variable() {
                Ok(Some(frame_len)) => {
                    if ready.len() < max_frames {
                        ready.push((bank, slot, frame_len));
                    }
                }
                Ok(None) => {}
                Err(err) => {
                    // Clearing a header-sized frame zeroes exactly the header
                    // magic byte, the gate every readiness poll checks first.
                    let _ = mailbox.clear(crate::frame::FRAME_HEADER_SIZE);
                    poisoned.push((bank, slot, err));
                }
            }
        }
        (ready, poisoned)
    }
}

/// Sender-side credit table (§VI-A2): flow control carried as real fabric
/// traffic into the sender's own registered memory.
///
/// The table holds one *row per owned bank*, each row a word-aligned run of
/// `per_bank` one-byte credit **tokens** — one per slot. The receiver returns
/// credits by writing next tokens with one-sided puts aimed at this region —
/// coalesced into one put per dirty row span, ending on a freshly minted
/// token (they contend for the NIC and are charged in virtual time like any
/// other put); the sending lane observes each slot with an acquire load of
/// its own byte and never blocks on a host-side channel. The contiguous,
/// word-aligned row is what makes the span flush a single transfer: slots
/// `first..=last` of a row are the byte range
/// `offset_of(row, first) .. offset_of(row, last) + 1`.
///
/// # Word layout
///
/// Rows are padded to 8-byte words so every bank's tokens occupy whole words
/// ([`BankFlags::row_stride`]); the token of (`row`, `slot`) lives at byte
/// `row * row_stride(per_bank) + slot`. A fleet lane owning banks
/// `{s, s+S, s+2S, ...}` maps bank `b` to row `b / S`.
///
/// # Token protocol
///
/// The k-th drain of a slot (k counted from 0 on the receiver) writes token
/// `(k % 255) + 1`. Adjacent tokens always differ and `0` is never written, so
/// *"token differs from the last one I consumed"* means exactly *"a credit
/// arrived since I last consumed one"*. The sender never writes the region —
/// the protocol is single-writer per byte, so a credit put can neither tear
/// nor race, and a span put that rewrites an interior slot's *unchanged*
/// token byte-identically cannot mint a credit (tokens are value-compared,
/// not edge-detected). The put's release publication pairs with the sender's acquire
/// load: a sender that observes the token also observes everything the
/// receiver did before issuing the credit (in particular the slot's mailbox
/// clear), which is the ordering the refill relies on.
#[derive(Debug, Clone)]
pub(crate) struct BankFlags {
    region: Arc<MemoryRegion>,
    banks: usize,
    per_bank: usize,
    /// Token last consumed per (row, slot); a credit is pending iff the
    /// region's current token differs.
    last_seen: Vec<u8>,
}

impl BankFlags {
    /// Bytes one bank's token row occupies (slot tokens padded up to whole
    /// 8-byte words).
    pub(crate) fn row_stride(per_bank: usize) -> usize {
        per_bank.div_ceil(8) * 8
    }

    /// Bytes a whole table of `banks` rows occupies.
    pub(crate) fn table_len(banks: usize, per_bank: usize) -> usize {
        banks * Self::row_stride(per_bank)
    }

    /// The token the k-th drain of a slot writes (`drains` counted from 0).
    /// Never 0 (the fresh-region value), and adjacent drains always differ.
    pub(crate) fn token_for(drains: u64) -> u8 {
        (drains % 255) as u8 + 1
    }

    /// Byte offset of (`row`, `slot`) in a table of `per_bank`-slot rows — the
    /// single layout definition shared by the sender-side reader
    /// ([`BankFlags::slot_offset`]) and the receiver-side credit put, so the
    /// two ends of the wire can never disagree about where a token lives.
    pub(crate) fn offset_of(row: usize, slot: usize, per_bank: usize) -> usize {
        row * Self::row_stride(per_bank) + slot
    }

    /// Create a credit table of `banks` rows × `per_bank` slot tokens over
    /// `region` (registered in the *sender's* address space). A zero-credit
    /// window cannot flow-control anything — it silently deadlocks a lane — so
    /// degenerate geometry is rejected at construction.
    pub fn new(region: Arc<MemoryRegion>, banks: usize, per_bank: usize) -> AmResult<Self> {
        if banks == 0 || per_bank == 0 {
            return Err(AmError::InvalidConfig(format!(
                "credit table needs at least one bank and one slot per bank \
                 ({banks} banks x {per_bank} slots is a zero-credit window)"
            )));
        }
        let needed = banks
            .checked_mul(Self::row_stride(per_bank))
            .ok_or_else(|| {
                AmError::InvalidConfig(format!(
                    "credit table geometry overflows: {banks} banks x {per_bank} slots"
                ))
            })?;
        if region.len() < needed {
            return Err(AmError::InvalidConfig(format!(
                "credit table needs {needed} bytes but region has {}",
                region.len()
            )));
        }
        let mut flags = BankFlags {
            region,
            banks,
            per_bank,
            last_seen: vec![0; banks * per_bank],
        };
        // Adopt whatever tokens are already present (all zero for a fresh
        // region) so construction never reports phantom credits.
        flags.sync()?;
        Ok(flags)
    }

    /// Descriptor the receiver aims its credit puts at.
    pub fn descriptor(&self) -> RegionDescriptor {
        self.region.descriptor()
    }

    /// Byte offset of (`row`, `slot`)'s token within the region — the target
    /// of the receiver's credit put.
    pub(crate) fn slot_offset(&self, row: usize, slot: usize) -> AmResult<usize> {
        if row >= self.banks || slot >= self.per_bank {
            return Err(AmError::InvalidConfig(format!(
                "no credit slot ({row}, {slot}) in a {}x{} table",
                self.banks, self.per_bank
            )));
        }
        Ok(Self::offset_of(row, slot, self.per_bank))
    }

    /// Simulated virtual address of (`row`, `slot`)'s token byte (what a
    /// sender core's poll of the table reads, for cache-cost charging).
    pub(crate) fn slot_addr(&self, row: usize, slot: usize) -> AmResult<u64> {
        Ok(self.region.addr_of(self.slot_offset(row, slot)?))
    }

    /// Whether a credit is pending for (`row`, `slot`) without consuming it.
    pub fn credit_pending(&self, row: usize, slot: usize) -> AmResult<bool> {
        let offset = self.slot_offset(row, slot)?;
        Ok(self.region.load_acquire_u8(offset)? != self.last_seen[row * self.per_bank + slot])
    }

    /// Consume one pending credit for (`row`, `slot`): an acquire load of the
    /// token byte, compared against the last token consumed. Returns whether a
    /// credit was there (and is now spent).
    pub(crate) fn try_acquire(&mut self, row: usize, slot: usize) -> AmResult<bool> {
        let offset = self.slot_offset(row, slot)?;
        let token = self.region.load_acquire_u8(offset)?;
        let seen = &mut self.last_seen[row * self.per_bank + slot];
        if token == *seen {
            return Ok(false);
        }
        *seen = token;
        Ok(true)
    }

    /// Snapshot every slot's current token as "already consumed", discarding
    /// stale credits. A pipeline run starts with this so credits earned by an
    /// earlier phased schedule (which never consumes any) cannot leak in as
    /// phantom refill permissions.
    pub fn sync(&mut self) -> AmResult<()> {
        for row in 0..self.banks {
            for slot in 0..self.per_bank {
                let offset = self.slot_offset(row, slot)?;
                self.last_seen[row * self.per_bank + slot] = self.region.load_acquire_u8(offset)?;
            }
        }
        Ok(())
    }
}

/// Sender-side NACK table: sequence-gap reports carried as real fabric traffic,
/// the same one-sided pattern as [`BankFlags`] (§VI-A2) applied to reliability.
///
/// The table holds one 8-byte row per bank row the receiving shard owns:
/// a `u32` missing sequence number (little endian) at bytes `[0, 4)`, a one-byte
/// token at byte 4, and 3 bytes of padding. The receiver reports a gap with a
/// single 5-byte put covering sn + token; the put publishes its *last* byte —
/// the token — with release ordering, so a sender that observes a token change
/// with an acquire load is guaranteed to read the matching sequence number.
/// Tokens follow the [`BankFlags::token_for`] protocol (never 0, adjacent
/// reports differ), and the region is single-writer per row, so a NACK can
/// neither tear nor race.
///
/// A row holds one report at a time: a second NACK posted before the sender
/// polled the first overwrites it. That is deliberate — NACKs are an
/// acceleration, the sender's timeout watchdog is the backstop that guarantees
/// progress — and it keeps the table a fixed 8 bytes per bank row.
#[derive(Debug, Clone)]
pub(crate) struct NackFlags {
    region: Arc<MemoryRegion>,
    rows: usize,
    /// Token last consumed per row; a report is pending iff the region's
    /// current token differs.
    last_seen: Vec<u8>,
}

impl NackFlags {
    /// Bytes one row occupies: u32 sn + token byte, padded to a word.
    pub(crate) const ROW_STRIDE: usize = 8;

    /// Bytes a whole table of `rows` rows occupies.
    pub(crate) fn table_len(rows: usize) -> usize {
        rows * Self::ROW_STRIDE
    }

    /// Byte offset of `row`'s record — shared by the sender-side reader and
    /// the receiver-side NACK put.
    pub(crate) fn row_offset(row: usize) -> usize {
        row * Self::ROW_STRIDE
    }

    /// The 5-byte wire record of one NACK: missing sn, then the token whose
    /// release publication makes the sn visible.
    pub(crate) fn record_for(missing_sn: u32, token: u8) -> [u8; 5] {
        let sn = missing_sn.to_le_bytes();
        [sn[0], sn[1], sn[2], sn[3], token]
    }

    /// Create a NACK table of `rows` rows over `region` (registered in the
    /// *sender's* address space).
    pub fn new(region: Arc<MemoryRegion>, rows: usize) -> AmResult<Self> {
        if rows == 0 {
            return Err(AmError::InvalidConfig(
                "NACK table needs at least one row".into(),
            ));
        }
        if region.len() < Self::table_len(rows) {
            return Err(AmError::InvalidConfig(format!(
                "NACK table needs {} bytes but region has {}",
                Self::table_len(rows),
                region.len()
            )));
        }
        let mut flags = NackFlags {
            region,
            rows,
            last_seen: vec![0; rows],
        };
        flags.sync()?;
        Ok(flags)
    }

    /// Descriptor the receiver aims its NACK puts at.
    pub fn descriptor(&self) -> RegionDescriptor {
        self.region.descriptor()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Simulated virtual address of `row`'s token byte (for cache-cost
    /// charging of the sender's poll).
    pub(crate) fn row_addr(&self, row: usize) -> AmResult<u64> {
        if row >= self.rows {
            return Err(AmError::InvalidConfig(format!(
                "no NACK row {row} in a {}-row table",
                self.rows
            )));
        }
        Ok(self.region.addr_of(Self::row_offset(row) + 4))
    }

    /// Poll `row` for a new report: an acquire load of the token byte; if it
    /// changed since the last consumed report, the row's missing sn is
    /// returned (and the report is spent).
    pub fn poll(&mut self, row: usize) -> AmResult<Option<u32>> {
        if row >= self.rows {
            return Err(AmError::InvalidConfig(format!(
                "no NACK row {row} in a {}-row table",
                self.rows
            )));
        }
        let offset = Self::row_offset(row);
        let token = self.region.load_acquire_u8(offset + 4)?;
        if token == self.last_seen[row] {
            return Ok(None);
        }
        self.last_seen[row] = token;
        Ok(Some(self.region.load_u32(offset)?))
    }

    /// Snapshot every row's current token as "already consumed", discarding
    /// stale reports (mirrors [`BankFlags::sync`]).
    pub fn sync(&mut self) -> AmResult<()> {
        for row in 0..self.rows {
            self.last_seen[row] = self.region.load_acquire_u8(Self::row_offset(row) + 4)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twochains_fabric::AccessFlags;

    fn region(len: usize) -> Arc<MemoryRegion> {
        MemoryRegion::new(0, 0x3000_0000, len, AccessFlags::rw(), 4).unwrap()
    }

    #[test]
    fn bank_layout() {
        let b = MailboxBank::new(region(4 * 2 * 2048), 4, 2, 2048).unwrap();
        assert_eq!(b.banks(), 4);
        assert_eq!(b.per_bank(), 2);
        assert_eq!(b.total(), 8);
        let m00 = b.mailbox(0, 0).unwrap().base_addr();
        let m01 = b.mailbox(0, 1).unwrap().base_addr();
        let m10 = b.mailbox(1, 0).unwrap().base_addr();
        assert_eq!(m01 - m00, 2048);
        assert_eq!(m10 - m00, 2 * 2048);
        assert!(b.mailbox(4, 0).is_err());
        assert!(b.mailbox(0, 2).is_err());
        assert_eq!(b.iter().count(), 8);
    }

    #[test]
    fn bank_construction_checks_capacity() {
        assert!(MailboxBank::new(region(1024), 4, 4, 2048).is_err());
        assert!(MailboxBank::new(region(1024), 0, 4, 64).is_err());
    }

    #[test]
    fn credit_tokens_roundtrip_through_the_table() {
        let r = region(64);
        let mut flags = BankFlags::new(Arc::clone(&r), 2, 3).unwrap();
        assert_eq!(flags.banks, 2);
        assert_eq!(flags.per_bank, 3);
        // Fresh table: nothing pending anywhere.
        for row in 0..2 {
            for slot in 0..3 {
                assert!(!flags.credit_pending(row, slot).unwrap());
                assert!(!flags.try_acquire(row, slot).unwrap());
            }
        }
        // Receiver credits (1, 2) — in the runtime this write is a one-sided
        // put into this region; here it is simulated directly.
        let offset = flags.slot_offset(1, 2).unwrap();
        r.store_release_u8(offset, BankFlags::token_for(0)).unwrap();
        assert!(flags.credit_pending(1, 2).unwrap());
        assert!(!flags.credit_pending(1, 1).unwrap(), "siblings unaffected");
        // Consuming spends it exactly once.
        assert!(flags.try_acquire(1, 2).unwrap());
        assert!(!flags.try_acquire(1, 2).unwrap());
        // The next drain's token differs from the last, so the next credit is
        // visible again.
        r.store_release_u8(offset, BankFlags::token_for(1)).unwrap();
        assert!(flags.try_acquire(1, 2).unwrap());
        // Out-of-range coordinates are rejected, not wrapped.
        assert!(flags.slot_offset(2, 0).is_err());
        assert!(flags.slot_offset(0, 3).is_err());
    }

    #[test]
    fn token_sequence_never_hits_zero_and_adjacent_tokens_differ() {
        let mut prev = 0u8;
        for k in 0..600u64 {
            let t = BankFlags::token_for(k);
            assert_ne!(t, 0, "0 is the fresh-region value, never a token");
            assert_ne!(t, prev, "adjacent drains must write distinct tokens");
            prev = t;
        }
    }

    /// Satellite contract for the reliability layer: a *duplicated* credit put
    /// (the same token byte landing twice, as a fault-injected fabric can make
    /// it) must not mint an extra credit or derail the token sequence.
    #[test]
    fn duplicated_credit_put_is_idempotent() {
        let r = region(64);
        let mut flags = BankFlags::new(Arc::clone(&r), 1, 2).unwrap();
        let offset = flags.slot_offset(0, 0).unwrap();

        // Drain k=0 returns its credit; the fabric replays the same 1-byte put.
        r.store_release_u8(offset, BankFlags::token_for(0)).unwrap();
        r.store_release_u8(offset, BankFlags::token_for(0)).unwrap();
        assert!(
            flags.try_acquire(0, 0).unwrap(),
            "the first copy is a credit"
        );
        assert!(
            !flags.try_acquire(0, 0).unwrap(),
            "the replayed copy must not mint a second credit"
        );

        // A replay arriving *after* the credit was consumed is equally inert.
        r.store_release_u8(offset, BankFlags::token_for(0)).unwrap();
        assert!(!flags.try_acquire(0, 0).unwrap());

        // The token sequence is not corrupted: the next drain's token (k=1)
        // still differs from the replayed k=0 token and is seen exactly once.
        assert_ne!(BankFlags::token_for(1), BankFlags::token_for(0));
        r.store_release_u8(offset, BankFlags::token_for(1)).unwrap();
        assert!(flags.try_acquire(0, 0).unwrap());
        assert!(!flags.try_acquire(0, 0).unwrap());
        // And the 255-cycle arithmetic is untouched by how often a token lands.
        for k in 2..520u64 {
            r.store_release_u8(offset, BankFlags::token_for(k)).unwrap();
            r.store_release_u8(offset, BankFlags::token_for(k)).unwrap();
            assert!(flags.try_acquire(0, 0).unwrap(), "drain {k}");
            assert!(!flags.try_acquire(0, 0).unwrap(), "drain {k} replay");
        }
    }

    #[test]
    fn nack_table_reports_roundtrip() {
        let r = region(64);
        let mut nacks = NackFlags::new(Arc::clone(&r), 2).unwrap();
        assert_eq!(nacks.rows(), 2);
        assert_eq!(NackFlags::table_len(2), 16);
        // Fresh table: nothing pending.
        assert_eq!(nacks.poll(0).unwrap(), None);
        assert_eq!(nacks.poll(1).unwrap(), None);

        // Receiver posts "sn 7 missing" into row 1 (in the runtime this is a
        // single 5-byte one-sided put whose last byte is the token).
        let rec = NackFlags::record_for(7, BankFlags::token_for(0));
        let off = NackFlags::row_offset(1);
        r.write(off, &rec).unwrap();
        r.store_release_u8(off + 4, rec[4]).unwrap();
        assert_eq!(nacks.poll(0).unwrap(), None, "siblings unaffected");
        assert_eq!(nacks.poll(1).unwrap(), Some(7));
        assert_eq!(nacks.poll(1).unwrap(), None, "a report is consumed once");

        // A duplicated NACK put (same token twice) is idempotent, like credits.
        r.write(off, &rec).unwrap();
        r.store_release_u8(off + 4, rec[4]).unwrap();
        assert_eq!(nacks.poll(1).unwrap(), None);

        // The next report (new token) is visible again.
        let rec = NackFlags::record_for(19, BankFlags::token_for(1));
        r.write(off, &rec).unwrap();
        r.store_release_u8(off + 4, rec[4]).unwrap();
        assert_eq!(nacks.poll(1).unwrap(), Some(19));

        // Geometry checks mirror BankFlags.
        assert!(nacks.poll(2).is_err());
        assert!(NackFlags::new(region(8), 2).is_err());
        assert!(NackFlags::new(region(64), 0).is_err());
        assert_eq!(nacks.row_addr(1).unwrap(), r.addr_of(12));
    }

    #[test]
    fn sync_discards_stale_credits() {
        let r = region(64);
        let mut flags = BankFlags::new(Arc::clone(&r), 1, 4).unwrap();
        let offset = flags.slot_offset(0, 1).unwrap();
        r.store_release_u8(offset, BankFlags::token_for(0)).unwrap();
        assert!(flags.credit_pending(0, 1).unwrap());
        flags.sync().unwrap();
        assert!(
            !flags.try_acquire(0, 1).unwrap(),
            "sync adopts the current token as already consumed"
        );
    }

    #[test]
    fn rows_are_word_aligned() {
        assert_eq!(BankFlags::row_stride(1), 8);
        assert_eq!(BankFlags::row_stride(8), 8);
        assert_eq!(BankFlags::row_stride(9), 16);
        assert_eq!(BankFlags::table_len(3, 16), 48);
        // 4 rows of 9 slots pad to 16-byte rows: 64 bytes fit, 32 do not.
        assert!(BankFlags::new(region(64), 4, 9).is_ok());
        assert!(matches!(
            BankFlags::new(region(32), 4, 9),
            Err(AmError::InvalidConfig(_))
        ));
        let flags = BankFlags::new(region(64), 4, 8).unwrap();
        assert_eq!(flags.slot_offset(3, 7).unwrap(), 31);
        assert_eq!(
            flags.slot_addr(1, 0).unwrap(),
            flags.descriptor().base_addr + 8
        );
    }

    #[test]
    fn zero_credit_windows_are_rejected_at_construction() {
        // A lane flow-controlled by an empty table would deadlock on its first
        // refill; both degenerate axes must fail loudly instead.
        assert!(matches!(
            BankFlags::new(region(64), 0, 4),
            Err(AmError::InvalidConfig(_))
        ));
        assert!(matches!(
            BankFlags::new(region(64), 4, 0),
            Err(AmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn flag_region_must_cover_the_table() {
        assert!(BankFlags::new(region(8), 4, 2).is_err());
    }

    #[test]
    fn shard_mask_partitions_banks() {
        let masks: Vec<ShardMask> = (0..3).map(|s| ShardMask::new(s, 3)).collect();
        for bank in 0..12 {
            let owners = masks.iter().filter(|m| m.owns(bank)).count();
            assert_eq!(owners, 1, "bank {bank} must have exactly one owner");
            assert!(masks[bank % 3].owns(bank));
        }
        assert!(ShardMask::new(0, 1).owns(7));
        // A zero shard count degrades to the all-banks view instead of dividing by
        // zero.
        assert!(ShardMask::new(0, 0).owns(5));
    }

    #[test]
    fn rows_owned_partitions_every_bank_exactly_once() {
        for streams in 1..5 {
            let total: usize = (0..streams)
                .map(|s| ShardMask::rows_owned(s, streams, 7))
                .sum();
            assert_eq!(total, 7, "{streams} streams must cover all 7 banks");
        }
        assert_eq!(ShardMask::rows_owned(0, 4, 4), 1);
        assert_eq!(
            ShardMask::rows_owned(3, 4, 3),
            0,
            "stream past the banks owns none"
        );
        // The round trip: an owner's banks fill rows 0, 1, 2, ... of its tables
        // with no hole and no collision, and `rows_owned` is one past the last.
        for banks in 1..=16 {
            for n in 1..=banks {
                for shard in 0..n {
                    let rows: Vec<usize> = (0..banks)
                        .filter(|&b| ShardMask::owner_of(b, n) == shard)
                        .map(|b| ShardMask::row_of(b, n))
                        .collect();
                    let expected: Vec<usize> =
                        (0..ShardMask::rows_owned(shard, n, banks)).collect();
                    assert_eq!(rows, expected, "shard {shard} of {n}, {banks} banks");
                }
            }
        }
    }

    #[test]
    fn scan_burst_reports_only_complete_frames_in_owned_banks() {
        use crate::frame::{signal_at, Frame, SIG_MAG};
        let r = MemoryRegion::new(0, 0x3000_0000, 4 * 2 * 2048, AccessFlags::rwx(), 4).unwrap();
        let b = MailboxBank::new(Arc::clone(&r), 4, 2, 2048).unwrap();
        let ready = |mask| b.scan_burst(mask, usize::MAX).0;
        assert!(ready(ShardMask::new(0, 1)).is_empty(), "all empty");

        // Land complete frames in (0,0), (1,1) and (2,0) by writing the encoded
        // bytes and releasing the signal byte, as the simulated NIC does.
        let bytes = Frame::local(1, 0, vec![0; 20], vec![5; 32]).encode();
        for (bank, slot) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let offset = (bank * 2 + slot) * 2048;
            r.write(offset, &bytes).unwrap();
            r.store_release_u8(offset + signal_at(bytes.len()), SIG_MAG)
                .unwrap();
        }
        let len = bytes.len();
        assert_eq!(
            ready(ShardMask::new(0, 1)),
            vec![(0, 0, len), (1, 1, len), (2, 0, len)]
        );
        // A two-shard split partitions the ready set by bank parity.
        assert_eq!(ready(ShardMask::new(0, 2)), vec![(0, 0, len), (2, 0, len)]);
        assert_eq!(ready(ShardMask::new(1, 2)), vec![(1, 1, len)]);
        // `max_frames` caps what one scan reports, in scan order.
        assert_eq!(b.scan_burst(ShardMask::new(0, 1), 1).0, vec![(0, 0, len)]);
        // Draining a slot removes it from the next scan.
        b.mailbox(0, 0).unwrap().clear(len).unwrap();
        assert_eq!(ready(ShardMask::new(0, 2)), vec![(2, 0, len)]);
    }

    #[test]
    fn scan_burst_quarantines_malformed_lengths_instead_of_reporting_them() {
        use crate::frame::{header, Frame, HDR_MAG};
        let r = MemoryRegion::new(0, 0x3000_0000, 2 * 2048, AccessFlags::rwx(), 4).unwrap();
        let b = MailboxBank::new(Arc::clone(&r), 1, 2, 2048).unwrap();
        // Slot 0: header claims a frame far larger than the mailbox.
        let mut bytes = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
        header::LEN.set(&mut bytes, 1_000_000);
        r.write(0, &bytes).unwrap();
        r.store_release_u8(header::HDR_MAG.at, HDR_MAG).unwrap();
        // The scan reclaims it (and reports the reason) instead of reporting
        // it ready; afterwards the slot polls as empty instead of erroring
        // forever.
        let (ready, poisoned) = b.scan_burst(ShardMask::new(0, 1), usize::MAX);
        assert!(ready.is_empty(), "a malformed slot is never ready");
        assert_eq!(poisoned.len(), 1);
        assert_eq!((poisoned[0].0, poisoned[0].1), (0, 0));
        assert!(matches!(poisoned[0].2, AmError::BadFrame(_)));
        assert!(b.mailbox(0, 0).unwrap().poll_variable().unwrap().is_none());
        assert_eq!(
            b.scan_burst(ShardMask::new(0, 1), usize::MAX),
            (vec![], vec![])
        );
    }
}
