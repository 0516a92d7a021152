//! Runtime counters, each declared once: the `runtime_stats!` list below gives a counter its doc
//! comment, name, type and how it aggregates across shards, and the struct, `merge` and `fields`
//! are generated from it. A counter without a merge kind matches no rule and fails to compile.

use twochains_memsim::{CycleCounter, SimTime};

macro_rules! runtime_stats {
    ($($(#[$doc:meta])* $name:ident: $ty:ident => $merge:ident,)*) => {
        /// Counters accumulated by a Two-Chains host over its lifetime (or since the last
        /// [`RuntimeStats::reset`]).
        #[derive(Debug, Clone, Default)]
        pub struct RuntimeStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl RuntimeStats {
            /// A zeroed counter set.
            pub fn new() -> Self {
                Self::default()
            }

            /// Zero everything.
            pub fn reset(&mut self) {
                *self = Self::default();
            }

            /// Accumulate another counter set into this one. Used to aggregate per-shard
            /// receiver statistics into the host-wide view.
            pub fn merge(&mut self, other: &RuntimeStats) {
                $(runtime_stats!(@$merge self.$name, other.$name);)*
            }

            /// Every counter as `(name, value)` in declared order, a time as `<name>_ps` and the
            /// cycle counter as `cycles_{total,waiting,working}`: what the golden traces print.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                [$(&runtime_stats!(@$ty stringify!($name), self.$name)[..]),*].concat()
            }

            /// Every counter at a distinct nonzero value counted up from `base`.
            #[cfg(test)]
            fn filled(mut base: u64) -> Self {
                let mut stats = Self::default();
                $(base += 1; runtime_stats!(@fill $ty stats.$name, base);)*
                stats
            }
        }
    };
    (@sum $into:expr, $from:expr) => { $into += $from };
    (@max $into:expr, $from:expr) => { $into = $into.max($from) };
    (@cycles $into:expr, $from:expr) => { $into.merge(&$from) };
    (@u64 $name:expr, $v:expr) => { [($name, $v)] };
    (@SimTime $name:expr, $v:expr) => { [(concat!($name, "_ps"), $v.as_ps())] };
    (@CycleCounter $name:expr, $v:expr) => {[
        (concat!($name, "_total"), $v.total()),
        (concat!($name, "_waiting"), $v.waiting()),
        (concat!($name, "_working"), $v.working()),
    ]};
    (@fill u64 $field:expr, $n:expr) => { $field = $n };
    (@fill SimTime $field:expr, $n:expr) => { $field = SimTime::from_ps($n) };
    (@fill CycleCounter $field:expr, $n:expr) => { $field.add_wait($n); $field.add_work($n) };
}

runtime_stats! {
    /// Active messages sent.
    messages_sent: u64 => sum,
    /// Bytes of frame data sent.
    bytes_sent: u64 => sum,
    /// Active messages received and dispatched.
    messages_received: u64 => sum,
    /// Jams executed (injected or local).
    executions: u64 => sum,
    /// Executions that used the Injected Function path.
    injected_executions: u64 => sum,
    /// Executions that used the Local Function path.
    local_executions: u64 => sum,
    /// Injected dispatches that found the frame's code in the decoded-program cache
    /// (no `decode_program`, no verify, no program clone).
    injected_code_cache_hits: u64 => sum,
    /// Injected dispatches that had to decode + verify the frame's code (first
    /// message for a given `(element, code-hash)` or after cache invalidation).
    injected_code_cache_misses: u64 => sum,
    /// Injected dispatches that found the message's GOT image already parsed (or,
    /// under the hardened policy, already re-resolved) in the GOT cache.
    got_cache_hits: u64 => sum,
    /// Injected dispatches that had to parse (or re-resolve) the GOT image.
    got_cache_misses: u64 => sum,
    /// Decoded-program cache entries evicted by the segmented-LRU policy (capacity
    /// pressure from an adversarial sender churning code content per message).
    injected_code_cache_evictions: u64 => sum,
    /// GOT cache entries (sender-image or locally re-resolved) evicted by the
    /// segmented-LRU policy.
    got_cache_evictions: u64 => sum,
    /// Sends that hit the sender's frame-template cache (pre-patched GOT + encoded
    /// code reused; no per-send GOT patch or code clone).
    template_hits: u64 => sum,
    /// Sends that built a frame template (first injected send of an element).
    template_misses: u64 => sum,
    /// Sends that found their stream's transmit window full and had to harvest
    /// completions before the put could be posted (per-stream back-pressure —
    /// counted by the sender lane that stalled, so a fleet-wide merge shows
    /// which fraction of the fleet's sends ran against the transmit window).
    sends_backpressured: u64 => sum,
    /// Transmit-window entries harvested by the sender side (each costs the
    /// per-entry software bookkeeping the completion model charges).
    completions_harvested: u64 => sum,
    /// Frames the dispatch engine rejected during a burst (malformed code,
    /// policy violation, ...); their slots were cleared so the bank cannot
    /// wedge.
    frames_rejected: u64 => sum,
    /// Poisoned slots quarantined by the burst scan (header magic present but
    /// an out-of-range declared length). Counted per shard and preserved by
    /// [`RuntimeStats::merge`], so the host-wide view shows how many one-put
    /// denial-of-service attempts the receiver absorbed.
    poisoned_quarantined: u64 => sum,
    /// Mailbox credits returned by the receiver with one-sided puts into the
    /// sender's credit table (§VI-A2) — one per retired frame (drained,
    /// dispatch-rejected or quarantined) once the credit path is installed.
    credits_returned: u64 => sum,
    /// Credit tokens carried by credit-return traffic — one per retired frame
    /// (drained, dispatch-rejected or quarantined) once the credit path is
    /// installed. Since the coalesced flush engine this counts *tokens*, not
    /// wire puts: the actual fabric traffic is `credit_flushes` puts moving
    /// `credit_flush_bytes` bytes (a flush span may include gap-fill bytes
    /// that idempotently rewrite unchanged tokens).
    credit_put_bytes: u64 => sum,
    /// Coalesced credit-return puts actually posted on the reverse fabric:
    /// one per dirty bank-row span flushed (row-fill, watermark, shard-idle
    /// or abort-time flush).
    credit_flushes: u64 => sum,
    /// Wire bytes the flush puts moved, gap-fill included — the truth about
    /// flow-control fabric traffic (`credit_put_bytes` counts tokens).
    credit_flush_bytes: u64 => sum,
    /// Largest single flush span in bytes. Merged with `max`, not `+`: the
    /// host-wide view answers "how big did one credit put ever get", and
    /// summing per-shard maxima would answer nothing.
    credit_flush_max_span: u64 => max,
    /// Times a sender lane found no pending credit for any refillable slot and
    /// had to spin/park on its flag region (one count per stall episode, not
    /// per fruitless poll).
    credit_stall_events: u64 => sum,
    /// Extra slots a sender lane refilled on the same wakeup beyond the first
    /// — coalesced flushes deliver several tokens per put, and each wakeup
    /// consumes all of them instead of re-parking between slots.
    credit_refills_coalesced: u64 => sum,
    /// Frames re-put from the sender's wire cache after a NACK or a watchdog
    /// timeout (reliability layer; zero on a lossless fabric). Retransmits do
    /// not count as new messages — `messages_sent`/`bytes_sent` stay equal to
    /// the lossless run.
    frames_retransmitted: u64 => sum,
    /// Duplicate or stale frames the receiver silently retired instead of
    /// executing (idempotent replay suppression; zero on a lossless fabric).
    replays_suppressed: u64 => sum,
    /// NACK records the receiver posted into the sender's NACK table after
    /// detecting a sequence gap that outlived the scan-jumble horizon (zero on
    /// a lossless fabric).
    nacks_posted: u64 => sum,
    /// Chained frames dispatched: frames whose descriptor carried at least one
    /// continuation stage and whose chain ran to completion.
    chain_frames: u64 => sum,
    /// Continuation stages executed by the chain engine (the primary element
    /// counts in `executions` only; each completed continuation stage counts
    /// once here *and* once in `executions`/`local_executions`).
    chain_stages_executed: u64 => sum,
    /// Multi-frame batch containers posted on the forward data path — each is
    /// one NIC put covering `batched_frames / batch_puts` frames on average.
    /// Zero under [`AggregationPolicy::PerFrame`](crate::config::AggregationPolicy).
    batch_puts: u64 => sum,
    /// Frames that travelled inside batch containers (each also counts once in
    /// `messages_sent`, which stays the per-message truth under both policies).
    batched_frames: u64 => sum,
    /// Batch containers the receiver unbatched inside its burst scan — one
    /// mailbox readiness check and one parse prologue amortized over the
    /// container's inner frames.
    batches_received: u64 => sum,
    /// Inner frames retired out of received batch containers (each also counts
    /// once in `messages_received` and mints its own credit token).
    batch_frames_received: u64 => sum,
    /// Injected dispatches that found a valid resolved image (lowered IR) in
    /// the second-level injection cache and executed it directly — the warm
    /// path. Every resolved hit also counts in `injected_code_cache_hits` (the
    /// resolved image subsumes the decoded program).
    resolved_cache_hits: u64 => sum,
    /// Injected dispatches that had no valid resolved image (first message,
    /// code or GOT image changed, or cache invalidated) and paid the lowering
    /// before executing.
    resolved_cache_misses: u64 => sum,
    /// Fused superinstructions retired by the resolved executor (each retires
    /// two original instructions in one dispatch slot).
    superinstructions_executed: u64 => sum,
    /// Virtual CPU time the drain cores spent posting credit-return puts
    /// (the `sender_free` charge of each credit put; the wire/DMA side is
    /// charged inside the fabric model like any other put).
    credit_put_time: SimTime => sum,
    /// Total virtual time the receiver spent waiting for signals.
    wait_time: SimTime => sum,
    /// Total virtual time spent in handler execution.
    exec_time: SimTime => sum,
    /// CPU-cycle accounting for the receiver core (the counter Figs. 13–14 read).
    cycles: CycleCounter => cycles,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes_every_counter() {
        let mut s = RuntimeStats::filled(0);
        s.reset();
        assert!(s.fields().iter().all(|&(_, value)| value == 0));
    }

    #[test]
    fn merge_aggregates_every_counter_as_declared() {
        let (a, b) = (RuntimeStats::filled(0), RuntimeStats::filled(100));
        let mut merged = a.clone();
        merged.merge(&b);
        let each = a.fields().into_iter().zip(b.fields()).zip(merged.fields());
        assert_eq!(each.len(), 43, "37 counts, 3 times, 3 cycle views");
        for (((name, a), (_, b)), (_, got)) in each {
            assert!(a < b, "{name} was not filled");
            let summed = name != "credit_flush_max_span"; // the one high-water mark
            assert_eq!(got, if summed { a + b } else { b }, "{name}");
        }
    }
}
