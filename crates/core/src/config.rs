//! Runtime configuration.
//!
//! The configuration picks geometry, waiting, aggregation, security and
//! whether to execute at all — not a memory discipline. That one is fixed:
//! every receiver shard executes against an address space of its own, with
//! its private instance of every ried data object.

use twochains_memsim::WaitMode;

use crate::frame::{batch_prefix, MIN_WIRE_LEN};
use crate::security::SecurityPolicy;

/// How an active message is invoked on the receiver (§IV-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvocationMode {
    /// The function's binary code travels in the message and is executed on arrival
    /// (GOT patched from the message or by the receiver, per the security policy).
    Injected,
    /// Only the element ID travels; the receiver calls the matching function from the
    /// locally loaded Local Function library built from the same package source.
    Local,
}

impl InvocationMode {
    /// Both modes, in the order the paper's figures list them.
    pub const ALL: [InvocationMode; 2] = [InvocationMode::Local, InvocationMode::Injected];

    /// Label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            InvocationMode::Injected => "Injected Function",
            InvocationMode::Local => "Local Function",
        }
    }
}

/// Whether sender lanes aggregate data-path frames into multi-frame batch
/// containers (one NIC put covering N frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AggregationPolicy {
    /// One put per frame: byte-identical to the pre-aggregation wire
    /// behaviour. Useful as a latency baseline and for equivalence tests.
    PerFrame,
    /// Accumulate spec-built frames per (stream, bank) and post one contiguous
    /// put covering the whole batch. A batch flushes when it fills (eight
    /// frames or the carrier mailbox's byte capacity), when the oldest
    /// accumulated frame has waited past the latency watermark (2 µs of
    /// lane-virtual time), and unconditionally at every burst boundary — so
    /// aggregation never withholds a built frame across an idle gap.
    #[default]
    Adaptive,
}

/// Configuration of a Two-Chains host runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Mailbox frame capacity in bytes (fixed-size frames; a frame larger than this
    /// is rejected at pack time).
    pub frame_capacity: usize,
    /// Number of mailbox banks (M in §VI-A2).
    pub banks: usize,
    /// Mailboxes per bank (N in §VI-A2); at most 65 536, a batch prefix's `u16` slot.
    pub mailboxes_per_bank: usize,
    /// Number of receiver shards draining the banks. Bank `b` is owned by shard
    /// `b % num_shards`, so shards never contend on a mailbox; each shard keeps its
    /// own scratch buffer and statistics over the shared injection caches.
    pub num_shards: usize,
    /// Per-stream transmit-window depth: a sender lane
    /// with this many puts outstanding must harvest completions before posting
    /// more. Back-pressure is per stream — one saturated stream never stalls
    /// its siblings.
    pub completion_window: usize,
    /// How sender lanes batch the data path (see [`AggregationPolicy`]).
    pub aggregation_policy: AggregationPolicy,
    /// How the receiver waits for the signal byte.
    pub wait_mode: WaitMode,
    /// Security policy applied to inbound messages.
    pub security: SecurityPolicy,
    /// If true, messages are delivered and signalled but the function invocation is
    /// skipped — the paper's "without-execution configuration" used for Figs. 5–6.
    pub skip_execution: bool,
}

impl RuntimeConfig {
    /// The configuration used throughout the paper's evaluation: 32 KiB-capable
    /// mailboxes, 4 banks × 16 mailboxes, polling wait.
    pub fn paper_default() -> Self {
        RuntimeConfig {
            frame_capacity: 128 * 1024,
            banks: 4,
            mailboxes_per_bank: 16,
            num_shards: 1,
            completion_window: 256,
            aggregation_policy: AggregationPolicy::Adaptive,
            wait_mode: WaitMode::Polling,
            security: SecurityPolicy::Permissive,
            skip_execution: false,
        }
    }

    /// Same configuration but skipping execution (Figs. 5–6).
    pub fn without_execution(mut self) -> Self {
        self.skip_execution = true;
        self
    }

    /// Same configuration but with `n` receiver shards draining the banks in
    /// parallel (bank `b` owned by shard `b % n`).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// The same configuration: a
    /// [`SenderFleet`](crate::runtime::SenderFleet) always runs one lane per
    /// receiver shard, so this sets nothing. It is kept only for callers
    /// written when the lane count was a knob of its own.
    pub fn with_sender_streams(self, _n: usize) -> Self {
        self
    }

    /// Same configuration but posting one put per frame
    /// ([`AggregationPolicy::PerFrame`]) — the pre-aggregation wire
    /// behaviour, byte-identical on the fabric.
    pub fn with_per_frame_aggregation(mut self) -> Self {
        self.aggregation_policy = AggregationPolicy::PerFrame;
        self
    }

    /// The same configuration: every host already runs each shard in an
    /// address space of its own, so this sets nothing. It is kept only for
    /// callers written when a second, process-global space was the default.
    pub fn with_shard_local_space(self) -> Self {
        self
    }

    /// Total number of mailboxes.
    pub fn total_mailboxes(&self) -> usize {
        self.banks * self.mailboxes_per_bank
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.frame_capacity < MIN_WIRE_LEN {
            return Err("frame capacity smaller than header + trailer".into());
        }
        if self.banks == 0 || self.mailboxes_per_bank == 0 {
            return Err("need at least one bank and one mailbox".into());
        }
        if self.mailboxes_per_bank as u64 > batch_prefix::SLOT.max() + 1 {
            return Err("a batch prefix's u16 slot names at most 65536 mailboxes a bank".into());
        }
        if self.num_shards == 0 {
            return Err("need at least one receiver shard".into());
        }
        if self.num_shards > self.banks {
            return Err(format!(
                "{} shards but only {} banks: a shard would own no bank",
                self.num_shards, self.banks
            ));
        }
        if self.completion_window == 0 {
            return Err("completion window needs at least one entry".into());
        }
        Ok(())
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = RuntimeConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_mailboxes(), 64);
        assert_eq!(c.frame_capacity, 128 * 1024);
        assert_eq!(c.wait_mode, WaitMode::Polling);
        assert_eq!(c.completion_window, 256);
        assert!(!c.skip_execution);
    }

    #[test]
    fn builders_flip_knobs() {
        assert!(
            RuntimeConfig::paper_default()
                .without_execution()
                .skip_execution
        );
    }

    #[test]
    fn invalid_configs_detected() {
        let mut c = RuntimeConfig::paper_default();
        c.banks = 0;
        assert!(c.validate().is_err());
        let mut c = RuntimeConfig::paper_default();
        c.frame_capacity = 4;
        assert!(c.validate().is_err());
        let mut c = RuntimeConfig::paper_default();
        c.num_shards = 0;
        assert!(c.validate().is_err());
        let c = RuntimeConfig::paper_default().with_shards(5);
        assert!(c.validate().is_err(), "more shards than banks");
        let mut c = RuntimeConfig::paper_default();
        c.completion_window = 0;
        assert!(c.validate().is_err(), "zero completion window");
    }

    #[test]
    fn aggregation_defaults_are_adaptive() {
        let c = RuntimeConfig::paper_default();
        assert_eq!(c.aggregation_policy, AggregationPolicy::Adaptive);
        assert!(c.validate().is_ok());
        let c = c.with_per_frame_aggregation();
        assert_eq!(c.aggregation_policy, AggregationPolicy::PerFrame);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invocation_labels() {
        assert_eq!(InvocationMode::Injected.label(), "Injected Function");
        assert_eq!(InvocationMode::Local.label(), "Local Function");
        assert_eq!(InvocationMode::ALL.len(), 2);
    }
}
