//! Runtime configuration.

use twochains_memsim::WaitMode;

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

/// How jam executions share (or don't share) the receiver's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpaceMode {
    /// One process-wide address space behind a mutex; every execution holds the
    /// lock for its whole map → execute → unmap window. Semantically the
    /// simplest mode (all messages observe one copy of every ried object) and
    /// the default.
    #[default]
    Exclusive,
    /// Read-mostly split: read-only ried objects live in an `Arc`-shared base
    /// every shard reads without locks, writable ried objects get one private
    /// instance per shard, and per-message ARGS/USR map into the owning
    /// shard's local space — so read-only and shard-local handlers execute
    /// with **no** address-space lock. Jams that declare cross-shard writes
    /// ([`twochains_linker::JamObject::cross_shard_writes`]) still fall back
    /// to the exclusive lock and the canonical instances. A GOT *data*
    /// reference to a writable object bakes in the canonical address, which
    /// only the exclusive path maps — so installing such a jam without the
    /// declaration is rejected at install time.
    ShardLocal,
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

/// How the receiver executes injected (and locally installed) programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionPolicy {
    /// Always run the interpreter over the decoded `Arc<[Instr]>`. Pins the
    /// pre-resolution behaviour exactly — the parity baseline the
    /// differential tests compare [`ExecutionPolicy::Resolved`] against.
    Interpret,
    /// Execute through the resolved IR: at cache-insert time the decoded
    /// program is lowered (operands flattened, GOT calls resolved direct,
    /// adjacent pairs fused into superinstructions, instruction fetch charged
    /// per straight-line block), and warm dispatches run the lowered image
    /// without re-reading the code section — the NIC's delivery digest keys
    /// the resolved cache instead. The default.
    #[default]
    Resolved,
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
    /// How executions share the jam address space (see [`SpaceMode`]).
    pub space_mode: SpaceMode,
    /// Number of initiator-side sender streams a
    /// [`SenderFleet`](crate::runtime::SenderFleet) driving this host should
    /// run. Stream `s` of `S` fills exactly the banks with `bank % S == s` —
    /// the same deterministic map the receiver shards drain by — so pairing
    /// `sender_streams == num_shards` gives each drain shard a dedicated
    /// initiator and the fill/drain pipeline never crosses streams.
    pub sender_streams: usize,
    /// Per-stream completion-queue depth (the transmit window): a sender lane
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
    /// Upper bound on entries per injection cache (decoded programs, sender GOT
    /// images, re-resolved GOTs). Keys derive from sender-controlled content, so
    /// the bound caps what a churning sender can pin in receiver memory; past it
    /// the segmented-LRU policy evicts the coldest probationary entry.
    pub injection_cache_entries: usize,
    /// If true, messages are delivered and signalled but the function invocation is
    /// skipped — the paper's "without-execution configuration" used for Figs. 5–6.
    pub skip_execution: bool,
    /// How programs are executed (see [`ExecutionPolicy`]).
    pub execution_policy: ExecutionPolicy,
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
            space_mode: SpaceMode::Exclusive,
            sender_streams: 1,
            completion_window: 256,
            aggregation_policy: AggregationPolicy::Adaptive,
            wait_mode: WaitMode::Polling,
            security: SecurityPolicy::permissive(),
            injection_cache_entries: crate::runtime::MAX_INJECTION_CACHE_ENTRIES,
            skip_execution: false,
            execution_policy: ExecutionPolicy::Resolved,
        }
    }

    /// Same configuration but with WFE-assisted waiting (Figs. 13–14).
    pub fn with_wfe(mut self) -> Self {
        self.wait_mode = WaitMode::Wfe;
        self
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

    /// Same configuration but with `n` sender streams (one
    /// [`TwoChainsSender`](crate::runtime::TwoChainsSender) per stream in a
    /// [`SenderFleet`](crate::runtime::SenderFleet); stream `s` fills the banks
    /// with `bank % n == s`).
    pub fn with_sender_streams(mut self, n: usize) -> Self {
        self.sender_streams = n;
        self
    }

    /// Same configuration but posting one put per frame
    /// ([`AggregationPolicy::PerFrame`]) — the pre-aggregation wire
    /// behaviour, byte-identical on the fabric.
    pub fn with_per_frame_aggregation(mut self) -> Self {
        self.aggregation_policy = AggregationPolicy::PerFrame;
        self
    }

    /// Same configuration but with the read-mostly per-shard address-space
    /// split ([`SpaceMode::ShardLocal`]): executions of jams that do not
    /// declare cross-shard writes take no address-space lock.
    pub fn with_shard_local_space(mut self) -> Self {
        self.space_mode = SpaceMode::ShardLocal;
        self
    }

    /// Same configuration but pinning the interpreter
    /// ([`ExecutionPolicy::Interpret`]) — the pre-resolution execution path,
    /// kept for parity testing against the resolved default.
    pub fn with_interpreted_execution(mut self) -> Self {
        self.execution_policy = ExecutionPolicy::Interpret;
        self
    }

    /// Total number of mailboxes.
    pub fn total_mailboxes(&self) -> usize {
        self.banks * self.mailboxes_per_bank
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.frame_capacity < crate::frame::FRAME_HEADER_SIZE + 1 {
            return Err("frame capacity smaller than header".into());
        }
        if self.banks == 0 || self.mailboxes_per_bank == 0 {
            return Err("need at least one bank and one mailbox".into());
        }
        if self.mailboxes_per_bank > 1 << 16 {
            return Err("a batch prefix's u16 slot names at most 65536 mailboxes a bank".into());
        }
        if self.num_shards == 0 {
            return Err("need at least one receiver shard".into());
        }
        if self.injection_cache_entries == 0 {
            return Err("injection caches need at least one entry".into());
        }
        if self.num_shards > self.banks {
            return Err(format!(
                "{} shards but only {} banks: a shard would own no bank",
                self.num_shards, self.banks
            ));
        }
        if self.sender_streams == 0 {
            return Err("need at least one sender stream".into());
        }
        if self.sender_streams > self.banks {
            return Err(format!(
                "{} sender streams but only {} banks: a stream would own no bank",
                self.sender_streams, self.banks
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
        assert!(!c.skip_execution);
    }

    #[test]
    fn builders_flip_knobs() {
        assert_eq!(
            RuntimeConfig::paper_default().with_wfe().wait_mode,
            WaitMode::Wfe
        );
        assert!(
            RuntimeConfig::paper_default()
                .without_execution()
                .skip_execution
        );
        assert_eq!(
            RuntimeConfig::paper_default().execution_policy,
            ExecutionPolicy::Resolved,
            "resolved execution is the default"
        );
        assert_eq!(
            RuntimeConfig::paper_default()
                .with_interpreted_execution()
                .execution_policy,
            ExecutionPolicy::Interpret
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
        let c = RuntimeConfig::paper_default().with_sender_streams(0);
        assert!(c.validate().is_err(), "zero sender streams");
        let c = RuntimeConfig::paper_default().with_sender_streams(5);
        assert!(c.validate().is_err(), "more streams than banks");
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
    fn sender_stream_defaults_are_single_stream() {
        let c = RuntimeConfig::paper_default();
        assert_eq!(c.sender_streams, 1);
        assert_eq!(c.completion_window, 256);
        assert_eq!(
            RuntimeConfig::paper_default()
                .with_sender_streams(4)
                .sender_streams,
            4
        );
    }

    #[test]
    fn invocation_labels() {
        assert_eq!(InvocationMode::Injected.label(), "Injected Function");
        assert_eq!(InvocationMode::Local.label(), "Local Function");
        assert_eq!(InvocationMode::ALL.len(), 2);
    }
}
