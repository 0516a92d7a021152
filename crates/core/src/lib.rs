//! # twochains
//!
//! The Two-Chains active-message runtime: *Two types of Cooperatively Handled
//! Actively Integrated Natively Shared-objects* — heavyweight **rieds** that set up
//! interfaces and synchronize namespaces between processes, and lightweight **jams**
//! packed into active messages and pushed over the (simulated) RDMA network to run
//! on demand on the receiver.
//!
//! The runtime reproduces the system described in *"Two-Chains: High Performance
//! Framework for Function Injection and Execution"* (IEEE CLUSTER 2021):
//!
//! * **Reactive mailboxes** ([`mailbox`]) — pinned, registered memory a sender
//!   targets with a single one-sided put; the receiver spin-waits (optionally with a
//!   WFE-style sleep) on the final signal byte of the fixed-size frame and executes
//!   the message the moment it lands.
//! * **Message frames** ([`frame`]) — `HDR | GOTP | CODE | ARGS | USR | SIG`, with
//!   the code and patched GOT present only for *Injected Function* invocation; the
//!   *Local Function* variant carries just an element ID and the payload (§IV-B).
//! * **Mailbox banks and flow control** ([`bank`]) — M banks of N mailboxes with
//!   per-bank flags on the sender, exactly the scheme §VI-A2 describes for the
//!   injection-rate benchmark.
//! * **Sharded receive path** ([`runtime`]) — banks are partitioned over receiver
//!   shards (`bank % num_shards`); each shard drains its banks with a one-scan
//!   [`TwoChainsHost::receive_burst`] over per-shard scratch/stats and shared,
//!   segmented-LRU injection caches, so receiver threads scale without contending
//!   on a mailbox.
//! * **Sender fleet** ([`runtime`]) — the initiator side mirrors the split: a
//!   [`SenderFleet`] runs one [`TwoChainsSender`] per stream (stream `s` fills
//!   the banks shard `s` drains), each on its own endpoint with its own
//!   template cache and its own completion window for flow control, and can fill
//!   from one OS thread per lane concurrently with shard draining
//!   ([`drive_pipeline`]).
//! * **Remote linking** — jams reference receiver-side functionality only through
//!   symbolic GOT slots; the receiver resolves them against its own loaded rieds
//!   (per-process namespaces from `twochains-linker`) and shares the resolved GOT
//!   image with senders out of band.
//! * **Security policy knobs** ([`security`]) — the §V hardening options: refuse
//!   sender-provided GOT images, read-only argument pages, separated code/data, and
//!   an execute-permission bit on registered memory.
//! * **The paper's benchmark jams** ([`builtin`]) — *Server-Side Sum* and *Indirect
//!   Put*, built from the same definitions into both injectable objects and the
//!   Local Function library.
//!
//! The whole stack runs over the simulated substrates in `twochains-fabric` and
//! `twochains-memsim`; all timing is virtual and deterministic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod builtin;
pub mod config;
pub mod error;
pub mod frame;
pub mod mailbox;
pub mod runtime;
pub mod security;
pub mod stats;

pub use bank::{BankFlags, MailboxBank, NackFlags, ShardMask};
pub use builtin::{benchmark_package, benchmark_rieds, BuiltinJam};
pub use config::{AggregationPolicy, ExecutionPolicy, InvocationMode, RuntimeConfig, SpaceMode};
pub use error::{AmError, AmResult};
pub use frame::{
    ChainArgMap, ChainDescriptor, ChainStage, Frame, FrameHeader, CHAIN_MAX_STAGES,
    FRAME_HEADER_SIZE, SIG_MAG,
};
pub use mailbox::ReactiveMailbox;
pub use runtime::{
    drive_pipeline, spec, AmSendOutcome, BurstFrame, BurstOutcome, ClampedFibonacci,
    CreditHandshake, MessageSpec, PipelineFrame, PipelineOutcome, ReceiveOutcome, ReceiverShard,
    SenderFleet, SenderLane, SessionHandshake, ShardDrain, SlotCtx, StreamHandshake, StreamTarget,
    TwoChainsHost, TwoChainsSender,
};
pub use security::SecurityPolicy;
pub use stats::RuntimeStats;
pub use twochains_linker::ElementId;

pub use twochains_fabric as fabric;
pub use twochains_jamvm as jamvm;
pub use twochains_linker as linker;
pub use twochains_memsim as memsim;
