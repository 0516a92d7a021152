//! # twochains-fabric
//!
//! A simulated RDMA fabric standing in for the paper's ConnectX-6 200 Gb/s InfiniBand
//! HCAs connected back-to-back between two Arm servers.
//!
//! The Two-Chains runtime only relies on a small set of RDMA semantics, all of which
//! are implemented here:
//!
//! * **Registered memory regions** with 32-bit remote access keys (RKEYs) derived
//!   from the virtual address and the granted permissions, validated in "hardware"
//!   on every remote access ([`rkey`], [`region`]).
//! * **One one-sided operation**: an ordered `put` (RDMA write), issued through
//!   [`endpoint::Endpoint`]s (queue pairs). Mailbox frames, batch containers,
//!   credit returns and NACKs all travel as puts.
//! * **Write ordering** between puts on the same endpoint — the paper's testbed
//!   enforces ordering, so every put publishes its last byte with `Release`.
//! * **Delivery into the memory hierarchy**: the simulated NIC DMA engine either
//!   stashes arriving cache lines into the destination LLC or writes them to DRAM,
//!   by calling into `twochains-memsim` ([`nic`]).
//! * **A timing model** ([`link`]) with LogGP-style overhead/gap terms, PCIe and
//!   wire latency, and UCX-like protocol-threshold steps, its constants rows of
//!   [`twochains_memsim::cost`] fitted to the paper's small-message latency.
//! * **A UCX-put baseline** ([`baseline`]) reproducing the software
//!   overhead of the standard `ucp_put` + completion-tracking path that Figs. 5–6 of
//!   the paper compare against.
//! * **Seeded fault injection** ([`fault`]): a per-directed-link
//!   [`fault::FaultPlan`] makes puts drop (tx time charged, bytes never land),
//!   duplicate (a copy lands again later, as a stale replay) or reorder (two
//!   adjacent deliveries of one endpoint swap). With no plan installed the
//!   fabric keeps its default guarantees — lossless, exactly-once, per-endpoint
//!   ordered delivery — and every fault counter is zero by construction.
//!
//! Data movement is real — bytes are copied into the destination region's buffer and
//! can be read back — while all latencies are virtual [`SimTime`] values.
//!
//! ## Delivery guarantees
//!
//! Per-endpoint ordering is the contract the runtime's mailbox protocol leans on:
//! puts issued on one endpoint become visible at the destination in issue order
//! ([`Endpoint::put`] publishes each frame's final byte with `Release` ordering),
//! so a receiver that observes a frame knows every earlier frame from the same
//! endpoint already landed. Fault injection perturbs exactly this contract
//! (multiplicity and adjacent order), which is what the runtime's NACK/retransmit
//! and replay-suppression layers are tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod link;
pub mod nic;
pub mod region;
pub mod rkey;

pub use endpoint::{Endpoint, PutOutcome};
pub use error::FabricError;
pub use fabric::{HostHandle, HostId, SimFabric};
pub use fault::{FaultPlan, FaultSnapshot};
pub use link::LinkTiming;
pub use region::{MemoryRegion, RegionDescriptor};
pub use rkey::AccessFlags;

pub use twochains_memsim::SimTime;
