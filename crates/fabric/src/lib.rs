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
//! * **One-sided operations**: `put` (RDMA write), `get` (RDMA read) and a fetching
//!   atomic add, issued through [`endpoint::Endpoint`]s (queue pairs).
//! * **Write ordering** between puts on the same endpoint, or explicit
//!   [`endpoint::Endpoint::fence`] when the platform does not guarantee ordering —
//!   the paper's testbed enforces ordering, so the default config does too.
//! * **Delivery into the memory hierarchy**: the simulated NIC DMA engine either
//!   stashes arriving cache lines into the destination LLC or writes them to DRAM,
//!   by calling into `twochains-memsim` ([`nic`]).
//! * **A timing model** ([`link::LinkModel`]) with LogGP-style overhead/gap terms,
//!   PCIe and wire latency, and UCX-like protocol-threshold steps, calibrated to the
//!   paper's small-message latency (~1 µs one-way) and 200 Gb/s line rate.
//! * **A UCX-put baseline** ([`baseline::UcxPutBaseline`]) reproducing the software
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
//! endpoint already landed. [`Endpoint::put_unordered`] deliberately drops the
//! publish step, modelling fabrics without inter-put ordering; there, a fence plus
//! a separate signal put rebuilds the guarantee. Fault injection perturbs exactly
//! this contract (multiplicity and adjacent order), which is what the runtime's
//! NACK/retransmit and replay-suppression layers are tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod completion;
pub mod endpoint;
pub mod error;
pub mod fabric;
pub mod fault;
pub mod link;
pub mod nic;
pub mod region;
pub mod rkey;

pub use baseline::UcxPutBaseline;
pub use completion::{Completion, CompletionQueue};
pub use endpoint::{Endpoint, PutOutcome};
pub use error::{FabricError, FabricResult};
pub use fabric::{FabricConfig, HostHandle, HostId, SimFabric};
pub use fault::{FaultPlan, FaultSnapshot};
pub use link::{LinkModel, LinkTiming, Protocol};
pub use nic::NicModel;
pub use region::{MemoryRegion, RegionDescriptor};
pub use rkey::{AccessFlags, RKey};

pub use twochains_memsim::SimTime;
