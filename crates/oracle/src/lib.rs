//! # twochains-oracle
//!
//! Reference models the tests compare the shipped engines against. Nothing in
//! the runtime depends on this crate: the receiver runs one engine, the
//! resolved executor ([`twochains_jamvm::Vm::execute_resolved`]), over one
//! cache model, the sharded hierarchy ([`twochains_memsim::SharedHierarchy`]).
//! Only test targets depend on it.
//!
//! * [`interpret()`] — the jam interpreter: the plain, instruction-at-a-time
//!   statement of the ISA's semantics. It keeps its own ALU and derives its
//!   own issue cost from the public cost rows, so a differential suite that
//!   compares the resolved executor with it compares two statements of the
//!   arithmetic, not one statement with itself.
//! * [`CacheHierarchy`] — the monolithic, single-threaded cache model: one
//!   object, `&mut self` everywhere, DMA invalidation inline. The sharded
//!   hierarchy must charge what it charges for the same access stream.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hierarchy;
pub mod interpret;

pub use hierarchy::CacheHierarchy;
pub use interpret::interpret;
