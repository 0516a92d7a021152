//! # twochains-linker
//!
//! The remote-linking substrate: an ELF-like relocatable object for jams, the
//! ried (Relocatable Interface Distribution) shared-library abstraction, per-process
//! dynamic-linker namespaces, packages, and the build toolchain.
//!
//! In the paper, the Two-Chains toolchain compiles each jam source file with
//! `-fPIC -fno-plt -shared`, statically rewrites GOT accesses to indirect through a
//! pointer at a chosen PC-relative location, and installs the resulting shared
//! objects into a *package*. Rieds are ordinary shared libraries a process "drives
//! over" to a peer so both sides agree on interfaces and data objects; symbol
//! resolution happens per process via standard ELF loading, no central name registry.
//!
//! This crate reproduces that pipeline over the jam VM:
//!
//! * [`object::JamObject`] — the relocatable object: encoded `.text`, a
//!   *symbolic* GOT (slot → symbol name), and a fixed ARGS-block size.
//! * [`ried::Ried`] — a loadable interface library: named extern functions
//!   (receiver-side Rust closures standing in for the shared library's code) and
//!   named data objects (heaps/tables) with their initial contents, each
//!   instanced privately by every receiver shard.
//! * [`namespace::LinkerNamespace`] — the per-process dynamic linker: load rieds,
//!   `dlsym` by name, resolve a jam's symbolic GOT into a concrete
//!   [`twochains_jamvm::GotImage`] for this process ("remote linking").
//! * [`package::Package`] / [`builder::PackageBuilder`] — the build toolchain:
//!   element IDs and names, and the dual build of every jam as an
//!   injectable object *and* a locally invocable program (the paper's Local Function
//!   variant comes "from the same source").

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod error;
pub mod namespace;
pub mod object;
pub mod package;
pub mod ried;
pub mod symbol;

pub use builder::{JamDefinition, PackageBuilder};
pub use error::LinkError;
pub use namespace::{DataObject, LinkerNamespace};
pub use object::JamObject;
pub use package::{ElementId, Package, PackageElement};
pub use ried::{Ried, RiedBuilder};
pub use symbol::SymbolRef;
