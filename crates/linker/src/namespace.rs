//! Per-process dynamic-linker namespaces.
//!
//! A [`LinkerNamespace`] is the reproduction of "ELF library loading as a per-process
//! name resolution mechanism" (§II-B): every process loads whichever rieds it wants,
//! each load binds the ried's exported names in *that process only*, and a jam
//! arriving over the network gets its symbolic GOT resolved against the local
//! bindings — so the same jam can do different things on different receivers, which
//! is exactly the function-overloading-per-process behaviour the paper advertises.

use std::collections::HashMap;

use twochains_jamvm::{ExternRef, ExternTable, GotImage};

use crate::error::LinkError;
use crate::ried::Ried;
use crate::symbol::{SymbolKind, SymbolRef};

/// Result of looking a symbol up in a namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// A function, identified by its extern-table index.
    Function(u32),
    /// A data object, identified by its simulated base address.
    Data(u64),
}

#[derive(Debug, Clone)]
struct DataBinding {
    addr: u64,
    size: usize,
    writable: bool,
    kind: twochains_jamvm::SegmentKind,
    init: Vec<u8>,
}

/// A per-process symbol namespace.
pub struct LinkerNamespace {
    externs: ExternTable,
    data: HashMap<String, DataBinding>,
    loaded: HashMap<String, u32>,
    data_cursor: u64,
}

impl std::fmt::Debug for LinkerNamespace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkerNamespace")
            .field("rieds", &self.loaded)
            .field("functions", &self.externs.len())
            .field("data_objects", &self.data.len())
            .finish()
    }
}

impl Default for LinkerNamespace {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkerNamespace {
    /// Base simulated address at which ried data objects are laid out.
    pub const DATA_BASE: u64 = 0x4000_0000;

    /// An empty namespace.
    pub fn new() -> Self {
        LinkerNamespace {
            externs: ExternTable::new(),
            data: HashMap::new(),
            loaded: HashMap::new(),
            data_cursor: Self::DATA_BASE,
        }
    }

    /// Load a ried, binding all of its exports.
    ///
    /// Loading a ried that is already loaded fails unless `replace` is true, in which
    /// case function bindings are replaced *in place* (existing extern indices, and
    /// therefore already-resolved GOT images, keep working — the live-update story)
    /// and data objects keep their addresses and current contents.
    pub fn load_ried(&mut self, ried: &Ried, replace: bool) -> Result<(), LinkError> {
        if self.loaded.contains_key(ried.name()) && !replace {
            return Err(LinkError::AlreadyLoaded(ried.name().to_string()));
        }
        for (name, f) in ried.functions() {
            self.externs.register(name, f.clone());
        }
        for d in ried.data() {
            if let Some(existing) = self.data.get(&d.name) {
                // Keep address and live contents across reloads; size cannot change.
                if existing.size != d.init.len() {
                    return Err(LinkError::SymbolKindMismatch(format!(
                        "data object {} resized across reload ({} -> {})",
                        d.name,
                        existing.size,
                        d.init.len()
                    )));
                }
                continue;
            }
            let aligned = (d.init.len().div_ceil(4096) * 4096) as u64 + 4096;
            let addr = self.data_cursor;
            self.data_cursor += aligned;
            self.data.insert(
                d.name.clone(),
                DataBinding {
                    addr,
                    size: d.init.len(),
                    writable: d.writable,
                    kind: d.kind,
                    init: d.init.clone(),
                },
            );
        }
        self.loaded.insert(ried.name().to_string(), ried.version());
        if let Some(hook) = ried.init_hook() {
            hook(ried.name());
        }
        Ok(())
    }

    /// Names and versions of loaded rieds.
    pub fn loaded_rieds(&self) -> Vec<(String, u32)> {
        let mut v: Vec<_> = self
            .loaded
            .iter()
            .map(|(k, &ver)| (k.clone(), ver))
            .collect();
        v.sort();
        v
    }

    /// The extern table (needed by the VM at execution time).
    pub fn externs(&self) -> &ExternTable {
        &self.externs
    }

    /// Look a symbol up by name.
    pub fn dlsym(&self, name: &str) -> Option<Resolution> {
        if let Some(idx) = self.externs.index_of(name) {
            return Some(Resolution::Function(idx));
        }
        self.data.get(name).map(|d| Resolution::Data(d.addr))
    }

    /// Resolve a jam's symbolic GOT into a concrete GOT image for *this* process.
    /// This is the "remote linking" step: the sender (or receiver, depending on the
    /// security policy) runs it before the message is executed.
    pub fn resolve_got(&self, symbols: &[SymbolRef]) -> Result<GotImage, LinkError> {
        let mut image = GotImage::with_slots(symbols.len());
        for (i, sym) in symbols.iter().enumerate() {
            match (self.dlsym(&sym.name), sym.kind) {
                (Some(Resolution::Function(idx)), SymbolKind::Function) => {
                    image.set(i, ExternRef::Resolved(idx));
                }
                (Some(Resolution::Data(addr)), SymbolKind::Data) => {
                    image.set(i, ExternRef::Data(addr));
                }
                (Some(_), _) => {
                    return Err(LinkError::SymbolKindMismatch(sym.name.clone()));
                }
                (None, _) => return Err(LinkError::UnresolvedSymbol(sym.name.clone())),
            }
        }
        Ok(image)
    }

    /// The address bound to a data symbol, if any (useful for tests and examples that
    /// want to inspect receiver state after executions).
    pub fn data_addr(&self, name: &str) -> Option<u64> {
        self.data.get(name).map(|d| d.addr)
    }

    /// Every data object bound in this namespace, in address order, with its
    /// *initial* contents. The sharded receive path uses this to build the
    /// `Arc`-shared read-only base (non-writable objects) and each shard's
    /// instances of the writable objects.
    pub fn data_objects(&self) -> Vec<DataObject> {
        let mut out: Vec<DataObject> = self
            .data
            .iter()
            .map(|(name, d)| DataObject {
                name: name.clone(),
                addr: d.addr,
                init: d.init.clone(),
                writable: d.writable,
                kind: d.kind,
            })
            .collect();
        out.sort_by_key(|d| d.addr);
        out
    }
}

/// One data object bound in a namespace, as reported by
/// [`LinkerNamespace::data_objects`].
#[derive(Debug, Clone)]
pub struct DataObject {
    /// Exported symbol name.
    pub name: String,
    /// Simulated base address the namespace assigned.
    pub addr: u64,
    /// Initial contents (a fresh copy, not the live mapped state).
    pub init: Vec<u8>,
    /// Whether jams may store to the object.
    pub writable: bool,
    /// Segment classification.
    pub kind: twochains_jamvm::SegmentKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ried::RiedBuilder;
    use std::sync::Arc;

    fn table_ried() -> Ried {
        RiedBuilder::new("ried_table")
            .export_fn(
                "table.put",
                Arc::new(|_ctx, args| Ok(args.first().copied().unwrap_or(0))),
            )
            .export_fn("table.get", Arc::new(|_ctx, _| Ok(7)))
            .export_heap("table.base", 8192)
            .build()
    }

    #[test]
    fn load_and_dlsym() {
        let mut ns = LinkerNamespace::new();
        ns.load_ried(&table_ried(), false).unwrap();
        assert!(matches!(
            ns.dlsym("table.put"),
            Some(Resolution::Function(_))
        ));
        assert!(
            matches!(ns.dlsym("table.base"), Some(Resolution::Data(a)) if a >= LinkerNamespace::DATA_BASE)
        );
        assert!(ns.dlsym("missing").is_none());
        assert_eq!(ns.loaded_rieds(), vec![("ried_table".to_string(), 1)]);
    }

    #[test]
    fn double_load_requires_replace() {
        let mut ns = LinkerNamespace::new();
        ns.load_ried(&table_ried(), false).unwrap();
        assert!(matches!(
            ns.load_ried(&table_ried(), false),
            Err(LinkError::AlreadyLoaded(_))
        ));
        assert!(ns.load_ried(&table_ried(), true).is_ok());
    }

    #[test]
    fn reload_keeps_function_indices_and_data_addresses() {
        let mut ns = LinkerNamespace::new();
        ns.load_ried(&table_ried(), false).unwrap();
        let idx_before = match ns.dlsym("table.put").unwrap() {
            Resolution::Function(i) => i,
            _ => unreachable!(),
        };
        let addr_before = ns.data_addr("table.base").unwrap();
        // Reload with a new implementation of table.get.
        let v2 = RiedBuilder::new("ried_table")
            .version(2)
            .export_fn("table.put", Arc::new(|_ctx, _| Ok(1)))
            .export_fn("table.get", Arc::new(|_ctx, _| Ok(99)))
            .export_heap("table.base", 8192)
            .build();
        ns.load_ried(&v2, true).unwrap();
        let idx_after = match ns.dlsym("table.put").unwrap() {
            Resolution::Function(i) => i,
            _ => unreachable!(),
        };
        assert_eq!(idx_before, idx_after);
        assert_eq!(addr_before, ns.data_addr("table.base").unwrap());
        assert_eq!(ns.loaded_rieds(), vec![("ried_table".to_string(), 2)]);
    }

    #[test]
    fn resized_data_object_is_rejected_on_reload() {
        let mut ns = LinkerNamespace::new();
        ns.load_ried(&table_ried(), false).unwrap();
        let resized = RiedBuilder::new("ried_table")
            .export_heap("table.base", 16)
            .build();
        assert!(matches!(
            ns.load_ried(&resized, true),
            Err(LinkError::SymbolKindMismatch(_))
        ));
    }

    #[test]
    fn got_resolution() {
        let mut ns = LinkerNamespace::new();
        ns.load_ried(&table_ried(), false).unwrap();
        let got = ns
            .resolve_got(&[SymbolRef::func("table.put"), SymbolRef::data("table.base")])
            .unwrap();
        assert!(got.fully_resolved());
        assert!(matches!(got.get(0), ExternRef::Resolved(_)));
        assert!(matches!(got.get(1), ExternRef::Data(_)));
        // Unresolved and kind-mismatch errors.
        assert!(matches!(
            ns.resolve_got(&[SymbolRef::func("nope")]),
            Err(LinkError::UnresolvedSymbol(_))
        ));
        assert!(matches!(
            ns.resolve_got(&[SymbolRef::data("table.put")]),
            Err(LinkError::SymbolKindMismatch(_))
        ));
    }

    #[test]
    fn different_processes_can_bind_same_name_differently() {
        // The "function overloading across processes" property from the paper.
        let ried_a = RiedBuilder::new("impl")
            .export_fn("handler", Arc::new(|_ctx, _| Ok(1)))
            .build();
        let ried_b = RiedBuilder::new("impl")
            .export_fn("handler", Arc::new(|_ctx, _| Ok(2)))
            .build();
        let mut ns_a = LinkerNamespace::new();
        let mut ns_b = LinkerNamespace::new();
        ns_a.load_ried(&ried_a, false).unwrap();
        ns_b.load_ried(&ried_b, false).unwrap();
        // Both namespaces resolve the same symbolic GOT, to different bindings.
        let got_a = ns_a.resolve_got(&[SymbolRef::func("handler")]).unwrap();
        let got_b = ns_b.resolve_got(&[SymbolRef::func("handler")]).unwrap();
        assert!(got_a.fully_resolved() && got_b.fully_resolved());
        use twochains_jamvm::externs::ExternCtx;
        use twochains_jamvm::memory::AddressSpace;
        use twochains_memsim::hierarchy::FlatMemory;
        let mut space = AddressSpace::new();
        let mut bus = FlatMemory::free();
        let mut ctx = ExternCtx {
            space: &mut space,
            bus: &mut bus,
            core: 0,
            elapsed: Default::default(),
        };
        let idx_a = match got_a.get(0) {
            ExternRef::Resolved(i) => i,
            _ => unreachable!(),
        };
        let idx_b = match got_b.get(0) {
            ExternRef::Resolved(i) => i,
            _ => unreachable!(),
        };
        assert_eq!(ns_a.externs().call(idx_a, &mut ctx, &[]).unwrap(), 1);
        assert_eq!(ns_b.externs().call(idx_b, &mut ctx, &[]).unwrap(), 2);
    }
}
