//! Rieds — Relocatable Interface Distributions.
//!
//! "Rieds are shared libraries that one process drives over to some remote process to
//! dynamically setup interfaces and data objects as needed" (§IV-A). In this
//! reproduction a ried is a named bundle of:
//!
//! * **function exports** — receiver-side implementations (Rust closures over the jam
//!   VM's [`twochains_jamvm::externs::ExternCtx`]) that injected code reaches through GOT-resolved
//!   `CallExtern`; these stand in for the shared library's native code, and
//! * **data exports** — named heap objects (tables, arrays, counters) that are mapped
//!   into the jam address space as segments, with an initial size/contents.
//!
//! The paper's rieds are "loaded and auto-initialized in Two-Chains packages"; here
//! loading one binds its exports and initializing it is mapping each data object with
//! its initial contents.
//!
//! Rieds are constructed programmatically with [`RiedBuilder`]; the real system would
//! `dlopen` an actual shared object, which is precisely the part a memory-safe
//! reproduction replaces.

use twochains_jamvm::externs::ExternFn;

/// A named data object exported by a ried. Every one is writable, and each
/// receiver shard maps an instance of its own.
#[derive(Debug, Clone)]
pub(crate) struct RiedDataExport {
    /// Canonical symbol name (e.g. `"array.base"`).
    pub name: String,
    /// Initial contents; its length is the object's size.
    pub init: Vec<u8>,
}

/// A loadable interface library.
#[derive(Clone)]
pub struct Ried {
    name: String,
    functions: Vec<(String, ExternFn)>,
    data: Vec<RiedDataExport>,
}

impl std::fmt::Debug for Ried {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ried")
            .field("name", &self.name)
            .field(
                "functions",
                &self
                    .functions
                    .iter()
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>(),
            )
            .field(
                "data",
                &self.data.iter().map(|d| d.name.clone()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Ried {
    /// The ried's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Exported functions, in declaration order.
    pub fn functions(&self) -> &[(String, ExternFn)] {
        &self.functions
    }

    /// Exported data objects.
    pub(crate) fn data(&self) -> &[RiedDataExport] {
        &self.data
    }
}

/// Builder for [`Ried`]s.
pub struct RiedBuilder {
    ried: Ried,
}

impl RiedBuilder {
    /// Start building a ried called `name`.
    pub fn new(name: &str) -> Self {
        RiedBuilder {
            ried: Ried {
                name: name.to_string(),
                functions: Vec::new(),
                data: Vec::new(),
            },
        }
    }

    /// Export a function under `name`.
    pub fn export_fn(mut self, name: &str, f: ExternFn) -> Self {
        self.ried.functions.push((name.to_string(), f));
        self
    }

    /// Export a writable heap object of `size` zero bytes.
    pub fn export_heap(mut self, name: &str, size: usize) -> Self {
        self.ried.data.push(RiedDataExport {
            name: name.to_string(),
            init: vec![0u8; size],
        });
        self
    }

    /// Finish building.
    pub fn build(self) -> Ried {
        self.ried
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn builder_collects_exports() {
        let ried = RiedBuilder::new("ried_array")
            .export_fn("array.append", Arc::new(|_ctx, _args| Ok(0)))
            .export_heap("array.base", 4096)
            .export_heap("array.count", 8)
            .build();
        assert_eq!(ried.name(), "ried_array");
        assert_eq!(ried.functions().len(), 1);
        assert_eq!(ried.functions()[0].0, "array.append");
        assert_eq!(ried.data().len(), 2);
        assert_eq!(ried.data()[0].name, "array.base");
        assert_eq!(ried.data()[0].init, vec![0; 4096]);
        assert_eq!(ried.data()[1].init.len(), 8);
    }

    #[test]
    fn debug_output_names_exports() {
        let ried = RiedBuilder::new("r").export_heap("h", 8).build();
        let dbg = format!("{ried:?}");
        assert!(dbg.contains("\"h\""));
    }
}
