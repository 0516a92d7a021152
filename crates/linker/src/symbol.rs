//! Symbols and symbolic references.
//!
//! The paper's programming model "uses name binding instead of function
//! registration": a jam refers to receiver-side functionality purely by canonical
//! symbolic name, and each process resolves those names against whatever rieds it has
//! loaded — so two processes may legitimately bind the *same* name to *different*
//! implementations (the paper likens this to function overloading per process).

use std::fmt;

/// Whether a symbol names code or data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SymbolKind {
    /// A callable function (reached with `CallExtern`).
    Function,
    /// A data object (its resolved address is placed in the GOT slot).
    Data,
}

/// A symbolic reference held in a jam's GOT slot before resolution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymbolRef {
    /// Canonical symbol name, e.g. `"ried_table.put"`.
    pub name: String,
    /// Expected kind.
    pub(crate) kind: SymbolKind,
}

impl SymbolRef {
    /// A function symbol.
    pub fn func(name: &str) -> Self {
        SymbolRef {
            name: name.to_string(),
            kind: SymbolKind::Function,
        }
    }

    /// A data symbol.
    pub fn data(name: &str) -> Self {
        SymbolRef {
            name: name.to_string(),
            kind: SymbolKind::Data,
        }
    }

    /// Whether the name is a valid canonical symbol: non-empty, ASCII, no whitespace.
    pub fn is_valid(&self) -> bool {
        !self.name.is_empty()
            && self.name.is_ascii()
            && !self.name.chars().any(|c| c.is_whitespace())
            && self.name.len() <= 255
    }
}

impl fmt::Display for SymbolRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SymbolKind::Function => write!(f, "{}()", self.name),
            SymbolKind::Data => write!(f, "&{}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let f = SymbolRef::func("table.put");
        let d = SymbolRef::data("table.base");
        assert_eq!(f.kind, SymbolKind::Function);
        assert_eq!(d.kind, SymbolKind::Data);
        assert_eq!(f.to_string(), "table.put()");
        assert_eq!(d.to_string(), "&table.base");
    }

    #[test]
    fn validity_rules() {
        assert!(SymbolRef::func("ok_name.v2").is_valid());
        assert!(!SymbolRef::func("").is_valid());
        assert!(!SymbolRef::func("has space").is_valid());
        assert!(!SymbolRef::func("ünïcode").is_valid());
        assert!(!SymbolRef::func(&"x".repeat(300)).is_valid());
    }
}
