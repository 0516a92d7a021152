//! Linking errors.

use std::fmt;

/// Errors produced by the linker substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A symbol referenced by a jam's GOT could not be resolved in this namespace.
    UnresolvedSymbol(String),
    /// A symbol was defined by more than one loaded ried with conflicting kinds.
    SymbolKindMismatch(String),
    /// The object's bytecode failed verification.
    VerifyFailed(String),
    /// The object's bytecode could not be decoded.
    DecodeFailed(String),
    /// A package element name or id was not found.
    NoSuchElement(String),
    /// A ried with this name is already loaded and `replace` was not requested.
    AlreadyLoaded(String),
    /// Invalid definition passed to the build toolchain.
    InvalidDefinition(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnresolvedSymbol(s) => write!(f, "unresolved symbol: {s}"),
            LinkError::SymbolKindMismatch(s) => write!(f, "symbol kind mismatch: {s}"),
            LinkError::VerifyFailed(s) => write!(f, "bytecode verification failed: {s}"),
            LinkError::DecodeFailed(s) => write!(f, "bytecode decode failed: {s}"),
            LinkError::NoSuchElement(s) => write!(f, "no such package element: {s}"),
            LinkError::AlreadyLoaded(s) => write!(f, "ried already loaded: {s}"),
            LinkError::InvalidDefinition(s) => write!(f, "invalid definition: {s}"),
        }
    }
}

impl std::error::Error for LinkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_details() {
        assert!(LinkError::UnresolvedSymbol("tbl_put".into())
            .to_string()
            .contains("tbl_put"));
        assert!(LinkError::DecodeFailed("opcode".into())
            .to_string()
            .contains("opcode"));
        let e: Box<dyn std::error::Error> = Box::new(LinkError::NoSuchElement("x".into()));
        assert!(e.to_string().contains("x"));
    }
}
