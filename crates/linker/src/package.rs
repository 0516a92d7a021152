//! Packages: the unit of distribution for jams and rieds.
//!
//! "The Two-Chains are organized into packages. Each package has a package name ...
//! A package contains elements; each has a unique element ID and element name within
//! the package" (§IV-A). The build tools take a list of jam/ried sources, produce
//! shared objects, and generate a package header that programs include to refer to
//! elements by ID. Here a program asks the package instead: [`Package::id_of`]
//! maps an element name to its ID.

use std::collections::HashMap;

use crate::error::LinkError;
use crate::object::JamObject;
use crate::ried::Ried;

/// Identifier of an element within a package (the value carried in message headers so
/// the receiver can find the Local Function implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

/// One element of a package.
#[derive(Debug, Clone)]
pub enum PackageElement {
    /// An injectable jam.
    Jam(JamObject),
    /// A ried (interface library).
    Ried(Ried),
}

impl PackageElement {
    /// The element's name.
    pub fn name(&self) -> &str {
        match self {
            PackageElement::Jam(j) => &j.name,
            PackageElement::Ried(r) => r.name(),
        }
    }
}

/// A built package.
#[derive(Debug, Clone, Default)]
pub struct Package {
    name: String,
    elements: Vec<PackageElement>,
    by_name: HashMap<String, ElementId>,
}

impl Package {
    /// Create an empty package.
    pub fn new(name: &str) -> Self {
        Package {
            name: name.to_string(),
            elements: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an element; IDs are assigned in insertion order. Names must be unique.
    pub fn add(&mut self, element: PackageElement) -> Result<ElementId, LinkError> {
        let name = element.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(LinkError::InvalidDefinition(format!(
                "duplicate element name {name}"
            )));
        }
        let id = ElementId(self.elements.len() as u32);
        self.by_name.insert(name, id);
        self.elements.push(element);
        Ok(id)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the package has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Look an element up by ID.
    pub fn element(&self, id: ElementId) -> Result<&PackageElement, LinkError> {
        self.elements
            .get(id.0 as usize)
            .ok_or_else(|| LinkError::NoSuchElement(format!("id {}", id.0)))
    }

    /// The ID of a named element.
    pub fn id_of(&self, name: &str) -> Option<ElementId> {
        self.by_name.get(name).copied()
    }

    /// The jam stored under `id`, or an error if the element is a ried.
    pub fn jam(&self, id: ElementId) -> Result<&JamObject, LinkError> {
        match self.element(id)? {
            PackageElement::Jam(j) => Ok(j),
            PackageElement::Ried(r) => Err(LinkError::NoSuchElement(format!(
                "element {} is a ried ({})",
                id.0,
                r.name()
            ))),
        }
    }

    /// Iterate over all jams with their IDs.
    pub fn jams(&self) -> impl Iterator<Item = (ElementId, &JamObject)> {
        self.elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                PackageElement::Jam(j) => Some((ElementId(i as u32), j)),
                _ => None,
            })
    }

    /// Iterate over all rieds with their IDs.
    pub fn rieds(&self) -> impl Iterator<Item = (ElementId, &Ried)> {
        self.elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                PackageElement::Ried(r) => Some((ElementId(i as u32), r)),
                _ => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ried::RiedBuilder;
    use crate::symbol::SymbolRef;
    use twochains_jamvm::{encode_program, Assembler, Reg};

    fn jam(name: &str) -> JamObject {
        let mut a = Assembler::new();
        a.load_imm(Reg(0), 1).call_extern(0, 0).ret();
        let text = encode_program(&a.finish().unwrap());
        JamObject::new(name, text, vec![SymbolRef::func("f")], 8).unwrap()
    }

    fn package() -> Package {
        let mut p = Package::new("twochains_test_pkg");
        p.add(PackageElement::Ried(RiedBuilder::new("ried_array").build()))
            .unwrap();
        p.add(PackageElement::Jam(jam("jam_ssum"))).unwrap();
        p.add(PackageElement::Jam(jam("jam_indirect_put"))).unwrap();
        p
    }

    #[test]
    fn ids_follow_insertion_order() {
        let p = package();
        assert_eq!(p.len(), 3);
        assert_eq!(p.id_of("ried_array"), Some(ElementId(0)));
        assert_eq!(p.id_of("jam_ssum"), Some(ElementId(1)));
        assert_eq!(p.id_of("jam_indirect_put"), Some(ElementId(2)));
        assert!(p.id_of("nope").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut p = package();
        assert!(matches!(
            p.add(PackageElement::Jam(jam("jam_ssum"))),
            Err(LinkError::InvalidDefinition(_))
        ));
    }

    #[test]
    fn element_lookup_by_id_and_name() {
        let p = package();
        assert!(p.element(ElementId(0)).unwrap().name() == "ried_array");
        assert!(p.element(ElementId(9)).is_err());
        let id = p.id_of("jam_ssum").unwrap();
        assert_eq!(id, ElementId(1));
        assert!(matches!(p.element(id).unwrap(), PackageElement::Jam(j) if j.name == "jam_ssum"));
    }

    #[test]
    fn jam_accessor_rejects_rieds() {
        let p = package();
        assert!(p.jam(ElementId(1)).is_ok());
        assert!(matches!(
            p.jam(ElementId(0)),
            Err(LinkError::NoSuchElement(_))
        ));
        assert_eq!(p.jams().count(), 2);
        assert_eq!(p.rieds().count(), 1);
    }

    #[test]
    fn empty_package() {
        let p = Package::new("empty");
        assert!(p.is_empty());
        assert_eq!(p.name(), "empty");
    }
}
