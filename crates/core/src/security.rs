//! Security policy options (§V of the paper).
//!
//! The paper leans on the RKEY mechanism of the IBTA standard for its baseline
//! protection and lists a set of runtime reconfigurations that harden function
//! injection without large performance penalties. The hardened preset enables
//! all of them, and the runtime enforces them on the receive path:
//!
//! * **Refuse sender GOT** — "Do not accept GOT pointer indirection in the message
//!   from a sender. Have the receiver insert the GOT pointer on message arrival from
//!   a secure read-only location." The receiver ignores the GOTP section and
//!   re-resolves the jam's symbolic GOT against its own namespace, paying a small
//!   per-message resolution cost.
//! * **Read-only arguments / separate data pages** — the ARGS and USR sections are
//!   mapped read-only into the jam's address space so injected code cannot use them
//!   as a writable staging area on an executable page.
//! * **Require execute permission** — the registered mailbox region must carry the
//!   proposed IBTA *execute* permission bit before injected code is run from it.

use twochains_memsim::cost::{GOT_RESOLVE_CAP, GOT_RESOLVE_FIXED, GOT_RESOLVE_PER_SLOT};
use twochains_memsim::SimTime;

/// The two presets: the paper's benchmark configuration or every §V
/// hardening option at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecurityPolicy {
    /// The paper's benchmark configuration: everything in one RWX mailbox,
    /// the GOT image carried in the message accepted (fast path).
    #[default]
    Permissive,
    /// All hardening options from §V: the receiver resolves the GOT itself,
    /// ARGS and USR are mapped read-only, and injected code runs only out of
    /// a mailbox region registered with remote-execute permission.
    Hardened,
}

impl SecurityPolicy {
    /// Extra receiver-side cost this policy adds per injected message: GOT
    /// re-resolution when the sender's image is refused (a handful of hash
    /// lookups), [`GOT_RESOLVE_FIXED`] plus [`GOT_RESOLVE_PER_SLOT`] per slot, at
    /// most [`GOT_RESOLVE_CAP`].
    pub fn per_message_overhead(&self, got_slots: usize) -> SimTime {
        match self {
            SecurityPolicy::Permissive => SimTime::ZERO,
            SecurityPolicy::Hardened => {
                (GOT_RESOLVE_FIXED + GOT_RESOLVE_PER_SLOT * got_slots as u64).min(GOT_RESOLVE_CAP)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardened_pays_resolution_cost() {
        assert_eq!(SecurityPolicy::default(), SecurityPolicy::Permissive);
        assert_eq!(
            SecurityPolicy::Permissive.per_message_overhead(4),
            SimTime::ZERO
        );
        let cost = SecurityPolicy::Hardened.per_message_overhead(4);
        assert!(cost > SimTime::ZERO && cost < SimTime::from_ns(500));
        // Cost grows with GOT size but is capped.
        assert!(SecurityPolicy::Hardened.per_message_overhead(100) <= SimTime::from_ns(400));
    }
}
