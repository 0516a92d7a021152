//! The unified message-construction API: [`MessageSpec`] and the [`spec`]
//! entry point.
//!
//! Every send — single-element or chained, through a bare
//! [`TwoChainsSender`](super::TwoChainsSender) or a
//! [`SenderFleet`](super::SenderFleet) lane (which tracks the put in its own
//! transmit window) — is described by one `MessageSpec` built with the same
//! fluent chain:
//!
//! ```
//! use twochains::{spec, ChainArgMap, ElementId};
//!
//! // One element, Injected mode (the default), no payload.
//! let single = spec(ElementId(3)).args(vec![1, 2, 3, 4]);
//!
//! // A three-stage receiver-side chain: the lookup element runs first, its
//! // result feeds the filter, the filter's result feeds the aggregate — one
//! // frame, one dispatch, one round trip.
//! let chained = spec(ElementId(3))
//!     .args(7u64.to_le_bytes().to_vec())
//!     .then(ElementId(4))
//!     .then(ElementId(5))
//!     .map_result(ChainArgMap::Result);
//! assert_eq!(chained.stage_ids(), vec![4, 5]);
//! # let _ = single;
//! ```
//!
//! A spec is a plain value: build it once, send it (by reference) every
//! iteration. The senders encode straight from the borrowed spec into their
//! reusable scratch buffer, so the steady-state send path performs zero heap
//! allocations.

use twochains_linker::ElementId;

use crate::config::InvocationMode;
use crate::error::{AmError, AmResult};
use crate::frame::{ChainArgMap, ChainDescriptor, ChainStage, CHAIN_MAX_STAGES};

/// Start building a message for `elem` — the single construction path for
/// every send. Defaults: [`InvocationMode::Injected`], empty ARGS and USR,
/// no chain.
pub fn spec(elem: ElementId) -> MessageSpec {
    MessageSpec {
        elem,
        mode: InvocationMode::Injected,
        args: Vec::new(),
        usr: Vec::new(),
        stages: Vec::new(),
    }
}

/// A complete description of one active message: the primary element, its
/// invocation mode, the ARGS/USR sections and an optional receiver-side chain
/// of continuation stages.
///
/// Built with [`spec`]; consumed (by reference) by
/// [`TwoChainsSender::send_spec`](super::TwoChainsSender::send_spec) and
/// [`SenderLane::send_spec`](super::SenderLane::send_spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpec {
    elem: ElementId,
    mode: InvocationMode,
    args: Vec<u8>,
    usr: Vec<u8>,
    stages: Vec<ChainStage>,
}

impl MessageSpec {
    /// Set the invocation mode of the primary element.
    pub fn mode(mut self, mode: InvocationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `.mode(InvocationMode::Local)`.
    pub fn local(self) -> Self {
        self.mode(InvocationMode::Local)
    }

    /// Shorthand for `.mode(InvocationMode::Injected)` (the default).
    pub fn injected(self) -> Self {
        self.mode(InvocationMode::Injected)
    }

    /// Set the fixed argument block.
    pub fn args(mut self, args: impl Into<Vec<u8>>) -> Self {
        self.args = args.into();
        self
    }

    /// Set the user payload.
    pub fn usr(mut self, usr: impl Into<Vec<u8>>) -> Self {
        self.usr = usr.into();
        self
    }

    /// Append a continuation stage: after the previous stage retires on the
    /// receiver, `elem` runs with the default [`ChainArgMap::Result`] mapping
    /// (the previous stage's result registers become its operand). Adjust the
    /// mapping of the stage just appended with [`MessageSpec::map_result`].
    ///
    /// The wire format carries at most [`CHAIN_MAX_STAGES`] stages; the
    /// ceiling is enforced when the spec is sent, so over-building fails the
    /// send loudly instead of panicking mid-chain.
    pub fn then(mut self, elem: ElementId) -> Self {
        self.stages.push(ChainStage {
            elem_id: elem.0,
            map: ChainArgMap::Result,
        });
        self
    }

    /// Set the arg mapping of the most recently appended stage.
    ///
    /// # Panics
    ///
    /// Panics when called before any [`MessageSpec::then`] — there is no
    /// stage to map, which is a builder-usage bug, not a runtime condition.
    pub fn map_result(mut self, map: ChainArgMap) -> Self {
        self.stages
            .last_mut()
            .expect("map_result called before then(): no chain stage to map")
            .map = map;
        self
    }

    /// The primary element.
    pub fn elem(&self) -> ElementId {
        self.elem
    }

    /// The primary element's invocation mode.
    pub fn invocation(&self) -> InvocationMode {
        self.mode
    }

    /// The fixed argument block.
    pub fn args_bytes(&self) -> &[u8] {
        &self.args
    }

    /// The user payload.
    pub fn usr_bytes(&self) -> &[u8] {
        &self.usr
    }

    /// Whether the spec carries continuation stages.
    pub fn is_chained(&self) -> bool {
        !self.stages.is_empty()
    }

    /// Element ids of the continuation stages, in execution order
    /// (introspection for tests and examples).
    pub fn stage_ids(&self) -> Vec<u32> {
        self.stages.iter().map(|s| s.elem_id).collect()
    }

    /// Validate and materialise the chain descriptor this spec describes:
    /// `None` for an unchained spec, an error past the wire ceiling of
    /// [`CHAIN_MAX_STAGES`] stages.
    pub(crate) fn chain_descriptor(&self) -> AmResult<Option<ChainDescriptor>> {
        if self.stages.is_empty() {
            return Ok(None);
        }
        if self.stages.len() > CHAIN_MAX_STAGES {
            return Err(AmError::BadFrame(format!(
                "spec chains {} continuation stages, the wire format carries at most \
                 {CHAIN_MAX_STAGES}",
                self.stages.len()
            )));
        }
        let mut c = ChainDescriptor::new();
        for stage in &self.stages {
            c.push(*stage).expect("length checked above");
        }
        Ok(Some(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_chaining() {
        let s = spec(ElementId(7));
        assert_eq!(s.elem(), ElementId(7));
        assert_eq!(s.invocation(), InvocationMode::Injected);
        assert!(!s.is_chained());
        assert!(s.chain_descriptor().unwrap().is_none());

        let s = spec(ElementId(1))
            .local()
            .args(vec![1, 2])
            .usr(vec![3])
            .then(ElementId(2))
            .then(ElementId(3))
            .map_result(ChainArgMap::KeepArgs);
        assert_eq!(s.invocation(), InvocationMode::Local);
        assert_eq!(s.args_bytes(), &[1, 2]);
        assert_eq!(s.usr_bytes(), &[3]);
        assert_eq!(s.stage_ids(), vec![2, 3]);
        let desc = s.chain_descriptor().unwrap().unwrap();
        assert_eq!(desc.stages()[0].map, ChainArgMap::Result);
        assert_eq!(desc.stages()[1].map, ChainArgMap::KeepArgs);
    }

    #[test]
    fn over_long_chain_fails_at_descriptor_time() {
        let mut s = spec(ElementId(1));
        for i in 0..CHAIN_MAX_STAGES as u32 + 1 {
            s = s.then(ElementId(10 + i));
        }
        match s.chain_descriptor() {
            Err(AmError::BadFrame(msg)) => assert!(msg.contains("at most"), "{msg}"),
            other => panic!("over-long chain not refused: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "map_result called before then()")]
    fn map_result_without_stage_panics() {
        let _ = spec(ElementId(1)).map_result(ChainArgMap::Result);
    }
}
