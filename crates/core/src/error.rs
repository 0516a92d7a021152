//! Runtime error types.
//!
//! Each variant names the layer that refuses, so a caller matches a rejection
//! instead of parsing its text:
//!
//! - **Wire:** [`AmError::BadFrame`], every check on the arrived bytes — magic,
//!   lengths, trailer echo, reserved fields, container framing, a torn header.
//! - **Content:** [`AmError::Decode`], [`AmError::Verify`] and
//!   [`AmError::GotImage`], an injected frame whose code or GOT the receiver
//!   refuses to run; beside them [`AmError::UnknownElement`],
//!   [`AmError::PolicyViolation`] and [`AmError::ChainStageFailed`], which
//!   carries the stage's own rejection.
//! - **Execution:** [`AmError::Exec`], a VM or address-space fault.
//! - **Pipeline:** [`AmError::Wedged`], [`AmError::PipelineAborted`] and
//!   [`AmError::RetryBudgetSpent`], a pipeline run that cannot finish.
//! - **Setup and transport:** [`AmError::Fabric`], [`AmError::Link`],
//!   [`AmError::FrameTooLarge`], [`AmError::UnknownElementName`] and
//!   [`AmError::InvalidConfig`]; [`AmError::Empty`] is a poll that found
//!   nothing.

use std::fmt;

use twochains_jamvm::VerifyError;

use crate::runtime::RETRY_BUDGET;

/// Result alias for runtime operations.
pub type AmResult<T> = Result<T, AmError>;

/// Errors surfaced by the Two-Chains runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmError {
    /// A fabric operation failed.
    Fabric(String),
    /// Linking / package handling failed.
    Link(String),
    /// The frame does not fit in the configured mailbox size.
    FrameTooLarge {
        /// Bytes required.
        needed: usize,
        /// Mailbox capacity.
        capacity: usize,
    },
    /// A received frame is malformed (bad magic, inconsistent lengths).
    BadFrame(String),
    /// An injected frame's code section does not decode (the decoder's text).
    Decode(String),
    /// An injected frame's program fails verification against its GOT — on a
    /// cold and a warm cache alike.
    Verify(VerifyError),
    /// An injected frame's sender-provided GOT image does not parse.
    GotImage,
    /// Execution of the jam failed (a VM or address-space fault).
    Exec(String),
    /// No message is pending in the polled mailbox.
    Empty,
    /// The element is unknown at the receiver (Local Function id lookup failed).
    UnknownElement(u32),
    /// A symbolic element name resolved to no element in the installed package
    /// (the name-keyed counterpart of [`AmError::UnknownElement`], carrying the
    /// name that failed so the caller can see *what* was missing).
    UnknownElementName(String),
    /// A continuation stage of a chained frame failed to dispatch or execute.
    /// The frame is retired as a whole (one rejection, one credit) — `stage`
    /// reports which continuation stage (0-based, counting after the primary
    /// element) broke the chain.
    ChainStageFailed {
        /// 0-based index of the failing continuation stage.
        stage: usize,
        /// The stage's own rejection.
        cause: Box<AmError>,
    },
    /// The security policy rejected the message.
    PolicyViolation(String),
    /// The runtime was asked to do something it is not configured for.
    InvalidConfig(String),
    /// A stepped pipeline made no progress: every party still running starved
    /// for the stepper's stall bound in a row.
    Wedged,
    /// A pipeline party was released because another party failed; the run
    /// reports that party's error instead.
    PipelineAborted,
    /// A sender lane spent its retransmit budget within one stall episode.
    RetryBudgetSpent {
        /// The lane's stream index.
        lane: usize,
    },
}

impl fmt::Display for AmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmError::Fabric(m) => write!(f, "fabric error: {m}"),
            AmError::Link(m) => write!(f, "link error: {m}"),
            AmError::FrameTooLarge { needed, capacity } => {
                write!(
                    f,
                    "frame of {needed} bytes exceeds mailbox capacity {capacity}"
                )
            }
            AmError::BadFrame(m) | AmError::Decode(m) => write!(f, "malformed frame: {m}"),
            AmError::Verify(e) => write!(f, "malformed frame: {e}"),
            AmError::GotImage => write!(f, "malformed frame: bad GOT image"),
            AmError::Exec(m) => write!(f, "execution failed: {m}"),
            AmError::Empty => write!(f, "no message pending"),
            AmError::UnknownElement(id) => write!(f, "unknown package element id {id}"),
            AmError::UnknownElementName(name) => {
                write!(f, "no element named {name:?} in the installed package")
            }
            AmError::ChainStageFailed { stage, cause } => {
                write!(f, "chain stage {stage} failed: {cause}")
            }
            AmError::PolicyViolation(m) => write!(f, "security policy violation: {m}"),
            AmError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            AmError::Wedged => write!(f, "execution failed: stepped pipeline made no progress"),
            AmError::PipelineAborted => {
                write!(
                    f,
                    "execution failed: pipeline aborted: another party failed"
                )
            }
            AmError::RetryBudgetSpent { lane } => write!(
                f,
                "execution failed: lane {lane} exhausted its {RETRY_BUDGET}-retry reliability \
                 budget: frames are being lost faster than the retransmit path can recover them"
            ),
        }
    }
}

impl std::error::Error for AmError {}

impl From<twochains_fabric::FabricError> for AmError {
    fn from(e: twochains_fabric::FabricError) -> Self {
        AmError::Fabric(e.to_string())
    }
}

impl From<twochains_linker::LinkError> for AmError {
    fn from(e: twochains_linker::LinkError) -> Self {
        AmError::Link(e.to_string())
    }
}

impl From<twochains_jamvm::ExecError> for AmError {
    fn from(e: twochains_jamvm::ExecError) -> Self {
        AmError::Exec(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: AmError = twochains_fabric::FabricError::NoSuchHost(3).into();
        assert!(e.to_string().contains("no such host"));
        let e: AmError = twochains_linker::LinkError::UnresolvedSymbol("s".into()).into();
        assert!(e.to_string().contains("unresolved"));
        let e: AmError = twochains_jamvm::ExecError::FuelExhausted.into();
        assert!(e.to_string().contains("budget"));
        assert!(AmError::FrameTooLarge {
            needed: 100,
            capacity: 64
        }
        .to_string()
        .contains("100"));
        assert!(AmError::UnknownElement(7).to_string().contains('7'));
        // The name-keyed variant must surface the missing name, not a sentinel id.
        assert!(AmError::UnknownElementName("indirect_put".into())
            .to_string()
            .contains("indirect_put"));
        // A broken chain names the stage that broke it, then the stage's own error.
        let e = AmError::ChainStageFailed {
            stage: 1,
            cause: Box::new(AmError::UnknownElement(7)),
        };
        assert_eq!(
            e.to_string(),
            "chain stage 1 failed: unknown package element id 7"
        );
        // Content and pipeline variants keep the text their strings carried.
        let e = AmError::Verify(twochains_jamvm::VerifyError::BadRegister { at: 3 });
        assert_eq!(
            e.to_string(),
            "malformed frame: invalid register at instruction 3"
        );
        assert_eq!(
            AmError::GotImage.to_string(),
            "malformed frame: bad GOT image"
        );
        assert_eq!(
            AmError::Wedged.to_string(),
            "execution failed: stepped pipeline made no progress"
        );
        assert_eq!(
            AmError::PipelineAborted.to_string(),
            "execution failed: pipeline aborted: another party failed"
        );
        assert_eq!(
            AmError::RetryBudgetSpent { lane: 2 }.to_string(),
            "execution failed: lane 2 exhausted its 32-retry reliability budget: frames are \
             being lost faster than the retransmit path can recover them"
        );
        // Every receive-path `AmResult` carries the error inline: keep it narrow.
        assert_eq!(std::mem::size_of::<AmError>(), 32);
    }
}
