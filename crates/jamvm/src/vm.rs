//! What an execution takes and returns: [`VmConfig`] in, [`ExecStats`] or an
//! [`ExecError`] out.
//!
//! The engine is [`Vm::execute_resolved`] (in [`crate::resolved`]): it runs a
//! program lowered once by [`crate::resolve`] against a [`crate::JamSpace`]
//! (in the receiver, the shard's [`crate::memory::AddressSpace`]) and an
//! [`crate::ExternTable`], charging
//! every instruction fetch and every data access to the supplied
//! [`twochains_memsim::MemoryBus`]. The returned [`ExecStats`] carry both the
//! functional result (the value left in `r0`) and the virtual time the
//! execution cost — which depends on where the code and data landed (LLC if the
//! message was stashed, DRAM otherwise), reproducing the effect the paper
//! measures.

use twochains_memsim::SimTime;

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the program (should be prevented by the verifier).
    PcOutOfBounds {
        /// Offending pc.
        pc: usize,
    },
    /// A memory access faulted.
    Fault(String),
    /// A `CallExtern` went through an unresolved GOT slot.
    UnresolvedGot {
        /// The slot index.
        slot: u16,
    },
    /// A GOT slot resolved to a data address but was called as a function.
    NotCallable {
        /// The slot index.
        slot: u16,
    },
    /// The extern function itself failed.
    ExternFailed(String),
    /// The instruction budget was exhausted (runaway loop protection).
    FuelExhausted,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfBounds { pc } => write!(f, "pc {pc} out of bounds"),
            ExecError::Fault(m) => write!(f, "memory fault: {m}"),
            ExecError::UnresolvedGot { slot } => {
                write!(f, "call through unresolved GOT slot {slot}")
            }
            ExecError::NotCallable { slot } => write!(f, "GOT slot {slot} is data, not callable"),
            ExecError::ExternFailed(m) => write!(f, "extern function failed: {m}"),
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-execution configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Core the receiver thread runs on (for cache-hierarchy charging).
    pub core: usize,
    /// Simulated base address of the code (so instruction fetches hit the same cache
    /// lines the NIC stashed). Zero disables fetch charging.
    pub code_base: u64,
    /// Maximum number of instructions to retire before aborting.
    pub fuel: u64,
    /// Initial values for registers `r0..r2` — the jam entry convention (ARGS base,
    /// USR base, USR length) — so that a cached program runs as it is, whatever
    /// message it runs for.
    pub entry_regs: [u64; 3],
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            core: 0,
            code_base: 0,
            fuel: 10_000_000,
            entry_regs: [0; 3],
        }
    }
}

/// Result of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Value left in `r0` when the jam returned.
    pub result: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Number of extern calls made.
    pub extern_calls: u64,
    /// Fused superinstructions retired, a fused pair counting once each time
    /// it runs (its two halves count in `instructions`).
    pub superinstructions: u64,
    /// Time spent in instruction issue/ALU work.
    pub compute_time: SimTime,
    /// Time spent in data memory accesses (loads, stores, copies, extern memory work).
    pub memory_time: SimTime,
    /// Time spent fetching code (first touch comes from wherever the message landed).
    pub fetch_time: SimTime,
}

impl ExecStats {
    /// Total execution time.
    pub fn total_time(&self) -> SimTime {
        self.compute_time + self.memory_time + self.fetch_time
    }
}

/// The jam execution engine; see [`Vm::execute_resolved`].
#[derive(Debug, Default)]
pub struct Vm;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_error_display() {
        assert!(ExecError::FuelExhausted.to_string().contains("budget"));
        assert!(ExecError::UnresolvedGot { slot: 2 }
            .to_string()
            .contains("GOT slot 2"));
    }
}
