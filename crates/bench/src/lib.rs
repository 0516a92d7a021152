//! # twochains-bench
//!
//! The benchmark harness that regenerates every evaluation figure of the Two-Chains
//! paper (CLUSTER 2021, §VI–§VII):
//!
//! * the two benchmark *shapes* — ping-pong (half-round-trip latency) and injection
//!   rate (banked flow control) — in [`harness`];
//! * the cold-vs-warm and chained dispatch regimes in [`fastpath`] and the
//!   shard-scaling burst-drain driver (modelled + multi-threaded) in [`burst`],
//!   which the `fastpath` binary measures into `BENCH_fastpath.json`;
//! * the perf gate in [`gate`]: every bar those numbers are held to is one row
//!   of one `const` table — name, reader over the typed report, bound, runner
//!   guard, with the reason for the number on the row — evaluated by the
//!   `fastpath` binary in the process that measured the report and, for the
//!   deterministic rows, by the root `tests/perf_bars.rs` on every
//!   `cargo test`. A new bar is a new row there and nowhere else;
//! * percentile statistics, including the paper's *tail latency spread* (Eq. 1), in
//!   [`mod@percentile`];
//! * one reproduction routine per figure (5–14) in [`figures`], printed by the
//!   `figures` binary (`cargo run -p twochains-bench --bin figures -- all`).
//!
//! All results are virtual-time measurements over the simulated testbed, so they are
//! deterministic and machine-independent; the *shape* of each figure (who wins, by
//! roughly what factor, where the crossover happens) is the reproduction target, not
//! the absolute microsecond values of the authors' hardware.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod burst;
pub mod fastpath;
pub mod figures;
pub mod gate;
pub mod harness;
pub mod percentile;

pub use burst::{sweep as burst_sweep, BurstRow};
pub use fastpath::{compare as fastpath_compare, FastpathReport};
pub use figures::{all_figures, figure_by_name, FigureData};
pub use harness::{InjectionRate, PingPong, RateResult, TestbedOptions};
pub use percentile::{median, percentile, summarize, tail_spread, LatencyStats};
