//! Tier-1 runs the perf gate's deterministic bars.
//!
//! The `fastpath` binary (CI's `perf-gate` job) holds a full report against
//! every row of `twochains_bench::gate`. This test holds the same table
//! against the same regimes at the size the bars are calibrated for, on every
//! `cargo test`, so a modelled number cannot move past its bar between two CI
//! runs. The loss sweep stays in the binary: its counts depend on how the
//! faulted threaded run is scheduled. `ParallelRunner` bars are evaluated but
//! not asserted — a debug build on a wide machine would otherwise be held to
//! release wall-clock ratios.

use twochains_bench::gate::{evaluate, Runner, BARS, MESSAGES, SHARD_COUNTS};
use twochains_bench::{burst_sweep, fastpath_compare};

#[test]
fn every_deterministic_bar_holds_at_the_calibrated_size() {
    let mut report = fastpath_compare(MESSAGES);
    report.burst = burst_sweep(&SHARD_COUNTS, MESSAGES);
    let outcome = evaluate(&report).expect("the sweep covers every shard row a bar reads");

    assert_eq!(outcome.checks.len(), BARS.len(), "{}", outcome.table());
    let deterministic: Vec<_> = BARS
        .iter()
        .zip(&outcome.checks)
        .filter(|(bar, _)| bar.runner == Runner::AnyRunner)
        .collect();
    // A bar that silently drops out of the table fails here too.
    assert_eq!(deterministic.len(), 12, "{}", outcome.table());
    for (bar, check) in deterministic {
        assert_eq!(bar.name, check.name);
        assert!(check.pass, "{} regressed:\n{}", bar.name, outcome.table());
    }
}
