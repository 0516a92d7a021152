//! Measure the fast path — cold vs warm dispatch, chain amortization, the
//! shard-scaling burst sweep, the loss sweep — write the report as JSON, then
//! hold it against the perf gate's bars ([`twochains_bench::gate`]) in the same
//! process.
//!
//! ```text
//! cargo run --release -p twochains-bench --bin fastpath               # writes BENCH_fastpath.json
//! cargo run --release -p twochains-bench --bin fastpath -- out.json
//! ```
//!
//! The output path is the only argument: the message count and the shard sweep
//! are the ones the bars are calibrated for. Exit status 0 when every enforced
//! bar holds, 1 when one fails (the report is written first, so CI still
//! uploads it), 2 on a usage error.

use twochains_bench::fastpath::compare_with_burst;
use twochains_bench::gate;

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_fastpath.json".into());
    if out_path.starts_with('-') || args.next().is_some() {
        // A typo'd flag must not be silently swallowed as an output path.
        eprintln!("usage: fastpath [out.json]");
        std::process::exit(2);
    }

    let report = compare_with_burst(gate::MESSAGES, &gate::SHARD_COUNTS);
    let json = report.to_json();
    print!("{json}");
    eprintln!(
        "fastpath: cold {:.0} ns vs warm {:.0} ns dispatch ({:.2}x model, {:.2}x wall) over {} messages",
        report.cold.dispatch_ns,
        report.warm.dispatch_ns,
        report.dispatch_speedup(),
        report.wall_speedup(),
        report.messages,
    );
    for row in &report.burst {
        eprintln!(
            concat!(
                "burst: {} shard(s) drain {} msgs at {:.2} M msg/s modelled ({:.2}x), ",
                "{:.2} M msg/s wall drain-only; fill+drain {:.2} M msg/s phased vs ",
                "{:.2} M msg/s pipelined ({:.2}x overlap)"
            ),
            row.shards,
            row.messages,
            row.model_msgs_per_sec / 1e6,
            row.model_speedup,
            row.wall_msgs_per_sec / 1e6,
            row.fill_drain_wall_msgs_per_sec / 1e6,
            row.pipelined_wall_msgs_per_sec / 1e6,
            row.pipeline_ratio(),
        );
    }
    for row in &report.loss {
        eprintln!(
            concat!(
                "loss: rate {:.2} completes {} msgs at {:.2} M msg/s goodput; ",
                "{} dropped / {} retransmitted ({:.2}% overhead), ",
                "{} replays suppressed, {} NACKs posted"
            ),
            row.loss_rate,
            row.messages,
            row.goodput_msgs_per_sec / 1e6,
            row.frames_dropped,
            row.frames_retransmitted,
            row.retransmit_overhead() * 100.0,
            row.replays_suppressed,
            row.nacks_posted,
        );
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    let outcome = gate::evaluate(&report).expect("the sweep covers every shard row a bar reads");
    println!("perf gate: {out_path}");
    print!("{}", outcome.table());
    if outcome.passed() {
        println!("perf gate: OK");
    } else {
        println!("perf gate: REGRESSION — an enforced bar failed");
        std::process::exit(1);
    }
}
