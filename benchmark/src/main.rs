//! The repository's benchmark: one seeded workload per run, measured on both
//! clocks — virtual time, which is what the model claims the paper's hardware
//! would do, and wall time, which is what this simulator costs — and checked
//! against output oracles. `README.md` beside this package defines every
//! metric and says why each workload exists.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload warm_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod gen;
mod metrics;
mod probes;
mod stats;
mod testbed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Report, END_TO_END, PER_LAYER};
use stats::{median, percentile, ratio};
use trace::{self_times, Tracer};
use workloads::{Plan, WorkloadInfo, WORKLOADS};

/// Times the workload is set up in one run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Share of `--seconds` a traced run spends in timed blocks; the rest goes to
/// the probes and extra passes only a traced run makes.
const TRACED_SHARE: f64 = 0.6;

struct Args {
    workload: &'static WorkloadInfo,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut out) =
            (None, 1, 10.0, false, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("not a number"))?;
                    if !(seconds > 0.0 && seconds <= 60.0) {
                        return Err(bad("outside (0, 60]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("neither 0 nor 1")),
                    }
                }
                "--out" => out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name: String = workload.ok_or("--workload is required")?;
        let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("no workload {name}; there are {}", names.join(", "))
        })?;
        // Build outputs and traces live together, outside the source tree.
        let out = out.unwrap_or_else(|| {
            let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
            target
                .unwrap_or_else(|| PathBuf::from("benchmark/target"))
                .join("benchmark-out")
        });
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out,
        })
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand the allocator's free memory back to the kernel, so that every set-up
/// starts where a fresh process does: on memory it has to fault in. Without
/// this a set-up costs 2 ms or 6 ms depending on whether the allocator
/// happened to keep the previous testbed's pages, and `setup_s` reads either.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's own entry point, takes no pointer
        // and only releases memory the allocator already holds as free.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One timed block as the driver saw it.
struct BlockSample {
    msgs: u64,
    wall_ns: u64,
    traced: bool,
}

impl BlockSample {
    fn rate(&self) -> f64 {
        self.msgs as f64 * 1e9 / self.wall_ns as f64
    }
}

fn median_rate<'a>(blocks: impl Iterator<Item = &'a BlockSample>) -> f64 {
    let mut rates: Vec<f64> = blocks.map(BlockSample::rate).collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&mut rates)
    }
}

fn run(args: &Args) -> Report {
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let mut report = Report::new();
    let mut tracer = Tracer::new(args.trace);

    // Set up several times over; the last testbed is the one measured.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        release_freed_memory();
        let start = Instant::now();
        let open = tracer.enter("setup");
        workload = Some((args.workload.build)(plan, &mut tracer));
        tracer.exit(open);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    report.set("setup_s", median(&mut setups));

    // Timed blocks: the fixed-count section first, then the same traffic
    // until the time is up. A traced run records every other block, so the
    // two kinds of block see the same machine.
    let budget = args.seconds * if args.trace { TRACED_SHARE } else { 1.0 };
    let model_blocks = workload.model_blocks();
    let mut blocks: Vec<BlockSample> = Vec::new();
    let start = Instant::now();
    while blocks.len() < model_blocks || start.elapsed().as_secs_f64() < budget {
        let idx = blocks.len();
        tracer.begin_block(idx + 1, args.trace && idx % 2 == 1);
        let block_start = Instant::now();
        let open = tracer.enter("block");
        let count = workload.block(idx, &mut tracer);
        tracer.exit(open);
        blocks.push(BlockSample {
            msgs: count.msgs,
            wall_ns: block_start.elapsed().as_nanos() as u64,
            traced: tracer.is_on(),
        });
        report.attempted += count.msgs;
        report.failed += count.failed;
    }
    tracer.begin_block(0, false);
    report.set("peak_rss_mb", peak_rss_mb());

    // Other tenants of the machine only ever slow a block down, so the rate
    // the fastest tenth of the blocks reach says most about the program.
    let mut rates: Vec<f64> = blocks.iter().map(BlockSample::rate).collect();
    rates.sort_by(f64::total_cmp);
    report.set("wall_msgs_per_sec", percentile(&rates, 0.9));
    report.set("wall.blocks", blocks.len() as f64);
    report.set("wall.block_rate_p25", percentile(&rates, 0.25));
    report.set("wall.block_rate_p50", percentile(&rates, 0.5));
    report.set("wall.block_rate_p75", percentile(&rates, 0.75));

    workload.finish(plan, &mut report);

    // Host time per modelled time, over the fixed-count section.
    let model_wall_ns: u64 = blocks[..model_blocks].iter().map(|b| b.wall_ns).sum();
    let model_ns = report.get("sim.model_ms").unwrap_or(0.0) * 1e6;
    report.set(
        "sim.host_ns_per_model_ns",
        ratio(model_wall_ns as f64, model_ns),
    );

    if args.trace {
        span_metrics(&tracer, &blocks, &mut report);
        probes::run(args.workload.frame, &mut report);
        let name = args.workload.name;
        let path = args.out.join(format!("trace_{name}.jsonl"));
        match tracer.write_jsonl(&path, name) {
            Ok(()) => report.notes.push(format!(
                "trace: {} spans in {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.fail_state(format!("cannot write {}: {e}", path.display())),
        }
    }
    report
}

/// The per-layer wall metrics the spans of a traced run give.
fn span_metrics(tracer: &Tracer, blocks: &[BlockSample], report: &mut Report) {
    let traced_msgs: u64 = blocks.iter().filter(|b| b.traced).map(|b| b.msgs).sum();
    let per_msg = |name: &str| ratio(tracer.total_ns(name) as f64, traced_msgs as f64);
    report.set("sender.fill_wall_ns_per_msg", per_msg("sender.fill"));
    report.set("host.drain_wall_ns_per_msg", per_msg("host.drain"));
    report.set("fleet.harvest_wall_ns_per_msg", per_msg("fleet.harvest"));
    let count = |name: &str| tracer.spans().iter().filter(|s| s.name == name).count();
    report.set(
        "host.invalidate_wall_ns",
        ratio(
            tracer.total_ns("host.invalidate") as f64,
            count("host.invalidate") as f64,
        ),
    );
    let per_setup_ms = |name: &str| tracer.total_ns(name) as f64 / 1e6 / SETUPS as f64;
    report.set(
        "linker.package_build_wall_ms",
        per_setup_ms("linker.package_build"),
    );
    report.set("linker.install_wall_ms", per_setup_ms("linker.install"));
    report.set("linker.connect_wall_ms", per_setup_ms("fleet.connect"));
    report.set("host.new_wall_ms", per_setup_ms("host.new"));

    // A block's self time is the benchmark's own: generating inputs,
    // checking outputs, keeping samples.
    let self_ns = self_times(tracer.spans());
    let (mut block_ns, mut block_self_ns) = (0u64, 0u64);
    for (span, own) in tracer.spans().iter().zip(self_ns) {
        if span.name == "block" {
            block_ns += span.duration_ns();
            block_self_ns += own;
        }
    }
    report.set(
        "gen.self_wall_share",
        ratio(block_self_ns as f64, block_ns as f64),
    );
    report.set("trace.spans", tracer.spans().len() as f64);
    let untraced = median_rate(blocks.iter().filter(|b| !b.traced));
    let traced = median_rate(blocks.iter().filter(|b| b.traced));
    report.set("trace.overhead_share", ratio(untraced - traced, untraced));
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}: {}", args.workload.name, args.workload.why);
    println!(
        "seed {} seconds {} trace {} host threads {}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (def, value) in report.rows(defs) {
        println!("{:<40} {:>18.4} {}", def.name, value, def.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "model_* and *.model_* are virtual time; the model is not validated against \
         hardware (the repository holds no reference measurements), so no error figure is given"
    );
    println!("{}", report.result_line(defs));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
