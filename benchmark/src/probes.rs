//! Isolated probes: the wall-clock cost of one call into a layer's public
//! function, on a frame shaped like the workload's own. They say how much of
//! the wall rate a layer can account for before anything inside the program
//! is instrumented.

use std::hint::black_box;
use std::time::{Duration, Instant};

use twochains::builtin::{benchmark_package, graph_args, indirect_put_args, ssum_args, BuiltinJam};
use twochains::fabric::{AccessFlags, SimFabric};
use twochains::frame::{Frame, FrameView};
use twochains::jamvm::{decode_program, resolve, verify};
use twochains::memsim::{AccessKind, MemoryBus, SimTime, TestbedConfig};
use twochains::{InvocationMode, TwoChainsHost};

use crate::metrics::Report;
use crate::testbed::config;

/// The frame a workload sends: which jam, how it is invoked, and how many
/// payload integers it carries.
#[derive(Debug, Clone, Copy)]
pub struct FrameShape {
    pub jam: BuiltinJam,
    pub mode: InvocationMode,
    pub usr_ints: usize,
}

/// Mean wall nanoseconds of one call of `f`, over at least 64 calls and ten
/// milliseconds.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 64 || start.elapsed() < Duration::from_millis(10) {
        for _ in 0..16 {
            f();
        }
        calls += 16;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

pub fn run(shape: FrameShape, report: &mut Report) {
    let pkg = benchmark_package().expect("the benchmark package builds");
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let capacity = 32 * 1024;
    let mut host = TwoChainsHost::new(&fabric, b, config(1, capacity))
        .expect("the host configuration is valid");
    host.install_package(pkg.clone())
        .expect("the package installs");
    let elem = host.builtin_id(shape.jam).expect("a builtin jam");
    let jam = pkg.jam(elem).expect("the jam is in the package");
    let got = host
        .export_got(elem)
        .expect("the receiver resolves its GOT");

    let ints = shape.usr_ints as u32;
    let args = match shape.jam {
        BuiltinJam::ServerSideSum => ssum_args(ints),
        BuiltinJam::IndirectPut => indirect_put_args(1, ints, 4),
        _ => graph_args(1),
    };
    let usr = vec![0x5A; shape.usr_ints * 4];
    let frame = match shape.mode {
        InvocationMode::Injected => {
            Frame::injected(1, elem.0, got.to_bytes(), jam.text.clone(), args, usr)
        }
        InvocationMode::Local => Frame::local(1, elem.0, args, usr),
    };

    let mut wire = Vec::new();
    report.set(
        "frame.probe_encode_wall_ns",
        per_call_ns(|| black_box(&frame).encode_into(&mut wire)),
    );
    report.set(
        "frame.probe_parse_wall_ns",
        per_call_ns(|| {
            black_box(FrameView::parse(black_box(&wire)).expect("the frame parses"));
        }),
    );

    let region = fabric
        .host(b)
        .and_then(|h| h.register(capacity, AccessFlags::rwx()))
        .expect("a region registers");
    let desc = region.descriptor();
    let mut endpoint = fabric.endpoint(a, b).expect("the hosts are linked");
    let mut now = SimTime::ZERO;
    report.set(
        "fabric.probe_put_wall_ns",
        per_call_ns(|| {
            now = endpoint
                .put(now, black_box(&wire), &desc, 0)
                .expect("the put lands")
                .delivered;
        }),
    );

    // The sender host's core 0 has no bus yet on this testbed: one per core.
    let mut bus = fabric.host(a).expect("the sender host").core_bus(0);
    // One frame's worth of lines, read again and again where it sits in the
    // private cache, then at a fresh address every time.
    let lines = wire.len().div_ceil(64) as f64;
    let base = 0x1000_0000u64;
    let hit = per_call_ns(|| {
        black_box(bus.access(0, base, wire.len(), AccessKind::Read));
    });
    report.set("memsim.probe_hit_line_wall_ns", hit / lines);
    let mut addr = base;
    let miss = per_call_ns(|| {
        addr += 0x1_0000;
        black_box(bus.access(0, addr, wire.len(), AccessKind::Read));
    });
    report.set("memsim.probe_miss_line_wall_ns", miss / lines);

    report.set(
        "jamvm.probe_decode_verify_wall_ns",
        per_call_ns(|| {
            let program = decode_program(black_box(&jam.text)).expect("the jam decodes");
            verify(&program, got.len()).expect("the jam verifies");
            black_box(program);
        }),
    );
    let program = decode_program(&jam.text).expect("the jam decodes");
    report.set(
        "jamvm.probe_resolve_wall_ns",
        per_call_ns(|| {
            black_box(resolve(black_box(&program), &got));
        }),
    );
}
