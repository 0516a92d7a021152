//! A golden trace of the send path.
//!
//! One seeded two-lane / two-shard fleet filling 4 banks × 12 mailboxes of
//! 4 KiB through `SenderFleet::fill_all`, drained and harvested between
//! rounds, with payload lengths chosen so every way a frame can reach the
//! wire is on the path: tiny frames that fill a container, ~1.5 KB frames
//! that close one on capacity, frames that fit a mailbox but no container
//! (posted standalone, alone and right behind a container they forced out),
//! a Local round, a mixed round, and finally a plain and a chained
//! `SenderLane::send_spec`. Per round it records the delivery horizons and
//! lane clocks in picoseconds, a hash of every mailbox's full capacity (the
//! wire bytes, container envelopes and leftovers included), each shard's
//! `drained_at` and a hash of its results, and at the end every counter of
//! the fleet's and the host's [`RuntimeStats`].
//!
//! It runs under both aggregation policies, each at a completion window wide
//! enough never to fill and at one narrow enough that back-pressure harvests
//! interleave with the puts. The model is deterministic and `SimTime` is
//! integer picoseconds, so the trace is compared *exactly* against files
//! captured before the send path was restructured into stages: a regrouping
//! that reorders a harvest against a put, charges a different pack cost or
//! moves a byte on the wire shows up here, in tier-1.
//!
//! The constants pin what this model computes, not the paper's hardware. A
//! change that moves them on purpose says so, and replaces the golden with
//! the trace the failing assertion prints.

use two_chains_suite::fabric::SimFabric;
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, graph_args, ssum_args, BuiltinJam};
use twochains::frame::{BATCH_OVERHEAD, BATCH_PREFIX_SIZE};
use twochains::{
    spec, InvocationMode, RuntimeConfig, RuntimeStats, SenderFleet, SlotCtx, TwoChainsHost,
    TwoChainsSender,
};

const SEED: u64 = 0x5E4D_7A2C;
const BANKS: usize = 4;
const PER_BANK: usize = 12;
const CAPACITY: usize = 4096;
const LANES: usize = 2;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

fn config(per_frame: bool, window: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(LANES)
        .with_sender_streams(LANES);
    cfg.banks = BANKS;
    cfg.mailboxes_per_bank = PER_BANK;
    cfg.frame_capacity = CAPACITY;
    cfg.completion_window = window;
    if per_frame {
        cfg = cfg.with_per_frame_aggregation();
    }
    cfg
}

/// How many integers a round's Server-Side Sum for this slot carries.
/// `overhead` is the wire size of the round's frame with an empty payload.
fn ints_for(round: u64, ctx: SlotCtx, overhead: usize) -> usize {
    let r = splitmix(SEED ^ (round << 40) ^ ((ctx.bank as u64) << 20) ^ ctx.slot as u64);
    // A frame this long fits its mailbox but not a container around it.
    let alone =
        (CAPACITY - BATCH_OVERHEAD - BATCH_PREFIX_SIZE + 8 - overhead) / 4 + (r % 8) as usize;
    let tiny = 2 + (r % 4) as usize;
    let kilobyte_and_a_half = 360 + (r % 20) as usize;
    match round {
        // Eight to a container: closed by the fill bound, then the bank end.
        0 => tiny,
        // Two to a container: the third would overrun the carrier.
        1 => kilobyte_and_a_half,
        // Every third slot must travel alone: first in its bank with no
        // container open, later ones right behind the container they close.
        2 if ctx.slot.is_multiple_of(3) => alone,
        2 => tiny,
        // The Local round: no GOT, no code, anything from 1 to 300 integers.
        3 => 1 + (r % 300) as usize,
        _ => match r % 5 {
            0 => alone,
            1 => kilobyte_and_a_half,
            2 => 700 + (r % 50) as usize,
            _ => tiny,
        },
    }
}

fn payload(round: u64, ctx: SlotCtx, overhead: usize) -> (Vec<u8>, Vec<u8>) {
    let n = ints_for(round, ctx, overhead);
    let mut r = SEED ^ round.wrapping_mul(0x1F3D) ^ ((ctx.bank * PER_BANK + ctx.slot) as u64);
    let usr = (0..n)
        .flat_map(|_| {
            r = splitmix(r);
            (r as u32 % 1000).to_le_bytes()
        })
        .collect();
    (ssum_args(n as u32), usr)
}

/// Every counter, one `name value` pair per line, in the order
/// `RuntimeStats` declares them: a new counter joins the trace.
fn stats_lines(who: &str, stats: &RuntimeStats) -> String {
    stats
        .fields()
        .into_iter()
        .map(|(name, value)| format!("stat {who} {name} {value}\n"))
        .collect()
}

struct Rig {
    host: TwoChainsHost,
    fleet: SenderFleet,
    /// Each shard's drain clock.
    rx_clock: [SimTime; LANES],
    trace: String,
}

impl Rig {
    fn lane_clocks(&self) -> String {
        (0..LANES)
            .map(|s| self.fleet.lane(s).unwrap().clock().as_ps().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// A hash of every mailbox over its full capacity, taken after a fill and
    /// before the drain clears the magics.
    fn mailbox_hash(&self) -> u64 {
        let mut hash = FNV_BASIS;
        for (_, _, mailbox) in self.host.banks().iter() {
            fnv(&mut hash, &mailbox.read_frame(CAPACITY).unwrap());
        }
        hash
    }

    /// Burst-drain every shard from its lane's delivery horizon, then harvest
    /// the fleet's completions; traced.
    fn drain(&mut self, horizons: &[SimTime]) {
        for (shard, &horizon) in horizons.iter().enumerate() {
            let start = self.rx_clock[shard].max(horizon);
            let out = self.host.receive_burst(shard, usize::MAX, start).unwrap();
            self.rx_clock[shard] = out.drained_at;
            let mut hash = FNV_BASIS;
            for f in &out.frames {
                fnv(&mut hash, &[f.bank as u8, f.slot as u8]);
                fnv(&mut hash, &f.outcome.result.to_le_bytes());
            }
            self.trace.push_str(&format!(
                "  shard {shard} start {} drained_at {} frames {} rejected {} results {hash:016x}\n",
                start.as_ps(),
                out.drained_at.as_ps(),
                out.frames.len(),
                out.rejected.len(),
            ));
        }
        let harvested = self.fleet.harvest_completions();
        self.trace.push_str(&format!(
            "  harvested {harvested} clocks {}\n",
            self.lane_clocks()
        ));
    }
}

fn run_scenario(per_frame: bool, window: usize) -> String {
    use InvocationMode::{Injected, Local};
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, config(per_frame, window)).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    let fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let ssum = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();

    // The wire size of an empty Server-Side Sum frame in each mode, measured
    // with a bare sender over the same package and GOT image.
    let mut probe =
        TwoChainsSender::new(fabric.endpoint(a, b).unwrap(), benchmark_package().unwrap());
    probe.set_remote_got(ssum, &host.export_got(ssum).unwrap());
    let mut overhead = |mode| {
        probe
            .pack(ssum, mode, ssum_args(0), Vec::new())
            .unwrap()
            .wire_size()
    };
    let (injected_overhead, local_overhead) = (overhead(Injected), overhead(Local));

    let mut rig = Rig {
        host,
        fleet,
        rx_clock: [SimTime::ZERO; LANES],
        trace: String::new(),
    };
    for round in 0..5u64 {
        let (mode, overhead) = match round {
            3 => (Local, local_overhead),
            _ => (Injected, injected_overhead),
        };
        let horizons = rig
            .fleet
            .fill_all(ssum, mode, round, &|ctx| payload(round, ctx, overhead))
            .unwrap();
        rig.trace.push_str(&format!(
            "round {round} horizons {} clocks {} mailboxes {:016x}\n",
            horizons
                .iter()
                .map(|h| h.as_ps().to_string())
                .collect::<Vec<_>>()
                .join(" "),
            rig.lane_clocks(),
            rig.mailbox_hash(),
        ));
        rig.drain(&horizons);
    }

    // -- single-slot sends through the lane handles: one plain, one chained --
    let plain = spec(ssum).injected().args(ssum_args(3)).usr(
        [7u32, 11, 13]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    let chained = spec(rig.host.builtin_id(BuiltinJam::GraphLookup).unwrap())
        .local()
        .args(graph_args(splitmix(SEED)))
        .then(rig.host.builtin_id(BuiltinJam::GraphFilter).unwrap())
        .then(rig.host.builtin_id(BuiltinJam::GraphAggregate).unwrap());
    let mut horizons = [SimTime::ZERO; LANES];
    for (lane, (bank, slot, msg)) in [(2, 3, &plain), (1, 5, &chained)].into_iter().enumerate() {
        let sent = rig.fleet.lanes_mut()[lane]
            .send_spec(bank, slot, msg)
            .unwrap();
        horizons[lane] = sent.delivered();
        rig.trace.push_str(&format!(
            "send_spec lane {lane} ({bank},{slot}) wire {} pack {} delivered {} free {}\n",
            sent.wire_bytes,
            sent.pack_cost.as_ps(),
            sent.delivered().as_ps(),
            sent.sender_free().as_ps(),
        ));
    }
    rig.trace.push_str(&format!(
        "send_spec clocks {} mailboxes {:016x}\n",
        rig.lane_clocks(),
        rig.mailbox_hash()
    ));
    rig.drain(&horizons);

    let mut trace = rig.trace;
    trace.push_str(&stats_lines("fleet", &rig.fleet.stats()));
    trace.push_str(&stats_lines("host", &rig.host.stats()));
    trace
}

fn assert_trace(name: &str, actual: &str, golden: &str) {
    if actual.trim() != golden.trim() {
        let diverged = actual
            .lines()
            .zip(golden.trim().lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.trim().lines().count()));
        panic!(
            "{name}: the send trace diverged from the golden at line {} \
             (golden: {:?}, actual: {:?}).\nFull actual trace:\n{actual}",
            diverged + 1,
            golden.trim().lines().nth(diverged),
            actual.lines().nth(diverged),
        );
    }
}

#[test]
fn adaptive_wide_window_trace_matches_the_golden() {
    assert_trace(
        "adaptive, window 48",
        &run_scenario(false, 48),
        include_str!("golden/send_trace_adaptive_wide.txt"),
    );
}

#[test]
fn adaptive_narrow_window_trace_matches_the_golden() {
    assert_trace(
        "adaptive, window 3",
        &run_scenario(false, 3),
        include_str!("golden/send_trace_adaptive_narrow.txt"),
    );
}

#[test]
fn per_frame_wide_window_trace_matches_the_golden() {
    assert_trace(
        "per-frame, window 48",
        &run_scenario(true, 48),
        include_str!("golden/send_trace_per_frame_wide.txt"),
    );
}

#[test]
fn per_frame_narrow_window_trace_matches_the_golden() {
    assert_trace(
        "per-frame, window 5",
        &run_scenario(true, 5),
        include_str!("golden/send_trace_per_frame_narrow.txt"),
    );
}
