//! A golden trace of the receive path.
//!
//! One seeded, single-shard scenario that crosses every stage of the receive
//! pipeline (scan, parse/unbatch, admit, resolve, execute, continue chain,
//! retire) and every way a frame can retire — executed, suppressed as a
//! replay, rejected, quarantined — through both callers (`receive` and
//! `receive_burst`), and records per frame `(detected_at, handler_done,
//! result, dispatch_time)` in picoseconds plus the receiver's full
//! [`RuntimeStats`]. The model is deterministic and `SimTime` is integer
//! picoseconds, so the trace is compared *exactly* against constants captured
//! before the receive path was restructured into stages: any regrouping that
//! reorders a bus access, a stressor draw or a cycle rounding moves a number
//! here, in tier-1, instead of in a benchmark comparison after the fact.
//!
//! The constants are not expectations about the paper's hardware; they pin
//! what this model computes. A change that moves them on purpose says so, and
//! replaces them with the trace the failing assertion prints.

mod support;

use support::{
    fleet_testbed, foreign_injected, poisoned_header, returns_77, splitmix, unknown_element,
    FleetBed,
};
use two_chains_suite::memsim::{MemoryStressor, SimTime};
use twochains::builtin::{graph_args, indirect_put_args, ssum_args, BuiltinJam};
use twochains::frame::FrameBatch;
use twochains::{
    spec, AmError, ChainArgMap, ElementId, InvocationMode, MessageSpec, ReceiveOutcome,
    RuntimeConfig, RuntimeStats, SecurityPolicy, SenderFleet, TwoChainsHost, TwoChainsSender,
};

/// The scenario's seed: payload contents, Indirect Put keys and the memory
/// stressor's random stream all derive from it.
const SEED: u64 = 0x2C4A_1B5E;

/// The rig: a one-shard host armed by a connected (but silent) fleet, a bare
/// sender whose sequence space drives every frame, and the trace so far.
struct Rig {
    host: TwoChainsHost,
    /// Held only for its session: `connect_fleet` installs the credit path and
    /// arms the replay filter and the gap watcher. It never sends.
    _fleet: SenderFleet,
    tx: TwoChainsSender,
    rng: u64,
    /// Sender-side virtual time.
    tx_clock: SimTime,
    /// Receiver-side virtual time (the drain core's last activity).
    rx_clock: SimTime,
    trace: String,
}

impl Rig {
    fn new(cfg: RuntimeConfig) -> Rig {
        let FleetBed { wire, host, fleet } = fleet_testbed(cfg, None);
        Rig {
            tx: wire.sender(&host),
            host,
            _fleet: fleet,
            rng: SEED,
            tx_clock: SimTime::ZERO,
            rx_clock: SimTime::ZERO,
            trace: String::new(),
        }
    }

    fn id(&self, jam: BuiltinJam) -> ElementId {
        self.host.builtin_id(jam).unwrap()
    }

    /// A seeded Server-Side Sum message over `n` integers.
    fn ssum(&mut self, mode: InvocationMode, n: u32) -> MessageSpec {
        let usr: Vec<u8> = (0..n)
            .flat_map(|_| (splitmix(&mut self.rng) as u32 % 1000).to_le_bytes())
            .collect();
        spec(self.id(BuiltinJam::ServerSideSum))
            .mode(mode)
            .args(ssum_args(n))
            .usr(usr)
    }

    /// A seeded Indirect Put message of `n` 4-byte elements.
    fn iput(&mut self, mode: InvocationMode, n: u32) -> MessageSpec {
        let key = splitmix(&mut self.rng) % 48;
        let usr: Vec<u8> = (0..n)
            .flat_map(|_| (splitmix(&mut self.rng) as u32).to_le_bytes())
            .collect();
        spec(self.id(BuiltinJam::IndirectPut))
            .mode(mode)
            .args(indirect_put_args(key, n, 4))
            .usr(usr)
    }

    /// The lookup → filter → aggregate chain, the filter stage under `map`.
    fn chain(&mut self, map: ChainArgMap) -> MessageSpec {
        let key = splitmix(&mut self.rng);
        spec(self.id(BuiltinJam::GraphLookup))
            .local()
            .args(graph_args(key))
            .then(self.id(BuiltinJam::GraphFilter))
            .map_result(map)
            .then(self.id(BuiltinJam::GraphAggregate))
    }

    /// Send `msg` into (`bank`, `slot`); returns `(wire length, arrival)`.
    fn send(&mut self, bank: usize, slot: usize, msg: &MessageSpec) -> (usize, SimTime) {
        let target = self.host.mailbox_target(bank, slot).unwrap();
        let sent = self.tx.send_spec(self.tx_clock, msg, &target).unwrap();
        self.tx_clock = sent.sender_free();
        (sent.wire_bytes, sent.delivered())
    }

    /// Put raw bytes into (`bank`, `slot`); returns the arrival time.
    fn put(&mut self, bank: usize, slot: usize, bytes: &[u8]) -> SimTime {
        let ep = self.tx.endpoint_mut();
        let out = support::put(ep, &self.host, bank, slot, self.tx_clock, bytes);
        self.tx_clock = out.sender_free;
        out.delivered
    }

    /// The wire bytes currently sitting in (`bank`, `slot`).
    fn wire(&self, bank: usize, slot: usize, len: usize) -> Vec<u8> {
        self.host
            .banks()
            .mailbox(bank, slot)
            .unwrap()
            .read_frame(len)
            .unwrap()
    }

    /// Encode the next frame of the sender's sequence space without sending it
    /// (container members, deliberately skipped sequence numbers).
    fn encode(&mut self, msg: &MessageSpec) -> Vec<u8> {
        let mut wire = Vec::new();
        self.tx.encode_next(msg, &mut wire).unwrap();
        wire
    }

    fn line(&mut self, label: &str, body: String) {
        self.trace.push_str(label);
        self.trace.push(' ');
        self.trace.push_str(&body);
        self.trace.push('\n');
    }

    /// Single-slot receive of (`bank`, `slot`), traced.
    fn receive(
        &mut self,
        label: &str,
        bank: usize,
        slot: usize,
        len: Option<usize>,
        arrival: SimTime,
    ) {
        let out = self.host.receive(bank, slot, len, arrival, self.rx_clock);
        let body = match &out {
            Ok(o) => {
                self.rx_clock = o.handler_done;
                frame_line(o)
            }
            Err(e) => format!("err {}", kind(e)),
        };
        self.line(label, body);
    }

    /// One burst scan starting no earlier than `arrival`, traced.
    fn burst(&mut self, label: &str, max_frames: usize, arrival: SimTime) {
        let now = self.rx_clock.max(arrival);
        let out = self.host.receive_burst(0, max_frames, now).unwrap();
        self.rx_clock = out.drained_at;
        self.line(
            label,
            format!(
                "burst start {} drained_at {} frames {} rejected {}",
                now.as_ps(),
                out.drained_at.as_ps(),
                out.frames.len(),
                out.rejected.len()
            ),
        );
        for f in &out.frames {
            let body = frame_line(&f.outcome);
            self.line(&format!("  ({},{})", f.bank, f.slot), body);
        }
        for (bank, slot, err) in &out.rejected {
            self.line(&format!("  ({bank},{slot})"), format!("err {}", kind(err)));
        }
    }
}

fn frame_line(o: &ReceiveOutcome) -> String {
    format!(
        "detected {} done {} result {} dispatch {} wait {}",
        o.detected_at.as_ps(),
        o.handler_done.as_ps(),
        o.result,
        o.dispatch_time.as_ps(),
        o.wait.elapsed.as_ps()
    )
}

/// The error's variant (and, for a broken chain, the stage it names) — not
/// its message, which is free to be reworded.
fn kind(e: &AmError) -> String {
    match e {
        AmError::ChainStageFailed { stage, .. } => format!("ChainStageFailed({stage})"),
        AmError::UnknownElement(id) => format!("UnknownElement({id})"),
        other => {
            let debug = format!("{other:?}");
            let end = debug.find(['(', ' ', '{']).unwrap_or(debug.len());
            debug[..end].to_string()
        }
    }
}

/// Every receiver-side counter, one `name value` pair per line, in the order
/// `RuntimeStats` declares them: a new counter joins the golden trace unless
/// it is named sender-side here.
fn stats_lines(stats: &RuntimeStats) -> String {
    const SENDER_SIDE: [&str; 11] = [
        "messages_sent",
        "bytes_sent",
        "template_hits",
        "template_misses",
        "sends_backpressured",
        "completions_harvested",
        "credit_stall_events",
        "credit_refills_coalesced",
        "frames_retransmitted",
        "batch_puts",
        "batched_frames",
    ];
    stats
        .fields()
        .into_iter()
        .filter(|(name, _)| !SENDER_SIDE.contains(name))
        .map(|(name, value)| format!("stat {name} {value}\n"))
        .collect()
}

/// An injected frame outside the installed package with an empty GOT: the
/// permissive policy runs it, the hardened one rejects it.
fn foreign(sn: u32) -> Vec<u8> {
    foreign_injected(sn, &[], &returns_77(), &[])
}

fn run_scenario(cfg: RuntimeConfig) -> String {
    use InvocationMode::{Injected, Local};
    let mut rig = Rig::new(cfg);

    // -- single-slot receives: cold, warm, local, chains, a broken chain ----
    let cold = rig.ssum(Injected, 8);
    let (len, at) = rig.send(0, 0, &cold);
    rig.receive("cold-injected", 0, 0, Some(len), at);
    let warm = rig.ssum(Injected, 8);
    let (warm_len, at) = rig.send(0, 0, &warm);
    let warm_wire = rig.wire(0, 0, warm_len);
    rig.receive("warm-injected", 0, 0, Some(warm_len), at);
    let local = rig.iput(Local, 16);
    let (local_len, at) = rig.send(0, 1, &local);
    let local_wire = rig.wire(0, 1, local_len);
    rig.receive("local", 0, 1, Some(local_len), at);
    let chained = rig.chain(ChainArgMap::Result);
    let (_, at) = rig.send(1, 0, &chained);
    rig.receive("chain-result", 1, 0, None, at);
    let kept = rig.chain(ChainArgMap::KeepArgs);
    let (len, at) = rig.send(1, 0, &kept);
    rig.receive("chain-keepargs", 1, 0, Some(len), at);
    let broken = rig
        .chain(ChainArgMap::Result)
        .then(ElementId(0xDEAD))
        .then(rig.id(BuiltinJam::GraphAggregate));
    let (len, at) = rig.send(1, 1, &broken);
    rig.receive("chain-unknown-stage", 1, 1, Some(len), at);
    rig.receive("empty-poll", 3, 3, None, at);

    // -- a duplicate delivery of the warm frame: suppressed, credit re-put --
    let at = rig.put(0, 0, &warm_wire);
    rig.receive("replay", 0, 0, Some(warm_wire.len()), at);

    // -- a small container through the single-slot caller: executed, replayed
    //    (the local frame again) and unparseable inner frames ----------------
    let mut batch = FrameBatch::new();
    let member = rig.ssum(Local, 4);
    batch.push(2, &rig.encode(&member)).unwrap();
    batch.push(1, &local_wire).unwrap();
    let mut torn = rig.encode(&member);
    let echo = torn.len() - 3;
    torn[echo] ^= 0xFF; // a sequence echo that no longer matches: does not parse
    batch.push(3, &torn).unwrap();
    let member = rig.iput(Injected, 4);
    batch.push(4, &rig.encode(&member)).unwrap();
    let mut container = Vec::new();
    batch.finish_into(&mut container).unwrap();
    let at = rig.put(0, 2, &container);
    rig.receive("container-single-slot", 0, 2, Some(container.len()), at);

    // -- one burst over everything else -------------------------------------
    let mut arrival = SimTime::ZERO;
    let msg = rig.ssum(Injected, 32);
    arrival = arrival.max(rig.send(0, 5, &msg).1);
    let msg = rig.iput(Injected, 64);
    arrival = arrival.max(rig.send(0, 6, &msg).1);
    arrival = arrival.max(rig.put(0, 7, &poisoned_header()));
    arrival = arrival.max(rig.put(0, 8, &unknown_element(0x0100_0000, 0xBEEF)));
    arrival = arrival.max(rig.put(0, 1, &local_wire));
    // A sequence number the receiver never sees: the gap watcher reports it
    // once it has outlived two further scans.
    let skipped = rig.ssum(Local, 1);
    let _ = rig.encode(&skipped);
    let mut batch = FrameBatch::new();
    for slot in 0..8u16 {
        let member = match slot % 4 {
            0 => rig.ssum(Injected, 8),
            1 => rig.iput(Local, 8),
            2 => rig.chain(ChainArgMap::Result),
            _ => rig.ssum(Local, 2),
        };
        batch.push(slot + 2, &rig.encode(&member)).unwrap();
    }
    let mut eight = Vec::new();
    batch.finish_into(&mut eight).unwrap();
    arrival = arrival.max(rig.put(1, 2, &eight));
    let msg = rig.chain(ChainArgMap::KeepArgs);
    arrival = arrival.max(rig.send(2, 0, &msg).1);
    let msg = rig.ssum(Local, 3);
    arrival = arrival.max(rig.send(3, 15, &msg).1);
    rig.burst("burst-mixed", 4, arrival);
    rig.burst("burst-rest", usize::MAX, arrival);

    // -- the container again (a retransmit): every inner frame is a replay --
    let at = rig.put(1, 2, &eight);
    rig.burst("burst-replayed-container", usize::MAX, at);

    // -- under the memory stressor: scheduler jitter and DRAM queueing share
    //    one seeded random stream, so the order of draws is part of the model
    rig.host
        .set_stressor(Some(MemoryStressor::new(SEED ^ 0x5EED, 0.6)));
    rig.host.invalidate_injection_caches();
    let msg = rig.ssum(Injected, 16);
    let (len, at) = rig.send(2, 1, &msg);
    rig.receive("stressed-cold", 2, 1, Some(len), at);
    let mut arrival = SimTime::ZERO;
    for slot in 2..5 {
        let msg = rig.iput(Injected, 8);
        arrival = arrival.max(rig.send(2, slot, &msg).1);
    }
    rig.burst("stressed-burst", usize::MAX, arrival);
    rig.host.set_stressor(None);

    // -- the hardened policy: GOT re-resolved locally (cold, then cached), and
    //    a frame the policy cannot vouch for is rejected ---------------------
    rig.host.config_mut().security = SecurityPolicy::Hardened;
    let mut arrival = SimTime::ZERO;
    for slot in 0..2 {
        let msg = rig.ssum(Injected, 8);
        arrival = arrival.max(rig.send(3, slot, &msg).1);
    }
    arrival = arrival.max(rig.put(3, 2, &foreign(0x0100_0001)));
    rig.burst("hardened-burst", usize::MAX, arrival);
    rig.host.config_mut().security = SecurityPolicy::Permissive;
    let at = rig.put(3, 2, &foreign(0x0100_0002));
    rig.receive("permissive-foreign", 3, 2, None, at);

    // -- without execution: dispatch only ------------------------------------
    rig.host.config_mut().skip_execution = true;
    let msg = rig.ssum(Injected, 8);
    let (len, at) = rig.send(3, 3, &msg);
    rig.receive("skip-execution", 3, 3, Some(len), at);
    rig.host.config_mut().skip_execution = false;

    rig.burst("burst-empty", usize::MAX, SimTime::ZERO);

    let stats = rig.host.stats();
    let mut trace = rig.trace;
    trace.push_str(&stats_lines(&stats));
    trace
}

fn base_config() -> RuntimeConfig {
    RuntimeConfig::paper_default().with_shards(1)
}

fn assert_trace(name: &str, actual: &str, golden: &str) {
    if actual.trim() != golden.trim() {
        let diverged = actual
            .lines()
            .zip(golden.trim().lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.trim().lines().count()));
        panic!(
            "{name}: the receive trace diverged from the golden at line {} \
             (golden: {:?}, actual: {:?}).\nFull actual trace:\n{actual}",
            diverged + 1,
            golden.trim().lines().nth(diverged),
            actual.lines().nth(diverged),
        );
    }
}

/// The shard's own address space: the only one a host has. (The name, and
/// the goldens' `_shard_local` suffix, date from when a host could also run
/// in one process-global space; that trace differed in the results that are
/// addresses into a ried object.)
#[test]
fn shard_local_space_trace_matches_the_golden() {
    assert_trace(
        "shard-local",
        &run_scenario(base_config()),
        GOLDEN_SHARD_LOCAL,
    );
}

/// A completion window of 4: the headroom watermark fires while the 8-frame
/// container's inner frames retire, so this is the one trace in which a
/// credit flush is posted between two inner frames of a container — charged
/// to `credit_put_time` (19 flushes against the wide window's 16), never
/// delaying the next inner frame, whose times were final before any retired.
#[test]
fn narrow_window_trace_matches_the_golden() {
    let mut cfg = base_config();
    cfg.completion_window = 4;
    assert_trace("narrow window", &run_scenario(cfg), GOLDEN_NARROW_WINDOW);
}

const GOLDEN_SHARD_LOCAL: &str = include_str!("golden/receive_trace_shard_local.txt");
const GOLDEN_NARROW_WINDOW: &str =
    include_str!("golden/receive_trace_narrow_window_shard_local.txt");
