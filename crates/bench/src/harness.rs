//! Benchmark shapes: ping-pong and injection rate (§VI-A).
//!
//! Both shapes drive two full [`TwoChainsHost`] runtimes over the simulated
//! back-to-back testbed from a single thread, using virtual time for all latency and
//! rate numbers. The functional work — packing, GOT patching, mailbox signalling,
//! jam execution, server-side table/array updates — happens for real, on the
//! receiver's one execution engine: the resolved image, lowered once per cached
//! injected program or Local Function.

use twochains::builtin::{benchmark_package, indirect_put_args, ssum_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig, TwoChainsHost, TwoChainsSender};
use twochains_fabric::SimFabric;
use twochains_memsim::{CycleCounter, MemoryStressor, SimTime, TestbedConfig, WaitMode};

/// Knobs a benchmark flips between runs.
#[derive(Debug, Clone)]
pub struct TestbedOptions {
    /// LLC stashing at the receiving host (the paper's Stash / Nonstash toggle).
    pub stashing: bool,
    /// Receiver wait mode (Polling / WFE).
    pub wait_mode: WaitMode,
    /// Skip function invocation (the without-execution configuration of Figs. 5–6).
    pub skip_execution: bool,
    /// Attach a fully loaded memory stressor with this seed (Figs. 11–12).
    pub stressor_seed: Option<u64>,
    /// Number of warm-up iterations before measurements start.
    pub warmup: usize,
}

impl Default for TestbedOptions {
    fn default() -> Self {
        TestbedOptions {
            stashing: true,
            wait_mode: WaitMode::Polling,
            skip_execution: false,
            stressor_seed: None,
            warmup: 20,
        }
    }
}

impl TestbedOptions {
    /// Disable LLC stashing.
    pub fn nonstash(mut self) -> Self {
        self.stashing = false;
        self
    }

    /// Use WFE-assisted waiting.
    pub fn wfe(mut self) -> Self {
        self.wait_mode = WaitMode::Wfe;
        self
    }

    /// Skip execution.
    pub fn without_execution(mut self) -> Self {
        self.skip_execution = true;
        self
    }

    /// Run on a fully loaded memory system.
    pub fn stressed(mut self, seed: u64) -> Self {
        self.stressor_seed = Some(seed);
        self
    }

    fn runtime_config(&self) -> RuntimeConfig {
        let mut cfg = RuntimeConfig::paper_default();
        cfg.wait_mode = self.wait_mode;
        cfg.skip_execution = self.skip_execution;
        cfg
    }
}

fn payload(n_ints: usize) -> Vec<u8> {
    (0..n_ints as u32)
        .flat_map(|v| v.wrapping_mul(2654435761).to_le_bytes())
        .collect()
}

fn args_for(jam: BuiltinJam, n_ints: usize, iteration: u64) -> Vec<u8> {
    match jam {
        BuiltinJam::ServerSideSum => ssum_args(n_ints as u32),
        // A small rotating key set: the client controls the distribution (Fig. 4) and
        // the benchmark reuses a handful of destination slots.
        BuiltinJam::IndirectPut => indirect_put_args(iteration % 64, n_ints as u32, 4),
        // The graph chain stages all take one 8-byte little-endian operand.
        BuiltinJam::GraphLookup | BuiltinJam::GraphFilter | BuiltinJam::GraphAggregate => {
            twochains::builtin::graph_args(iteration)
        }
    }
}

/// Result of one ping-pong sweep point.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Half-round-trip latencies, one per measured iteration.
    pub latencies: Vec<SimTime>,
    /// Receiver-side (host B) cycle counters over the full run, including warm-up —
    /// the counter Figs. 13–14 plot.
    pub receiver_cycles: CycleCounter,
    /// Frame size on the wire in bytes.
    pub frame_bytes: usize,
}

impl PingPongResult {
    /// Median half-round-trip latency in microseconds.
    pub fn median_us(&self) -> f64 {
        crate::percentile::median(&self.latencies).as_us()
    }
}

/// The ping-pong benchmark shape: one message bounces between the two hosts; each
/// side executes the active message on arrival (§VI-A1).
pub struct PingPong {
    host_a: TwoChainsHost,
    host_b: TwoChainsHost,
    sender_ab: TwoChainsSender,
    sender_ba: TwoChainsSender,
    opts: TestbedOptions,
}

impl PingPong {
    /// Build the two-host testbed with the benchmark package installed on both sides.
    pub fn new(opts: TestbedOptions) -> Self {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let cfg = opts.runtime_config();
        let mut host_a = TwoChainsHost::new(&fabric, a, cfg.clone()).expect("host A");
        let mut host_b = TwoChainsHost::new(&fabric, b, cfg).expect("host B");
        host_a
            .install_package(benchmark_package().expect("package"))
            .expect("install A");
        host_b
            .install_package(benchmark_package().expect("package"))
            .expect("install B");
        host_a.set_stashing(opts.stashing);
        host_b.set_stashing(opts.stashing);
        if let Some(seed) = opts.stressor_seed {
            host_a.set_stressor(Some(MemoryStressor::fully_loaded(seed)));
            host_b.set_stressor(Some(MemoryStressor::fully_loaded(seed ^ 0x5a5a)));
        }
        let mut sender_ab = TwoChainsSender::new(
            fabric.endpoint(a, b).expect("ep ab"),
            benchmark_package().unwrap(),
        );
        let mut sender_ba = TwoChainsSender::new(
            fabric.endpoint(b, a).expect("ep ba"),
            benchmark_package().unwrap(),
        );
        for jam in [BuiltinJam::ServerSideSum, BuiltinJam::IndirectPut] {
            let id_b = host_b.builtin_id(jam).unwrap();
            sender_ab.set_remote_got(id_b, &host_b.export_got(id_b).unwrap());
            let id_a = host_a.builtin_id(jam).unwrap();
            sender_ba.set_remote_got(id_a, &host_a.export_got(id_a).unwrap());
        }
        PingPong {
            host_a,
            host_b,
            sender_ab,
            sender_ba,
            opts,
        }
    }

    /// Run `iters` measured ping-pongs of `jam` in `mode` with an `n_ints`-integer
    /// payload.
    pub fn run(
        &mut self,
        jam: BuiltinJam,
        mode: InvocationMode,
        n_ints: usize,
        iters: usize,
    ) -> PingPongResult {
        self.host_b.reset_stats();
        self.host_a.reset_stats();
        let elem = self.host_b.builtin_id(jam).unwrap();
        let usr = payload(n_ints);
        let target_b = self.host_b.mailbox_target(0, 0).unwrap();
        let target_a = self.host_a.mailbox_target(0, 0).unwrap();

        let mut latencies = Vec::with_capacity(iters);
        let mut clock_a = SimTime::ZERO;
        let mut a_ready = SimTime::ZERO;
        let mut b_ready = SimTime::ZERO;
        let mut frame_bytes = 0usize;

        for i in 0..(self.opts.warmup + iters) {
            let start = clock_a;
            // A -> B (ping)
            let msg = spec(elem)
                .mode(mode)
                .args(args_for(jam, n_ints, i as u64))
                .usr(usr.clone());
            let sent = self
                .sender_ab
                .send_spec(start, &msg, &target_b)
                .expect("send ping");
            frame_bytes = sent.wire_bytes;
            let out_b = self
                .host_b
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), b_ready)
                .expect("receive ping");
            b_ready = out_b.handler_done;

            // B -> A (pong), carrying the same active message back.
            let sent_back = self
                .sender_ba
                .send_spec(out_b.handler_done, &msg, &target_a)
                .expect("send pong");
            let out_a = self
                .host_a
                .receive(
                    0,
                    0,
                    Some(sent_back.wire_bytes),
                    sent_back.delivered(),
                    a_ready.max(sent.sender_free()),
                )
                .expect("receive pong");
            a_ready = out_a.handler_done;
            clock_a = out_a.handler_done;

            if i >= self.opts.warmup {
                // Half round trip, as the UCX perftest reports it.
                latencies.push((out_a.handler_done - start) / 2);
            }
        }

        PingPongResult {
            latencies,
            receiver_cycles: self.host_b.stats().cycles,
            frame_bytes,
        }
    }
}

/// Result of one injection-rate sweep point.
#[derive(Debug, Clone, Copy)]
pub struct RateResult {
    /// Sustained message rate in messages per second.
    pub messages_per_sec: f64,
    /// Sustained bandwidth in MiB/s (frame bytes × rate).
    pub bandwidth_mib_s: f64,
    /// Frame size on the wire.
    pub frame_bytes: usize,
}

/// The injection-rate benchmark shape (§VI-A2): the sender streams messages into the
/// receiver's mailbox banks as fast as flow control allows; the receiver drains them
/// with a single progress thread.
pub struct InjectionRate {
    host_b: TwoChainsHost,
    sender_ab: TwoChainsSender,
    opts: TestbedOptions,
}

impl InjectionRate {
    /// Build the testbed.
    pub fn new(opts: TestbedOptions) -> Self {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let cfg = opts.runtime_config();
        let mut host_b = TwoChainsHost::new(&fabric, b, cfg).expect("host B");
        host_b
            .install_package(benchmark_package().expect("package"))
            .expect("install B");
        host_b.set_stashing(opts.stashing);
        if let Some(seed) = opts.stressor_seed {
            host_b.set_stressor(Some(MemoryStressor::fully_loaded(seed)));
        }
        let mut sender_ab = TwoChainsSender::new(
            fabric.endpoint(a, b).expect("ep"),
            benchmark_package().unwrap(),
        );
        for jam in [BuiltinJam::ServerSideSum, BuiltinJam::IndirectPut] {
            let id = host_b.builtin_id(jam).unwrap();
            sender_ab.set_remote_got(id, &host_b.export_got(id).unwrap());
        }
        InjectionRate {
            host_b,
            sender_ab,
            opts,
        }
    }

    /// Stream `iters` messages and report the sustained rate.
    pub fn run(
        &mut self,
        jam: BuiltinJam,
        mode: InvocationMode,
        n_ints: usize,
        iters: usize,
    ) -> RateResult {
        self.host_b.reset_stats();
        let elem = self.host_b.builtin_id(jam).unwrap();
        let usr = payload(n_ints);
        let banks = self.host_b.config().banks;
        let per_bank = self.host_b.config().mailboxes_per_bank;
        let total = banks * per_bank;

        let mut sender_clock = SimTime::ZERO;
        let mut receiver_ready = SimTime::ZERO;
        let mut first_send = SimTime::ZERO;
        let mut frame_bytes = 0usize;
        let measured = self.opts.warmup + iters;

        for i in 0..measured {
            let mbox = i % total;
            let (bank, slot) = (mbox / per_bank, mbox % per_bank);
            let target = self.host_b.mailbox_target(bank, slot).unwrap();
            let msg = spec(elem)
                .mode(mode)
                .args(args_for(jam, n_ints, i as u64))
                .usr(usr.clone());
            let sent = self
                .sender_ab
                .send_spec(sender_clock, &msg, &target)
                .expect("send");
            frame_bytes = sent.wire_bytes;
            sender_clock = sent.sender_free();
            // The single receiver progress thread drains messages in order; draining
            // a mailbox frees its bank slot, which is the flow-control credit.
            let out = self
                .host_b
                .receive(
                    bank,
                    slot,
                    Some(sent.wire_bytes),
                    sent.delivered(),
                    receiver_ready,
                )
                .expect("receive");
            receiver_ready = out.handler_done;
            if i == self.opts.warmup {
                first_send = sent.delivered();
            }
        }

        let elapsed = (receiver_ready - first_send).as_secs();
        let rate = iters as f64 / elapsed.max(1e-12);
        RateResult {
            messages_per_sec: rate,
            bandwidth_mib_s: rate * frame_bytes as f64 / (1024.0 * 1024.0),
            frame_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_latency_is_microsecond_scale_and_deterministic() {
        let mut pp = PingPong::new(TestbedOptions {
            warmup: 5,
            ..Default::default()
        });
        let r1 = pp.run(BuiltinJam::ServerSideSum, InvocationMode::Injected, 8, 20);
        assert_eq!(r1.latencies.len(), 20);
        let med = r1.median_us();
        assert!(
            med > 0.8 && med < 10.0,
            "median {med}us should be microsecond scale"
        );
        // Determinism: a fresh harness reproduces the same numbers.
        let mut pp2 = PingPong::new(TestbedOptions {
            warmup: 5,
            ..Default::default()
        });
        let r2 = pp2.run(BuiltinJam::ServerSideSum, InvocationMode::Injected, 8, 20);
        assert_eq!(r1.latencies, r2.latencies);
    }

    #[test]
    fn injected_is_slower_than_local_for_small_payloads() {
        let mut pp = PingPong::new(TestbedOptions {
            warmup: 3,
            ..Default::default()
        });
        let local = pp.run(BuiltinJam::IndirectPut, InvocationMode::Local, 1, 10);
        let injected = pp.run(BuiltinJam::IndirectPut, InvocationMode::Injected, 1, 10);
        assert_eq!(local.frame_bytes, 64);
        assert_eq!(injected.frame_bytes, 1472);
        assert!(injected.median_us() > local.median_us());
    }

    #[test]
    fn injection_rate_exceeds_latency_bound() {
        let mut ir = InjectionRate::new(TestbedOptions {
            warmup: 10,
            ..Default::default()
        });
        let r = ir.run(BuiltinJam::ServerSideSum, InvocationMode::Local, 16, 100);
        // Pipelined rate must beat 1/latency (which would be ~0.4-0.8 M msg/s).
        assert!(
            r.messages_per_sec > 200_000.0,
            "rate {}",
            r.messages_per_sec
        );
        assert!(r.bandwidth_mib_s > 1.0);
    }

    #[test]
    fn stashing_improves_injected_latency() {
        let mut stash = PingPong::new(TestbedOptions {
            warmup: 3,
            ..Default::default()
        });
        let mut nostash = PingPong::new(
            TestbedOptions {
                warmup: 3,
                ..Default::default()
            }
            .nonstash(),
        );
        let s = stash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, 8, 10);
        let n = nostash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, 8, 10);
        assert!(
            s.median_us() < n.median_us(),
            "stash {} should beat nonstash {}",
            s.median_us(),
            n.median_us()
        );
    }

    #[test]
    fn wfe_saves_cycles_without_hurting_latency_much() {
        let mut poll = PingPong::new(TestbedOptions {
            warmup: 3,
            ..Default::default()
        });
        let mut wfe = PingPong::new(
            TestbedOptions {
                warmup: 3,
                ..Default::default()
            }
            .wfe(),
        );
        let p = poll.run(BuiltinJam::IndirectPut, InvocationMode::Injected, 8, 15);
        let w = wfe.run(BuiltinJam::IndirectPut, InvocationMode::Injected, 8, 15);
        assert!(w.receiver_cycles.total() < p.receiver_cycles.total());
        let penalty = (w.median_us() - p.median_us()) / p.median_us();
        assert!(penalty < 0.05, "latency penalty {penalty} should be small");
    }
}
