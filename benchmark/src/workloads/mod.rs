//! The six workloads and what they share: the block interface the driver
//! times, the modelled-time accumulator, the counter snapshot the per-layer
//! metrics come from, and the Indirect Put output oracle.

mod open_loop;
mod pipeline;
mod single;
mod stream;

use twochains::builtin::{indirect_put_args, BuiltinJam, TABLE_BUCKETS};
use twochains::fabric::FaultSnapshot;
use twochains::memsim::{HierarchyStats, SimTime};
use twochains::{InvocationMode, ReceiveOutcome, RuntimeStats, TwoChainsHost};

use crate::gen;
use crate::metrics::Report;
use crate::probes::FrameShape;
use crate::stats::{percentile, ratio};
use crate::trace::Tracer;

/// A workload's name, the reason it exists (the `why` of `BENCHMARK.json`),
/// the frame it sends, which the isolated probes time the layers on, and how
/// it is set up.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
    pub frame: FrameShape,
    pub build: fn(Plan, &mut Tracer) -> Box<dyn Workload>,
}

const PUT_FRAME: FrameShape = FrameShape {
    jam: BuiltinJam::IndirectPut,
    mode: InvocationMode::Injected,
    usr_ints: PUT_INTS,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "warm_stream",
        why: "closed loop, batched 1.5 KB Indirect Put bursts over 64 hot keys: every cache hits, \
              so template, batch put, stash, scan, probes and credit flush do the work",
        frame: PUT_FRAME,
        build: |plan, tracer| Box::new(stream::Stream::warm_stream(plan, tracer)),
    },
    WorkloadInfo {
        name: "payload_sum",
        why: "closed loop, 15-16 KiB Server-Side Sum in Local mode: per-byte work dominates, \
              so a dispatch, cache or credit change must show no change here",
        frame: FrameShape {
            jam: BuiltinJam::ServerSideSum,
            mode: InvocationMode::Local,
            usr_ints: SUM_INTS,
        },
        build: |plan, tracer| Box::new(stream::Stream::payload_sum(plan, tracer)),
    },
    WorkloadInfo {
        name: "cold_churn",
        why: "closed loop, injection caches invalidated before every message: \
              the same cache and VM layers as warm_stream, on the miss and insert side",
        frame: PUT_FRAME,
        build: |plan, tracer| Box::new(single::Single::cold_churn(plan, tracer)),
    },
    WorkloadInfo {
        name: "chain3",
        why: "closed loop, one chained frame per item through lookup, filter and aggregate: \
              one parse, wait and credit pay for three dispatches on tiny frames",
        frame: FrameShape {
            jam: BuiltinJam::GraphLookup,
            mode: InvocationMode::Injected,
            usr_ints: 0,
        },
        build: |plan, tracer| Box::new(single::Single::chain3(plan, tracer)),
    },
    WorkloadInfo {
        name: "shard2_stream",
        why: "closed loop, the warm_stream traffic over two lanes and two shards on one thread: \
              per-shard cores, tables and credit paths, a round costs the slower shard",
        frame: PUT_FRAME,
        build: |plan, tracer| Box::new(stream::Stream::shard2_stream(plan, tracer)),
    },
    WorkloadInfo {
        name: "open_loop_noise",
        why: "open loop in virtual time, seeded exponential arrivals at fixed rates under the \
              memory stressor with stashing on: queues form and the tail is measured",
        frame: PUT_FRAME,
        build: |plan, tracer| Box::new(open_loop::OpenLoop::new(plan, tracer)),
    },
];

/// What the driver needs from a run: its seed and how long it measures. The
/// length of every fixed-count section scales with `seconds`, so one
/// (seed, seconds) pair always simulates the same messages.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    /// Traced runs measure for part of `seconds` and spend the rest on the
    /// extra passes only they make.
    pub traced: bool,
}

impl Plan {
    /// `per_10s` blocks at the declared ten-second run, scaled to this run and
    /// never fewer than two.
    pub fn blocks(&self, per_10s: usize) -> usize {
        ((per_10s as f64 * self.seconds / 10.0).ceil() as usize).max(2)
    }
}

/// Messages a block offered and how many of them failed: were rejected, were
/// never delivered, or returned a result the oracle refutes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCount {
    pub msgs: u64,
    pub failed: u64,
}

pub trait Workload {
    /// The first `model_blocks()` blocks form the fixed-count section every
    /// modelled number and every counter is taken from; later blocks repeat
    /// the same traffic for the wall clock only.
    fn model_blocks(&self) -> usize;

    /// Run timed block `idx`.
    fn block(&mut self, idx: usize, tracer: &mut Tracer) -> BlockCount;

    /// Check final state and store the workload's metrics.
    fn finish(self: Box<Self>, plan: Plan, report: &mut Report);
}

/// Modelled (virtual-time) results of the fixed-count section.
#[derive(Debug, Default)]
pub struct ModelAcc {
    /// Virtual time the section's messages took: the throughput denominator.
    pub time: SimTime,
    /// Virtual time that passed while the section ran, idle gaps included.
    pub elapsed: SimTime,
    /// Per message, post (or due) to `handler_done`, in picoseconds.
    pub latencies_ps: Vec<u64>,
    pub dispatch: SimTime,
    pub handler: SimTime,
    pub instrs: u64,
    /// Virtual sender CPU time (pack + NIC posting) and post-to-delivery time.
    pub sender_cpu: SimTime,
    pub put_time: SimTime,
    pub puts: u64,
}

impl ModelAcc {
    /// An accumulator for `msgs` messages, so that its memory does not
    /// depend on how a vector happens to grow.
    pub fn with_capacity(msgs: usize) -> Self {
        ModelAcc {
            latencies_ps: Vec::with_capacity(msgs),
            ..Default::default()
        }
    }

    pub fn observe(&mut self, out: &ReceiveOutcome, latency: SimTime) {
        self.latencies_ps.push(latency.as_ps());
        self.dispatch += out.dispatch_time;
        self.handler += out.handler_time;
        self.instrs += out.exec.map_or(0, |e| e.instructions);
    }

    pub fn msgs(&self) -> u64 {
        self.latencies_ps.len() as u64
    }

    pub fn msgs_per_sec(&self) -> f64 {
        ratio(self.msgs() as f64, self.time.as_secs())
    }

    /// Store the end-to-end modelled metrics and the per-layer modelled times.
    /// `stages_per_frame` is how many jams one frame ran.
    pub fn report(&self, stages_per_frame: f64, report: &mut Report) {
        let msgs = self.msgs() as f64;
        let mut sorted = self.latencies_ps.clone();
        sorted.sort_unstable();
        let ns = |ps: u64| ps as f64 / 1000.0;
        report.set("model_msgs_per_sec", self.msgs_per_sec());
        report.set("model_mean_ns", ratio(ns(sorted.iter().sum()), msgs));
        report.set("model_p99_ns", ns(percentile(&sorted, 0.99)));
        report.set("model.p50_ns", ns(percentile(&sorted, 0.5)));
        report.set("model.samples", msgs);
        report.set("sim.model_ms", self.elapsed.as_ns() / 1e6);
        let exec = self.handler - self.dispatch;
        report.set(
            "host.model_dispatch_ns_per_msg",
            ratio(self.dispatch.as_ns(), msgs),
        );
        report.set(
            "host.model_dispatch_ns_per_stage",
            ratio(self.dispatch.as_ns(), msgs * stages_per_frame),
        );
        report.set(
            "host.model_handler_ns_per_msg",
            ratio(self.handler.as_ns(), msgs),
        );
        report.set("jamvm.model_exec_ns_per_msg", ratio(exec.as_ns(), msgs));
        report.set(
            "jamvm.model_exec_share_of_handler",
            ratio(exec.as_ns(), self.handler.as_ns()),
        );
        report.set("jamvm.instrs_per_msg", ratio(self.instrs as f64, msgs));
        report.set(
            "sender.model_cpu_ns_per_msg",
            ratio(self.sender_cpu.as_ns(), msgs),
        );
        report.set(
            "fabric.model_put_ns",
            ratio(self.put_time.as_ns(), self.puts as f64),
        );
    }
}

/// The program's own counters, read once the fixed-count section ends so
/// that they repeat exactly for one seed.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub host: RuntimeStats,
    pub sender: RuntimeStats,
    pub mem: HierarchyStats,
    pub faults: FaultSnapshot,
}

impl Counters {
    /// Read the counters of a receiver and its sender on a clean link.
    pub fn snapshot(host: &TwoChainsHost, sender: RuntimeStats) -> Self {
        Counters {
            host: host.stats(),
            sender,
            mem: host.hierarchy_stats(),
            faults: FaultSnapshot::default(),
        }
    }

    /// Forward data puts: every frame sent alone plus one per batch container.
    pub fn forward_puts(&self) -> u64 {
        let s = &self.sender;
        s.messages_sent - s.batched_frames + s.batch_puts
    }

    /// Jams run per frame received: 1, or the chain's length.
    pub fn stages_per_frame(&self) -> f64 {
        ratio(
            self.host.executions as f64,
            self.host.messages_received as f64,
        )
    }

    pub fn report(&self, report: &mut Report) {
        let (h, s, m) = (&self.host, &self.sender, &self.mem);
        let received = h.messages_received as f64;
        let sent = s.messages_sent as f64;
        let accesses = m.l1_hits + m.l2_hits + m.l3_hits + m.llc_hits + m.dram_accesses;
        report.set(
            "memsim.llc_hit_share",
            ratio(m.llc_hits as f64, accesses as f64),
        );
        report.set(
            "memsim.dram_accesses_per_msg",
            ratio(m.dram_accesses as f64, received),
        );
        report.set(
            "memsim.stashed_lines_per_msg",
            ratio(m.stashed_lines as f64, received),
        );
        let puts = self.forward_puts() as f64;
        report.set("fabric.puts_per_msg", ratio(puts, sent));
        report.set("frame.batch_frames_per_put", ratio(sent, puts));
        report.set("frame.wire_bytes_per_msg", ratio(s.bytes_sent as f64, sent));
        report.set(
            "fabric.completions_harvested_per_msg",
            ratio(s.completions_harvested as f64, sent),
        );
        report.set("fabric.dropped", self.faults.dropped as f64);
        report.set("fabric.duplicated", self.faults.duplicated as f64);
        report.set("fabric.reordered", self.faults.reordered as f64);
        report.set(
            "sender.template_hit_share",
            ratio(
                s.template_hits as f64,
                (s.template_hits + s.template_misses) as f64,
            ),
        );
        report.set(
            "sender.backpressured_per_kmsg",
            ratio(1000.0 * s.sends_backpressured as f64, sent),
        );
        report.set(
            "fleet.credit_stall_events_per_kmsg",
            ratio(1000.0 * s.credit_stall_events as f64, sent),
        );
        report.set(
            "fleet.retransmits_per_drop",
            ratio(s.frames_retransmitted as f64, self.faults.dropped as f64),
        );
        report.set(
            "host.model_wait_ns_per_msg",
            ratio(h.wait_time.as_ns(), received),
        );
        let share = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
        report.set(
            "host.code_cache_hit_share",
            share(h.injected_code_cache_hits, h.injected_code_cache_misses),
        );
        report.set(
            "host.got_cache_hit_share",
            share(h.got_cache_hits, h.got_cache_misses),
        );
        report.set(
            "host.resolved_cache_hit_share",
            share(h.resolved_cache_hits, h.resolved_cache_misses),
        );
        report.set("host.chain_stages_per_frame", self.stages_per_frame());
        report.set("host.frames_rejected", h.frames_rejected as f64);
        report.set("host.replays_suppressed", h.replays_suppressed as f64);
        report.set("host.nacks_posted", h.nacks_posted as f64);
        report.set(
            "jamvm.superinstr_per_msg",
            ratio(h.superinstructions_executed as f64, received),
        );
        let busy = h.wait_time + h.exec_time + h.credit_put_time;
        report.set(
            "credit.model_time_share",
            ratio(h.credit_put_time.as_ns(), busy.as_ns()),
        );
        report.set(
            "credit.flushes_per_msg",
            ratio(h.credit_flushes as f64, received),
        );
        report.set(
            "credit.bytes_per_flush",
            ratio(h.credit_flush_bytes as f64, h.credit_flushes as f64),
        );
    }
}

/// Integers per Indirect Put payload in every workload that uses it.
pub const PUT_INTS: usize = 8;
/// Integers per Server-Side Sum payload: 16 KiB.
pub const SUM_INTS: usize = 4096;

/// Generator and output oracle of the Indirect Put workloads. A message's key
/// is picked from a seeded key set by its coordinates, and its payload is a
/// function of its key, so the table's final contents are the same in any
/// delivery order.
#[derive(Debug)]
pub struct PutOracle {
    seed: u64,
    /// The receiver shard whose table the keys land in.
    shard: usize,
    keys: Vec<u64>,
    /// Address the program returned for each key when it first did; 0 before.
    addrs: Vec<u64>,
}

impl PutOracle {
    pub fn new(seed: u64, keys: usize, shard: usize) -> Self {
        PutOracle {
            seed,
            shard,
            keys: gen::keys(seed, keys),
            addrs: vec![0; keys],
        }
    }

    /// Which key the message at coordinates (`a`, `b`) carries.
    pub fn pick(&self, a: u64, b: u64) -> usize {
        (gen::mix2(self.seed, a, b) % self.keys.len() as u64) as usize
    }

    /// The ARGS and USR sections of a put under key number `key`.
    pub fn message(&self, key: usize) -> (Vec<u8>, Vec<u8>) {
        let k = self.keys[key];
        (
            indirect_put_args(k, PUT_INTS as u32, 4),
            gen::payload_for_key(self.seed, k, PUT_INTS),
        )
    }

    /// Whether `result`, the address the jam returned, is consistent: one key
    /// always lands at one address.
    pub fn check(&mut self, key: usize, result: u64) -> bool {
        if self.addrs[key] == 0 {
            self.addrs[key] = result;
        }
        result != 0 && self.addrs[key] == result
    }

    /// Read the server's table back and hold it against the generator: every
    /// key sent has a bucket, the bucket's offset is where the jam said it
    /// wrote, and the bytes there are the key's payload.
    pub fn verify_table(&self, host: &TwoChainsHost, report: &mut Report) {
        let buckets = match host.read_shard_data(self.shard, "table.buckets", 0, TABLE_BUCKETS * 16)
        {
            Ok(bytes) => bytes,
            Err(e) => return report.fail_state(format!("table.buckets unreadable: {e}")),
        };
        let word = |at: usize| u64::from_le_bytes(buckets[at..at + 8].try_into().expect("8 bytes"));
        let mut base: Option<u64> = None;
        let mut checked = 0usize;
        for (idx, &key) in self.keys.iter().enumerate() {
            let addr = self.addrs[idx];
            if addr == 0 {
                continue;
            }
            let Some(offset) = (0..TABLE_BUCKETS)
                .find(|b| word(b * 16) == key && word(b * 16 + 8) != 0)
                .map(|b| word(b * 16 + 8))
            else {
                return report.fail_state(format!("key {key:#x} was put but has no bucket"));
            };
            if *base.get_or_insert(addr.wrapping_sub(offset)) != addr.wrapping_sub(offset) {
                return report.fail_state(format!("key {key:#x} was written off its bucket"));
            }
            let want = gen::payload_for_key(self.seed, key, PUT_INTS);
            match host.read_shard_data(self.shard, "table.data", offset as usize, want.len()) {
                Ok(got) if got == want => checked += 1,
                Ok(_) => return report.fail_state(format!("key {key:#x} holds other bytes")),
                Err(e) => return report.fail_state(format!("table.data unreadable: {e}")),
            }
        }
        report.notes.push(format!(
            "oracle: {checked} keys read back from shard {}'s table",
            self.shard
        ));
    }
}
