//! The rig every root suite builds on (`mod support;`): the standard testbed,
//! the fleet testbed and its configuration, a raw put into a mailbox, the
//! hostile frames suites forge, SplitMix and the sender-side token census.
//! A suite that needs a host, a sender or a fleet builds it here, so a new
//! suite inherits the construction order the goldens pin.
//!
//! That order is observable: an endpoint's creation index on a link seeds its
//! fault stream. A fault plan is installed before `connect_fleet` makes the
//! lanes' endpoints, and a raw endpoint or bare sender beside a fleet is made
//! after them.

// Every suite compiles this module for itself and uses only part of it.
#![allow(dead_code)]

use two_chains_suite::fabric::{Endpoint, FaultPlan, HostId, PutOutcome, SimFabric};
use two_chains_suite::jamvm::{encode_program, Instr, Reg};
use two_chains_suite::memsim::{SimTime, TestbedConfig};
use twochains::builtin::{benchmark_package, indirect_put_args, BuiltinJam};
use twochains::frame::header;
use twochains::{
    Frame, RuntimeConfig, SenderFleet, SlotCtx, TwoChainsHost, TwoChainsSender, FRAME_HEADER_SIZE,
};

/// Two hosts of the paper's cluster back to back: senders on `a`, the
/// receiver on `b`.
pub struct Wire {
    pub fabric: SimFabric,
    pub a: HostId,
    pub b: HostId,
}

pub fn wire() -> Wire {
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    Wire { fabric, a, b }
}

impl Wire {
    /// A receiver under `cfg` with the benchmark package installed.
    pub fn host(&self, cfg: RuntimeConfig) -> TwoChainsHost {
        let mut host = TwoChainsHost::new(&self.fabric, self.b, cfg).unwrap();
        host.install_package(benchmark_package().unwrap()).unwrap();
        host
    }

    /// A bare sender on a new endpoint, holding the GOT images `host` exports
    /// for Server-Side Sum and Indirect Put.
    pub fn sender(&self, host: &TwoChainsHost) -> TwoChainsSender {
        let mut tx = TwoChainsSender::new(self.raw(), benchmark_package().unwrap());
        for jam in [BuiltinJam::ServerSideSum, BuiltinJam::IndirectPut] {
            let id = host.builtin_id(jam).unwrap();
            tx.set_remote_got(id, &host.export_got(id).unwrap());
        }
        tx
    }

    /// A fleet session with `host`: the credit path installed, the replay
    /// filter and the gap watcher armed.
    pub fn fleet(&self, host: &mut TwoChainsHost) -> SenderFleet {
        SenderFleet::connect_fleet(&self.fabric, self.a, host, benchmark_package().unwrap())
            .unwrap()
    }

    /// A new endpoint from the senders' host to the receiver.
    pub fn raw(&self) -> Endpoint {
        self.fabric.endpoint(self.a, self.b).unwrap()
    }
}

/// The standard testbed: a host under `cfg` with the benchmark package, and a
/// bare sender holding its exported GOTs.
pub fn testbed(cfg: RuntimeConfig) -> (TwoChainsHost, TwoChainsSender) {
    let wire = wire();
    let host = wire.host(cfg);
    let tx = wire.sender(&host);
    (host, tx)
}

/// The fleet configuration: `shards` shards and as many lanes, 4 KiB
/// mailboxes, and a completion window no lane can fill.
pub fn fleet_config(shards: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default().with_shards(shards);
    cfg.frame_capacity = 4096;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

/// A host and the fleet connected to it, on their wire.
pub struct FleetBed {
    pub wire: Wire,
    pub host: TwoChainsHost,
    pub fleet: SenderFleet,
}

/// The fleet testbed: a host under `cfg` and a connected fleet, with `plan`
/// on the forward link before the lanes' endpoints exist.
pub fn fleet_testbed(cfg: RuntimeConfig, plan: Option<FaultPlan>) -> FleetBed {
    let wire = wire();
    let mut host = wire.host(cfg);
    if let Some(plan) = plan {
        wire.fabric
            .install_fault_plan(wire.a, wire.b, plan)
            .unwrap();
    }
    let fleet = wire.fleet(&mut host);
    FleetBed { wire, host, fleet }
}

/// Put `bytes` into mailbox (`bank`, `slot`) through `ep`, issued at `at`: no
/// packing cost and no sender counter, so such a test asserts results and
/// errors, not times.
pub fn put(
    ep: &mut Endpoint,
    host: &TwoChainsHost,
    bank: usize,
    slot: usize,
    at: SimTime,
    bytes: &[u8],
) -> PutOutcome {
    let target = host.mailbox_target(bank, slot).unwrap();
    ep.put(at, bytes, &target.region, target.offset).unwrap()
}

/// A poisoned header: magic set, declared length far out of range. The scan
/// quarantines it.
pub fn poisoned_header() -> Vec<u8> {
    let mut bytes = Frame::local(1, 0, vec![0; 20], vec![0; 4]).encode();
    header::LEN.set(&mut bytes, 1_000_000);
    bytes.truncate(FRAME_HEADER_SIZE);
    bytes
}

/// A well-formed Local frame for element `elem`, which no package installs.
pub fn unknown_element(sn: u32, elem: u32) -> Vec<u8> {
    Frame::local(sn, elem, vec![0; 20], vec![0; 4]).encode()
}

/// `load_imm r0, 77; ret`.
pub fn returns_77() -> [Instr; 2] {
    [
        Instr::LoadImm {
            dst: Reg(0),
            imm: 77,
        },
        Instr::Ret,
    ]
}

/// An injected frame for element 999, outside the installed package, carrying
/// its own `got` section and `program` over 20 zero bytes of ARGS. The
/// permissive policy runs it; the hardened one has no GOT of its own to
/// re-resolve, so it rejects the frame.
pub fn foreign_injected(sn: u32, got: &[u8], program: &[Instr], usr: &[u8]) -> Vec<u8> {
    let code = encode_program(program);
    Frame::injected(sn, 999, got.to_vec(), code, vec![0; 20], usr.to_vec()).encode()
}

/// `n` little-endian `u32`s, `1..=n`: a Server-Side Sum over them is
/// `n (n + 1) / 2`.
pub fn ints(n: u32) -> Vec<u8> {
    (1..=n).flat_map(|v| v.to_le_bytes()).collect()
}

/// The Indirect Put a fleet fills a slot with: a key in `0..48` that moves
/// with the slot and the round, over four integers.
pub fn iput_payload(ctx: SlotCtx) -> (Vec<u8>, Vec<u8>) {
    let slot = (ctx.bank * 16 + ctx.slot) as u64;
    let key = ctx.round.wrapping_mul(13).wrapping_add(slot) % 48;
    (indirect_put_args(key, 4, 4), ints(4))
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output for the generator state that follows `state`.
pub fn mix(state: u64) -> u64 {
    let mut z = state.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance a SplitMix64 generator and return its next output.
pub fn splitmix(state: &mut u64) -> u64 {
    let out = mix(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

/// Fisher–Yates over the SplitMix stream seeded by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The tokens the sender can observe right now: one `credit_pending` probe
/// per owned mailbox, over every lane, exactly what a refill would read. A
/// token minted but not flushed is invisible here.
pub fn token_census(host: &TwoChainsHost, fleet: &SenderFleet) -> usize {
    let cfg = host.config();
    let streams = fleet.lane_count();
    let mut pending = 0;
    for stream in 0..streams {
        let lane = fleet.lane(stream).unwrap();
        for bank in (0..cfg.banks).filter(|b| b % streams == stream) {
            for slot in 0..cfg.mailboxes_per_bank {
                pending += usize::from(lane.credit_pending(bank, slot).unwrap());
            }
        }
    }
    pending
}
