//! A mailbox is memory a remote party writes and the receiver executes:
//! whatever one put leaves in a slot, the next `receive_burst` must neither
//! panic nor fail, and the put must end in exactly one of four classes —
//!
//! * **retired**: the slot was drained and cleared, and every in-range slot
//!   the bytes name got exactly one fresh credit, executed or rejected alike.
//!   A frame yields 1; a container 3, 1 when its envelope is refused whole,
//!   2 when an inner prefix names a slot the bank lacks. The one frame that
//!   retires with no credit is a *suppressed replay*: the top byte of a
//!   header's sequence number is the one byte its trailer echo does not
//!   cover, so a mutant there still parses, and when that makes it "not
//!   newer" than the last frame its slot executed it retires silently;
//! * **invisible**: the header magic (byte 35) is gone — an empty slot;
//! * **pending**: a declared length a frame could have (40 ..= capacity)
//!   whose last byte is not `SIG_MAG` — the length bytes, or the signal byte
//!   itself. This is a put still in flight as far as the receiver can tell
//!   (the tail-tear class, ROADMAP item 4): nothing is reported, nothing is
//!   credited, the slot stays as it is until the sender overwrites it;
//! * **quarantined**: a declared length no frame can have. The scan clears
//!   the header magic and credits the slot once, or one put would take the
//!   slot from its lane for good.
//!
//! The sweep writes a 68-byte Local Server-Side Sum and a three-frame
//! container, each with every byte in turn set to each of [`VALUES`], under
//! fresh sequence numbers, and runs two bursts per put: the second must find
//! nothing, so a retired slot that was not cleared shows as a second drain.
//! What each mutant *should* do is worked out here from its bytes alone (the
//! public parsers say what they name; a copy of the replay rule says which
//! frames are stale); credits are read as the `credits_returned` delta and as
//! the set of tokens that moved in the lane's table, so a credit minted onto
//! a slot the bytes do not name fails too.
//!
//! A failure reads: sample, byte offset, the value written (and the byte it
//! replaced), then the class, credit count and credited slots expected and
//! found.

mod support;

use support::{fleet_testbed, FleetBed};
use two_chains_suite::fabric::Endpoint;
use two_chains_suite::memsim::SimTime;
use twochains::builtin::{ssum_args, BuiltinJam};
use twochains::frame::{
    header, is_batch, BatchView, FrameBatch, FrameView, FRAME_TRAILER_SIZE, HDR_MAG, SIG_MAG,
};
use twochains::{AmError, Frame, RuntimeConfig, SenderFleet, TwoChainsHost, FRAME_HEADER_SIZE};

/// Field boundaries (0, 1, 2, `0xff`), the length floor from both sides
/// (`0x24` = 36 = a bare header, `0x27`, `0x28` = 40 = header + trailer), the
/// sign bit from both sides, and the two magic bytes. Descending, so that the
/// top byte of a sequence number steps backwards (a stale frame) as well as
/// forwards (the slot's replay entry jumps with it).
const VALUES: [u8; 11] = [
    0xff, HDR_MAG, SIG_MAG, 0x80, 0x7f, 0x28, 0x27, 0x24, 2, 1, 0,
];
/// Header + trailer: the shortest length a frame can declare.
const SHORTEST: usize = FRAME_HEADER_SIZE + FRAME_TRAILER_SIZE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Retired,
    Invisible,
    Pending,
    Quarantined,
}

/// What one put came to: its class, the fresh credits it minted, and the
/// slots of its bank whose token moved.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    class: Class,
    credits: u64,
    credited: Vec<usize>,
}

struct Rig {
    host: TwoChainsHost,
    fleet: SenderFleet,
    raw: Endpoint,
    clock: SimTime,
    /// The next unused sequence number.
    next_sn: u32,
    /// Per mailbox, the sequence number of the last frame executed from it
    /// (0: none yet) — this test's copy of the receiver's replay filter.
    last_executed: Vec<u32>,
    /// Frames the receiver suppressed as replays so far.
    suppressed: u64,
}

/// The receiver's staleness rule: `a` is newer than `b` when it is ahead of
/// it by less than half the sequence space.
fn newer(a: u32, b: u32) -> bool {
    a != b && a.wrapping_sub(b) < u32::MAX / 2
}

impl Rig {
    /// One shard, one lane, the paper's 4 × 16 mailboxes; the session arms
    /// the credit path, the replay filter and the gap watcher.
    fn new() -> Rig {
        let FleetBed { wire, host, fleet } = fleet_testbed(RuntimeConfig::paper_default(), None);
        let slots = host.config().total_mailboxes();
        Rig {
            raw: wire.raw(),
            host,
            fleet,
            clock: SimTime::ZERO,
            next_sn: 1,
            last_executed: vec![0; slots],
            suppressed: 0,
        }
    }

    fn per_bank(&self) -> usize {
        self.host.config().mailboxes_per_bank
    }

    /// A Local Server-Side Sum over `words` copies of the next sequence
    /// number: 60 + 4 × `words` wire bytes.
    fn sum_frame(&mut self, words: usize) -> Vec<u8> {
        let sn = self.next_sn;
        self.next_sn = sn.wrapping_add(1);
        let elem = self.host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
        let usr: Vec<u8> = (0..words).flat_map(|_| sn.to_le_bytes()).collect();
        Frame::local(sn, elem.0, ssum_args(words as u32), usr).encode()
    }

    /// Three such frames declaring slots 0, 1 and 2, as one container.
    fn container(&mut self) -> Vec<u8> {
        let mut batch = FrameBatch::new();
        for slot in 0..3 {
            batch.push(slot, &self.sum_frame(2)).unwrap();
        }
        let mut bytes = Vec::new();
        batch.finish_into(&mut bytes).unwrap();
        bytes
    }

    /// One raw put of `image` into mailbox (`bank`, `slot`), issued when the
    /// rig's clock says; moves the clock to its delivery.
    fn land(&mut self, bank: usize, slot: usize, image: &[u8]) {
        let put = support::put(&mut self.raw, &self.host, bank, slot, self.clock, image);
        self.clock = put.delivered;
    }

    /// What `image`, put into mailbox (`bank`, `carrier`) over zeroes, should
    /// come to. The frames it names are returned with it so the caller can
    /// move `last_executed` once it knows which of them ran.
    fn expect<'a>(
        &self,
        image: &'a [u8],
        bank: usize,
        carrier: usize,
    ) -> (Verdict, Vec<(usize, &'a [u8])>) {
        // `named` lists one slot per fresh credit; two frames naming one
        // slot move its token twice.
        let verdict = |class, mut named: Vec<usize>| {
            let credits = named.len() as u64;
            named.sort_unstable();
            named.dedup();
            Verdict {
                class,
                credits,
                credited: named,
            }
        };
        if image[header::HDR_MAG.at] != HDR_MAG {
            return (verdict(Class::Invisible, vec![]), vec![]);
        }
        let declared = header::LEN.get(image) as usize;
        if !(SHORTEST..=self.host.config().frame_capacity).contains(&declared) {
            return (verdict(Class::Quarantined, vec![carrier]), vec![]);
        }
        // Every put into this mailbox has this image's length, so whatever
        // the declared length reaches past it is still zero.
        if image.get(declared - 1) != Some(&SIG_MAG) {
            return (verdict(Class::Pending, vec![]), vec![]);
        }
        let read = &image[..declared];
        let named: Vec<(usize, &[u8])> = if !is_batch(read) {
            vec![(carrier, read)]
        } else if let Ok(view) = BatchView::parse(read) {
            let frames = view.frames().iter();
            frames
                .map(|&(slot, bytes)| (slot as usize, bytes))
                .collect()
        } else {
            // An envelope refused whole is the carrier's frame to lose.
            return (verdict(Class::Retired, vec![carrier]), vec![]);
        };
        // One credit per in-range slot named, unless the frame parses and is
        // stale. Within one container a frame admitted earlier has already
        // moved its slot's entry (the frames that share a slot here are
        // intact, so admitted means executed).
        let mut last = self.last_executed.clone();
        let mut credited = Vec::new();
        for &(slot, bytes) in &named {
            if slot >= self.per_bank() {
                continue;
            }
            let entry = &mut last[bank * self.per_bank() + slot];
            match FrameView::parse(bytes) {
                Ok(frame) if *entry != 0 && !newer(frame.header.sn, *entry) => {}
                Ok(frame) => {
                    *entry = frame.header.sn;
                    credited.push(slot);
                }
                Err(_) => credited.push(slot),
            }
        }
        (verdict(Class::Retired, credited), named)
    }

    /// Put `image` into mailbox (`bank`, `carrier`), run two bursts, and
    /// report what became of it; `named` is what [`Rig::expect`] returned.
    fn put(
        &mut self,
        what: &str,
        image: &[u8],
        bank: usize,
        carrier: usize,
        named: &[(usize, &[u8])],
    ) -> (Verdict, usize) {
        self.fleet.lanes_mut()[0].sync_credits().unwrap();
        let before = self.host.stats();
        self.land(bank, carrier, image);
        let first = self
            .host
            .receive_burst(0, usize::MAX, self.clock)
            .unwrap_or_else(|err| panic!("{what}: the burst failed: {err}"));
        let second = self
            .host
            .receive_burst(0, usize::MAX, first.drained_at)
            .unwrap_or_else(|err| panic!("{what}: the second burst failed: {err}"));
        assert!(
            second.is_empty(),
            "{what}: the second burst found the slot again: {second:?}"
        );
        self.clock = second.drained_at;
        let after = self.host.stats();

        let mailbox = self.host.banks().mailbox(bank, carrier).unwrap();
        let head = mailbox.read_frame(FRAME_HEADER_SIZE).unwrap();
        let occupied = head[header::HDR_MAG.at] == HDR_MAG;
        assert!(
            matches!(mailbox.poll_variable(), Ok(None)),
            "{what}: the slot neither polls empty nor waits for a signal byte"
        );
        let quarantined = after.poisoned_quarantined - before.poisoned_quarantined;
        let replays = after.replays_suppressed - before.replays_suppressed;
        self.suppressed += replays;
        let class = if quarantined > 0 {
            assert_eq!(quarantined, 1, "{what}");
            let at = [(bank, carrier)];
            assert!(
                first.frames.is_empty()
                    && first.rejected.iter().map(|r| (r.0, r.1)).eq(at)
                    && matches!(first.rejected[0].2, AmError::BadFrame(_)),
                "{what}: a quarantine reports its own slot and nothing else: {first:?}"
            );
            Class::Quarantined
        } else if !first.is_empty() || replays > 0 {
            Class::Retired
        } else if occupied {
            Class::Pending
        } else {
            Class::Invisible
        };
        assert_eq!(
            occupied,
            class == Class::Pending,
            "{what}: only a pending put leaves its header magic in the slot"
        );

        // Which tokens moved, anywhere in the lane's table.
        let lane = self.fleet.lane(0).unwrap();
        let mut credited = Vec::new();
        for b in 0..self.host.config().banks {
            for slot in 0..self.per_bank() {
                if lane.credit_pending(b, slot).unwrap() {
                    assert_eq!(b, bank, "{what}: a token of bank {b} (slot {slot}) moved");
                    credited.push(slot);
                }
            }
        }
        // Which of the frames the bytes name ran: those move the replay
        // filter, and the next fresh sequence number with it.
        for &(slot, bytes) in named {
            let ran = first
                .frames
                .iter()
                .any(|f| (f.bank, f.slot) == (bank, slot));
            if let (true, Ok(frame)) = (ran, FrameView::parse(bytes)) {
                let sn = frame.header.sn;
                let mailbox = bank * self.per_bank() + slot;
                self.last_executed[mailbox] = sn;
                if newer(sn.wrapping_add(1), self.next_sn) {
                    self.next_sn = sn.wrapping_add(1);
                }
            }
        }
        let verdict = Verdict {
            class,
            credits: after.credits_returned - before.credits_returned,
            credited,
        };
        (verdict, first.frames.len())
    }

    /// Sweep one sample: every byte of a fresh `build(self)` set to every
    /// other value of [`VALUES`], put into (`bank`, `carrier`). Returns how
    /// many puts ended in each class, in the order of [`Class`].
    fn sweep(
        &mut self,
        name: &str,
        bank: usize,
        carrier: usize,
        build: fn(&mut Rig) -> Vec<u8>,
    ) -> [usize; 4] {
        // The sample itself runs whole, before the sweep and after it: the
        // slot takes a fresh frame whatever the mutants left in it.
        let intact = |rig: &mut Rig, when: &str| {
            let image = build(rig);
            let (expected, named) = rig.expect(&image, bank, carrier);
            let what = format!("sample {name}, intact, {when} the sweep");
            let (found, ran) = rig.put(&what, &image, bank, carrier, &named);
            assert_eq!(found, expected, "{what}");
            assert_eq!((found.class, ran), (Class::Retired, named.len()), "{what}");
            image.len()
        };
        let len = intact(self, "before");
        let mut census = [0usize; 4];
        for at in 0..len {
            for value in VALUES {
                let mut image = build(self);
                let was = std::mem::replace(&mut image[at], value);
                if was == value {
                    continue;
                }
                let (expected, named) = self.expect(&image, bank, carrier);
                let what = format!("sample {name}, byte {at} := {value:#04x} (was {was:#04x})");
                let (found, _) = self.put(&what, &image, bank, carrier, &named);
                assert_eq!(found, expected, "{what}: found (left), expected (right)");
                census[found.class as usize] += 1;
            }
        }
        intact(self, "after");
        census
    }
}

#[test]
fn every_one_byte_mutant_of_a_frame_and_a_container_lands_in_exactly_one_class() {
    let mut rig = Rig::new();
    let frame = rig.sweep("frame", 0, 3, |rig| rig.sum_frame(2));
    let container = rig.sweep("container", 1, 0, Rig::container);
    // [retired, invisible, pending, quarantined]. Pending is the length
    // bytes that still declare 40 ..= 128 KiB, and the signal byte: the one
    // class the receiver cannot close from its side (ROADMAP items 3d, 4).
    assert_eq!(frame, [631, 10, 27, 24], "frame census");
    assert_eq!(container, [2_680, 10, 31, 20], "container census");
    // The mutants whose only change is a sequence number's top byte, going
    // backwards: retired, cleared, and not credited a second time.
    assert_eq!(rig.suppressed, 28, "suppressed replays");
}

/// Valid frames whose sequence numbers step by 65 536 — gaps no lane could
/// leave, a stream owning 64 slots here — once had the gap watcher record
/// 65 535 suspects a frame and never free them: ~21 ms of host time and
/// ~650 KB a put, and a NACK for every gap. Every frame still executes, and
/// the stepped run's median put-and-burst costs what a plain run's does
/// (the parent's ratio was about 5 000x).
#[test]
fn sequence_numbers_stepping_past_every_slot_cost_what_plain_ones_do() {
    let run = |step: u32| {
        let mut rig = Rig::new();
        let mut times = Vec::new();
        for _ in 0..200 {
            let image = rig.sum_frame(2);
            rig.next_sn = rig.next_sn.wrapping_add(step - 1);
            let started = std::time::Instant::now();
            rig.land(0, 0, &image);
            let out = rig.host.receive_burst(0, usize::MAX, rig.clock).unwrap();
            times.push(started.elapsed());
            assert_eq!((out.frames.len(), out.rejected.len()), (1, 0), "{out:?}");
            rig.clock = out.drained_at;
        }
        times.sort_unstable();
        (times[times.len() / 2], rig.host.stats().nacks_posted)
    };
    let (plain, plain_nacks) = run(1);
    let (stepped, stepped_nacks) = run(1 << 16);
    assert!(
        stepped < plain * 10,
        "median put + burst: stepped {stepped:?}, plain {plain:?}"
    );
    assert_eq!((plain_nacks, stepped_nacks), (0, 0), "NACKs posted");
}

/// No frame is shorter than its header and trailer, so a header declaring 36
/// to 39 bytes names a signal byte inside itself — at 36, the header magic —
/// that no sender can complete. The mailbox used to refuse only lengths under
/// 36: these four polled "not ready yet" for ever, invisible to the
/// quarantine, and their slots never earned a credit back.
#[test]
fn a_header_declaring_less_than_header_and_trailer_is_quarantined() {
    let mut rig = Rig::new();
    for (slot, len) in (1..).zip([36u32, 37, 38, 39]) {
        let mut image = rig.sum_frame(1);
        assert_eq!(image.len(), 64);
        header::LEN.set(&mut image, len);
        rig.land(0, slot, &image);
    }
    let out = rig.host.receive_burst(0, usize::MAX, rig.clock).unwrap();
    assert!(out.frames.is_empty());
    let quarantined: Vec<_> = out.rejected.iter().map(|r| (r.0, r.1)).collect();
    assert_eq!(quarantined, vec![(0, 1), (0, 2), (0, 3), (0, 4)], "{out:?}");
    let stats = rig.host.stats();
    assert_eq!((stats.poisoned_quarantined, stats.credits_returned), (4, 4));
    let lane = rig.fleet.lane(0).unwrap();
    for slot in 0..rig.per_bank() {
        let credited = (1..=4).contains(&slot);
        assert_eq!(
            lane.credit_pending(0, slot).unwrap(),
            credited,
            "slot {slot}"
        );
    }
    // Quarantined once, not once a burst; and each slot takes a fresh frame.
    let idle = rig
        .host
        .receive_burst(0, usize::MAX, out.drained_at)
        .unwrap();
    assert!(idle.is_empty(), "{idle:?}");
    rig.clock = idle.drained_at;
    for slot in 1..=4 {
        let image = rig.sum_frame(1);
        rig.land(0, slot, &image);
    }
    let out = rig.host.receive_burst(0, usize::MAX, rig.clock).unwrap();
    assert_eq!((out.frames.len(), out.rejected.len()), (4, 0), "{out:?}");
    assert_eq!(rig.host.stats().credits_returned, 8);
}
