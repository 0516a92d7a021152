//! Cross-crate integration tests: the full stack from fabric to executed jam.

mod support;

use support::{ints, testbed};
use two_chains_suite::memsim::{SimTime, WaitMode};
use twochains::builtin::{indirect_put_args, ssum_args, BuiltinJam};
use twochains::{spec, InvocationMode, RuntimeConfig};

#[test]
fn injected_and_local_agree_across_many_messages() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let mut ready = SimTime::ZERO;
    let mut clock = SimTime::ZERO;
    for i in 1..=20u32 {
        let mode = if i % 2 == 0 {
            InvocationMode::Injected
        } else {
            InvocationMode::Local
        };
        let message = spec(id).mode(mode).args(ssum_args(i)).usr(ints(i));
        let sent = tx.send_spec(clock, &message, &target).unwrap();
        clock = sent.sender_free();
        let out = rx
            .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), ready)
            .unwrap();
        ready = out.handler_done;
        let expected: u64 = (1..=i as u64).sum();
        assert_eq!(out.result, expected, "message {i} ({mode:?})");
        assert!(out.handler_done > sent.delivered());
        assert!(out.exec.is_some());
    }
    assert_eq!(rx.stats().messages_received, 20);
    assert_eq!(rx.stats().injected_executions, 10);
    assert_eq!(rx.stats().local_executions, 10);
    // The server-side array recorded every sum in arrival order.
    let word = |at: usize| {
        u64::from_le_bytes(
            rx.read_shard_data(0, "array.base", at, 8)
                .unwrap()
                .try_into()
                .unwrap(),
        )
    };
    assert_eq!(word(0), 20);
    for i in 1..=20 {
        assert_eq!(word(8 * i), (1..=i as u64).sum::<u64>(), "array entry {i}");
    }
}

#[test]
fn indirect_put_state_survives_mode_switches_and_banks() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default());
    let id = rx.builtin_id(BuiltinJam::IndirectPut).unwrap();
    let banks = rx.config().banks;
    let per_bank = rx.config().mailboxes_per_bank;
    let mut ready = SimTime::ZERO;
    let mut clock = SimTime::ZERO;
    let mut offsets = std::collections::HashMap::new();
    for i in 0..40u64 {
        let key = i % 10;
        let bank = (i as usize) % banks;
        let slot = (i as usize / banks) % per_bank;
        let target = rx.mailbox_target(bank, slot).unwrap();
        let mode = if i % 3 == 0 {
            InvocationMode::Local
        } else {
            InvocationMode::Injected
        };
        let message = spec(id)
            .mode(mode)
            .args(indirect_put_args(key, 8, 4))
            .usr(ints(8));
        let sent = tx.send_spec(clock, &message, &target).unwrap();
        clock = sent.sender_free();
        let out = rx
            .receive(bank, slot, Some(sent.wire_bytes), sent.delivered(), ready)
            .unwrap();
        ready = out.handler_done;
        // The same key always resolves to the same server-side location, regardless
        // of invocation mode or which mailbox the message used.
        let entry = offsets.entry(key).or_insert(out.result);
        assert_eq!(*entry, out.result, "key {key} moved between messages");
    }
    assert_eq!(offsets.len(), 10);
}

#[test]
fn latency_ordering_matches_the_papers_qualitative_claims() {
    use two_chains_suite::bench::harness::{PingPong, TestbedOptions};

    // Injected messages are slower than Local for tiny payloads but converge for
    // large payloads (Fig. 7): a warm injected message still carries its code
    // and GOT on the wire and pays the GOT and code-cache probes, a fixed cost
    // that a large payload's own work swamps. The first run on a fresh
    // `PingPong` is discarded: it is Indirect Put's first pass over the keys
    // `args_for` cycles, and inserting a key costs more than updating it.
    let mut pp = PingPong::new(TestbedOptions {
        warmup: 3,
        ..Default::default()
    });
    pp.run(BuiltinJam::IndirectPut, InvocationMode::Local, 1, 12);
    let small_local = pp
        .run(BuiltinJam::IndirectPut, InvocationMode::Local, 1, 12)
        .median_us();
    let small_inj = pp
        .run(BuiltinJam::IndirectPut, InvocationMode::Injected, 1, 12)
        .median_us();
    let big_local = pp
        .run(BuiltinJam::IndirectPut, InvocationMode::Local, 8192, 8)
        .median_us();
    let big_inj = pp
        .run(BuiltinJam::IndirectPut, InvocationMode::Injected, 8192, 8)
        .median_us();
    let small_gap = (small_inj - small_local) / small_local;
    let big_gap = (big_inj - big_local) / big_local;
    assert!(
        small_gap > 0.10,
        "small payloads pay for shipping code: {small_gap}"
    );
    assert!(
        big_gap < small_gap / 2.0,
        "the overhead must fade for large payloads: {big_gap}"
    );

    // Stashing reduces injected-message latency (Fig. 9).
    let mut nostash = PingPong::new(
        TestbedOptions {
            warmup: 3,
            ..Default::default()
        }
        .nonstash(),
    );
    let stash_lat = pp
        .run(BuiltinJam::IndirectPut, InvocationMode::Injected, 16, 12)
        .median_us();
    let nostash_lat = nostash
        .run(BuiltinJam::IndirectPut, InvocationMode::Injected, 16, 12)
        .median_us();
    assert!(nostash_lat > stash_lat, "stashing must reduce latency");
}

#[test]
fn wfe_configuration_is_cycle_efficient_end_to_end() {
    let mut cfg = RuntimeConfig::paper_default();
    cfg.wait_mode = WaitMode::Wfe;
    let (mut rx_wfe, mut tx_wfe) = testbed(cfg);
    let (mut rx_poll, mut tx_poll) = testbed(RuntimeConfig::paper_default());
    let id = rx_poll.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    for (rx, tx) in [(&mut rx_poll, &mut tx_poll), (&mut rx_wfe, &mut tx_wfe)] {
        let target = rx.mailbox_target(0, 0).unwrap();
        let mut ready = SimTime::ZERO;
        for i in 0..10u32 {
            let message = spec(id).args(ssum_args(16)).usr(ints(16));
            // Space sends out so the receiver actually waits between messages.
            let start = SimTime::from_us(5 * (i as u64 + 1));
            let sent = tx.send_spec(start, &message, &target).unwrap();
            let out = rx
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), ready)
                .unwrap();
            ready = out.handler_done;
            assert_eq!(out.result, 136, "WFE changes cycles, not results");
        }
    }
    let poll_cycles = rx_poll.stats().cycles.total();
    let wfe_cycles = rx_wfe.stats().cycles.total();
    assert!(
        poll_cycles > wfe_cycles * 2,
        "polling ({poll_cycles}) should burn far more cycles than WFE ({wfe_cycles})"
    );
    let (poll_wait, wfe_wait) = (
        rx_poll.stats().cycles.waiting(),
        rx_wfe.stats().cycles.waiting(),
    );
    assert!(
        wfe_wait < poll_wait / 4,
        "WFE should burn far fewer wait cycles ({wfe_wait} vs {poll_wait})"
    );
}

#[test]
fn without_execution_configuration_is_put_like() {
    let (mut rx, mut tx) = testbed(RuntimeConfig::paper_default().without_execution());
    let id = rx.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let target = rx.mailbox_target(0, 0).unwrap();
    let message = spec(id).local().args(ssum_args(64)).usr(ints(64));
    let sent = tx.send_spec(SimTime::ZERO, &message, &target).unwrap();
    let out = rx
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), SimTime::ZERO)
        .unwrap();
    // No execution happened, and the receiver-side cost is well under a microsecond.
    assert!(out.exec.is_none());
    assert_eq!(out.result, 0);
    assert_eq!(rx.stats().executions, 0);
    assert_eq!(rx.stats().messages_received, 1);
    assert!(
        out.handler_time < SimTime::from_ns(300),
        "got {}",
        out.handler_time
    );
}
