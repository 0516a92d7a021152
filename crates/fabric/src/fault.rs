//! Seeded fault injection: per-link drop / duplicate / reorder schedules.
//!
//! A real RDMA deployment does not grant the lossless, ordered fabric the rest of
//! this crate models by default. This module lets a test (or a bench sweep) install
//! a [`FaultPlan`] on one *directed* link of the fabric — an `(initiator, target)`
//! host pair — and have every put issued on endpoints of that link roll a
//! deterministic, seeded die:
//!
//! * **drop** — the put consumes its transmit-pipeline virtual time (the sender
//!   cannot tell), but the bytes never land at the destination.
//! * **duplicate** — the put lands normally *and* a copy of it is redelivered
//!   later, immediately before the next put on the same endpoint lands. By then
//!   the receiver may have consumed the original, so the copy shows up as a stale
//!   replay of an already-retired frame.
//! * **reorder** — the put is held back and lands immediately *after* the next
//!   put on the same endpoint: two adjacent in-flight deliveries swap.
//!
//! Deferred redeliveries never roll the die again, and all deferral is
//! per-endpoint: the writes one endpoint issues (originals, duplicates, held
//! frames) stay totally ordered with respect to each other, so fault injection
//! perturbs *delivery order and multiplicity* — what a lossy fabric really
//! perturbs — without fabricating write/write races that no NIC would produce.
//!
//! The plan must be installed (see
//! [`SimFabric::install_fault_plan`](crate::fabric::SimFabric::install_fault_plan))
//! before the endpoints it should affect are created: each endpoint captures the
//! link's fault hook at creation time, so endpoints of a pristine link carry no
//! hook at all and pay nothing. With no plan installed every counter in
//! [`FaultSnapshot`] is zero by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::prelude::*;

use crate::region::MemoryRegion;

/// Per-directed-link fault probabilities and the seed driving them.
///
/// The three probabilities are evaluated as disjoint events per put (their sum
/// must not exceed 1): one uniform draw in `[0, 1)` selects drop, duplicate,
/// reorder, or clean delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a put is silently lost.
    pub drop: f64,
    /// Probability a put is delivered twice (the copy arrives late).
    pub duplicate: f64,
    /// Probability a put swaps delivery order with the next one on its endpoint.
    pub(crate) reorder: f64,
    /// Seed for the deterministic PRNG; every endpoint of the link derives its
    /// own stream from this seed and its creation index.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that only drops puts.
    pub fn drop_only(p: f64, seed: u64) -> Self {
        FaultPlan {
            drop: p,
            duplicate: 0.0,
            reorder: 0.0,
            seed,
        }
    }

    /// A plan splitting `p` evenly across drop, duplicate and reorder.
    pub fn mixed(p: f64, seed: u64) -> Self {
        FaultPlan {
            drop: p / 3.0,
            duplicate: p / 3.0,
            reorder: p / 3.0,
            seed,
        }
    }

    pub(crate) fn is_valid(&self) -> bool {
        let probs = [self.drop, self.duplicate, self.reorder];
        probs.iter().all(|p| (0.0..=1.0).contains(p)) && probs.iter().sum::<f64>() <= 1.0
    }
}

/// Counts of injected faults on one directed link, aggregated over all of its
/// endpoints. Obtained from
/// [`SimFabric::fault_counters`](crate::fabric::SimFabric::fault_counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Puts whose bytes never landed.
    pub dropped: u64,
    /// Puts that were queued for a second, late delivery.
    pub duplicated: u64,
    /// Puts held back to swap with their successor.
    pub reordered: u64,
    /// Deferred deliveries (duplicate copies and held originals) that landed.
    pub(crate) redelivered: u64,
}

/// The shared, per-link half of the fault machinery: the plan, the aggregate
/// counters, and the endpoint-creation counter that seeds per-endpoint streams.
#[derive(Debug)]
pub(crate) struct FaultHook {
    plan: FaultPlan,
    endpoints: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    redelivered: AtomicU64,
}

impl FaultHook {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultHook {
            plan,
            endpoints: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            reordered: AtomicU64::new(0),
            redelivered: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            redelivered: self.redelivered.load(Ordering::Relaxed),
        }
    }

    /// Build the per-endpoint state for a newly created endpoint of this link.
    /// Each endpoint gets its own PRNG stream (derived from the plan seed and
    /// the endpoint's creation index) so multi-lane runs stay deterministic
    /// regardless of thread interleaving.
    pub(crate) fn attach(self: &Arc<Self>) -> EndpointFaults {
        let index = self.endpoints.fetch_add(1, Ordering::Relaxed);
        let seed = self
            .plan
            .seed
            .wrapping_add((index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        EndpointFaults {
            hook: Arc::clone(self),
            rng: StdRng::seed_from_u64(seed),
            dups: Vec::new(),
            held: Vec::new(),
        }
    }
}

/// What the die said about one put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Lose the bytes.
    Drop,
    /// Deliver now and queue a late copy.
    Duplicate,
    /// Hold the bytes; they land after the endpoint's next put.
    Hold,
}

/// A delivery deferred by a duplicate or reorder fault, replayed on the
/// endpoint's next put.
pub(crate) struct DeferredPut {
    pub(crate) region: Arc<MemoryRegion>,
    pub(crate) offset: usize,
    pub(crate) dst_addr: u64,
    pub(crate) data: Vec<u8>,
}

impl std::fmt::Debug for DeferredPut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredPut")
            .field("dst_addr", &self.dst_addr)
            .field("len", &self.data.len())
            .finish()
    }
}

/// The per-endpoint half: the endpoint's own PRNG stream and its deferred
/// deliveries. Owned (`&mut`) by the endpoint, so no locking is needed.
#[derive(Debug)]
pub(crate) struct EndpointFaults {
    hook: Arc<FaultHook>,
    rng: StdRng,
    /// Duplicate copies, redelivered *before* the next put's bytes land (the
    /// copy can therefore never clobber a newer frame written by this
    /// endpoint).
    pub(crate) dups: Vec<DeferredPut>,
    /// Reorder holds, redelivered *after* the next put's bytes land (the
    /// adjacent swap).
    pub(crate) held: Vec<DeferredPut>,
}

impl EndpointFaults {
    /// Roll the seeded die for one put and bump the matching counter.
    pub(crate) fn roll(&mut self) -> FaultAction {
        let plan = self.hook.plan;
        let r: f64 = self.rng.gen();
        if r < plan.drop {
            self.hook.dropped.fetch_add(1, Ordering::Relaxed);
            FaultAction::Drop
        } else if r < plan.drop + plan.duplicate {
            self.hook.duplicated.fetch_add(1, Ordering::Relaxed);
            FaultAction::Duplicate
        } else if r < plan.drop + plan.duplicate + plan.reorder {
            self.hook.reordered.fetch_add(1, Ordering::Relaxed);
            FaultAction::Hold
        } else {
            FaultAction::Deliver
        }
    }

    pub(crate) fn note_redelivered(&self) {
        self.hook.redelivered.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_validation_bounds_probabilities() {
        assert!(FaultPlan::drop_only(0.05, 1).is_valid());
        assert!(FaultPlan::mixed(0.15, 1).is_valid());
        assert!(!FaultPlan::drop_only(1.5, 1).is_valid());
        assert!(!FaultPlan {
            drop: 0.5,
            duplicate: 0.4,
            reorder: 0.3,
            seed: 1
        }
        .is_valid());
        assert!(!FaultPlan::drop_only(-0.1, 1).is_valid());
    }

    #[test]
    fn rolls_are_deterministic_per_endpoint_index() {
        let plan = FaultPlan::mixed(0.6, 42);
        let a = Arc::new(FaultHook::new(plan));
        let b = Arc::new(FaultHook::new(plan));
        let mut ea = a.attach();
        let mut eb = b.attach();
        let sa: Vec<_> = (0..64).map(|_| ea.roll()).collect();
        let sb: Vec<_> = (0..64).map(|_| eb.roll()).collect();
        assert_eq!(sa, sb, "same seed + same endpoint index => same schedule");
        // A second endpoint of the same link draws a different stream.
        let mut ea2 = a.attach();
        let sa2: Vec<_> = (0..64).map(|_| ea2.roll()).collect();
        assert_ne!(sa, sa2);
    }

    #[test]
    fn counters_track_every_injected_fault() {
        let hook = Arc::new(FaultHook::new(FaultPlan::mixed(0.9, 7)));
        let mut ep = hook.attach();
        let mut expect = FaultSnapshot::default();
        for _ in 0..200 {
            match ep.roll() {
                FaultAction::Drop => expect.dropped += 1,
                FaultAction::Duplicate => expect.duplicated += 1,
                FaultAction::Hold => expect.reordered += 1,
                FaultAction::Deliver => {}
            }
        }
        assert_eq!(hook.snapshot(), expect);
        assert!(expect.dropped > 0 && expect.duplicated > 0 && expect.reordered > 0);
        ep.note_redelivered();
        assert_eq!(hook.snapshot().redelivered, 1);
    }

    #[test]
    fn zero_probability_plan_never_faults() {
        let hook = Arc::new(FaultHook::new(FaultPlan::drop_only(0.0, 3)));
        let mut ep = hook.attach();
        for _ in 0..500 {
            assert_eq!(ep.roll(), FaultAction::Deliver);
        }
        assert_eq!(hook.snapshot(), FaultSnapshot::default());
    }
}
