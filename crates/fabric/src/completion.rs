//! Completion queues and software completion tracking.
//!
//! One-sided operations complete asynchronously; a real transport posts a completion
//! entry that the initiating software must harvest. Two-Chains deliberately avoids
//! this machinery on its fast path — the reactive mailbox *is* the completion signal —
//! while the UCX-put baseline has to pay for it, which is exactly the software
//! overhead difference the paper measures in Figs. 5–6 ("the standard UCX put
//! operation has more library overhead for flow control and detecting message
//! completion").

use std::collections::VecDeque;

use twochains_memsim::SimTime;

/// A single completion entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Identifier returned when the operation was posted.
    pub id: u64,
    /// Virtual time at which the operation completed on the wire.
    pub ready_at: SimTime,
}

/// A software completion queue with bounded capacity, modelling the transmit queue
/// depth of the HCA plus the library's tracking structures.
#[derive(Debug, Clone)]
pub struct CompletionQueue {
    entries: VecDeque<Completion>,
    next_id: u64,
    capacity: usize,
    /// Cost of harvesting one completion (library bookkeeping per entry).
    harvest_cost: SimTime,
    harvested: u64,
}

impl CompletionQueue {
    /// Create a queue with the given depth. A typical UCX transmit queue depth is a
    /// few hundred entries; the harvest cost is the per-entry software bookkeeping.
    pub fn new(capacity: usize, harvest_cost: SimTime) -> Self {
        assert!(capacity > 0, "completion queue needs capacity");
        CompletionQueue {
            entries: VecDeque::with_capacity(capacity),
            next_id: 0,
            capacity,
            harvest_cost,
            harvested: 0,
        }
    }

    /// Default parameters for the UCX-like baseline.
    pub fn ucx_default() -> Self {
        Self::new(256, SimTime::from_ns(55))
    }

    /// Post an operation that will complete at `ready_at`. Returns its id, or `None`
    /// if the queue is full (the caller must progress/poll before posting more — this
    /// is the back-pressure that throttles the baseline's streaming rate).
    pub fn post(&mut self, ready_at: SimTime) -> Option<u64> {
        if self.entries.len() >= self.capacity {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push_back(Completion { id, ready_at });
        Some(id)
    }

    /// Harvest every completion that is ready at `now`. Returns the harvested entries
    /// and the software time spent doing so.
    pub fn poll(&mut self, now: SimTime) -> (Vec<Completion>, SimTime) {
        let mut out = Vec::new();
        while let Some(front) = self.entries.front() {
            if front.ready_at <= now {
                out.push(*front);
                self.entries.pop_front();
            } else {
                break;
            }
        }
        self.harvested += out.len() as u64;
        let cost = self.harvest_cost * out.len() as u64;
        (out, cost)
    }

    /// Block (in virtual time) until the oldest outstanding completion is ready.
    /// Returns the time at which it becomes ready, or `now` if nothing is outstanding.
    pub fn earliest_ready(&self, now: SimTime) -> SimTime {
        self.entries
            .front()
            .map(|c| c.ready_at.max(now))
            .unwrap_or(now)
    }

    /// Number of outstanding (unharvested) operations.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Total completions harvested over the queue's lifetime.
    pub fn harvested(&self) -> u64 {
        self.harvested
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-entry harvest cost.
    pub fn harvest_cost(&self) -> SimTime {
        self.harvest_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_poll_in_order() {
        let mut cq = CompletionQueue::new(4, SimTime::from_ns(10));
        let a = cq.post(SimTime::from_ns(100)).unwrap();
        let b = cq.post(SimTime::from_ns(200)).unwrap();
        assert_eq!(cq.outstanding(), 2);
        let (done, cost) = cq.poll(SimTime::from_ns(150));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        assert_eq!(cost, SimTime::from_ns(10));
        let (done, _) = cq.poll(SimTime::from_ns(250));
        assert_eq!(done[0].id, b);
        assert_eq!(cq.outstanding(), 0);
        assert_eq!(cq.harvested(), 2);
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let mut cq = CompletionQueue::new(2, SimTime::ZERO);
        assert!(cq.post(SimTime::from_ns(1)).is_some());
        assert!(cq.post(SimTime::from_ns(2)).is_some());
        assert!(
            cq.post(SimTime::from_ns(3)).is_none(),
            "third post must be refused"
        );
        cq.poll(SimTime::from_ns(10));
        assert!(cq.post(SimTime::from_ns(4)).is_some());
    }

    #[test]
    fn earliest_ready_reports_wait_target() {
        let mut cq = CompletionQueue::new(4, SimTime::ZERO);
        assert_eq!(cq.earliest_ready(SimTime::from_ns(5)), SimTime::from_ns(5));
        cq.post(SimTime::from_ns(100)).unwrap();
        assert_eq!(
            cq.earliest_ready(SimTime::from_ns(5)),
            SimTime::from_ns(100)
        );
        assert_eq!(
            cq.earliest_ready(SimTime::from_ns(150)),
            SimTime::from_ns(150)
        );
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut cq = CompletionQueue::new(8, SimTime::ZERO);
        let ids: Vec<_> = (0..5)
            .map(|i| cq.post(SimTime::from_ns(i)).unwrap())
            .collect();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        CompletionQueue::new(0, SimTime::ZERO);
    }
}
