//! Hardware stride prefetcher model.
//!
//! The paper's servers expose firmware/kernel controls to toggle the CPU prefetching
//! mechanisms, and the evaluation leans on the prefetcher to explain why the
//! stash/non-stash latency gap narrows at large message sizes: "once the message size
//! is large enough to trigger the prefetcher to start pulling the message data on
//! arrival, the difference in latency for messages going to DRAM versus LLC starts
//! narrowing, as prefetches are issued ahead enough to mask the larger DRAM access
//! latency" (§VII-B).
//!
//! [`StridePrefetcher`] is a classic per-stream, next-N-lines prefetcher: it observes
//! demand misses, detects unit-stride streams after a configurable training
//! threshold, and then keeps `degree` lines of lookahead warm. The hierarchy asks it
//! two questions: *did a prefetch already cover this line?* and *which lines should
//! be prefetched next?*

use crate::config::PrefetchConfig;
use std::collections::VecDeque;

/// A single detected access stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last line observed for this stream.
    last_line: u64,
    /// Detected stride in lines (only +1/-1 unit strides are trained; larger strides
    /// are tracked but never trigger, matching conservative real prefetchers).
    stride: i64,
    /// Consecutive confirmations of the stride.
    confidence: usize,
    /// Furthest line already issued as a prefetch for this stream.
    issued_until: u64,
}

/// Per-core stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: PrefetchConfig,
    streams: VecDeque<Stream>,
    issued: u64,
    useful: u64,
}

impl StridePrefetcher {
    /// Build a prefetcher from configuration; if `cfg.enabled` is false the
    /// prefetcher never issues anything.
    pub fn new(cfg: PrefetchConfig) -> Self {
        StridePrefetcher {
            cfg,
            streams: VecDeque::new(),
            issued: 0,
            useful: 0,
        }
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Prefetches that were later hit by a demand access (usefulness accounting is
    /// done by the hierarchy calling [`StridePrefetcher::record_useful`]).
    pub fn useful(&self) -> u64 {
        self.useful
    }

    /// Record that a demand access hit a line that was brought in by a prefetch.
    pub fn record_useful(&mut self) {
        self.useful += 1;
    }

    /// Observe a demand access to `line` (line index, not byte address) that missed
    /// in the private caches. Returns the list of lines that should be prefetched as
    /// a consequence (possibly empty).
    pub fn observe_miss(&mut self, line: u64) -> Vec<u64> {
        if !self.cfg.enabled {
            return Vec::new();
        }

        // Find a stream whose next expected line matches (within a small window).
        let mut matched: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            let delta = line as i64 - s.last_line as i64;
            if delta != 0 && delta.abs() <= 4 {
                matched = Some(i);
                let _ = delta;
                break;
            }
        }

        match matched {
            Some(i) => {
                let mut s = self.streams[i];
                let delta = line as i64 - s.last_line as i64;
                if delta == s.stride {
                    s.confidence += 1;
                } else {
                    s.stride = delta;
                    s.confidence = 1;
                }
                s.last_line = line;
                let mut out = Vec::new();
                if s.confidence >= self.cfg.train_threshold && s.stride.abs() == 1 {
                    // Trained: keep `degree` lines of lookahead issued.
                    let dir = s.stride.signum();
                    let mut next =
                        if s.issued_until == 0 || s.confidence == self.cfg.train_threshold {
                            line
                        } else {
                            s.issued_until
                        };
                    for _ in 0..self.cfg.degree {
                        let candidate = (next as i64 + dir) as u64;
                        out.push(candidate);
                        next = candidate;
                    }
                    s.issued_until = next;
                    self.issued += out.len() as u64;
                }
                self.streams[i] = s;
                out
            }
            None => {
                // New stream.
                if self.streams.len() >= self.cfg.streams {
                    self.streams.pop_front();
                }
                self.streams.push_back(Stream {
                    last_line: line,
                    stride: 0,
                    confidence: 0,
                    issued_until: 0,
                });
                Vec::new()
            }
        }
    }

    /// Forget all trained streams (e.g. between benchmark iterations that should not
    /// benefit from each other's training).
    pub fn reset(&mut self) {
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(enabled: bool) -> PrefetchConfig {
        PrefetchConfig {
            enabled,
            train_threshold: 2,
            degree: 4,
            streams: 4,
        }
    }

    #[test]
    fn disabled_prefetcher_never_issues() {
        let mut p = StridePrefetcher::new(cfg(false));
        for i in 0..64 {
            assert!(p.observe_miss(i).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn sequential_stream_trains_and_issues() {
        let mut p = StridePrefetcher::new(cfg(true));
        let mut issued = Vec::new();
        for i in 100..120u64 {
            issued.extend(p.observe_miss(i));
        }
        assert!(
            p.issued() > 0,
            "sequential misses must train the prefetcher"
        );
        // Issued lines should be ahead of the access stream.
        assert!(issued.iter().all(|&l| l > 100));
        assert!(
            issued.iter().any(|&l| l >= 110),
            "lookahead should run ahead of demand"
        );
    }

    #[test]
    fn random_accesses_do_not_train() {
        let mut p = StridePrefetcher::new(cfg(true));
        // Widely scattered lines never form a unit-stride stream.
        for &l in &[10u64, 5000, 23, 9000, 77, 40000, 123, 60000] {
            assert!(p.observe_miss(l).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn short_streams_below_threshold_do_not_issue() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: true,
            train_threshold: 4,
            degree: 4,
            streams: 4,
        });
        let mut total = 0;
        for i in 0..4u64 {
            total += p.observe_miss(i).len();
        }
        assert_eq!(
            total, 0,
            "threshold 4 needs more confirmations than 4 misses provide"
        );
    }

    #[test]
    fn descending_streams_train_too() {
        let mut p = StridePrefetcher::new(cfg(true));
        let mut issued = Vec::new();
        for i in (0..20u64).rev().map(|i| i + 1000) {
            issued.extend(p.observe_miss(i));
        }
        assert!(!issued.is_empty());
        assert!(issued.iter().all(|&l| l < 1020));
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        let mut p = StridePrefetcher::new(cfg(true));
        // Open more streams than the table can hold; should not panic or grow unboundedly.
        for base in 0..100u64 {
            p.observe_miss(base * 10_000);
        }
        assert!(p.streams.len() <= 4);
    }

    #[test]
    fn usefulness_counter() {
        let mut p = StridePrefetcher::new(cfg(true));
        p.record_useful();
        p.record_useful();
        assert_eq!(p.useful(), 2);
    }

    #[test]
    fn reset_clears_training() {
        let mut p = StridePrefetcher::new(cfg(true));
        for i in 0..10u64 {
            p.observe_miss(i);
        }
        p.reset();
        // After reset the next miss opens a brand new stream and issues nothing.
        assert!(p.observe_miss(11).is_empty());
    }
}
