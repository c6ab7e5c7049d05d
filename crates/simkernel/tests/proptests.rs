//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simkernel::rng::SeedTree;
use simkernel::stats::Percentiles;
use simkernel::{SimScheduler, Tick, TimeSeries};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduler's ring covers this many ticks; the ordering property
/// below spans several of them.
const WINDOW: u64 = 4096;

/// Reference model of `SimScheduler`'s ordering contract: one binary
/// heap over `(tick, class, seq)`, past wakes clamped to `now`.
#[derive(Default)]
struct ReferenceScheduler {
    heap: BinaryHeap<Reverse<(u64, u8, u64, u32)>>,
    seq: u64,
    now: u64,
}

impl ReferenceScheduler {
    fn wake_at(&mut self, at: u64, class: u8, key: u32) {
        self.heap
            .push(Reverse((at.max(self.now), class, self.seq, key)));
        self.seq += 1;
    }

    fn peek(&self) -> Option<(Tick, u8)> {
        self.heap
            .peek()
            .map(|Reverse((at, class, ..))| (Tick(*at), *class))
    }

    fn pop_due(&mut self, now: u64) -> Option<(Tick, u8, u32)> {
        self.now = self.now.max(now);
        if self.heap.peek().is_none_or(|Reverse((at, ..))| *at > now) {
            return None;
        }
        let Reverse((at, class, _, key)) = self.heap.pop()?;
        Some((Tick(at), class, key))
    }
}

proptest! {
    // Random schedules, jumps and drains give the same deliveries
    // from `SimScheduler` as from the reference heap. Each op is
    // `(kind, value, class)`; see the match for what a kind does.
    #[test]
    fn scheduler_matches_reference_heap(
        ops in proptest::collection::vec((0u8..12, 0u64..WINDOW * 20, 0u8..4), 1..400),
    ) {
        let mut s: SimScheduler<u32> = SimScheduler::new();
        let mut r = ReferenceScheduler::default();
        let mut now = 0u64;
        for (key, &(kind, v, class)) in (0u32..).zip(&ops) {
            match kind {
                // Near wakes, many sharing a tick.
                0 | 1 => {
                    s.wake_at(Tick(now + v % 64), class, key);
                    r.wake_at(now + v % 64, class, key);
                }
                // Wakes spanning several window widths.
                2 => {
                    s.wake_at(Tick(now + v % (3 * WINDOW)), class, key);
                    r.wake_at(now + v % (3 * WINDOW), class, key);
                }
                // Wakes far beyond the window.
                3 => {
                    s.wake_at(Tick(now + v), class, key);
                    r.wake_at(now + v, class, key);
                }
                // Wakes at or just past a window edge.
                4 => {
                    let at = now + WINDOW * (1 + v % 3) + v % 2;
                    s.wake_at(Tick(at), class, key);
                    r.wake_at(at, class, key);
                }
                // Wakes in the past clamp to `now`.
                9 => {
                    let at = now.saturating_sub(v % 100);
                    s.wake_at(Tick(at), class, key);
                    r.wake_at(at, class, key);
                }
                // `now` jumps ahead without draining, by any amount or
                // by a multiple of half a window.
                5 | 10 => {
                    now += if kind == 5 { v % (2 * WINDOW) } else { v % 4 * (WINDOW / 2) };
                    s.advance(Tick(now));
                    r.now = now;
                }
                // Partial drain that stops at a class boundary.
                6 => {
                    now += v % 2;
                    while s.peek().is_some_and(|(at, c)| at <= Tick(now) && c <= class) {
                        prop_assert_eq!(s.peek(), r.peek());
                        prop_assert_eq!(s.pop_due(Tick(now)), r.pop_due(now));
                    }
                    prop_assert_eq!(s.peek(), r.peek());
                }
                // Full drain of everything due.
                7 | 8 => {
                    now += v % 3;
                    loop {
                        let got = s.pop_due(Tick(now));
                        prop_assert_eq!(got, r.pop_due(now));
                        if got.is_none() {
                            break;
                        }
                    }
                }
                // A clone compares equal until one of the two changes.
                _ => {
                    let mut c = s.clone();
                    prop_assert!(c == s);
                    c.wake_on_input(class, key);
                    prop_assert!(c != s);
                }
            }
            prop_assert_eq!(s.len(), r.heap.len());
            prop_assert_eq!(s.peek(), r.peek());
            prop_assert_eq!(s.now(), Tick(r.now));
        }
        let end = now + WINDOW * 40;
        loop {
            let got = s.pop_due(Tick(end));
            prop_assert_eq!(got, r.pop_due(end));
            if got.is_none() {
                break;
            }
        }
        prop_assert!(s.is_empty());
    }

    #[test]
    fn percentiles_are_order_statistics(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut p: Percentiles = xs.iter().copied().collect();
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(p.quantile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(p.quantile(1.0).unwrap(), *sorted.last().unwrap());
        let med = p.median().unwrap();
        prop_assert!(med >= sorted[0] && med <= *sorted.last().unwrap());
    }

    #[test]
    fn quantiles_are_monotone(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut p: Percentiles = xs.iter().copied().collect();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(p.quantile(lo).unwrap() <= p.quantile(hi).unwrap());
    }

    #[test]
    fn bucketed_series_means_stay_in_range(
        points in proptest::collection::vec((0u64..10_000, -1e3f64..1e3), 1..300),
        buckets in 1usize..40,
    ) {
        let mut s = TimeSeries::new("p");
        for &(t, v) in &points {
            s.push(Tick(t), v);
        }
        let lo = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let b = s.bucketed(buckets);
        prop_assert!(!b.is_empty());
        prop_assert!(b.len() <= buckets);
        for &(_, mean) in &b {
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }

    #[test]
    fn seed_tree_children_differ_from_parent(seed in any::<u64>(), idx in 0u64..1000) {
        let parent = SeedTree::new(seed);
        prop_assert_ne!(parent.raw(), parent.child_idx(idx).raw());
        prop_assert_ne!(parent.raw(), parent.child("x").raw());
    }

    #[test]
    fn distinct_indices_distinct_children(seed in any::<u64>(), a in 0u64..5000, b in 0u64..5000) {
        prop_assume!(a != b);
        let t = SeedTree::new(seed);
        prop_assert_ne!(t.child_idx(a).raw(), t.child_idx(b).raw());
    }
}
