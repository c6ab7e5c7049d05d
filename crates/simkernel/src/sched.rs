//! Deterministic discrete-event scheduler with sparse activation.
//!
//! [`SimScheduler`] is the workspace's main-loop primitive: instead of
//! visiting every entity every tick, a simulator registers **wakes** —
//! `(tick, class, entity)` triples — and each tick visits only the
//! entities with a due wake. An entity is woken when
//!
//! * a previously scheduled event falls due ([`SimScheduler::wake_at`]
//!   — fault onsets, churn transitions, timer expiries), or
//! * one of its inputs changed this tick
//!   ([`SimScheduler::wake_on_input`] — a request arrived, an object
//!   entered its field of view).
//!
//! ## Ordering contract
//!
//! Wakes are delivered in `(tick, class, FIFO seq)` order. The class
//! byte is a *priority class* (lower fires first within a tick) so a
//! simulator can pin, e.g., fault application before entity visits;
//! the FIFO sequence makes simultaneous same-class wakes fire in
//! scheduling order. Because the delivery order is a pure function of
//! the schedule calls — never of worker count or timing — sparse runs
//! preserve the workspace's seq-vs-parallel bit-identity contract.
//!
//! ## Calendar queue
//!
//! Wake times are integer ticks, so the queue is a calendar of
//! per-tick buckets rather than one comparison heap:
//!
//! * a ring of 4,096 buckets covers the ticks `[cursor, cursor +
//!   4096)`; a tick's bucket is its value modulo the ring size;
//! * each bucket is a FIFO list threaded through **one shared slab** of
//!   entries, whose freed entries are reused through a free list, so a
//!   steady schedule/drain cycle allocates nothing;
//! * a bucket stays in class order: a wake appends at the tail, unless
//!   its class is lower than the tail's, in which case it is linked in
//!   after the last entry of its class or lower;
//! * a 64-word occupancy bitmap finds the next non-empty bucket;
//! * wakes at or beyond the window wait in a far heap ordered by
//!   `(tick, class, seq)`.
//!
//! `pop_due` moves `cursor` as far toward `now` as it can without
//! passing a pending wake. Whenever it advances, the far wakes that enter the window migrate into their
//! buckets in heap order. A tick's wakes are therefore all in the far
//! heap or all in one bucket, and migrated wakes precede every wake
//! scheduled into that bucket afterwards — so FIFO order holds without
//! storing a sequence number in the ring.
//!
//! ## Same-tick budget
//!
//! A handler that re-schedules a wake at `now` from inside the drain
//! loop would otherwise spin forever. Each scheduler carries a
//! per-tick same-tick delivery budget
//! ([`DEFAULT_SAME_TICK_BUDGET`], overridable via
//! [`SimScheduler::with_same_tick_budget`]); exceeding it panics in
//! debug builds. Release builds **shed** the over-budget wake: it is
//! removed and never delivered, counted in
//! [`SimScheduler::shed_count`], reported by a `sched_shed` record
//! through [`crate::obs`], and the drain terminates (`pop_due` returns
//! `None`). Every further due wake popped in that tick is shed the
//! same way; the budget resets on the next tick.
//!
//! ## Parity comparison
//!
//! Like `DeliveryQueue`'s pool-exclusive equality, `SimScheduler`'s
//! [`PartialEq`] compares *delivery order* — the `(tick, class, key)`
//! sequence the queue would drain — while ignoring internal layout and
//! the absolute values of the far heap's FIFO counter, so two
//! schedulers that went through different scheduling histories but
//! will behave identically compare equal.
//!
//! # Example
//!
//! ```
//! use simkernel::sched::SimScheduler;
//! use simkernel::Tick;
//!
//! let mut s: SimScheduler<&str> = SimScheduler::new();
//! s.wake_at(Tick(5), 1, "camera-3");
//! s.wake_at(Tick(5), 0, "fault");
//! s.wake_at(Tick(2), 1, "node-7");
//! assert_eq!(s.next_wake(), Some(Tick(2)));
//! assert_eq!(s.pop_due(Tick(2)), Some((Tick(2), 1, "node-7")));
//! assert_eq!(s.pop_due(Tick(2)), None); // nothing else due yet
//! // At t5 the class-0 fault wake outranks the class-1 visit.
//! assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 0, "fault")));
//! assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 1, "camera-3")));
//! ```

use crate::clock::Tick;
use crate::obs;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Default per-tick same-tick delivery budget. Generous — real worlds
/// deliver a handful of wakes per entity per tick — while still
/// bounding a same-tick re-schedule loop to one tick's worth of work.
pub const DEFAULT_SAME_TICK_BUDGET: u64 = 1 << 20;

/// Ticks covered by the bucket ring. A power of two, so a tick's
/// bucket is `tick & MASK`.
const WINDOW: usize = 4096;
const MASK: usize = WINDOW - 1;
/// Occupancy bitmap words, one bit per bucket.
const WORDS: usize = WINDOW / 64;
/// End-of-list link.
const NIL: u32 = u32::MAX;

/// A wake at or beyond the ring's window, waiting in the far heap.
#[derive(Debug, Clone)]
struct Wake<K> {
    at: Tick,
    class: u8,
    seq: u64,
    key: K,
}

impl<K> PartialEq for Wake<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.class == other.class && self.seq == other.seq
    }
}
impl<K> Eq for Wake<K> {}

impl<K> Ord for Wake<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first, then
        // priority class, then FIFO among simultaneous same-class
        // wakes.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<K> PartialOrd for Wake<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One slab entry: a ring wake linked into its bucket's list, or a
/// link in the free list. An enum rather than `Option<K>` beside the
/// links, so that for `usize` keys an entry takes 16 bytes, not 24.
#[derive(Debug, Clone)]
enum Slot<K> {
    Used { key: K, class: u8, next: u32 },
    Free { next: u32 },
}

impl<K> Slot<K> {
    fn next(&self) -> u32 {
        match self {
            Self::Used { next, .. } | Self::Free { next } => *next,
        }
    }

    fn set_next(&mut self, to: u32) {
        match self {
            Self::Used { next, .. } | Self::Free { next } => *next = to,
        }
    }

    /// Priority class of a ring wake (free slots sit in no bucket).
    fn class(&self) -> u8 {
        match self {
            Self::Used { class, .. } => *class,
            Self::Free { .. } => u8::MAX,
        }
    }
}

/// First and last slab entry of one tick's list (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A deterministic sparse-activation wake queue (see module docs).
#[derive(Debug, Clone)]
pub struct SimScheduler<K> {
    /// Lists for the ticks `[cursor, cursor + WINDOW)`, at `tick & MASK`.
    buckets: Box<[Bucket; WINDOW]>,
    /// One bit per non-empty bucket.
    occupied: [u64; WORDS],
    slab: Vec<Slot<K>>,
    /// Head of the free list through `slab`.
    free: u32,
    /// Wakes held in the ring.
    ring_len: usize,
    /// First tick of the window; never after `now` or a pending wake.
    cursor: u64,
    /// Wakes at or beyond `cursor + WINDOW`.
    far: BinaryHeap<Wake<K>>,
    far_seq: u64,
    now: Tick,
    fired_at: Tick,
    fired: u64,
    budget: u64,
    shed: u64,
}

impl<K> SimScheduler<K> {
    /// Creates an empty scheduler at time zero with the default
    /// same-tick budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: Box::new([EMPTY; WINDOW]),
            occupied: [0; WORDS],
            slab: Vec::new(),
            free: NIL,
            ring_len: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            far_seq: 0,
            now: Tick::ZERO,
            fired_at: Tick::ZERO,
            fired: 0,
            budget: DEFAULT_SAME_TICK_BUDGET,
            shed: 0,
        }
    }

    /// Replaces the per-tick same-tick delivery budget (min 1).
    #[must_use]
    pub fn with_same_tick_budget(mut self, budget: u64) -> Self {
        self.budget = budget.max(1);
        self
    }

    /// Current scheduler time (the largest tick passed to
    /// [`SimScheduler::pop_due`] or [`SimScheduler::advance`]).
    #[must_use]
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advances scheduler time without draining (monotone; calling
    /// with a past tick is a no-op).
    pub fn advance(&mut self, to: Tick) {
        if to > self.now {
            self.now = to;
        }
    }

    /// Schedules a wake for entity `key` at `at` in priority class
    /// `class` (lower classes fire first within a tick). A time in the
    /// past is clamped to `now`.
    pub fn wake_at(&mut self, at: Tick, class: u8, key: K) {
        let at = at.max(self.now).value();
        if at - self.cursor < WINDOW as u64 {
            self.ring_push(at, class, key);
        } else {
            let seq = self.far_seq;
            self.far_seq += 1;
            self.far.push(Wake {
                at: Tick(at),
                class,
                seq,
                key,
            });
        }
    }

    /// Schedules a wake for entity `key` at the current tick — the
    /// "dirty input" activation: something this entity consumes
    /// changed and it must be visited before the tick ends.
    pub fn wake_on_input(&mut self, class: u8, key: K) {
        self.wake_at(self.now, class, key);
    }

    /// Time of the earliest pending wake, if any.
    #[must_use]
    pub fn next_wake(&self) -> Option<Tick> {
        self.peek().map(|(at, _)| at)
    }

    /// Time and priority class of the earliest pending wake, if any.
    /// Lets a drain loop stop at a class boundary — e.g. deliver all
    /// due fault-class wakes before the tick's dispatch phase, then
    /// come back for the entity-class wakes.
    #[must_use]
    pub fn peek(&self) -> Option<(Tick, u8)> {
        match self.ring_front() {
            Some(at) => {
                let head = self.buckets[at as usize & MASK].head;
                Some((Tick(at), self.slab[head as usize].class()))
            }
            None => self.far.peek().map(|w| (w.at, w.class)),
        }
    }

    /// Delivers the next wake due at or before `now`, advancing
    /// scheduler time to `now`. Returns `None` when nothing (more) is
    /// due this tick — the caller's drain loop terminates on it.
    ///
    /// Applies the same-tick budget: past it, debug builds panic
    /// (`debug_assert!`) and release builds shed the wake (it is never
    /// delivered), emit a `sched_shed` observability record, and
    /// return `None`.
    pub fn pop_due(&mut self, now: Tick) -> Option<(Tick, u8, K)> {
        self.advance(now);
        let at = self.settle().filter(|&at| at <= now.value())?;
        let (class, key) = self.ring_pop(at)?;
        if self.fired_at != now {
            self.fired_at = now;
            self.fired = 0;
        }
        self.fired += 1;
        if self.fired > self.budget {
            debug_assert!(
                false,
                "SimScheduler: same-tick wake budget ({}) exceeded at {now} — \
                 a handler is re-scheduling at `now` inside the drain loop",
                self.budget
            );
            self.shed += 1;
            obs::emit(obs::Json::obj([
                ("record", obs::Json::str("sched_shed")),
                ("at", obs::Json::from(now.value())),
                ("budget", obs::Json::from(self.budget)),
                ("shed_total", obs::Json::from(self.shed)),
            ]));
            return None;
        }
        Some((Tick(at), class, key))
    }

    /// Wakes shed by the same-tick budget (always 0 in debug builds,
    /// which panic instead).
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Number of pending wakes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether no wakes are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending wakes.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.occupied = [0; WORDS];
        self.slab.clear();
        self.free = NIL;
        self.ring_len = 0;
        self.far.clear();
    }

    /// Moves `cursor` as far toward `now` as the pending wakes allow,
    /// migrating the far wakes that enter the window, and returns the
    /// earliest pending tick.
    fn settle(&mut self) -> Option<u64> {
        let front = self
            .ring_front()
            .or_else(|| self.far.peek().map(|w| w.at.value()));
        let target = front.map_or(self.now.value(), |t| t.min(self.now.value()));
        if target > self.cursor {
            self.cursor = target;
            let end = target.saturating_add(WINDOW as u64);
            loop {
                let w = match self.far.peek_mut() {
                    Some(top) if top.at.value() < end => PeekMut::pop(top),
                    _ => break,
                };
                self.ring_push(w.at.value(), w.class, w.key);
            }
        }
        front
    }

    /// Earliest tick with a ring wake: the first occupied bucket at or
    /// after `cursor`, wrapping once around the ring.
    fn ring_front(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = self.cursor as usize & MASK;
        let mut word = start / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (start % 64));
        for _ in 0..=WORDS {
            if bits != 0 {
                let bucket = word * 64 + bits.trailing_zeros() as usize;
                return Some(self.cursor + (bucket.wrapping_sub(start) & MASK) as u64);
            }
            word = (word + 1) % WORDS;
            bits = self.occupied[word];
        }
        None
    }

    /// Files a wake at tick `at`, which must lie inside the window.
    fn ring_push(&mut self, at: u64, class: u8, key: K) {
        let entry = Slot::Used {
            key,
            class,
            next: NIL,
        };
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slab.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("SimScheduler: more than u32::MAX - 1 wakes in the ring");
            self.slab.push(entry);
            slot
        } else {
            let slot = self.free;
            self.free = std::mem::replace(&mut self.slab[slot as usize], entry).next();
            slot
        };
        let b = at as usize & MASK;
        let Bucket { head, tail } = self.buckets[b];
        if head == NIL {
            self.buckets[b] = Bucket {
                head: slot,
                tail: slot,
            };
            self.occupied[b / 64] |= 1 << (b % 64);
        } else if self.slab[tail as usize].class() <= class {
            self.slab[tail as usize].set_next(slot);
            self.buckets[b].tail = slot;
        } else {
            // A lower class arrived late: link it in after the last
            // entry of its class or lower. The tail's class is higher,
            // so the walk stops before the end and the tail stays.
            let (mut prev, mut cur) = (NIL, head);
            while self.slab[cur as usize].class() <= class {
                prev = cur;
                cur = self.slab[cur as usize].next();
            }
            self.slab[slot as usize].set_next(cur);
            if prev == NIL {
                self.buckets[b].head = slot;
            } else {
                self.slab[prev as usize].set_next(slot);
            }
        }
        self.ring_len += 1;
    }

    /// Removes the first wake of tick `at`'s bucket.
    fn ring_pop(&mut self, at: u64) -> Option<(u8, K)> {
        let b = at as usize & MASK;
        let slot = self.buckets[b].head;
        let entry = self.slab.get_mut(slot as usize)?;
        let Slot::Used { key, class, next } =
            std::mem::replace(entry, Slot::Free { next: self.free })
        else {
            return None;
        };
        self.free = slot;
        self.buckets[b].head = next;
        if next == NIL {
            self.buckets[b].tail = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.ring_len -= 1;
        Some((class, key))
    }

    /// Every pending wake as `(tick, class, key)`, in delivery order.
    fn delivery_order(&self) -> Vec<(u64, u8, &K)> {
        let mut out = Vec::with_capacity(self.len());
        for at in self.cursor..self.cursor.saturating_add(WINDOW as u64) {
            let mut slot = self.buckets[at as usize & MASK].head;
            while slot != NIL {
                let e = &self.slab[slot as usize];
                if let Slot::Used { key, class, .. } = e {
                    out.push((at, *class, key));
                }
                slot = e.next();
            }
        }
        let mut far: Vec<&Wake<K>> = self.far.iter().collect();
        far.sort_unstable_by_key(|w| (w.at, w.class, w.seq));
        out.extend(far.into_iter().map(|w| (w.at.value(), w.class, &w.key)));
        out
    }
}

impl<K> Default for SimScheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Seq-counter-exclusive equality: two schedulers are equal when they
/// are at the same time and would deliver the same `(tick, class,
/// key)` sequence, regardless of internal layout or absolute FIFO
/// counter values (the same idiom as `DeliveryQueue`'s pool-exclusive
/// equality).
impl<K: PartialEq> PartialEq for SimScheduler<K> {
    fn eq(&self, other: &Self) -> bool {
        self.now == other.now
            && self.len() == other.len()
            && self.delivery_order() == other.delivery_order()
    }
}

/// How a substrate's main loop visits its entities.
///
/// Every DES-ported simulator keeps its legacy dense loop selectable
/// so the sparse path can be equivalence-tested against it: the two
/// modes must produce **bit-identical** simulation metrics (they share
/// every RNG draw site), differing only in wall-clock and visit
/// counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DriveMode {
    /// Visit every entity every tick (the legacy time-stepped loop).
    Dense,
    /// Visit only entities with a due wake — a pending scheduled event
    /// or a dirty input ([`SimScheduler::wake_on_input`]).
    #[default]
    Sparse,
}

/// Activation accounting a DES substrate reports next to its metrics.
///
/// These are *performance* counters, deliberately kept out of the
/// simulation `MetricSet`: dense and sparse runs of the same scenario
/// produce identical metrics but very different visit counts, and the
/// dense-vs-sparse parity tests compare metrics only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivationStats {
    /// Entity visits actually performed (dense: one per entity per
    /// tick; sparse: one per delivered entity wake).
    pub visits: u64,
    /// Wakes delivered by the scheduler (0 in dense mode except fault
    /// wakes, which both modes schedule).
    pub wakes: u64,
    /// Logical entity-ticks in the scenario (`entities × steps`) — the
    /// denominator for wall-clock-per-entity-tick, identical across
    /// modes.
    pub entity_ticks: u64,
    /// Wakes shed by the same-tick budget (release builds only).
    pub shed: u64,
}

/// O(1)-per-mark wake de-duplication for dirty-input activation.
///
/// Several inputs of one entity often change in the same tick (two
/// objects enter one camera's neighbourhood); scheduling one wake per
/// change would multiply the drain work. `WakeDedup` remembers the
/// last tick each entity was marked for, so the caller schedules a
/// wake only on the first mark per `(entity, tick)`.
///
/// # Example
///
/// ```
/// use simkernel::sched::WakeDedup;
/// use simkernel::Tick;
///
/// let mut d = WakeDedup::new(4);
/// assert!(d.mark(2, Tick(7)));  // first mark this tick: schedule
/// assert!(!d.mark(2, Tick(7))); // already marked: skip
/// assert!(d.mark(2, Tick(8)));  // new tick: schedule again
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeDedup {
    // Last marked tick per entity; u64::MAX = never marked (a wake at
    // Tick(u64::MAX) itself is not meaningful — horizons are finite).
    stamp: Vec<u64>,
}

impl WakeDedup {
    /// A dedup table over `entities` entity ids, all unmarked.
    #[must_use]
    pub fn new(entities: usize) -> Self {
        Self {
            stamp: vec![u64::MAX; entities],
        }
    }

    /// Marks entity `id` for tick `at`; returns `true` when this is
    /// the first mark for that `(entity, tick)` — i.e. the caller
    /// should schedule the wake.
    pub fn mark(&mut self, id: usize, at: Tick) -> bool {
        debug_assert!(at.value() != u64::MAX, "Tick(u64::MAX) is reserved");
        match self.stamp.get_mut(id) {
            Some(s) if *s != at.value() => {
                *s = at.value();
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_tick_class_seq_order() {
        let mut s = SimScheduler::new();
        s.wake_at(Tick(3), 1, "b");
        s.wake_at(Tick(3), 0, "a");
        s.wake_at(Tick(1), 2, "c");
        s.wake_at(Tick(3), 1, "d");
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(1), 2, "c")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 0, "a")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 1, "b")));
        assert_eq!(s.pop_due(Tick(3)), Some((Tick(3), 1, "d")));
        assert_eq!(s.pop_due(Tick(3)), None);
    }

    #[test]
    fn pop_due_respects_now_and_next_wake() {
        let mut s = SimScheduler::new();
        s.wake_at(Tick(10), 0, 42usize);
        assert_eq!(s.next_wake(), Some(Tick(10)));
        assert_eq!(s.pop_due(Tick(9)), None);
        assert_eq!(s.pop_due(Tick(10)), Some((Tick(10), 0, 42)));
        assert!(s.is_empty());
        assert_eq!(s.next_wake(), None);
    }

    #[test]
    fn wake_on_input_fires_this_tick_and_past_wakes_clamp() {
        let mut s = SimScheduler::new();
        s.advance(Tick(5));
        s.wake_on_input(1, "dirty");
        s.wake_at(Tick(2), 0, "late"); // in the past: clamps to now
        assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 0, "late")));
        assert_eq!(s.pop_due(Tick(5)), Some((Tick(5), 1, "dirty")));
    }

    #[test]
    fn eq_ignores_absolute_seq_values() {
        let mut a = SimScheduler::new();
        a.wake_at(Tick(1), 0, "x"); // consumed: bumps a's counter
        assert!(a.pop_due(Tick(1)).is_some());
        a.advance(Tick::ZERO); // no-op; time stays at 1
        let mut b = SimScheduler::new();
        b.advance(Tick(1));
        a.wake_at(Tick(4), 1, "y");
        b.wake_at(Tick(4), 1, "y");
        a.wake_at(Tick(4), 1, "z");
        b.wake_at(Tick(4), 1, "z");
        assert_eq!(a, b); // different seq counters, same delivery order
        b.wake_at(Tick(5), 0, "w");
        assert_ne!(a, b);
    }

    #[test]
    fn eq_detects_different_same_tick_order() {
        let mut a = SimScheduler::new();
        a.wake_at(Tick(2), 0, "first");
        a.wake_at(Tick(2), 0, "second");
        let mut b = SimScheduler::new();
        b.wake_at(Tick(2), 0, "second");
        b.wake_at(Tick(2), 0, "first");
        assert_ne!(a, b);
    }

    #[test]
    fn clone_preserves_delivery_order() {
        let mut a = SimScheduler::new();
        for i in 0..50u32 {
            a.wake_at(Tick(u64::from(i % 7)), (i % 3) as u8, i);
        }
        let mut b = a.clone();
        assert_eq!(a, b);
        loop {
            let x = a.pop_due(Tick(100));
            assert_eq!(x, b.pop_due(Tick(100)));
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same-tick wake budget")]
    fn same_tick_reschedule_panics_in_debug() {
        let mut s = SimScheduler::new().with_same_tick_budget(16);
        s.wake_at(Tick(1), 0, 0usize);
        // A pathological handler: every delivery re-schedules at now.
        while let Some((_, _, k)) = s.pop_due(Tick(1)) {
            s.wake_on_input(0, k);
        }
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn same_tick_reschedule_sheds_in_release() {
        let mut s = SimScheduler::new().with_same_tick_budget(16);
        s.wake_at(Tick(1), 0, 0usize);
        let mut delivered = 0u64;
        while let Some((_, _, k)) = s.pop_due(Tick(1)) {
            delivered += 1;
            s.wake_on_input(0, k);
        }
        assert_eq!(delivered, 16);
        assert_eq!(s.shed_count(), 1);
        // The over-budget wake was shed, not deferred.
        assert!(s.is_empty());
        // The budget resets on the next tick: a fresh wake is delivered.
        s.wake_at(Tick(2), 0, 7);
        assert_eq!(s.pop_due(Tick(2)), Some((Tick(2), 0, 7)));
        assert_eq!(s.shed_count(), 1);
    }

    #[test]
    fn budget_resets_each_tick() {
        let mut s = SimScheduler::new().with_same_tick_budget(4);
        for t in 1..=10u64 {
            for i in 0..4usize {
                s.wake_at(Tick(t), 0, i);
            }
        }
        let mut n = 0;
        for t in 1..=10u64 {
            while s.pop_due(Tick(t)).is_some() {
                n += 1;
            }
        }
        assert_eq!(n, 40);
        assert_eq!(s.shed_count(), 0);
    }

    #[test]
    fn late_lower_class_is_linked_in_class_order() {
        let mut s = SimScheduler::new();
        for (class, key) in [(2, "a"), (2, "b"), (0, "c"), (1, "d"), (0, "e"), (2, "f")] {
            s.wake_at(Tick(5), class, key);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop_due(Tick(5)))
            .map(|(_, _, k)| k)
            .collect();
        assert_eq!(order, ["c", "e", "d", "a", "b", "f"]);
    }

    #[test]
    fn far_wakes_migrate_ahead_of_later_pushes() {
        let far = WINDOW as u64 * 3 + 17;
        let mut s = SimScheduler::new();
        s.wake_at(Tick(far), 1, "far-1");
        s.wake_at(Tick(far), 0, "far-0");
        s.wake_at(Tick(1), 0, "near");
        assert_eq!(s.pop_due(Tick(1)), Some((Tick(1), 0, "near")));
        // Once the window covers `far`, direct pushes queue behind the
        // migrated wakes of their class.
        assert_eq!(s.pop_due(Tick(far - 10)), None);
        s.wake_at(Tick(far), 1, "direct-1");
        s.wake_at(Tick(far), 0, "direct-0");
        let order: Vec<_> = std::iter::from_fn(|| s.pop_due(Tick(far)))
            .map(|(_, _, k)| k)
            .collect();
        assert_eq!(order, ["far-0", "direct-0", "far-1", "direct-1"]);
    }

    #[test]
    fn undrained_ticks_survive_a_jump_past_the_window() {
        let w = WINDOW as u64;
        let mut s = SimScheduler::new();
        for t in [w * 5, 3, w + 2, 3, w * 2] {
            s.wake_at(Tick(t), 0, t);
        }
        s.advance(Tick(w * 4));
        assert_eq!(s.next_wake(), Some(Tick(3)));
        s.wake_on_input(0, 0); // lands at now, behind the older ticks
        let got: Vec<_> = std::iter::from_fn(|| s.pop_due(Tick(w * 4))).collect();
        assert_eq!(
            got,
            [
                (Tick(3), 0, 3),
                (Tick(3), 0, 3),
                (Tick(w + 2), 0, w + 2),
                (Tick(w * 2), 0, w * 2),
                (Tick(w * 4), 0, 0),
            ]
        );
        assert_eq!(s.peek(), Some((Tick(w * 5), 0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn dedup_marks_once_per_tick() {
        let mut d = WakeDedup::new(3);
        assert!(d.mark(0, Tick(1)));
        assert!(!d.mark(0, Tick(1)));
        assert!(d.mark(1, Tick(1)));
        assert!(d.mark(0, Tick(2)));
        assert!(!d.mark(9, Tick(2))); // out of range: never schedules
    }
}
