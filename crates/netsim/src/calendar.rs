//! Calendar (bucket) queue for the future event list.
//!
//! A classic discrete-event simulator alternative to the binary heap
//! ([Brown 1988]): pending events are hashed by firing time into an array of
//! fixed-width time buckets, so in the steady state `schedule` is an O(1)
//! push onto a short bucket list and `pop` scans forward from the current
//! bucket — amortised O(1) against the heap's O(log n) sift per operation.
//!
//! # Design
//!
//! * **Storage**: every bucketed event lives in one slab of slots; a bucket
//!   is a `u32` index of its first slot, and each slot links to the next
//!   slot of its bucket.  Vacated slots go on a free list and are reused
//!   before the slab grows, so the queue's memory follows the most events
//!   pending at once — not the bucket count times each bucket's high-water
//!   mark — and walking past an empty bucket reads one 4-byte head.
//! * **Bucket width** starts at one MAC backoff slot — the granularity at
//!   which steady-state MAC attempts and transmission ends land (see
//!   [`CalendarQueue::width_for_mac`]) — and **self-tunes** from there:
//!   every few thousand pops the queue halves the width when buckets run
//!   dense (the min-scan cost shows up) or doubles it when pops mostly walk
//!   empty buckets.  The event-time distribution changes with node count and
//!   workload, so no fixed width suits every run.
//! * **Sliding year**: the bucket array covers the absolute-bucket window
//!   `[cursor, cursor + nbuckets)`.  Events beyond the window — far-future
//!   mobility waypoints, TCP retransmission timers, the end-of-run `Stop` —
//!   go to an **overflow ladder** (a small binary heap).  Whenever the cursor
//!   advances, every overflow event that now falls inside the window is
//!   migrated into its bucket, so the FIFO tie-break order stays global.
//! * **Resizing**: when occupancy exceeds `2 × nbuckets` the bucket-head
//!   array doubles.  A growth or width re-tune re-links every slot in place
//!   (no event moves in the slab); events that fall past the new window
//!   spill to the overflow ladder and overflow events inside it move in.
//!   Bucket-array growths and width re-tunes are both counted as "resizes"
//!   for the perf report.
//!
//! # Ordering contract
//!
//! Pops are **exactly** the order a binary heap produces: ascending
//! `(time, seq)`.  Two events with equal timestamps always hash to the same
//! bucket (same time ⇒ same absolute bucket), and within a bucket the pop
//! scans the list for the minimal `(time, seq)` pair, so the FIFO tie-break
//! of the sequence number is preserved whatever order the list is in.
//! Events in the overflow ladder are always strictly later than every
//! bucketed event (their absolute bucket lies past the window), so the two
//! stores never compete for the same timestamp.
//! The `slab_queue_matches_a_binary_heap` property below checks this against
//! a `BinaryHeap` model, and debug builds of [`crate::event::EventQueue`]
//! assert it on every pop of every simulation run.
//!
//! [Brown 1988]: R. Brown, "Calendar queues: a fast O(1) priority queue
//! implementation for the simulation event set problem", CACM 31(10).

use crate::event::ScheduledEvent;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default number of buckets (power of two; grows by doubling).
const INITIAL_BUCKETS: usize = 1024;

/// Hard cap on the bucket array (2^20 buckets = 4 MiB of list heads) —
/// beyond this the queue degrades gracefully to larger per-bucket scans.
const MAX_BUCKETS: usize = 1 << 20;

/// Resize when occupancy exceeds this many events per bucket on average.
const RESIZE_LOAD: usize = 2;

/// Pops between width-adaptation checks.
const ADAPT_WINDOW: u64 = 4096;

/// Narrow the buckets when the mean per-pop bucket scan exceeds this.
const ADAPT_SCAN_HIGH: f64 = 3.0;

/// Widen the buckets when the mean per-pop empty-bucket walk exceeds this.
const ADAPT_SKIP_HIGH: f64 = 24.0;

/// Bounds on the adaptive bucket width, seconds.
const MIN_WIDTH: f64 = 1e-7;
const MAX_WIDTH: f64 = 1.0;

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab entry: an event and the next slot of its bucket's list while
/// occupied, or of the free list while vacant.
#[derive(Debug)]
struct Slot {
    ev: Option<ScheduledEvent>,
    next: u32,
}

/// A calendar queue over [`ScheduledEvent`]s.
///
/// See the module docs for the design; [`crate::event::EventQueue`] wraps
/// it with the sequence numbers and the lifetime counters.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Storage of every bucketed event (see the module docs).
    slab: Vec<Slot>,
    /// First vacant slot of `slab`, or [`NIL`].
    free: u32,
    /// `heads[b % nbuckets]` is the first slot of absolute bucket `b`'s list
    /// (or [`NIL`]) for every `b` in the sliding window
    /// `[cursor, cursor + nbuckets)`; `nbuckets` is a power of two.
    heads: Vec<u32>,
    /// Seconds of simulated time per bucket.
    width: f64,
    /// Absolute bucket number of the earliest non-retired bucket.
    cursor: u64,
    /// Events currently stored in the buckets (occupied slots).
    bucketed: usize,
    /// Far-future events (absolute bucket ≥ `cursor + nbuckets`).  Pops
    /// earliest-first thanks to [`ScheduledEvent`]'s inverted `Ord`.
    overflow: BinaryHeap<ScheduledEvent>,
    /// Times the bucket array was grown or the width re-tuned.
    resizes: u64,
    /// Time of the last popped event (resume point for width re-tunes).
    last_pop: SimTime,
    /// Entries examined by the min-scan since the last adaptation check.
    pop_scans: u64,
    /// Empty buckets walked past since the last adaptation check.
    pop_skips: u64,
    /// Pops since the last adaptation check.
    pops_since_adapt: u64,
}

impl CalendarQueue {
    /// A calendar queue with the given bucket width in seconds.
    ///
    /// # Panics
    /// Panics if `width` is not positive and finite.
    pub fn new(width: f64) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "calendar bucket width must be positive and finite, got {width}"
        );
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; INITIAL_BUCKETS],
            width,
            cursor: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
            resizes: 0,
            last_pop: SimTime::ZERO,
            pop_scans: 0,
            pop_skips: 0,
            pops_since_adapt: 0,
        }
    }

    /// The initial bucket width, in seconds, for a MAC configuration: one
    /// backoff slot.  Steady-state MAC attempts and transmission ends land at
    /// slot/DIFS granularity, so this keeps nearby buckets at O(1) occupancy
    /// at moderate event densities; from there the queue **self-tunes**: it
    /// halves the width when pops scan overfull buckets (denser event
    /// streams at larger node counts) and doubles it when pops mostly walk
    /// empty buckets (sparse streams).
    pub fn width_for_mac(mac: &crate::config::MacConfig) -> f64 {
        mac.slot_time.as_secs().clamp(MIN_WIDTH, MAX_WIDTH)
    }

    /// Absolute bucket number of an event time.
    #[inline]
    fn abs_bucket(&self, time: SimTime) -> u64 {
        (time.as_secs() / self.width) as u64
    }

    /// Number of buckets in the window.
    #[inline]
    fn nbuckets(&self) -> usize {
        self.heads.len()
    }

    /// Index into `heads` of an absolute bucket.
    #[inline]
    fn bucket_index(&self, abs_bucket: u64) -> usize {
        (abs_bucket as usize) & (self.heads.len() - 1)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the bucket array was grown.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Insert an event (the caller assigns `seq`).
    pub fn push(&mut self, ev: ScheduledEvent) {
        if self.insert(ev)
            && self.bucketed > RESIZE_LOAD * self.nbuckets()
            && self.nbuckets() < MAX_BUCKETS
        {
            self.grow();
        }
    }

    /// Put an event in its bucket, or in the overflow ladder if it lies
    /// past the window.  Returns true if it was bucketed.
    fn insert(&mut self, ev: ScheduledEvent) -> bool {
        let ab = self.abs_bucket(ev.time).max(self.cursor);
        if ab >= self.cursor + self.nbuckets() as u64 {
            self.overflow.push(ev);
            return false;
        }
        let slot = if self.free == NIL {
            assert!(
                self.slab.len() < NIL as usize,
                "calendar queue holds fewer than 2^32 - 1 bucketed events"
            );
            let slot = self.slab.len() as u32;
            self.slab.push(Slot {
                ev: Some(ev),
                next: NIL,
            });
            slot
        } else {
            let slot = self.free;
            let vacant = &mut self.slab[slot as usize];
            self.free = vacant.next;
            vacant.ev = Some(ev);
            slot
        };
        self.bucketed += 1;
        self.link(slot, ab);
        true
    }

    /// Prepend an occupied slot to absolute bucket `ab`'s list.
    #[inline]
    fn link(&mut self, slot: u32, ab: u64) {
        let idx = self.bucket_index(ab);
        self.slab[slot as usize].next = self.heads[idx];
        self.heads[idx] = slot;
    }

    /// Take the event out of an (already unlinked) slot and put the slot on
    /// the free list.
    #[inline]
    fn release(&mut self, slot: u32) -> ScheduledEvent {
        let vacated = &mut self.slab[slot as usize];
        let ev = vacated.ev.take().expect("released slot is occupied");
        vacated.next = self.free;
        self.free = slot;
        self.bucketed -= 1;
        ev
    }

    /// The event of an occupied slot.
    #[inline]
    fn event(&self, slot: u32) -> &ScheduledEvent {
        self.slab[slot as usize]
            .ev
            .as_ref()
            .expect("listed slot is occupied")
    }

    /// Remove and return the earliest pending event (ascending `(time, seq)`).
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.bucketed == 0 {
            // Jump the calendar straight to the overflow ladder's head.
            let ev = self.overflow.pop()?;
            self.advance_to(self.abs_bucket(ev.time));
            self.last_pop = ev.time;
            return Some(ev);
        }
        // Some bucket in the window is non-empty, and buckets earlier in the
        // window hold strictly earlier times, so the first non-empty bucket
        // contains the global minimum.
        for step in 0..self.nbuckets() as u64 {
            let b = self.cursor + step;
            let idx = self.bucket_index(b);
            let head = self.heads[idx];
            if head == NIL {
                continue;
            }
            let ev = if self.slab[head as usize].next == NIL {
                // A single-entry bucket, the common case of sparse event
                // streams: no list to walk.
                self.pop_scans += 1;
                self.heads[idx] = NIL;
                self.release(head)
            } else {
                let (min, before, len) = self.list_min(head);
                self.pop_scans += len;
                let after = self.slab[min as usize].next;
                if before == NIL {
                    self.heads[idx] = after;
                } else {
                    self.slab[before as usize].next = after;
                }
                self.release(min)
            };
            self.pop_skips += step;
            self.pops_since_adapt += 1;
            if step > 0 {
                self.advance_to(b);
            }
            self.last_pop = ev.time;
            if self.pops_since_adapt >= ADAPT_WINDOW {
                self.maybe_adapt_width();
            }
            return Some(ev);
        }
        unreachable!("bucketed > 0 but every bucket in the window is empty");
    }

    /// Walk the non-empty list starting at `head`: its slot with the minimal
    /// `(time, seq)`, that slot's predecessor in the list ([`NIL`] if it is
    /// the head) and the list's length.
    #[inline]
    fn list_min(&self, head: u32) -> (u32, u32, u64) {
        let first = self.event(head);
        let (mut min, mut before, mut key) = (head, NIL, (first.time, first.seq));
        let (mut prev, mut cur, mut len) = (head, self.slab[head as usize].next, 1);
        while cur != NIL {
            let ev = self.event(cur);
            if (ev.time, ev.seq) < key {
                (min, before, key) = (cur, prev, (ev.time, ev.seq));
            }
            len += 1;
            prev = cur;
            cur = self.slab[cur as usize].next;
        }
        (min, before, len)
    }

    /// Re-tune the bucket width to the observed event density.
    ///
    /// The event-time distribution is workload-dependent (MAC contention at
    /// micro-second granularity, timers at seconds) and scales with the node
    /// count, so no fixed width suits every run: overfull buckets make the
    /// per-pop min-scan linear, while mostly-empty buckets waste the walk
    /// between occupied ones.  Every [`ADAPT_WINDOW`] pops the queue halves
    /// the width if buckets run dense and doubles it if pops mostly skip
    /// empty buckets; events are re-hashed (counted in
    /// [`CalendarQueue::resizes`]).  Pop order is unaffected — the ordering
    /// contract holds for any width.
    fn maybe_adapt_width(&mut self) {
        let pops = self.pops_since_adapt.max(1) as f64;
        let mean_scan = self.pop_scans as f64 / pops;
        let mean_skip = self.pop_skips as f64 / pops;
        self.pop_scans = 0;
        self.pop_skips = 0;
        self.pops_since_adapt = 0;
        if mean_scan > ADAPT_SCAN_HIGH && self.width > MIN_WIDTH {
            // Narrowing halves the time each bucket covers; double the
            // bucket count in step so the window's covered time-span stays
            // put — otherwise repeated narrowing shrinks the window below
            // the MAC airtime horizon and every TxEnd thrashes through the
            // overflow ladder.
            let new_n = (self.nbuckets() * 2).min(MAX_BUCKETS);
            self.rebuild((self.width / 2.0).max(MIN_WIDTH), new_n);
        } else if mean_skip > ADAPT_SKIP_HIGH && self.width < MAX_WIDTH {
            self.rebuild((self.width * 2.0).min(MAX_WIDTH), self.nbuckets());
        }
    }

    /// Re-hash every pending event under a new bucket width / bucket count.
    fn rebuild(&mut self, new_width: f64, new_nbuckets: usize) {
        self.resizes += 1;
        self.width = new_width;
        self.cursor = self.abs_bucket(self.last_pop);
        self.rehash(new_nbuckets);
    }

    /// Double the bucket array and re-hash every bucketed event; the wider
    /// window may also absorb overflow events.
    fn grow(&mut self) {
        self.resizes += 1;
        self.rehash((self.nbuckets() * 2).min(MAX_BUCKETS));
    }

    /// Re-link every occupied slot into `nbuckets` fresh bucket lists under
    /// the current width and cursor.  Events past the new window spill to
    /// the overflow ladder (their slots are freed); overflow events inside
    /// it then move in.
    fn rehash(&mut self, nbuckets: usize) {
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        let horizon = self.cursor + nbuckets as u64;
        for slot in 0..self.slab.len() as u32 {
            let Some(time) = self.slab[slot as usize].ev.as_ref().map(|ev| ev.time) else {
                continue;
            };
            let ab = self.abs_bucket(time).max(self.cursor);
            if ab < horizon {
                self.link(slot, ab);
            } else {
                let ev = self.release(slot);
                self.overflow.push(ev);
            }
        }
        self.migrate_overflow();
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        if self.bucketed > 0 {
            for step in 0..self.nbuckets() as u64 {
                let head = self.heads[self.bucket_index(self.cursor + step)];
                if head != NIL {
                    best = Some(self.event(self.list_min(head).0).time);
                    break;
                }
            }
        }
        match (best, self.overflow.peek()) {
            (Some(b), Some(o)) => Some(b.min(o.time)),
            (Some(b), None) => Some(b),
            (None, Some(o)) => Some(o.time),
            (None, None) => None,
        }
    }

    /// Slide the window forward to `new_cursor` and migrate every overflow
    /// event that now falls inside it, so bucketed and overflowed events at
    /// the same future timestamp can never be popped out of seq order.
    fn advance_to(&mut self, new_cursor: u64) {
        debug_assert!(new_cursor >= self.cursor, "calendar cursor went backwards");
        self.cursor = new_cursor;
        self.migrate_overflow();
    }

    /// Move overflow events inside the current window into their buckets.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + self.nbuckets() as u64;
        while let Some(head) = self.overflow.peek() {
            if self.abs_bucket(head.time) >= horizon {
                break;
            }
            let ev = self.overflow.pop().expect("peeked");
            self.insert(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::node::TimerToken;
    use manet_wire::NodeId;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    fn ev(time: f64, seq: u64) -> ScheduledEvent {
        ScheduledEvent {
            time: SimTime::from_secs(time),
            seq,
            event: Event::Timer {
                node: NodeId(0),
                token: TimerToken(0),
            },
        }
    }

    fn drain(q: &mut CalendarQueue) -> Vec<(f64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_secs(), e.seq))
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(0.25);
        for (t, s) in [(3.0, 0), (1.0, 1), (2.0, 2), (1.0, 3), (2.0, 4)] {
            q.push(ev(t, s));
        }
        assert_eq!(
            drain(&mut q),
            vec![(1.0, 1), (1.0, 3), (2.0, 2), (2.0, 4), (3.0, 0)]
        );
    }

    #[test]
    fn far_future_events_go_through_the_overflow_ladder() {
        let mut q = CalendarQueue::new(1e-4); // window = 1024 * 0.1 ms ≈ 0.1 s
        q.push(ev(500.0, 0)); // far future: overflow
        q.push(ev(0.01, 1));
        q.push(ev(250.0, 2)); // also overflow
        assert_eq!(q.len(), 3);
        assert_eq!(drain(&mut q), vec![(0.01, 1), (250.0, 2), (500.0, 0)]);
    }

    #[test]
    fn overflow_migration_preserves_fifo_against_fresh_pushes() {
        let mut q = CalendarQueue::new(1e-3);
        // Event A lands far outside the initial window -> overflow.
        q.push(ev(100.0, 0));
        q.push(ev(0.5, 1));
        assert_eq!(q.pop().unwrap().seq, 1);
        // Jumping the cursor to the overflow head migrates it; a same-time
        // push with a later seq must pop after it.
        q.push(ev(100.0, 2));
        assert_eq!(drain(&mut q), vec![(100.0, 0), (100.0, 2)]);
    }

    #[test]
    fn interleaved_push_pop_matches_a_reference_sort() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(42);
        let mut q = CalendarQueue::new(7e-4);
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let mut popped: Vec<(f64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || q.is_empty() {
                // Schedule ahead of `now`, sometimes far ahead, with repeats.
                let dt = if rng.gen_bool(0.1) {
                    rng.gen_range(1.0..50.0)
                } else {
                    rng.gen_range(0.0..0.01)
                };
                let t = now + dt;
                q.push(ev(t, seq));
                reference.push((t, seq));
                seq += 1;
            } else {
                let e = q.pop().unwrap();
                now = e.time.as_secs();
                popped.push((e.time.as_secs(), e.seq));
            }
        }
        popped.extend(std::iter::from_fn(|| q.pop()).map(|e| (e.time.as_secs(), e.seq)));
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(popped, reference);
    }

    #[test]
    fn equal_timestamp_storm_pops_in_seq_order() {
        let mut q = CalendarQueue::new(3.6e-4);
        for s in 0..1_000u64 {
            q.push(ev(5.0, s));
        }
        let order = drain(&mut q);
        assert_eq!(order.len(), 1_000);
        assert!(order.windows(2).all(|w| w[0].1 + 1 == w[1].1));
    }

    #[test]
    fn grows_under_load_and_keeps_order() {
        let mut q = CalendarQueue::new(1e-3);
        // Far more events than 2 * INITIAL_BUCKETS forces at least one grow.
        let n = 5_000u64;
        for s in 0..n {
            q.push(ev((s % 97) as f64 * 0.01, s));
        }
        assert!(q.resizes() > 0, "load factor must trigger a resize");
        let order = drain(&mut q);
        assert_eq!(order.len(), n as usize);
        assert!(order
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn width_for_mac_tracks_contention_timescale() {
        let mac = crate::config::MacConfig::default();
        let w = CalendarQueue::width_for_mac(&mac);
        // One 802.11b backoff slot (20 µs) — the granularity MAC events land
        // at; the adaptive re-tuning takes it from there.
        assert!((w - 2e-5).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn dense_streams_narrow_the_width_adaptively() {
        // Far more same-bucket events than the scan threshold tolerates:
        // a dense burst must trigger at least one width-narrowing rebuild
        // while preserving exact (time, seq) order.
        let mut q = CalendarQueue::new(1e-3);
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..40u64 {
            for i in 0..1_500u64 {
                // ~1500 events spread over one original bucket width.
                let t = round as f64 * 1e-3 + (i as f64) * 6e-7;
                q.push(ev(t, seq));
                seq += 1;
            }
            for _ in 0..1_500 {
                popped.push(q.pop().expect("pushed above"));
            }
        }
        assert!(q.resizes() > 0, "dense stream must re-tune the width");
        assert!(popped
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)));
    }

    /// Which of the queue's structural edges a [`Script`] run crossed.
    #[derive(Debug, Default)]
    struct Edges {
        grew: bool,
        narrowed: bool,
        widened: bool,
        migrated: bool,
        spilled: bool,
    }

    /// Drives a [`CalendarQueue`] and a `BinaryHeap` reference through the
    /// same pushes and pops, checking after every operation that the two
    /// agree and that the slab is no larger than the most events pending
    /// at once.
    struct Script {
        q: CalendarQueue,
        reference: BinaryHeap<ScheduledEvent>,
        seq: u64,
        now: f64,
        peak: usize,
        edges: Edges,
        rng: rand::rngs::SmallRng,
    }

    impl Script {
        fn new(width: f64, seed: u64) -> Self {
            use rand::SeedableRng;
            Script {
                q: CalendarQueue::new(width),
                reference: BinaryHeap::new(),
                seq: 0,
                now: 0.0,
                peak: 0,
                edges: Edges::default(),
                rng: rand::rngs::SmallRng::seed_from_u64(seed),
            }
        }

        fn unit(&mut self) -> f64 {
            use rand::Rng;
            self.rng.gen_range(0.0..1.0)
        }

        /// Push one event `dt` seconds after the last popped time.
        fn push(&mut self, dt: f64) -> Result<(), TestCaseError> {
            self.step(|s| {
                let e = ev(s.now + dt, s.seq);
                s.seq += 1;
                s.reference.push(e.clone());
                s.q.push(e);
                s.peak = s.peak.max(s.reference.len());
                Ok(())
            })
        }

        fn pop(&mut self) -> Result<(), TestCaseError> {
            self.step(|s| {
                let want = s.reference.pop().map(|e| (e.time, e.seq));
                let got = s.q.pop().map(|e| (e.time, e.seq));
                prop_assert_eq!(got, want, "pop {} diverged from the heap", s.seq);
                if let Some((time, _)) = got {
                    s.now = time.as_secs();
                }
                Ok(())
            })
        }

        /// Run one operation, then check the invariants and note the edges
        /// it crossed.
        fn step(
            &mut self,
            op: impl FnOnce(&mut Self) -> Result<(), TestCaseError>,
        ) -> Result<(), TestCaseError> {
            let (width, nbuckets) = (self.q.width, self.q.nbuckets());
            let (overflow, direct) = (self.q.overflow.len(), usize::from(self.q.bucketed == 0));
            op(self)?;
            let edges = &mut self.edges;
            edges.grew |= self.q.nbuckets() > nbuckets && self.q.width == width;
            edges.narrowed |= self.q.width < width;
            edges.widened |= self.q.width > width;
            // A pop takes at most one event straight off the ladder (and
            // only when no event is bucketed); anything more moved in.
            edges.migrated |= self.q.overflow.len() + direct < overflow;
            prop_assert_eq!(self.q.len(), self.reference.len());
            prop_assert_eq!(self.q.peek_time(), self.reference.peek().map(|e| e.time));
            prop_assert!(
                self.q.slab.len() <= self.peak,
                "slab holds {} slots but at most {} events were ever pending",
                self.q.slab.len(),
                self.peak
            );
            Ok(())
        }

        /// One phase of a generated workload: `count` operations of `kind`.
        fn phase(&mut self, kind: u8, count: u32) -> Result<(), TestCaseError> {
            match kind {
                // Hold: pop one, schedule one a little later.
                0 => {
                    for _ in 0..count {
                        self.pop()?;
                        let dt = self.unit() * 0.01;
                        self.push(dt)?;
                    }
                }
                // Same-instant storm, half of it popped straight away.  Every
                // pop scans the whole storm's bucket, so keep it short.
                1 => {
                    let dt = self.unit() * 0.005;
                    let storm = 1 + count / 16;
                    for _ in 0..storm {
                        self.push(dt)?;
                    }
                    for _ in 0..storm / 2 {
                        self.pop()?;
                    }
                }
                // Far-future timers, interleaved with near events and pops:
                // they wait in the overflow ladder and migrate in later.
                2 => {
                    for i in 0..count {
                        let dt = 1.0 + self.unit() * 49.0;
                        self.push(dt)?;
                        let dt = self.unit() * 0.01;
                        self.push(dt)?;
                        if i % 2 == 0 {
                            self.pop()?;
                        }
                    }
                }
                // Dense burst: about eight events per bucket, then drained.
                // Enough of them grows the bucket array and narrows the width.
                3 => {
                    let span = f64::from(count) * self.q.width / 8.0;
                    for _ in 0..count {
                        let dt = self.unit() * span;
                        self.push(dt)?;
                    }
                    for _ in 0..count {
                        self.pop()?;
                    }
                }
                // Sparse run: events forty buckets apart, then drained, so
                // pops walk empty buckets and the width widens.
                4 => {
                    let gap = 40.0 * self.q.width;
                    for i in 0..count {
                        self.push(f64::from(i + 1) * gap)?;
                    }
                    for _ in 0..count {
                        self.pop()?;
                    }
                }
                // Events across the whole window, then a narrowing at the
                // bucket cap, as `maybe_adapt_width` does once `MAX_BUCKETS`
                // is reached: the window's time-span halves, so its far half
                // spills to the overflow ladder.
                5 => {
                    let span = self.q.nbuckets() as f64 * self.q.width;
                    for _ in 0..count {
                        let dt = self.unit() * span;
                        self.push(dt)?;
                    }
                    let overflow = self.q.overflow.len();
                    self.step(|s| {
                        s.q.rebuild((s.q.width / 2.0).max(MIN_WIDTH), s.q.nbuckets());
                        Ok(())
                    })?;
                    self.edges.spilled |= self.q.overflow.len() > overflow;
                    for _ in 0..count {
                        self.pop()?;
                    }
                }
                // Drain.
                _ => {
                    for _ in 0..count {
                        self.pop()?;
                    }
                }
            }
            Ok(())
        }

        /// Run the phases, then drain the queue.
        fn run(mut self, phases: &[(u8, u32)]) -> Result<Edges, TestCaseError> {
            for &(kind, count) in phases {
                self.phase(kind, count)?;
            }
            while !self.reference.is_empty() {
                self.pop()?;
            }
            self.pop()?;
            Ok(self.edges)
        }
    }

    proptest! {
        /// Pushes and pops through same-instant storms, overflow
        /// migrations, bucket-array growth, both width re-tunes and
        /// narrowings that spill to the overflow ladder: the
        /// pop order is the binary heap's, and the slab never holds more
        /// slots than the most events pending at once.
        #[test]
        fn slab_queue_matches_a_binary_heap(
            width_exp in 0u32..4,
            seed in any::<u64>(),
            phases in proptest::collection::vec((0u8..7, 1u32..6_000), 1..8),
        ) {
            let width = 2e-5 * 4f64.powi(width_exp as i32);
            Script::new(width, seed).run(&phases)?;
        }
    }

    #[test]
    fn the_property_script_reaches_every_structural_edge() {
        let phases = [
            (2, 300),
            (3, 6_000),
            (1, 2_000),
            (4, 6_000),
            (0, 3_000),
            (0, 1),
            (5, 10),
        ];
        let edges = Script::new(2e-5, 7).run(&phases).expect("matches the heap");
        assert!(edges.grew, "{edges:?}");
        assert!(edges.narrowed, "{edges:?}");
        assert!(edges.widened, "{edges:?}");
        assert!(edges.migrated, "{edges:?}");
        assert!(edges.spilled, "{edges:?}");
    }

    #[test]
    fn peek_time_reports_the_global_minimum() {
        let mut q = CalendarQueue::new(1e-3);
        assert!(q.peek_time().is_none());
        q.push(ev(300.0, 0)); // overflow
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(300.0)));
        q.push(ev(0.002, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.002)));
    }
}
