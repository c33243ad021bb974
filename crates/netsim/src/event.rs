//! Pending-event queue.
//!
//! A classic discrete-event simulator core: events are ordered by time, with
//! a monotonically increasing sequence number breaking ties so that events
//! scheduled earlier at the same instant fire first (stable FIFO order keeps
//! runs deterministic).
//!
//! The store is a calendar/bucket queue ([`crate::calendar::CalendarQueue`],
//! amortised O(1) per operation).  It pops in exactly a binary heap's order,
//! ascending `(time, seq)`: debug builds assert on every pop that the pair
//! strictly increases, and `calendar.rs` checks the queue against a
//! `BinaryHeap` model on random operation scripts.

use crate::calendar::CalendarQueue;
use crate::node::TimerToken;
use crate::time::SimTime;
use manet_wire::{Frame, NodeId, SharedPacket};
use std::cmp::Ordering;

/// Identifier of one ongoing MAC transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

/// The kinds of events the engine processes.
#[derive(Debug, Clone)]
pub enum Event {
    /// Deliver a protocol timer to a node's stack.
    Timer {
        /// Node whose stack receives the timer.
        node: NodeId,
        /// Opaque token the stack passed when scheduling the timer.
        token: TimerToken,
    },
    /// The MAC of `node` should try to start transmitting the head-of-queue
    /// frame (fires after DIFS + backoff or when the medium frees up).
    MacAttempt {
        /// Node whose MAC should attempt a transmission.
        node: NodeId,
    },
    /// An in-flight transmission ends; receptions are resolved.
    TxEnd {
        /// Transmitting node.
        node: NodeId,
        /// Identifier of the transmission (guards against stale events).
        tx: TxId,
    },
    /// A node reached its current waypoint and must choose the next one.
    WaypointReached {
        /// The node that arrived.
        node: NodeId,
        /// Waypoint epoch the event belongs to (guards against stale events).
        epoch: u64,
    },
    /// Recompute the background fluid-flow allocation (arrival, analytic
    /// completion, endpoint leg change, or the periodic cap; see
    /// [`crate::fluid`]).  Only scheduled when
    /// [`crate::config::SimConfig::background`] is set.
    FluidEpoch {
        /// Fluid generation the event was scheduled under (guards against
        /// stale events after an endpoint's leg changed).
        gen: u64,
    },
    /// A wormhole's out-of-band tunnel delivers a packet at the far endpoint
    /// (see [`crate::config::WormholeConfig`]).  Only scheduled when a
    /// wormhole is configured.
    TunnelDeliver {
        /// Receiving tunnel endpoint.
        to: NodeId,
        /// Transmitting tunnel endpoint (the `from` the stack callback sees).
        from: NodeId,
        /// The tunneled network packet.  Shares the transmitting frame's
        /// allocation (and, being pointer-sized, keeps the rare tunnel
        /// variant from inflating every entry of the hot event queue).
        packet: SharedPacket,
    },
    /// A reception the delivery-choice hook delayed (see [`crate::choice`]):
    /// the outcome was resolved at the frame's `TxEnd`; this event only runs
    /// the receiver-side bookkeeping and the receiving stack's `on_receive`.
    /// Only scheduled when a hook is installed.
    DelayedDeliver {
        /// Receiving node.
        to: NodeId,
        /// Transmitting node (the `from` the stack callback sees).
        from: NodeId,
        /// The received packet, sharing the transmitted frame's allocation.
        packet: SharedPacket,
    },
    /// End of the simulated run.
    Stop,
}

/// An event bound to its firing time.
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the event fires.
    pub time: SimTime,
    /// FIFO tie-breaker.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Scheduler counters surfaced through
/// [`EnginePerf`](crate::recorder::EnginePerf) for the perf trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueuePerf {
    /// Events pushed over the queue's lifetime.
    pub pushes: u64,
    /// Events popped over the queue's lifetime.
    pub pops: u64,
    /// Maximum simultaneous occupancy observed.
    pub max_occupancy: u64,
    /// Times the calendar queue grew its bucket array or re-tuned its width.
    pub calendar_resizes: u64,
}

/// The future event list.
#[derive(Debug)]
pub struct EventQueue {
    calendar: CalendarQueue,
    next_seq: u64,
    pops: u64,
    max_occupancy: u64,
    /// `(time, seq)` of the last pop, for the order check of debug builds.
    #[cfg(debug_assertions)]
    last_pop: Option<(SimTime, u64)>,
}

impl Default for EventQueue {
    /// An empty queue with the bucket width of the default MAC.
    fn default() -> Self {
        Self::calendar(CalendarQueue::width_for_mac(
            &crate::config::MacConfig::default(),
        ))
    }
}

impl EventQueue {
    /// An empty calendar queue with the given bucket width in seconds.
    pub fn calendar(width_secs: f64) -> Self {
        EventQueue {
            calendar: CalendarQueue::new(width_secs),
            next_seq: 0,
            pops: 0,
            max_occupancy: 0,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(ScheduledEvent { time, seq, event });
        self.max_occupancy = self.max_occupancy.max(self.len() as u64);
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let ev = self.calendar.pop()?;
        self.pops += 1;
        // The heap order oracle: pops strictly increase in `(time, seq)`.
        #[cfg(debug_assertions)]
        {
            let key = (ev.time, ev.seq);
            if let Some(last) = self.last_pop.replace(key) {
                assert!(
                    last < key,
                    "event queue popped {key:?} after {last:?}: out of (time, seq) order"
                );
            }
        }
        Some(ev)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime scheduler counters.
    pub fn perf(&self) -> QueuePerf {
        QueuePerf {
            pushes: self.next_seq,
            pops: self.pops,
            max_occupancy: self.max_occupancy,
            calendar_resizes: self.calendar.resizes(),
        }
    }
}

/// A frame waiting in, or moving through, the MAC.  Public because the engine
/// and MAC share it.
#[derive(Debug, Clone)]
pub struct QueuedFrame {
    /// The frame to transmit.
    pub frame: Frame,
    /// Transmission attempts made so far.
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// An event whose payload the queue never looks at.
    fn filler() -> Event {
        Event::Timer {
            node: NodeId(0),
            token: TimerToken(0),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.schedule(t(3.0), Event::Stop);
        q.schedule(t(1.0), filler());
        q.schedule(t(2.0), Event::Stop);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_secs())
            .collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_pop_in_fifo_order() {
        let mut q = EventQueue::default();
        let now = t(5.0);
        q.schedule(
            now,
            Event::Timer {
                node: NodeId(1),
                token: TimerToken(10),
            },
        );
        q.schedule(
            now,
            Event::Timer {
                node: NodeId(2),
                token: TimerToken(20),
            },
        );
        q.schedule(
            now,
            Event::Timer {
                node: NodeId(3),
                token: TimerToken(30),
            },
        );
        let order: Vec<u16> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.event {
                Event::Timer { node, .. } => node.0,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::default();
        assert!(q.peek_time().is_none());
        q.schedule(t(2.0), Event::Stop);
        q.schedule(t(1.0), Event::Stop);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn scheduled_total_counts_all_insertions() {
        let mut q = EventQueue::default();
        for i in 0..10 {
            q.schedule(t(i as f64) + Duration::ZERO, Event::Stop);
        }
        let _ = q.pop();
        assert_eq!(q.scheduled_total(), 10);
        let perf = q.perf();
        assert_eq!(perf.pushes, 10);
        assert_eq!(perf.pops, 1);
        assert_eq!(perf.max_occupancy, 10);
    }

    #[test]
    fn heap_and_calendar_backends_pop_identically() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(7);
        // The reference: a binary heap over the same `(time, seq)` keys
        // (`ScheduledEvent`'s `Ord` is inverted, so it pops earliest first).
        let mut heap = BinaryHeap::new();
        let mut cal = EventQueue::calendar(3.6e-4);
        for seq in 0..2_000u64 {
            let secs = if rng.gen_bool(0.2) {
                // Deliberate timestamp collisions exercise the tie-break.
                (seq % 13) as f64
            } else {
                rng.gen_range(0.0..300.0)
            };
            let time = SimTime::from_secs(secs);
            heap.push(ScheduledEvent {
                time,
                seq,
                event: filler(),
            });
            cal.schedule(time, filler());
        }
        while let Some(h) = heap.pop() {
            let c = cal.pop().expect("calendar ran dry before the heap");
            assert_eq!((h.time, h.seq), (c.time, c.seq));
        }
        assert!(cal.pop().is_none());
        assert_eq!(cal.perf().pops, 2_000);
    }
}
