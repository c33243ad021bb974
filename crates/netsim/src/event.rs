//! Pending-event queue.
//!
//! A classic discrete-event simulator core: events are ordered by time, with
//! a monotonically increasing sequence number breaking ties so that events
//! scheduled earlier at the same instant fire first (stable FIFO order keeps
//! runs deterministic).
//!
//! Two interchangeable backends implement that contract (selected by
//! [`crate::config::EventQueueKind`]): a binary heap (O(log n) per
//! operation, the reference implementation) and a calendar/bucket queue
//! ([`crate::calendar::CalendarQueue`], amortised O(1), the default).  Both
//! produce **identical pop order** including the FIFO tie-break, so runs are
//! trace-identical across backends; `tests/queue_equivalence.rs` asserts it.

use crate::calendar::CalendarQueue;
use crate::config::EventQueueKind;
use crate::node::TimerToken;
use crate::time::SimTime;
use manet_wire::{Frame, NodeId, SharedPacket};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// Times the calendar backend grew its bucket array (0 for the heap).
    pub calendar_resizes: u64,
}

/// The two event-queue backends (see the module docs).
#[derive(Debug)]
enum QueueImpl {
    Heap(BinaryHeap<ScheduledEvent>),
    Calendar(CalendarQueue),
}

/// The future event list.
#[derive(Debug)]
pub struct EventQueue {
    backend: QueueImpl,
    next_seq: u64,
    pops: u64,
    max_occupancy: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty binary-heap queue (the reference backend; unit tests and
    /// diagnostics use this constructor directly).
    pub fn new() -> Self {
        EventQueue {
            backend: QueueImpl::Heap(BinaryHeap::new()),
            next_seq: 0,
            pops: 0,
            max_occupancy: 0,
        }
    }

    /// An empty calendar queue with the given bucket width in seconds.
    pub fn calendar(width_secs: f64) -> Self {
        EventQueue {
            backend: QueueImpl::Calendar(CalendarQueue::new(width_secs)),
            next_seq: 0,
            pops: 0,
            max_occupancy: 0,
        }
    }

    /// The queue backend a simulation configuration asks for, with the
    /// calendar bucket width derived from the MAC contention timescale.
    pub fn for_config(config: &crate::config::SimConfig) -> Self {
        match config.event_queue {
            EventQueueKind::Heap => Self::new(),
            EventQueueKind::Calendar => Self::calendar(CalendarQueue::width_for_mac(&config.mac)),
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = ScheduledEvent { time, seq, event };
        match &mut self.backend {
            QueueImpl::Heap(h) => h.push(ev),
            QueueImpl::Calendar(c) => c.push(ev),
        }
        self.max_occupancy = self.max_occupancy.max(self.len() as u64);
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let ev = match &mut self.backend {
            QueueImpl::Heap(h) => h.pop(),
            QueueImpl::Calendar(c) => c.pop(),
        };
        if ev.is_some() {
            self.pops += 1;
        }
        ev
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            QueueImpl::Heap(h) => h.peek().map(|e| e.time),
            QueueImpl::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            QueueImpl::Heap(h) => h.len(),
            QueueImpl::Calendar(c) => c.len(),
        }
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
            calendar_resizes: match &self.backend {
                QueueImpl::Heap(_) => 0,
                QueueImpl::Calendar(c) => c.resizes(),
            },
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
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
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(t(2.0), Event::Stop);
        q.schedule(t(1.0), Event::Stop);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn scheduled_total_counts_all_insertions() {
        let mut q = EventQueue::new();
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
        let mut rng = SmallRng::seed_from_u64(7);
        let times: Vec<f64> = (0..2_000)
            .map(|i| {
                if rng.gen_bool(0.2) {
                    // Deliberate timestamp collisions exercise the tie-break.
                    (i % 13) as f64
                } else {
                    rng.gen_range(0.0..300.0)
                }
            })
            .collect();
        let mut heap = EventQueue::new();
        let mut cal = EventQueue::calendar(3.6e-4);
        for &t in &times {
            heap.schedule(SimTime::from_secs(t), filler());
            cal.schedule(SimTime::from_secs(t), filler());
        }
        loop {
            match (heap.pop(), cal.pop()) {
                (None, None) => break,
                (h, c) => {
                    let (h, c) = (h.expect("heap"), c.expect("calendar"));
                    assert_eq!((h.time, h.seq), (c.time, c.seq));
                }
            }
        }
        assert_eq!(heap.perf().pops, cal.perf().pops);
    }
}
