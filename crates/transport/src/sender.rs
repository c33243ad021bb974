//! The TCP Reno sending endpoint.
//!
//! The sender is *sans-io*: the node stack calls it with events (`open the
//! window`, `an ACK arrived`, `the retransmission timer fired`) and the sender
//! answers with a [`TcpOutcome`] listing the segments to hand to the routing
//! layer plus the retransmission deadline to (re)arm.  The application is
//! the paper's FTP-like bulk source: an unbounded backlog of data, or one
//! capped by the byte budget of the sender's [`FlowProfile`].  A bulk source
//! is never gated, so the sender needs no application timers; the stack
//! opens a flow with a later [`FlowProfile::start`] by calling
//! [`TcpSender::pump`] then.
//!
//! ## Timer discipline
//!
//! The simulator's timers cannot be cancelled, and every new ACK moves the
//! retransmission deadline (`now + RTO`).  Scheduling a fresh event per ACK
//! would leave one stale event behind per ACK, so the sender keeps the
//! deadline itself and at most one pending timer event per connection:
//!
//! - arming moves the deadline and schedules an event only when none is
//!   pending at or before it; when the RTO shrank below the pending event, an
//!   earlier event is scheduled under a new generation, and the later one is
//!   ignored when it fires;
//! - an event that fires before the deadline re-arms exactly at the deadline
//!   and takes no timeout;
//! - an event that fires at the deadline times out.
//!
//! A [`TimerHandle`] names the absolute instant of its event, so the stack
//! schedules it with [`Ctx::schedule_timer_at`](manet_netsim::Ctx::schedule_timer_at):
//! re-deriving it as `now + (at - now)` need not round back to `at`.  Timeouts
//! therefore happen at the same instants as with one event per arm.

use crate::config::{FlowProfile, TcpConfig};
use crate::reno::{CongestionState, RenoController};
use crate::rto::{RtoEstimator, MAX_BACKOFF_EXPONENT, MAX_RTO};
use manet_netsim::{Duration, SimTime};
use manet_wire::{ConnectionId, TcpSegment};
use std::collections::VecDeque;

/// Number of duplicate ACKs that triggers a fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;

/// The retransmission timer event the stack should schedule.
///
/// Events are not cancellable; a firing whose generation is not the
/// sender's current one is superseded and ignored (see the module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    /// Generation of the event; echo it back in `on_timer`.
    pub generation: u64,
    /// Instant at which the event should fire.
    pub at: SimTime,
    /// `at` less the instant the handle was made, for a driver that keeps
    /// relative time; a simulator schedules `at`.
    pub delay: Duration,
}

/// What the stack must do after driving the sender.
#[derive(Debug, Default)]
pub struct TcpOutcome {
    /// Segments to transmit, in order.
    pub segments: Vec<TcpSegment>,
    /// Retransmission timer event to schedule (if any).
    pub timer: Option<TimerHandle>,
}

/// Book-keeping for one in-flight segment.
#[derive(Debug, Clone, Copy)]
struct InFlightSegment {
    seq: u64,
    len: u32,
    sent_at: SimTime,
    retransmitted: bool,
}

/// The sending half of one TCP Reno connection.
#[derive(Debug)]
pub struct TcpSender {
    conn: ConnectionId,
    config: TcpConfig,
    profile: FlowProfile,
    reno: RenoController,
    rto: RtoEstimator,
    /// Next sequence number to send (bytes).
    snd_nxt: u64,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// In-flight segments in sequence order (they go out in order, and a
    /// retransmission reuses the front entry).
    in_flight: VecDeque<InFlightSegment>,
    /// Duplicate-ACK counter for the current `snd_una`.
    dupacks: u32,
    /// Highest sequence outstanding when fast recovery started (new ACKs above
    /// this end recovery).
    recovery_point: u64,
    /// When the outstanding data times out (`None` while disarmed).
    rto_deadline: Option<SimTime>,
    /// Instant of the one timer event pending in the simulator, if any.
    timer_pending: Option<SimTime>,
    /// Generation of the pending timer event.
    timer_generation: u64,
    /// Schedule one timer event per arm, as the reference model of the
    /// timer discipline does.
    #[cfg(test)]
    eager_timers: bool,
    /// When the whole byte budget was acknowledged (budgeted flows only).
    completed_at: Option<SimTime>,
    // --- statistics -------------------------------------------------------
    segments_sent: u64,
    retransmissions: u64,
    bytes_acked: u64,
}

impl TcpSender {
    /// New bulk-transfer sender for connection `conn` (the paper's unbounded
    /// FTP source; equivalent to [`TcpSender::with_profile`] with the default
    /// profile).
    pub fn new(conn: ConnectionId, config: TcpConfig) -> Self {
        Self::with_profile(conn, config, FlowProfile::default())
    }

    /// New sender for connection `conn` with an explicit flow profile (start
    /// time, byte budget).
    pub fn with_profile(conn: ConnectionId, config: TcpConfig, profile: FlowProfile) -> Self {
        config.validate().expect("invalid TCP configuration");
        profile.validate().expect("invalid flow profile");
        TcpSender {
            conn,
            reno: RenoController::new(),
            rto: RtoEstimator::new(config.min_rto, MAX_RTO, MAX_BACKOFF_EXPONENT),
            config,
            profile,
            snd_nxt: 0,
            snd_una: 0,
            in_flight: VecDeque::new(),
            dupacks: 0,
            recovery_point: 0,
            rto_deadline: None,
            timer_pending: None,
            timer_generation: 0,
            #[cfg(test)]
            eager_timers: false,
            completed_at: None,
            segments_sent: 0,
            retransmissions: 0,
            bytes_acked: 0,
        }
    }

    /// The connection this sender belongs to.
    pub fn connection(&self) -> ConnectionId {
        self.conn
    }

    /// The flow profile this sender was built with.
    pub fn profile(&self) -> FlowProfile {
        self.profile
    }

    /// When the flow's whole byte budget was acknowledged end-to-end
    /// (`None` while incomplete, and always `None` for unbounded flows).
    pub fn completion_time(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// The flow's byte budget (`u64::MAX` when unbounded).
    fn budget(&self) -> u64 {
        self.profile.bytes.unwrap_or(u64::MAX)
    }

    /// Bytes acknowledged end-to-end so far.
    pub fn bytes_acked(&self) -> u64 {
        self.bytes_acked
    }

    /// Data segments transmitted (including retransmissions).
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Retransmitted segments.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Retransmission timeouts taken.
    pub fn timeouts(&self) -> u64 {
        self.reno.timeouts()
    }

    /// Fast retransmits performed.
    pub fn fast_retransmits(&self) -> u64 {
        self.reno.fast_retransmits()
    }

    /// Current congestion window (segments).
    pub fn cwnd(&self) -> f64 {
        self.reno.cwnd()
    }

    /// Current congestion-control phase.
    pub fn state(&self) -> CongestionState {
        self.reno.state()
    }

    /// Smoothed RTT estimate, if available (seconds).
    pub fn srtt(&self) -> Option<f64> {
        self.rto.srtt()
    }

    /// Outstanding (sent but unacknowledged) bytes.
    pub fn flight_bytes(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn flight_segments(&self) -> f64 {
        self.flight_bytes() as f64 / f64::from(self.config.mss)
    }

    /// Move the retransmission deadline to `now + RTO`, and put into `out`
    /// the timer event to schedule if none is pending at or before it.
    fn arm_timer(&mut self, now: SimTime, out: &mut TcpOutcome) {
        let deadline = now + self.rto.rto();
        self.rto_deadline = Some(deadline);
        let pending_first = self.timer_pending.is_some_and(|at| at <= deadline);
        #[cfg(test)]
        let pending_first = pending_first && !self.eager_timers;
        if pending_first {
            return; // the pending event fires first and re-arms
        }
        out.timer = Some(self.schedule_timer(now, deadline));
    }

    /// A timer event at `at` under a new generation, made at `now`.
    fn schedule_timer(&mut self, now: SimTime, at: SimTime) -> TimerHandle {
        self.timer_generation += 1;
        self.timer_pending = Some(at);
        TimerHandle {
            generation: self.timer_generation,
            at,
            delay: at.saturating_since(now),
        }
    }

    /// Fill the window with new data segments up to the byte budget (an
    /// unbounded bulk source never runs out).  Call at connection start and
    /// whenever the window may have opened.
    pub fn pump(&mut self, now: SimTime) -> TcpOutcome {
        let mut out = TcpOutcome::default();
        self.pump_into(now, &mut out);
        out
    }

    /// [`TcpSender::pump`], appending to `out`.
    fn pump_into(&mut self, now: SimTime, out: &mut TcpOutcome) {
        let offer = self.budget();
        let window_bytes = self.reno.usable_window() * u64::from(self.config.mss);
        let already = out.segments.len();
        while self.flight_bytes() + u64::from(self.config.mss) <= window_bytes
            && self.snd_nxt < offer
        {
            let seq = self.snd_nxt;
            let len = (u64::from(self.config.mss).min(offer - seq)) as u32;
            self.in_flight.push_back(InFlightSegment {
                seq,
                len,
                sent_at: now,
                retransmitted: false,
            });
            self.snd_nxt += u64::from(len);
            self.segments_sent += 1;
            out.segments.push(TcpSegment::data(self.conn, seq, 0, len));
        }
        if out.segments.len() > already && self.rto_deadline.is_none() {
            self.arm_timer(now, out);
        }
    }

    /// Process an incoming (cumulative) acknowledgement.
    pub fn on_ack(&mut self, segment: &TcpSegment, now: SimTime) -> TcpOutcome {
        debug_assert_eq!(segment.conn, self.conn);
        let mut out = TcpOutcome::default();
        if !segment.flags.ack {
            return out;
        }
        let ack = segment.ack;
        if ack > self.snd_una {
            // New data acknowledged.
            let newly_acked = ack - self.snd_una;
            self.bytes_acked += newly_acked;
            // RTT sample from the oldest segment this ACK covers, if it was
            // never retransmitted (Karn's rule).
            let mut sampled = false;
            while self.in_flight.front().is_some_and(|info| info.seq < ack) {
                let info = self.in_flight.pop_front().expect("front exists");
                if !sampled && !info.retransmitted {
                    self.rto
                        .sample(now.saturating_since(info.sent_at).as_secs());
                    sampled = true;
                }
            }
            self.snd_una = ack;
            self.dupacks = 0;
            if self.completed_at.is_none() && self.snd_una >= self.budget() {
                self.completed_at = Some(now);
            }
            if self.reno.state() == CongestionState::FastRecovery && ack < self.recovery_point {
                // Partial ACK during recovery: retransmit the next missing
                // segment straight away (NewReno-style partial-ACK handling
                // keeps Reno from stalling on multiple losses in one window).
                out.segments.push(self.retransmit_front(now));
            } else {
                self.reno.on_new_ack();
            }
            // Grow / refill the window.
            self.pump_into(now, &mut out);
            // Re-arm the timer for remaining in-flight data.
            if self.flight_bytes() > 0 {
                self.arm_timer(now, &mut out);
            } else {
                self.rto_deadline = None;
            }
        } else if ack == self.snd_una && self.flight_bytes() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == DUPACK_THRESHOLD {
                self.recovery_point = self.snd_nxt;
                self.reno.on_fast_retransmit(self.flight_segments());
                out.segments.push(self.retransmit_front(now));
                self.arm_timer(now, &mut out);
            } else if self.dupacks > DUPACK_THRESHOLD {
                self.reno.on_extra_dupack();
                self.pump_into(now, &mut out);
            }
        }
        out
    }

    /// Retransmit the oldest unacknowledged segment.
    fn retransmit_front(&mut self, now: SimTime) -> TcpSegment {
        let seq = self.snd_una;
        let len = match self.in_flight.front_mut() {
            Some(front) if front.seq == seq => {
                front.sent_at = now;
                front.retransmitted = true;
                front.len
            }
            // Every entry below `snd_una` is acknowledged and gone, so a
            // segment starting at `snd_una` belongs at the front.
            _ => {
                let len = self.config.mss;
                self.in_flight.push_front(InFlightSegment {
                    seq,
                    len,
                    sent_at: now,
                    retransmitted: true,
                });
                len
            }
        };
        self.segments_sent += 1;
        self.retransmissions += 1;
        TcpSegment::data(self.conn, seq, 0, len)
    }

    /// The retransmission timer event with `generation` fired: a superseded
    /// event is ignored, an early one re-arms at the deadline, and one at the
    /// deadline times out.
    pub fn on_timer(&mut self, generation: u64, now: SimTime) -> TcpOutcome {
        let mut out = TcpOutcome::default();
        if generation != self.timer_generation {
            return out; // superseded by an earlier event
        }
        self.timer_pending = None;
        let Some(deadline) = self.rto_deadline else {
            return out; // disarmed since the event was scheduled
        };
        if now < deadline {
            out.timer = Some(self.schedule_timer(now, deadline));
            return out;
        }
        if self.flight_bytes() == 0 {
            self.rto_deadline = None;
            return out;
        }
        // Timeout: collapse the window, back off the RTO, retransmit the
        // oldest segment, and mark everything in flight as retransmitted so
        // Karn's rule skips their RTT samples.
        self.reno.on_timeout(self.flight_segments());
        self.rto.back_off();
        self.dupacks = 0;
        for info in &mut self.in_flight {
            info.retransmitted = true;
        }
        out.segments.push(self.retransmit_front(now));
        self.arm_timer(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::RECEIVER_WINDOW;
    use proptest::prelude::*;

    const CONN: ConnectionId = ConnectionId(1);

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn ack(n: u64) -> TcpSegment {
        TcpSegment::pure_ack(CONN, n)
    }

    fn sender() -> TcpSender {
        TcpSender::new(CONN, TcpConfig::default())
    }

    #[test]
    fn initial_pump_sends_one_window() {
        let mut s = sender();
        let out = s.pump(t(0.0));
        // Initial cwnd is one segment.
        assert_eq!(out.segments.len(), 1);
        assert!(out.timer.is_some());
        assert_eq!(s.flight_bytes(), u64::from(TcpConfig::default().mss));
        // A second pump with a full window sends nothing.
        assert!(s.pump(t(0.1)).segments.is_empty());
    }

    #[test]
    fn acks_open_the_window_exponentially() {
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        let _ = s.pump(t(0.0));
        let out = s.on_ack(&ack(mss), t(0.2));
        // Slow start: cwnd 1 -> 2, so two new segments go out.
        assert_eq!(out.segments.len(), 2);
        assert!(s.cwnd() >= 2.0);
        assert_eq!(s.bytes_acked(), mss);
        assert!(s.srtt().is_some());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        // Grow the window a bit first.
        let _ = s.pump(t(0.0));
        let _ = s.on_ack(&ack(mss), t(0.1));
        let _ = s.on_ack(&ack(2 * mss), t(0.2));
        let _ = s.on_ack(&ack(3 * mss), t(0.3));
        assert!(
            s.flight_bytes() >= 3 * mss,
            "need at least 3 segments in flight"
        );
        // Now the receiver keeps acking 3*mss (segment 3 was lost).
        let _ = s.on_ack(&ack(3 * mss), t(0.4));
        let _ = s.on_ack(&ack(3 * mss), t(0.45));
        let out = s.on_ack(&ack(3 * mss), t(0.5));
        assert_eq!(s.fast_retransmits(), 1);
        assert_eq!(s.retransmissions(), 1);
        // The retransmission resends the missing segment at snd_una = 3*mss.
        assert_eq!(out.segments[0].seq, 3 * mss);
        assert_eq!(s.state(), CongestionState::FastRecovery);
    }

    #[test]
    fn timeout_retransmits_and_collapses_window() {
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        let first = s.pump(t(0.0));
        let generation = first.timer.unwrap().generation;
        let out = s.on_timer(generation, t(2.0));
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].seq, 0);
        assert_eq!(s.timeouts(), 1);
        assert!((s.cwnd() - 1.0).abs() < 1e-9);
        // The ACK that finally arrives does not take an RTT sample from the
        // retransmitted segment (Karn) but still advances the window.
        let out = s.on_ack(&ack(mss), t(3.0));
        assert!(!out.segments.is_empty());
        assert_eq!(s.bytes_acked(), mss);
    }

    #[test]
    fn acks_while_an_event_is_pending_schedule_nothing() {
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        let first = s
            .pump(t(0.0))
            .timer
            .expect("the first segment arms the timer");
        assert_eq!(first.at, t(1.0), "the initial RTO is one second");
        // Every ACK moves the deadline past the pending event, so none of
        // them schedules another.
        for (i, now) in [0.1, 0.2, 0.3].into_iter().enumerate() {
            let out = s.on_ack(&ack((i as u64 + 1) * mss), t(now));
            assert!(!out.segments.is_empty());
            assert_eq!(out.timer, None, "ACK at {now} scheduled a timer event");
        }
    }

    #[test]
    fn an_early_firing_rearms_at_the_deadline_and_a_firing_at_it_times_out() {
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        let first = s.pump(t(0.0)).timer.expect("armed");
        let _ = s.on_ack(&ack(mss), t(0.25));
        // The ACK moved the deadline to 0.25 + RTO (1 s, the floor).
        let out = s.on_timer(first.generation, first.at);
        assert!(out.segments.is_empty());
        assert_eq!(s.timeouts(), 0);
        let rearmed = out.timer.expect("an early firing re-arms");
        assert_eq!(rearmed.at, t(0.25) + Duration::from_secs(1.0));
        let out = s.on_timer(rearmed.generation, rearmed.at);
        assert_eq!(s.timeouts(), 1);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.segments[0].seq, mss, "the oldest unacked segment");
        // Backed off: twice srtt + 4 rttvar = 2 × (0.25 + 0.5) s.
        let next = out.timer.expect("the timeout arms the backed-off timer");
        assert_eq!(next.at, rearmed.at + Duration::from_secs(1.5));
    }

    #[test]
    fn a_superseded_generation_is_ignored() {
        let config = TcpConfig {
            min_rto: 0.1,
            ..TcpConfig::default()
        };
        let mut s = TcpSender::new(CONN, config);
        let mss = u64::from(config.mss);
        let first = s.pump(t(0.0)).timer.expect("armed");
        assert_eq!(first.at, t(1.0), "no RTT sample yet: one second");
        // The first sample shrinks the RTO to 0.3 s, below the pending
        // event, so an earlier event goes out under a new generation.
        let out = s.on_ack(&ack(mss), t(0.1));
        let earlier = out
            .timer
            .expect("a shrunken RTO schedules an earlier event");
        assert_ne!(earlier.generation, first.generation);
        assert!((earlier.at.as_secs() - 0.4).abs() < 1e-12, "{earlier:?}");
        let _ = s.on_timer(earlier.generation, earlier.at);
        assert_eq!(s.timeouts(), 1);
        let retransmissions = s.retransmissions();
        let out = s.on_timer(first.generation, first.at);
        assert!(out.segments.is_empty() && out.timer.is_none());
        assert_eq!(s.timeouts(), 1);
        assert_eq!(s.retransmissions(), retransmissions);
    }

    #[test]
    fn duplicate_acks_with_nothing_in_flight_are_ignored() {
        let mut s = sender();
        let out = s.on_ack(&ack(0), t(0.0));
        assert!(out.segments.is_empty());
        assert_eq!(s.fast_retransmits(), 0);
    }

    #[test]
    fn byte_budget_caps_the_transfer_and_reports_completion() {
        let mss = u64::from(TcpConfig::default().mss);
        let mut s = TcpSender::with_profile(
            CONN,
            TcpConfig::default(),
            FlowProfile {
                bytes: Some(2 * mss + 500),
                ..Default::default()
            },
        );
        // Drive to completion against an ideal receiver.
        let mut now = 0.0;
        let mut acked = 0u64;
        let mut pending = s.pump(t(now)).segments;
        for _ in 0..20 {
            now += 0.05;
            let highest = pending.iter().map(|g| g.end_seq()).max().unwrap_or(acked);
            acked = acked.max(highest);
            pending.clear();
            pending.extend(s.on_ack(&ack(acked), t(now)).segments);
        }
        // Exactly the budget was sent (the last segment is the 500-byte tail)
        // and the completion time is the ACK that covered the final byte.
        assert_eq!(s.bytes_acked(), 2 * mss + 500);
        assert_eq!(s.flight_bytes(), 0);
        assert!(s.completion_time().is_some());
        assert_eq!(s.retransmissions(), 0);
        // An unbounded sender never completes.
        let mut unbounded = sender();
        let _ = unbounded.pump(t(0.0));
        assert_eq!(unbounded.completion_time(), None);
    }

    #[test]
    fn bulk_transfer_makes_steady_progress() {
        // Drive the sender against an ideal lossless receiver for a while and
        // confirm it keeps acknowledging new data and growing the window up to
        // the receiver window cap.
        let mut s = sender();
        let mss = u64::from(TcpConfig::default().mss);
        let mut now = 0.0;
        let mut acked = 0u64;
        let mut to_deliver: Vec<TcpSegment> = s.pump(t(now)).segments;
        for _ in 0..200 {
            now += 0.05;
            // Deliver every outstanding segment, then ack cumulatively.
            let highest = to_deliver
                .iter()
                .map(|g| g.end_seq())
                .max()
                .unwrap_or(acked);
            acked = acked.max(highest);
            to_deliver.clear();
            let out = s.on_ack(&ack(acked), t(now));
            to_deliver.extend(out.segments);
        }
        assert!(s.bytes_acked() > 100 * mss);
        assert!(s.cwnd() <= RECEIVER_WINDOW + 1.0);
        assert_eq!(s.retransmissions(), 0);
    }

    /// What a sender did on one scripted run.
    #[derive(Debug, PartialEq)]
    struct Transcript {
        /// `(instant, seq)` of every segment sent.
        segments: Vec<(SimTime, u64)>,
        /// Instants of the timeouts taken.
        timeouts_at: Vec<SimTime>,
        timeouts: u64,
        retransmissions: u64,
        fast_retransmits: u64,
        bytes_acked: u64,
    }

    /// Drive `s` through `steps` of `(kind, gap in ms, acked segments)`:
    /// time moves on by the gap, the timer events due by then fire in
    /// `(instant, scheduling order)` order as the simulator pops them, then
    /// kind 0 delivers a new cumulative ACK, kind 1 a duplicate ACK, and
    /// any other kind nothing.  Returns the transcript and the number of
    /// timer events scheduled.
    fn drive(mut s: TcpSender, steps: &[(u8, u16, u8)]) -> (Transcript, usize) {
        let mss = u64::from(s.config.mss);
        let mut transcript = Transcript {
            segments: Vec::new(),
            timeouts_at: Vec::new(),
            timeouts: 0,
            retransmissions: 0,
            fast_retransmits: 0,
            bytes_acked: 0,
        };
        let mut pending: Vec<(SimTime, usize, u64)> = Vec::new();
        let mut scheduled = 0;
        let mut apply = |out: TcpOutcome,
                         now: SimTime,
                         pending: &mut Vec<(SimTime, usize, u64)>,
                         transcript: &mut Transcript| {
            transcript
                .segments
                .extend(out.segments.iter().map(|seg| (now, seg.seq)));
            if let Some(timer) = out.timer {
                assert!(timer.at >= now, "timer event in the past");
                pending.push((timer.at, scheduled, timer.generation));
                scheduled += 1;
            }
        };
        let mut now = SimTime::ZERO;
        let out = s.pump(now);
        apply(out, now, &mut pending, &mut transcript);
        for &(kind, gap_ms, acked) in steps {
            now += Duration::from_millis(f64::from(gap_ms));
            while let Some(i) = (0..pending.len())
                .filter(|&i| pending[i].0 <= now)
                .min_by_key(|&i| (pending[i].0, pending[i].1))
            {
                let (at, _, generation) = pending.swap_remove(i);
                let before = s.timeouts();
                let out = s.on_timer(generation, at);
                if s.timeouts() > before {
                    transcript.timeouts_at.push(at);
                }
                apply(out, at, &mut pending, &mut transcript);
            }
            let ack_no = match kind {
                0 => (s.snd_una + u64::from(acked % 4 + 1) * mss).min(s.snd_nxt),
                1 => s.snd_una,
                _ => continue,
            };
            let out = s.on_ack(&ack(ack_no), now);
            apply(out, now, &mut pending, &mut transcript);
        }
        transcript.timeouts = s.timeouts();
        transcript.retransmissions = s.retransmissions();
        transcript.fast_retransmits = s.fast_retransmits();
        transcript.bytes_acked = s.bytes_acked();
        (transcript, scheduled)
    }

    proptest! {
        /// Against the reference that schedules a fresh timer event on
        /// every arm: random new-ACK, duplicate-ACK and idle sequences give
        /// the same segments at the same instants, the same timeout
        /// instants and the same counts, with no more timer events.  Half
        /// the senders have a byte budget of 1 to 200 segments, drawn
        /// log-uniformly and almost always with a partial last segment,
        /// so many flows run dry and disarm their timer.
        #[test]
        fn one_pending_timer_event_matches_an_event_per_arm(
            min_rto_ms in 10u16..1_500,
            budget in (any::<bool>(), 0.0f64..1.0)
                .prop_map(|(capped, x)| capped.then(|| (1e3 * 200f64.powf(x)) as u64)),
            steps in proptest::collection::vec((0u8..4, 0u16..2_500, any::<u8>()), 1..120),
        ) {
            let config = TcpConfig {
                min_rto: f64::from(min_rto_ms) / 1e3,
                ..TcpConfig::default()
            };
            let profile = FlowProfile {
                bytes: budget,
                ..FlowProfile::default()
            };
            let mut eager = TcpSender::with_profile(CONN, config, profile);
            eager.eager_timers = true;
            let (expected, eager_events) = drive(eager, &steps);
            let (got, events) = drive(TcpSender::with_profile(CONN, config, profile), &steps);
            prop_assert_eq!(got, expected);
            prop_assert!(events <= eager_events, "{} > {} timer events", events, eager_events);
        }
    }
}
