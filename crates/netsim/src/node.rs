//! The node-stack interface: how protocol stacks plug into the simulator.
//!
//! A [`NodeStack`] is one node's full protocol stack (routing agent + TCP
//! endpoints + any instrumentation).  The engine owns one stack per node and
//! drives it through the callbacks below, handing it a [`Ctx`] that exposes
//! the simulator services the stack may use (clock, timers, frame
//! transmission, position/neighbourhood queries, randomness, the recorder).
//!
//! Timers are *not* cancellable: stacks should keep a generation counter (or
//! equivalent) in the [`TimerToken`] payload and ignore stale firings.  This
//! keeps the event queue simple and is the idiom used by all protocols in this
//! workspace.  A timer whose deadline moves on every packet (TCP's
//! retransmission timer) should not schedule an event per move: it keeps the
//! deadline and one pending event, re-arming when that event fires early.

use crate::engine::World;
use crate::recorder::{Observation, Recorder};
use crate::time::{Duration, SimTime};
use manet_wire::{Frame, NetPacket, NodeId, SharedPacket};
use rand::rngs::SmallRng;

/// Opaque timer payload chosen by the stack when scheduling a timer.
///
/// Stacks typically encode a timer class in the high bits and a generation or
/// sequence number in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

impl TimerToken {
    /// Build a token from a class tag and a payload value.
    pub fn compose(class: u16, payload: u64) -> Self {
        TimerToken(((class as u64) << 48) | (payload & 0x0000_ffff_ffff_ffff))
    }

    /// Build a token whose payload is split into a 16-bit `scope` (e.g. a
    /// connection id on a node terminating many TCP flows) and a 32-bit
    /// sequence/generation number.  `scoped(class, 0, seq)` is bit-identical
    /// to `compose(class, seq)` for `seq < 2^32`, so single-scope users keep
    /// their historical token values.
    pub fn scoped(class: u16, scope: u16, seq: u64) -> Self {
        Self::compose(class, ((scope as u64) << 32) | (seq & 0xffff_ffff))
    }

    /// The class tag of this token.
    pub fn class(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// The payload value of this token.
    pub fn payload(self) -> u64 {
        self.0 & 0x0000_ffff_ffff_ffff
    }

    /// The scope half of a [`TimerToken::scoped`] payload.
    pub fn scope(self) -> u16 {
        (self.payload() >> 32) as u16
    }

    /// The sequence half of a [`TimerToken::scoped`] payload.
    pub fn seq(self) -> u64 {
        self.payload() & 0xffff_ffff
    }
}

/// Handle through which a stack interacts with the simulator.
///
/// A `Ctx` is only valid for the duration of one callback.
pub struct Ctx<'a> {
    pub(crate) world: &'a mut World,
    pub(crate) node: NodeId,
}

impl<'a> Ctx<'a> {
    /// The node this context belongs to.
    pub fn me(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Total number of nodes in the simulation.
    pub fn num_nodes(&self) -> u16 {
        self.world.num_nodes()
    }

    /// Schedule a timer that will fire `delay` from now with the given token.
    pub fn schedule_timer(&mut self, delay: Duration, token: TimerToken) {
        self.world.schedule_timer(self.node, delay, token);
    }

    /// Schedule a timer that will fire at the instant `at` (not before now)
    /// with the given token.  For a deadline the stack already holds as an
    /// instant: `now + (at - now)` need not round back to `at`.
    pub fn schedule_timer_at(&mut self, at: SimTime, token: TimerToken) {
        self.world.schedule_timer_at(self.node, at, token);
    }

    /// Hand a frame to this node's MAC for transmission.
    ///
    /// The frame is queued on the interface queue (drop-tail) and contends for
    /// the medium using the simplified 802.11 DCF.  Unicast frames that
    /// exhaust their retry budget come back through
    /// [`NodeStack::on_link_failure`].
    pub fn send_frame(&mut self, frame: Frame) {
        debug_assert_eq!(
            frame.mac_src, self.node,
            "frames must be sent from the owning node"
        );
        self.world.mac_enqueue(self.node, frame);
    }

    /// Convenience: send `packet` as a unicast frame to `next_hop`.
    ///
    /// Accepts an owned [`NetPacket`] or a [`SharedPacket`]; forwarding a
    /// received shared packet unchanged re-uses its allocation.
    pub fn send_unicast(&mut self, next_hop: NodeId, packet: impl Into<SharedPacket>) {
        let frame = Frame::unicast(self.node, next_hop, packet);
        self.send_frame(frame);
    }

    /// Convenience: send `packet` as a link-layer broadcast.
    pub fn send_broadcast(&mut self, packet: impl Into<SharedPacket>) {
        let frame = Frame::broadcast(self.node, packet);
        self.send_frame(frame);
    }

    /// Take ownership of a received [`SharedPacket`].
    ///
    /// Free when this node holds the only reference — which is the steady
    /// state: every unicast delivery hands the stack the sole reference.
    /// When the packet is still shared (a broadcast fan-out whose other
    /// receivers have not finished with it) the packet is deep-copied and
    /// the copy is counted in
    /// [`EnginePerf::payload_deep_clones`](crate::recorder::EnginePerf::payload_deep_clones).
    /// Stacks should claim only on paths that mutate or store the packet and
    /// borrow through the `Arc` everywhere else.
    pub fn claim_packet(&self, packet: SharedPacket) -> NetPacket {
        self.world.claim_packet(packet)
    }

    /// This node's current position.
    pub fn position(&self) -> crate::geometry::Position {
        self.world.position_of(self.node)
    }

    /// Collect the nodes currently within transmission range of this node
    /// into `out` (cleared first), sorted by node id.  Allocation-free when
    /// `out` is reused across calls.
    pub fn neighbors_into(&self, out: &mut Vec<NodeId>) {
        self.world.neighbors_into(self.node, out);
    }

    /// True if `other` is currently within transmission range.
    pub fn is_neighbor(&self, other: NodeId) -> bool {
        self.world.in_range(self.node, other)
    }

    /// Number of frames currently waiting in this node's interface queue.
    pub fn mac_queue_len(&self) -> usize {
        self.world.mac_queue_len(self.node)
    }

    /// Protocol random stream (deterministic per run seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.world.protocol_rng()
    }

    /// Report an observation at the current time (see
    /// [`Recorder::observe`]).
    pub fn observe(&mut self, obs: Observation<'_>) {
        let now = self.world.now;
        self.world.recorder_mut().observe(now, obs);
    }

    /// The per-run recorder.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.world.recorder_mut()
    }
}

/// One node's protocol stack.
pub trait NodeStack {
    /// Called once at simulation start (time 0), before any other callback.
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// A timer previously scheduled through [`Ctx::schedule_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken);

    /// A frame addressed to this node (unicast to it, or broadcast) was
    /// received successfully.  `from` is the transmitting (previous-hop) node.
    ///
    /// The packet arrives behind an `Arc` shared with the other receivers of
    /// the same transmission: borrow it to inspect, forward it as-is through
    /// [`Ctx::send_unicast`]/[`Ctx::send_broadcast`] without copying, or take
    /// ownership with [`Ctx::claim_packet`] (free on unicast deliveries).
    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket);

    /// A frame *not* addressed to this node was overheard (promiscuous mode).
    /// Default: ignore.
    fn on_promiscuous(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {}

    /// The MAC gave up delivering a unicast frame to `next_hop` after the
    /// retry limit; the undelivered network packet is returned for the stack
    /// to salvage or to turn into a route error.
    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket);

    /// Called once when the simulated duration has elapsed.
    fn on_run_end(&mut self, _ctx: &mut Ctx<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_token_composition_round_trips() {
        let t = TimerToken::compose(0x12, 0xdead_beef);
        assert_eq!(t.class(), 0x12);
        assert_eq!(t.payload(), 0xdead_beef);
    }

    #[test]
    fn timer_token_payload_is_masked() {
        let t = TimerToken::compose(1, u64::MAX);
        assert_eq!(t.class(), 1);
        assert_eq!(t.payload(), 0x0000_ffff_ffff_ffff);
    }

    #[test]
    fn scoped_tokens_round_trip_and_scope_zero_matches_compose() {
        let t = TimerToken::scoped(0x20, 7, 42);
        assert_eq!(t.class(), 0x20);
        assert_eq!(t.scope(), 7);
        assert_eq!(t.seq(), 42);
        // Scope 0 is bit-identical to the unscoped composition: the
        // single-flow paper scenarios keep their historical token values.
        assert_eq!(
            TimerToken::scoped(0x20, 0, 42),
            TimerToken::compose(0x20, 42)
        );
        // The sequence half is masked to 32 bits.
        assert_eq!(TimerToken::scoped(1, 1, u64::MAX).seq(), 0xffff_ffff);
    }
}
