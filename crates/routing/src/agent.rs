//! The routing-agent interface shared by DSR, AODV and MTS.

use manet_netsim::{Ctx, TimerToken};
use manet_wire::{DataPacket, NetPacket, NodeId, SharedPacket};

/// Timer-token class namespaces used across the stack.
///
/// The combined node stack (`manet-experiments`) multiplexes all timers of a
/// node through one `on_timer` callback; the class stored in the token's high
/// bits identifies the owning layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerClass {
    /// Routing-protocol timers (discovery retries, periodic checks, purges).
    Routing = 0x10,
    /// A second routing timer class for protocols that need two independent
    /// periodic activities (e.g. MTS route checking vs. discovery retry).
    RoutingAux = 0x11,
    /// Transport (TCP) timers.
    Transport = 0x20,
    /// Application timers: flow start timers (and the test harness's
    /// constant-rate packet emissions).
    Application = 0x30,
}

impl TimerClass {
    /// Build a token in this class with the given payload.
    pub fn token(self, payload: u64) -> TimerToken {
        TimerToken::compose(self as u16, payload)
    }

    /// Build a connection-scoped token in this class: the payload carries a
    /// 16-bit `scope` (the connection id on a node terminating many TCP
    /// flows) and a 32-bit sequence/generation number.  Scope 0 is
    /// bit-identical to [`TimerClass::token`], so the single-flow paper
    /// scenarios keep their historical token values.
    pub fn scoped_token(self, scope: u16, seq: u64) -> TimerToken {
        TimerToken::scoped(self as u16, scope, seq)
    }

    /// Does `token` belong to this class?
    pub fn owns(self, token: TimerToken) -> bool {
        token.class() == self as u16
    }
}

/// A routing protocol instance running on one node.
///
/// The agent is driven by the node's combined stack: data packets to
/// originate come in through [`RoutingAgent::send_data`], packets from the
/// MAC through [`RoutingAgent::on_packet`], timers through
/// [`RoutingAgent::on_timer`] (only tokens in the `Routing`/`RoutingAux`
/// classes), and MAC-level delivery failures through
/// [`RoutingAgent::on_link_failure`].
///
/// `on_packet` returns the data packet that terminated at this node, if the
/// received packet was one, so the caller can hand it to the transport layer.
pub trait RoutingAgent {
    /// Protocol name ("DSR", "AODV", "MTS").
    fn name(&self) -> &'static str;

    /// Called once at simulation start.
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// Originate a data packet at this node (route it, or buffer it and start
    /// a discovery).
    fn send_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket);

    /// Handle a network packet received from neighbour `from`.  Returns the
    /// packet if it is a data packet destined to this node.
    ///
    /// The packet arrives behind an `Arc` shared with the other receivers of
    /// the transmission.  Agents handle broadcast-carried control (RREQ
    /// floods, RERRs) by reference — so duplicate flood copies are dropped
    /// without copying — and take ownership of unicast-delivered packets via
    /// [`Ctx::claim_packet`], which is free for a sole reference.
    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        packet: SharedPacket,
    ) -> Option<DataPacket>;

    /// Handle a routing-class timer.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken);

    /// The MAC failed to deliver `packet` to `next_hop` after its retries.
    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket);

    /// Times this node installed or replaced its active route as a source
    /// (MTS adaptive switching; DSR/AODV count route replacements).  The
    /// control-overhead ledger is the recorder's per-kind transmission
    /// counts, not the agent.
    fn route_switches(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_classes_partition_tokens() {
        let r = TimerClass::Routing.token(42);
        let t = TimerClass::Transport.token(42);
        assert!(TimerClass::Routing.owns(r));
        assert!(!TimerClass::Routing.owns(t));
        assert!(TimerClass::Transport.owns(t));
        assert_eq!(r.payload(), 42);
        assert_eq!(t.payload(), 42);
        assert_ne!(r, t);
    }

    #[test]
    fn scoped_tokens_namespace_connections_within_a_class() {
        let a = TimerClass::Transport.scoped_token(1, 42);
        let b = TimerClass::Transport.scoped_token(2, 42);
        assert!(TimerClass::Transport.owns(a) && TimerClass::Transport.owns(b));
        assert_ne!(a, b, "same generation on different connections differs");
        assert_eq!(a.scope(), 1);
        assert_eq!(a.seq(), 42);
        // Connection 0 keeps the historical single-flow token values.
        assert_eq!(
            TimerClass::Transport.scoped_token(0, 42),
            TimerClass::Transport.token(42)
        );
    }
}
