//! Black-hole / gray-hole relays.
//!
//! A hostile relay wraps a node's ordinary protocol stack and mounts the
//! classical AODV/DSR insider attack in two steps:
//!
//! 1. **Route attraction** — whenever it hears a route request for a session
//!    it does not terminate, it forges an immediate route reply claiming a
//!    zero-hop route to the destination with a very fresh sequence number.
//!    AODV and MTS sources install the route because the forged sequence
//!    number wins the freshness comparison; DSR sources install it because
//!    the forged reply carries a plausible source route ending at the
//!    attacker.  The genuine request is still processed and re-broadcast by
//!    the wrapped stack, so the attacker stays indistinguishable from a
//!    well-behaved relay at the MAC level.
//! 2. **Data discarding** — data packets it is asked to forward are silently
//!    dropped with probability `drop_fraction` (1.0 = black hole, smaller
//!    fractions = gray hole).  Because the MAC-level unicast to the attacker
//!    still succeeds, the upstream node sees no link failure: the loss is
//!    only visible end-to-end, which is what makes the attack nasty.
//!
//! Drop decisions come from a private RNG seeded from `(run seed, node id)`,
//! so attack runs are exactly reproducible and do not perturb the protocol
//! random stream shared with honest nodes.

use manet_netsim::{Ctx, DropReason, NodeStack, Observation, PacketRef, TimerToken};
use manet_wire::{Frame, NetPacket, NodeId, RouteReply, SeqNo, SharedPacket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Forged destination sequence number: large enough to beat any genuine
/// sequence number a 200 s run can reach, small enough to stay on the
/// "fresher" side of AODV's wrapping comparison.
pub const FORGED_SEQNO: SeqNo = SeqNo(0x00FF_FFFF);

/// A [`NodeStack`] wrapper turning one node into a black/gray-hole relay.
pub struct BlackholeStack {
    me: NodeId,
    inner: Box<dyn NodeStack>,
    drop_fraction: f64,
    rng: SmallRng,
}

impl BlackholeStack {
    /// Wrap `inner` (node `me`'s honest stack) into a hostile relay.
    ///
    /// `run_seed` is the scenario seed; the drop RNG is derived from it and
    /// the node id so coalitions of gray holes stay mutually independent.
    pub fn new(me: NodeId, inner: Box<dyn NodeStack>, drop_fraction: f64, run_seed: u64) -> Self {
        let salt = 0xb1ac_4041u64.wrapping_mul(u64::from(me.0) + 1);
        BlackholeStack {
            me,
            inner,
            drop_fraction,
            rng: SmallRng::seed_from_u64(run_seed ^ salt),
        }
    }

    fn should_drop(&mut self) -> bool {
        self.drop_fraction >= 1.0
            || (self.drop_fraction > 0.0 && self.rng.gen::<f64>() < self.drop_fraction)
    }
}

impl NodeStack for BlackholeStack {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.inner.on_timer(ctx, token);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        // Inspect through the shared reference; the packet is only ever
        // passed through to the wrapped stack (or swallowed), never copied.
        match &*packet {
            NetPacket::Rreq(rreq) if rreq.source != self.me && rreq.destination != self.me => {
                // Forge the attracting reply: claim the destination is our
                // direct neighbour.  The source route ends at us so DSR
                // sources install it too.
                let mut route = rreq.route.clone();
                route.push(self.me);
                let rrep = RouteReply {
                    source: rreq.source,
                    destination: rreq.destination,
                    reply_id: rreq.broadcast_id,
                    hop_count: 0,
                    route,
                    dest_seqno: FORGED_SEQNO,
                };
                ctx.send_unicast(from, NetPacket::Rrep(rrep));
                // Keep relaying the flood like an honest node.
                self.inner.on_receive(ctx, from, packet);
            }
            NetPacket::Data(d) if d.dst != self.me && d.src != self.me => {
                if self.should_drop() {
                    ctx.observe(Observation::Drop {
                        node: self.me,
                        reason: DropReason::AdversaryDiscard,
                        packet: PacketRef::Data(d),
                    });
                    // Swallowed: the upstream MAC saw a successful delivery,
                    // so no link failure or route error is triggered.
                } else {
                    self.inner.on_receive(ctx, from, packet);
                }
            }
            _ => self.inner.on_receive(ctx, from, packet),
        }
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        self.inner.on_promiscuous(ctx, frame);
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.inner.on_link_failure(ctx, next_hop, packet);
    }

    fn on_run_end(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_run_end(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_seqno_wins_the_freshness_comparison() {
        for genuine in [0u32, 1, 5, 1000, 100_000] {
            assert!(
                FORGED_SEQNO.fresher_than(SeqNo(genuine)),
                "forged seqno must beat genuine seqno {genuine}"
            );
        }
    }

    #[test]
    fn drop_decisions_are_deterministic_per_seed_and_node() {
        struct Sink;
        impl NodeStack for Sink {
            fn start(&mut self, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
            fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
            fn on_link_failure(&mut self, _c: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
        }
        let draws = |seed: u64, node: u16| {
            let mut s = BlackholeStack::new(NodeId(node), Box::new(Sink), 0.5, seed);
            (0..64).map(|_| s.should_drop()).collect::<Vec<bool>>()
        };
        assert_eq!(draws(7, 3), draws(7, 3));
        assert_ne!(draws(7, 3), draws(8, 3), "seed must matter");
        assert_ne!(draws(7, 3), draws(7, 4), "node id must matter");
        // Degenerate fractions never consult the RNG.
        let mut black = BlackholeStack::new(NodeId(1), Box::new(Sink), 1.0, 1);
        assert!((0..32).all(|_| black.should_drop()));
        let mut honest = BlackholeStack::new(NodeId(1), Box::new(Sink), 0.0, 1);
        assert!((0..32).all(|_| !honest.should_drop()));
    }
}
