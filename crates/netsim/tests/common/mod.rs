//! The traffic stack shared by the engine suites (`queue_equivalence.rs`,
//! `grid_equivalence.rs`).

#![allow(dead_code)] // each suite uses its own part

use manet_netsim::{Ctx, Duration, NodeStack, Observation, SimTime, TimerToken};
use manet_wire::{
    ConnectionId, DataPacket, Frame, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment,
};
use std::cell::RefCell;
use std::rc::Rc;

/// What the stacks of a run saw, in callback order:
/// `(time, at, from, packet, how)`; a timer logs `from = at` and packet 0.
pub type Heard = Vec<(SimTime, NodeId, NodeId, u64, &'static str)>;

/// A stack that floods periodic data packets to a far destination and relays
/// anything passing through, exercising broadcasts (via MAC-level contention
/// of many same-instant timers) and unicast chains.
pub struct Chatter {
    me: NodeId,
    n: u16,
    next_packet: u64,
    /// All nodes schedule their timers for the *same* instants, producing an
    /// equal-timestamp storm in the event queue every period.
    period: Duration,
    /// Where to log every timer, reception, overheard frame and link failure.
    heard: Option<Rc<RefCell<Heard>>>,
}

impl Chatter {
    fn fresh_id(&mut self) -> PacketId {
        let id = PacketId((u64::from(self.me.0) << 40) | self.next_packet);
        self.next_packet += 1;
        id
    }

    fn log(&self, ctx: &Ctx<'_>, from: NodeId, packet: &NetPacket, how: &'static str) {
        if let Some(heard) = &self.heard {
            let id = packet.as_data().map_or(0, |dp| dp.id.0);
            heard.borrow_mut().push((ctx.now(), self.me, from, id, how));
        }
    }
}

impl NodeStack for Chatter {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Deliberately identical across nodes: every period boundary lands
        // `num_nodes` timers on the exact same timestamp.
        ctx.schedule_timer(self.period, TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        if let Some(heard) = &self.heard {
            heard
                .borrow_mut()
                .push((ctx.now(), self.me, self.me, 0, "timer"));
        }
        let dst = NodeId((self.me.0 + self.n / 2) % self.n);
        let id = self.fresh_id();
        let dp = DataPacket::new(
            id,
            self.me,
            dst,
            TcpSegment::data(ConnectionId(0), 0, 0, 512),
        );
        ctx.observe(Observation::Originate {
            node: self.me,
            packet: &dp,
        });
        // Alternate broadcast and a one-hop unicast to the right neighbour.
        if self.next_packet.is_multiple_of(2) {
            ctx.send_broadcast(NetPacket::Data(dp));
        } else {
            let next = NodeId((self.me.0 + 1) % self.n);
            ctx.send_unicast(next, NetPacket::Data(dp));
        }
        let period = self.period;
        ctx.schedule_timer(period, TimerToken(0));
    }
    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        self.log(ctx, from, &packet, "receive");
        if let NetPacket::Data(dp) = &*packet {
            if dp.dst == self.me || dp.src == self.me {
                return;
            }
            // Forward one hop towards the destination id, re-using the
            // shared allocation (no mutation needed for this test protocol).
            if dp.hop_count == 0 {
                let next = NodeId((self.me.0 + 1) % self.n);
                ctx.send_unicast(next, packet);
            }
        }
    }
    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        self.log(ctx, frame.mac_src, &frame.payload, "overhear");
    }
    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.log(ctx, next_hop, &packet, "link failure");
    }
}

/// One [`Chatter`] per node, logging into `heard` if given.
pub fn logging_chatter_stacks(
    n: u16,
    period: Duration,
    heard: Option<&Rc<RefCell<Heard>>>,
) -> Vec<Box<dyn NodeStack>> {
    (0..n)
        .map(|i| {
            Box::new(Chatter {
                me: NodeId(i),
                n,
                next_packet: 0,
                period,
                heard: heard.map(Rc::clone),
            }) as Box<dyn NodeStack>
        })
        .collect()
}

pub fn chatter_stacks(n: u16, period: Duration) -> Vec<Box<dyn NodeStack>> {
    logging_chatter_stacks(n, period, None)
}
