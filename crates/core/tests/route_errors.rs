//! The route-error rule at one relay, for MTS and AODV alike: a node that
//! receives a RERR passes on a RERR naming only the listed routes it lost
//! through the sender, with the listed sequence numbers, and passes on
//! nothing when it lost none.  An MTS source also drops its current route to
//! every listed destination it reaches through the sender, whether or not
//! its routing table lost that destination.
//!
//! Scripted neighbours hand the relay its routes (unicast RREPs) and then
//! broadcast two RERRs; a third neighbour records what the relay sends.

use manet_netsim::mobility::StaticPlacement;
use manet_netsim::{Ctx, Duration, NodeStack, Position, SimConfig, Simulator, TimerToken};
use manet_routing::agent::TimerClass;
use manet_routing::{Aodv, RoutingAgent};
use manet_wire::{BroadcastId, NetPacket, NodeId, RouteError, RouteReply, SeqNo, SharedPacket};
use mts_core::{Mts, MtsConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Sends the RERRs, and the RREPs of the routes through it.
const SENDER: NodeId = NodeId(0);
/// The agent under test.
const RELAY: NodeId = NodeId(1);
/// Holds the relay's other routes and records what the relay sends.
const OTHER: NodeId = NodeId(2);
/// Routed through `SENDER`, listed: lost.
const A: NodeId = NodeId(3);
/// Routed through `OTHER`, listed: kept.
const C: NodeId = NodeId(4);
/// Never routed, listed.
const D: NodeId = NodeId(5);
/// The relay's own session destination: its source route goes through
/// `SENDER`, its table route through `OTHER` after a fresher reply.
const E: NodeId = NodeId(6);
/// A far source whose replies the relay cannot pass on.
const FAR: NodeId = NodeId(7);

/// One packet a scripted node sends at a time: unicast to `to`, or broadcast.
type Send = (f64, Option<NodeId>, NetPacket);

/// A node that sends its script and, given a log, records every packet it
/// receives from the relay, with the time.
struct Script {
    sends: Vec<Send>,
    heard: Option<Rc<RefCell<Vec<(f64, NetPacket)>>>>,
}

impl NodeStack for Script {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _, _)) in self.sends.iter().enumerate() {
            let token = TimerClass::Application.token(i as u64);
            ctx.schedule_timer(Duration::from_secs(*at), token);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let (_, to, packet) = self.sends[token.payload() as usize].clone();
        match to {
            Some(next) => ctx.send_unicast(next, packet),
            None => ctx.send_broadcast(packet),
        }
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        if let Some(heard) = self.heard.as_ref().filter(|_| from == RELAY) {
            let at = ctx.now().as_secs();
            heard.borrow_mut().push((at, (*packet).clone()));
        }
    }

    fn on_link_failure(&mut self, _: &mut Ctx<'_>, _: NodeId, _: NetPacket) {}
}

/// The relay's routing agent, shared with the test so it can be read after
/// the run.
struct Agent<A: RoutingAgent>(Rc<RefCell<A>>);

impl<A: RoutingAgent> NodeStack for Agent<A> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.borrow_mut().start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.borrow_mut().on_timer(ctx, token);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        self.0.borrow_mut().on_packet(ctx, from, packet);
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.0.borrow_mut().on_link_failure(ctx, next_hop, packet);
    }
}

fn rrep(source: NodeId, destination: NodeId, seqno: u32) -> NetPacket {
    NetPacket::Rrep(RouteReply {
        source,
        destination,
        reply_id: BroadcastId(1),
        hop_count: 0,
        route: Vec::new(),
        dest_seqno: SeqNo(seqno),
    })
}

fn rerr(lost: &[(NodeId, u32)]) -> NetPacket {
    let lost: Vec<(NodeId, SeqNo)> = lost.iter().map(|&(d, s)| (d, SeqNo(s))).collect();
    NetPacket::Rerr(RouteError::new(SENDER, NodeId(9), &lost))
}

/// Run the script around `agent` at `RELAY`; returns what `OTHER` heard
/// from the relay.
fn run_relay<A: RoutingAgent + 'static>(agent: Rc<RefCell<A>>) -> Vec<(f64, NetPacket)> {
    let heard = Rc::new(RefCell::new(Vec::new()));
    let script =
        |sends: Vec<Send>, heard| -> Box<dyn NodeStack> { Box::new(Script { sends, heard }) };
    let to_relay = Some(RELAY);
    let sender = vec![
        (0.1, to_relay, rrep(FAR, A, 3)),
        (0.3, to_relay, rrep(RELAY, E, 3)),
        // A is lost; C goes through OTHER and D is unknown here; E's table
        // route went over to OTHER, but the relay's own session still sends
        // through SENDER.
        (1.0, None, rerr(&[(A, 7), (C, 8), (D, 9), (E, 6)])),
        // Nothing listed is still routed through SENDER.
        (2.0, None, rerr(&[(A, 7), (C, 8)])),
    ];
    let other = vec![
        (0.2, to_relay, rrep(FAR, C, 3)),
        (0.4, to_relay, rrep(FAR, E, 4)),
    ];
    let mut stacks = vec![
        script(sender, None),
        Box::new(Agent(agent)),
        script(other, Some(Rc::clone(&heard))),
    ];
    stacks.extend((3..8).map(|_| script(Vec::new(), None)));
    let mut positions = vec![
        Position::new(0.0, 0.0),
        Position::new(100.0, 0.0),
        Position::new(200.0, 0.0),
    ];
    positions.extend((3..8).map(|i| Position::new(900.0, 100.0 * f64::from(i))));
    let mut config = SimConfig::default();
    config.num_nodes = 8;
    config.duration = Duration::from_secs(3.0);
    let sim = Simulator::new(config, Box::new(StaticPlacement::new(positions)), stacks);
    sim.run();
    heard.take()
}

/// The RERRs among `heard`, with their times.
fn rerrs(heard: &[(f64, NetPacket)]) -> Vec<(f64, RouteError)> {
    let rerr = |(at, p): &(f64, NetPacket)| match p {
        NetPacket::Rerr(e) => Some((*at, e.clone())),
        _ => None,
    };
    heard.iter().filter_map(rerr).collect()
}

/// The one RERR the relay passes on: only A, with its listed seqno, from
/// the relay, naming the sender as the broken hop.
fn assert_forwards_only_what_it_lost(agent: &str, heard: &[(f64, NetPacket)]) {
    let sent = rerrs(heard);
    let expected = RouteError::new(RELAY, SENDER, &[(A, SeqNo(7))]);
    assert_eq!(
        sent.len(),
        1,
        "{agent}: one RERR, none for the second: {sent:?}"
    );
    let (at, forwarded) = &sent[0];
    assert!((1.0..2.0).contains(at), "{agent}: forwarded at {at}");
    assert_eq!(forwarded, &expected, "{agent}");
}

#[test]
fn an_mts_relay_forwards_only_the_listed_routes_it_lost() {
    let mts = Rc::new(RefCell::new(Mts::new(RELAY, MtsConfig::default())));
    let heard = run_relay(Rc::clone(&mts));
    assert_forwards_only_what_it_lost("MTS", &heard);
    // The session route to E went through SENDER, so it is dropped and
    // rediscovered although the table kept its route to E through OTHER.
    let mts = mts.borrow();
    let state = mts
        .source_state(E)
        .expect("the relay sources a session to E");
    assert_eq!(state.next_hop(), None);
    let rediscovers = |(at, p): &(f64, NetPacket)| matches!(p, NetPacket::Rreq(r) if r.destination == E && *at >= 1.0);
    assert!(heard.iter().any(rediscovers), "no RREQ for E: {heard:?}");
}

#[test]
fn an_aodv_relay_forwards_only_the_listed_routes_it_lost() {
    let aodv = Rc::new(RefCell::new(Aodv::new(RELAY)));
    let heard = run_relay(Rc::clone(&aodv));
    assert_forwards_only_what_it_lost("AODV", &heard);
    let aodv = aodv.borrow();
    let now = manet_netsim::SimTime::from_secs(2.5);
    assert_eq!(aodv.table().lookup(C, now).map(|e| e.next_hop), Some(OTHER));
    assert_eq!(aodv.table().lookup(E, now).map(|e| e.next_hop), Some(OTHER));
    assert!(aodv.table().lookup(A, now).is_none());
}
