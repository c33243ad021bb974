//! Test harness for routing agents.
//!
//! [`run_routing`] runs any [`RoutingAgent`] implementation inside the
//! discrete-event simulator with a simple constant-rate datagram source
//! (no TCP), which is exactly what the routing unit/integration tests need:
//! "does protocol X deliver packets from A to B over this topology, and what
//! does its control traffic look like?".
//!
//! The full TCP-over-routing stack used by the paper reproduction lives in
//! `manet-experiments`; this harness intentionally stays minimal.

use crate::agent::{RoutingAgent, TimerClass};
use manet_netsim::{
    Ctx, Duration, MobilityModel, NodeStack, Observation, Recorder, SimConfig, Simulator,
    TimerToken,
};
use manet_wire::{ConnectionId, DataPacket, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment};
use std::cell::RefCell;
use std::rc::Rc;

/// A constant-rate datagram flow from `src` to `dst`.
#[derive(Debug, Clone, Copy)]
pub struct TestFlow {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packets per second.
    pub rate_pps: f64,
    /// Payload bytes per packet.
    pub payload: u32,
    /// When the flow starts.
    pub start_at: f64,
}

impl TestFlow {
    /// A 10 packet/s, 512-byte flow starting at 1 s.
    pub fn simple(src: NodeId, dst: NodeId) -> Self {
        TestFlow {
            src,
            dst,
            rate_pps: 10.0,
            payload: 512,
            start_at: 1.0,
        }
    }
}

/// Shared counters collected by the harness stacks.
#[derive(Debug, Default)]
pub struct HarnessCounters {
    /// Data packets delivered to their destination's routing agent.
    pub delivered: u64,
    /// Data packets originated.
    pub originated: u64,
    /// Source-side neighbourhood samples taken (one per emission tick).
    pub degree_samples: u64,
    /// Sum of the source's neighbour counts over those samples.
    pub degree_total: u64,
    /// Emission ticks at which the source had no neighbour at all (a
    /// partitioned source explains a low delivery ratio better than any
    /// protocol defect).
    pub isolated_source_ticks: u64,
}

/// The per-node stack used by the harness: a routing agent plus an optional
/// datagram source.
struct HarnessStack<A: RoutingAgent> {
    me: NodeId,
    agent: A,
    flow: Option<TestFlow>,
    next_packet: u64,
    counters: Rc<RefCell<HarnessCounters>>,
    /// Reused by the per-tick neighbourhood sample (`Ctx::neighbors_into`),
    /// so sampling allocates nothing after the first tick.
    neighbor_scratch: Vec<NodeId>,
}

impl<A: RoutingAgent> HarnessStack<A> {
    fn emit_packet(&mut self, ctx: &mut Ctx<'_>) {
        let Some(flow) = self.flow else { return };
        // Sample the source's connectivity for the topology diagnostics.
        ctx.neighbors_into(&mut self.neighbor_scratch);
        {
            let mut c = self.counters.borrow_mut();
            c.degree_samples += 1;
            c.degree_total += self.neighbor_scratch.len() as u64;
            if self.neighbor_scratch.is_empty() {
                c.isolated_source_ticks += 1;
            }
        }
        let id = PacketId((u64::from(self.me.0) << 40) | self.next_packet);
        self.next_packet += 1;
        let seg = TcpSegment::data(
            ConnectionId(0),
            self.next_packet * u64::from(flow.payload),
            0,
            flow.payload,
        );
        let pkt = DataPacket::new(id, flow.src, flow.dst, seg);
        ctx.observe(Observation::Originate {
            node: self.me,
            packet: &pkt,
        });
        self.counters.borrow_mut().originated += 1;
        self.agent.send_data(ctx, pkt);
        // Schedule the next emission.
        ctx.schedule_timer(
            Duration::from_secs(1.0 / flow.rate_pps),
            TimerClass::Application.token(self.next_packet),
        );
    }
}

impl<A: RoutingAgent> NodeStack for HarnessStack<A> {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.agent.start(ctx);
        if let Some(flow) = self.flow {
            ctx.schedule_timer(
                Duration::from_secs(flow.start_at),
                TimerClass::Application.token(0),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if TimerClass::Application.owns(token) {
            self.emit_packet(ctx);
        } else {
            self.agent.on_timer(ctx, token);
        }
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        let delivered = self.agent.on_packet(ctx, from, packet);
        self.counters.borrow_mut().delivered += u64::from(delivered.is_some());
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.agent.on_link_failure(ctx, next_hop, packet);
    }
}

/// Outcome of a harness run.
#[derive(Debug)]
pub struct HarnessResult {
    /// The simulator's recorder (deliveries, relays, control overhead, ...).
    pub recorder: Recorder,
    /// Data packets delivered to destination routing agents.
    pub delivered: u64,
    /// Data packets originated by the sources.
    pub originated: u64,
    /// Mean number of neighbours the sources saw at their emission ticks.
    pub mean_source_degree: f64,
    /// Emission ticks at which a source had no neighbour (partitioned).
    pub isolated_source_ticks: u64,
}

impl HarnessResult {
    /// Delivery ratio (0 when nothing was originated).
    pub fn delivery_ratio(&self) -> f64 {
        if self.originated == 0 {
            0.0
        } else {
            self.delivered as f64 / self.originated as f64
        }
    }
}

/// Run routing agents built by `make_agent` over `mobility` with the given
/// datagram `flows` and simulation `config`.
pub fn run_routing<A, F, M>(
    config: SimConfig,
    mobility: M,
    flows: &[TestFlow],
    mut make_agent: F,
) -> HarnessResult
where
    A: RoutingAgent + 'static,
    F: FnMut(NodeId) -> A,
    M: MobilityModel + 'static,
{
    let counters = Rc::new(RefCell::new(HarnessCounters::default()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..config.num_nodes)
        .map(|i| {
            let me = NodeId(i);
            let flow = flows.iter().copied().find(|f| f.src == me);
            Box::new(HarnessStack {
                me,
                agent: make_agent(me),
                flow,
                next_packet: 0,
                counters: Rc::clone(&counters),
                neighbor_scratch: Vec::new(),
            }) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(config, Box::new(mobility), stacks);
    let recorder = sim.run();
    let c = counters.borrow();
    HarnessResult {
        delivered: c.delivered,
        originated: c.originated,
        mean_source_degree: if c.degree_samples == 0 {
            0.0
        } else {
            c.degree_total as f64 / c.degree_samples as f64
        },
        isolated_source_ticks: c.isolated_source_ticks,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aodv::Aodv;
    use crate::dsr::Dsr;
    use manet_netsim::mobility::StaticPlacement;

    fn chain_config(n: u16, secs: f64) -> SimConfig {
        let mut c = SimConfig::default();
        c.num_nodes = n;
        c.duration = Duration::from_secs(secs);
        c
    }

    #[test]
    fn aodv_delivers_over_a_static_chain() {
        let n = 5u16;
        let cfg = chain_config(n, 20.0);
        let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
        let result = run_routing(
            cfg,
            StaticPlacement::chain(n as usize, 200.0),
            &flows,
            Aodv::new,
        );
        assert!(result.originated > 100, "originated={}", result.originated);
        assert!(
            result.delivery_ratio() > 0.9,
            "AODV delivery ratio too low: {} ({}/{})",
            result.delivery_ratio(),
            result.delivered,
            result.originated
        );
        // Route discovery happened at least once.
        assert!(result.recorder.control_transmissions() > 0);
        // Topology diagnostics: on a 200 m chain the source hears exactly its
        // one chain neighbour and is never isolated.
        assert_eq!(result.mean_source_degree, 1.0);
        assert_eq!(result.isolated_source_ticks, 0);
    }

    #[test]
    fn dsr_delivers_over_a_static_chain() {
        let n = 5u16;
        let cfg = chain_config(n, 20.0);
        let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
        let result = run_routing(
            cfg,
            StaticPlacement::chain(n as usize, 200.0),
            &flows,
            Dsr::new,
        );
        assert!(
            result.delivery_ratio() > 0.9,
            "DSR delivery ratio too low: {} ({}/{})",
            result.delivery_ratio(),
            result.delivered,
            result.originated
        );
    }

    #[test]
    fn unreachable_destination_delivers_nothing() {
        // Two isolated nodes, far out of range.
        let cfg = chain_config(2, 10.0);
        let flows = [TestFlow::simple(NodeId(0), NodeId(1))];
        let result = run_routing(cfg, StaticPlacement::chain(2, 900.0), &flows, |me| {
            Aodv::new(me)
        });
        assert_eq!(result.delivered, 0);
        assert!(result.originated > 0);
    }

    #[test]
    fn aodv_recovers_after_node_moves_away() {
        // A 4-node chain where relaying node 1 is placed far away: packets must
        // route through node 2 instead (0-2-3 is out of range at 200 m spacing,
        // so this exercises discovery failure followed by success when the
        // topology allows it).  Here we simply check the harness copes with a
        // sparse topology without panicking.
        let mut cfg = chain_config(4, 15.0);
        cfg.seed = 3;
        let positions = vec![
            manet_netsim::Position::new(0.0, 0.0),
            manet_netsim::Position::new(210.0, 0.0),
            manet_netsim::Position::new(420.0, 0.0),
            manet_netsim::Position::new(630.0, 0.0),
        ];
        let flows = [TestFlow::simple(NodeId(0), NodeId(3))];
        let result = run_routing(cfg, StaticPlacement::new(positions), &flows, |me| {
            Aodv::new(me)
        });
        assert!(
            result.delivery_ratio() > 0.8,
            "ratio={}",
            result.delivery_ratio()
        );
    }
}
