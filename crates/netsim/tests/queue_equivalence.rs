//! The calendar event queue against its order oracle on whole runs.
//!
//! The calendar queue is an optimisation, not an approximation: the engine
//! must process its events in ascending `(time, seq)` — a binary heap's
//! order, FIFO among events scheduled for the same instant.  Debug builds
//! assert that on every pop, so each run below is checked pop by pop over
//! seeded random-waypoint traffic, equal-timestamp timer storms and
//! attack-enabled schedules (the wormhole's out-of-band `TunnelDeliver`
//! events).  Release builds still check what the recorder can see: trace
//! timestamps never decrease and same-instant timers fire in FIFO order.
//! The last test pins the zero-copy payload path.

mod common;

use common::{chatter_stacks, logging_chatter_stacks};
use manet_netsim::mobility::{RandomWaypoint, StaticPlacement};
use manet_netsim::{
    Ctx, Duration, NodeStack, Observation, Recorder, SimConfig, SimTime, Simulator, TimerToken,
    TraceEvent, TraceMode, WormholeConfig,
};
use manet_wire::{ConnectionId, DataPacket, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment};
use std::cell::RefCell;
use std::rc::Rc;

/// Run `config` with full tracing.
fn traced_run(config: SimConfig, mobile: bool, stacks: Vec<Box<dyn NodeStack>>) -> Recorder {
    let mobility: Box<dyn manet_netsim::MobilityModel> = if mobile {
        Box::new(RandomWaypoint::new(
            config.field_width,
            config.field_height,
            config.mobility,
        ))
    } else {
        Box::new(StaticPlacement::chain(config.num_nodes as usize, 180.0))
    };
    let mut sim = Simulator::new(config, mobility, stacks);
    sim.set_trace_mode(TraceMode::Keep);
    sim.run()
}

/// Assert what a finished run shows of its pop order: every popped event was
/// processed, and the trace is in time order.
fn assert_in_time_order(rec: &Recorder, what: &str) {
    let perf = rec.engine_perf();
    assert_eq!(perf.queue_pops, perf.events_processed, "{what}");
    let at = |ev: &TraceEvent| match *ev {
        TraceEvent::TxStart { at, .. }
        | TraceEvent::Delivered { at, .. }
        | TraceEvent::LinkFailure { at, .. } => at,
    };
    assert!(
        rec.trace().windows(2).all(|w| at(&w[0]) <= at(&w[1])),
        "{what}: trace timestamps went backwards"
    );
}

#[test]
fn random_waypoint_traffic_pops_in_time_then_seq_order() {
    for seed in [1u64, 7, 42] {
        let mut config = SimConfig::default();
        config.num_nodes = 30;
        config.duration = Duration::from_secs(10.0);
        config.seed = seed;
        config.mobility.min_speed = 1.0;
        config.mobility.max_speed = 20.0;
        let period = Duration::from_millis(200.0);
        let rec = traced_run(config, true, chatter_stacks(30, period));
        assert!(
            rec.engine_perf().events_processed > 1000,
            "seed {seed}: the workload must be non-trivial"
        );
        assert!(rec.delivered_data_packets() > 0, "seed {seed}");
        assert_in_time_order(&rec, &format!("seed {seed}"));
    }
}

#[test]
fn equal_timestamp_timer_storms_pop_in_identical_fifo_order() {
    // Every node schedules its timers for the exact same instants, so each
    // period boundary is a tie-break storm of `num_nodes` simultaneous
    // events.  The nodes first scheduled in id order and each reschedules
    // when it fires, so every storm must fire in id order.
    let n = 40u16;
    let mut config = SimConfig::default();
    config.num_nodes = n;
    config.duration = Duration::from_secs(5.0);
    config.mobility.max_speed = 0.0;
    let period = Duration::from_millis(250.0);
    let heard = Rc::new(RefCell::new(Vec::new()));
    let rec = traced_run(
        config,
        false,
        logging_chatter_stacks(n, period, Some(&heard)),
    );
    assert_in_time_order(&rec, "timer storm");
    let mut storms: Vec<(SimTime, Vec<u16>)> = Vec::new();
    for &(at, node, ..) in heard.borrow().iter().filter(|h| h.4 == "timer") {
        match storms.last_mut() {
            Some((t, fired)) if *t == at => fired.push(node.0),
            _ => storms.push((at, vec![node.0])),
        }
    }
    assert_eq!(storms.len(), 19, "one storm per period before the 5 s stop");
    let in_id_order: Vec<u16> = (0..n).collect();
    for (at, fired) in &storms {
        assert_eq!(fired, &in_id_order, "storm at {at:?}");
    }
}

#[test]
fn wormhole_tunnel_schedules_pop_in_time_then_seq_order() {
    // The wormhole's out-of-band `TunnelDeliver` events take the non-MAC
    // scheduling path.
    let mut config = SimConfig::default();
    config.num_nodes = 24;
    config.duration = Duration::from_secs(8.0);
    config.seed = 11;
    config.mobility.min_speed = 1.0;
    config.mobility.max_speed = 15.0;
    // A sparse field keeps the tunnel endpoints out of radio range most of
    // the time, so broadcasts actually take the replay path.
    config.field_width = 3000.0;
    config.field_height = 3000.0;
    config.wormhole = Some(WormholeConfig {
        a: NodeId(2),
        b: NodeId(17),
        delay: Duration::from_micros(1.0),
    });
    let period = Duration::from_millis(150.0);
    let rec = traced_run(config, true, chatter_stacks(24, period));
    assert!(
        rec.tunneled_frames() > 0,
        "the wormhole must actually tunnel traffic in this layout"
    );
    assert_in_time_order(&rec, "wormhole");
}

#[test]
fn unicast_chains_claim_payloads_without_a_single_deep_clone() {
    // Steady-state zero-copy: a static chain forwarding unicast data claims
    // each delivered packet as the sole reference — the whole run must
    // perform zero payload deep copies while sharing an allocation per
    // delivery.
    struct ChainForwarder {
        me: NodeId,
        last: NodeId,
    }
    impl NodeStack for ChainForwarder {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            if self.me == NodeId(0) {
                let dp = DataPacket::new(
                    PacketId(1),
                    self.me,
                    self.last,
                    TcpSegment::data(ConnectionId(0), 0, 0, 1000),
                );
                ctx.observe(Observation::Originate {
                    node: self.me,
                    packet: &dp,
                });
                ctx.send_unicast(NodeId(1), NetPacket::Data(dp));
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
        fn on_receive(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, packet: SharedPacket) {
            // Take ownership (free: unicast deliveries hand over the sole
            // reference), mutate, forward — the relay pattern real routing
            // agents use.
            if let NetPacket::Data(mut dp) = ctx.claim_packet(packet) {
                if dp.dst != self.me {
                    dp.hop_count += 1;
                    let next = NodeId(self.me.0 + 1);
                    ctx.send_unicast(next, NetPacket::Data(dp));
                }
            }
        }
        fn on_link_failure(&mut self, _ctx: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
    }
    let n = 6u16;
    let mut config = SimConfig::default();
    config.num_nodes = n;
    config.duration = Duration::from_secs(5.0);
    config.mobility.max_speed = 0.0;
    let stacks: Vec<Box<dyn NodeStack>> = (0..n)
        .map(|i| {
            Box::new(ChainForwarder {
                me: NodeId(i),
                last: NodeId(n - 1),
            }) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(
        config,
        Box::new(StaticPlacement::chain(n as usize, 180.0)),
        stacks,
    );
    let rec = sim.run();
    assert_eq!(rec.delivered_data_packets(), 1);
    let perf = rec.engine_perf();
    assert_eq!(
        perf.payload_deep_clones, 0,
        "steady-state unicast forwarding must be copy-free"
    );
    assert!(
        perf.payload_clones_avoided >= u64::from(n) - 1,
        "each hop's delivery shares the transmitted allocation \
         (got {} shares)",
        perf.payload_clones_avoided
    );
    assert_eq!(perf.payload_share_rate(), 1.0);
}
