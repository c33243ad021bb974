//! Heap-vs-calendar event-queue equivalence.
//!
//! The calendar queue is an optimisation, not an approximation: for any
//! workload, the engine must process **exactly** the same event stream —
//! including the FIFO tie-break between events scheduled for the same
//! instant — under [`EventQueueKind::Calendar`] as under
//! [`EventQueueKind::Heap`].  These tests mirror `grid_equivalence.rs`:
//! they drive both configurations through the public API over seeded
//! random-waypoint traffic runs, equal-timestamp timer storms, and
//! attack-enabled schedules (the wormhole's out-of-band `TunnelDeliver`
//! events), and require byte-identical recorder traces.

mod common;

use common::chatter_stacks;
use manet_netsim::mobility::{RandomWaypoint, StaticPlacement};
use manet_netsim::{
    Ctx, Duration, EventQueueKind, NodeStack, Observation, Recorder, SimConfig, Simulator,
    TimerToken, TraceMode, WormholeConfig,
};
use manet_wire::{ConnectionId, DataPacket, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment};

/// Run `config` with the given queue backend and full tracing.
fn traced_run(
    mut config: SimConfig,
    kind: EventQueueKind,
    mobile: bool,
    stacks: Vec<Box<dyn NodeStack>>,
) -> Recorder {
    config.event_queue = kind;
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

/// Assert two finished runs are byte-identical: full trace plus every
/// counter the metrics layer consumes.
fn assert_identical(a: &Recorder, b: &Recorder, what: &str) {
    assert_eq!(a.trace(), b.trace(), "{what}: traces diverged");
    assert_eq!(
        a.engine_perf().events_processed,
        b.engine_perf().events_processed,
        "{what}: event counts diverged"
    );
    assert_eq!(
        a.engine_perf().queue_pushes,
        b.engine_perf().queue_pushes,
        "{what}: queue push counts diverged"
    );
    assert_eq!(
        a.delivered_data_packets(),
        b.delivered_data_packets(),
        "{what}: deliveries diverged"
    );
    assert_eq!(
        a.collisions(),
        b.collisions(),
        "{what}: collisions diverged"
    );
    assert_eq!(
        a.link_failures(),
        b.link_failures(),
        "{what}: link failures diverged"
    );
    assert_eq!(
        a.control_transmissions(),
        b.control_transmissions(),
        "{what}: control overhead diverged"
    );
}

#[test]
fn random_waypoint_traffic_is_trace_identical_across_queue_backends() {
    for seed in [1u64, 7, 42] {
        let mut config = SimConfig::default();
        config.num_nodes = 30;
        config.duration = Duration::from_secs(10.0);
        config.seed = seed;
        config.mobility.min_speed = 1.0;
        config.mobility.max_speed = 20.0;
        let period = Duration::from_millis(200.0);
        let heap = traced_run(
            config.clone(),
            EventQueueKind::Heap,
            true,
            chatter_stacks(30, period),
        );
        let cal = traced_run(
            config,
            EventQueueKind::Calendar,
            true,
            chatter_stacks(30, period),
        );
        assert!(
            heap.engine_perf().events_processed > 1000,
            "seed {seed}: the workload must be non-trivial"
        );
        assert_identical(&heap, &cal, &format!("seed {seed}"));
    }
}

#[test]
fn equal_timestamp_timer_storms_pop_in_identical_fifo_order() {
    // Every node schedules its timers for the exact same instants, so each
    // period boundary is a tie-break storm of `num_nodes` simultaneous
    // events; the trace (which records the resulting transmissions in
    // processing order) detects any tie-break divergence.
    let mut config = SimConfig::default();
    config.num_nodes = 40;
    config.duration = Duration::from_secs(5.0);
    config.mobility.max_speed = 0.0;
    let period = Duration::from_millis(250.0);
    let heap = traced_run(
        config.clone(),
        EventQueueKind::Heap,
        false,
        chatter_stacks(40, period),
    );
    let cal = traced_run(
        config,
        EventQueueKind::Calendar,
        false,
        chatter_stacks(40, period),
    );
    assert_identical(&heap, &cal, "timer storm");
}

#[test]
fn wormhole_tunnel_schedules_are_trace_identical_across_queue_backends() {
    // The wormhole's out-of-band `TunnelDeliver` events take the non-MAC
    // scheduling path; an attack-enabled run must stay backend-identical.
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
    let heap = traced_run(
        config.clone(),
        EventQueueKind::Heap,
        true,
        chatter_stacks(24, period),
    );
    let cal = traced_run(
        config,
        EventQueueKind::Calendar,
        true,
        chatter_stacks(24, period),
    );
    assert!(
        heap.tunneled_frames() > 0,
        "the wormhole must actually tunnel traffic in this layout"
    );
    assert_identical(&heap, &cal, "wormhole");
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
