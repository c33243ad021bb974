use super::*;
use manet_netsim::mobility::StaticPlacement;
use manet_netsim::{Recorder, SimConfig, Simulator, TelemetryConfig};
use manet_routing::{Aodv, Dsr};
use mts_core::{Mts, MtsConfig};

enum Proto {
    Dsr,
    Aodv,
    Mts,
}

fn agent(p: &Proto, me: NodeId) -> Box<dyn RoutingAgent> {
    match p {
        Proto::Dsr => Box::new(Dsr::new(me)),
        Proto::Aodv => Box::new(Aodv::new(me)),
        Proto::Mts => Box::new(Mts::new(me, MtsConfig::default())),
    }
}

/// Build a 4-node chain with a TCP flow 0 -> 3 under the given protocol and
/// return (recorder, tcp report).
fn run_chain(p: Proto, secs: f64) -> (Recorder, TcpRunReport) {
    let n = 4u16;
    let mut sim_cfg = SimConfig::default();
    sim_cfg.num_nodes = n;
    sim_cfg.duration = Duration::from_secs(secs);
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..n)
        .map(|i| {
            let me = NodeId(i);
            let mut stack = ManetStack::new(me, agent(&p, me), Arc::clone(&stats));
            if i == 0 {
                stack.add_sender(
                    ConnectionId(0),
                    NodeId(n - 1),
                    TcpConfig::default(),
                    FlowProfile::bulk(),
                );
            }
            if i == n - 1 {
                stack.add_receiver(ConnectionId(0), NodeId(0));
            }
            Box::new(stack) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(
        sim_cfg,
        Box::new(StaticPlacement::chain(n as usize, 200.0)),
        stacks,
    );
    let recorder = sim.run();
    let report = stats.lock().clone();
    (recorder, report)
}

#[test]
fn tcp_over_aodv_transfers_data_on_a_chain() {
    let (recorder, report) = run_chain(Proto::Aodv, 30.0);
    let stats = report.aggregate;
    assert!(
        stats.bytes_acked > 50_000,
        "bytes_acked={}",
        stats.bytes_acked
    );
    assert!(stats.bytes_delivered >= stats.bytes_acked / 2);
    assert!(recorder.delivered_data_packets() > 50);
    assert!(recorder.mean_delay_secs() > 0.0);
    // The single flow's report row matches the aggregate.
    assert_eq!(report.flows.len(), 1);
    let flow = &report.flows[&0];
    assert_eq!((flow.src, flow.dst), (NodeId(0), NodeId(3)));
    assert_eq!(flow.bytes_acked, stats.bytes_acked);
    assert_eq!(flow.bytes_delivered, stats.bytes_delivered);
    assert_eq!(flow.completion_secs, None, "unbounded flows never complete");
    // The recorder's per-connection counters carry the same flow.
    let counters = recorder.flow_counter(ConnectionId(0));
    assert_eq!(counters.delivered_data, recorder.delivered_data_packets());
    assert!(counters.delivery_rate() > 0.9);
}

#[test]
fn tcp_over_dsr_transfers_data_on_a_chain() {
    let (_recorder, report) = run_chain(Proto::Dsr, 30.0);
    assert!(
        report.aggregate.bytes_acked > 50_000,
        "bytes_acked={}",
        report.aggregate.bytes_acked
    );
}

#[test]
fn tcp_over_mts_transfers_data_on_a_chain() {
    let (recorder, report) = run_chain(Proto::Mts, 30.0);
    assert!(
        report.aggregate.bytes_acked > 50_000,
        "bytes_acked={}",
        report.aggregate.bytes_acked
    );
    // Steady-state zero-copy: every hand-off in a full protocol run shares
    // the transmitted payload allocation (unicast deliveries hand over the
    // sole reference; RREQ/RERR flood copies are inspected by reference and
    // never claimed).
    let perf = recorder.engine_perf();
    assert_eq!(
        perf.payload_deep_clones, 0,
        "a clean MTS run must not deep-copy any payload"
    );
    assert!(perf.payload_clones_avoided > 0);
    // MTS keeps checking the route, so control traffic includes CHECK packets.
    assert!(
        recorder
            .control_by_kind()
            .get("CHECK")
            .copied()
            .unwrap_or(0)
            > 0
    );
}

#[test]
fn intermediate_nodes_relay_and_are_recorded() {
    let (recorder, _) = run_chain(Proto::Aodv, 20.0);
    // Nodes 1 and 2 are the only possible relays on the chain.
    let relays = recorder.relay_counts();
    assert!(relays.keys().all(|n| n.0 == 1 || n.0 == 2));
    assert!(!relays.is_empty());
}

/// Two opposing flows between the same pair of nodes: each endpoint node
/// terminates a sender *and* a receiver — impossible under the pre-PR 5
/// sender-xor-receiver `TcpRole`.
#[test]
fn a_node_can_terminate_a_sender_and_a_receiver_concurrently() {
    let n = 4u16;
    let mut sim_cfg = SimConfig::default();
    sim_cfg.num_nodes = n;
    sim_cfg.duration = Duration::from_secs(30.0);
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..n)
        .map(|i| {
            let me = NodeId(i);
            let mut stack = ManetStack::new(me, Box::new(Aodv::new(me)), Arc::clone(&stats));
            if i == 0 {
                stack.add_sender(
                    ConnectionId(0),
                    NodeId(3),
                    TcpConfig::default(),
                    FlowProfile::bulk(),
                );
                stack.add_receiver(ConnectionId(1), NodeId(3));
                assert_eq!(stack.endpoint_count(), 2);
            }
            if i == 3 {
                stack.add_receiver(ConnectionId(0), NodeId(0));
                stack.add_sender(
                    ConnectionId(1),
                    NodeId(0),
                    TcpConfig::default(),
                    FlowProfile::bulk(),
                );
            }
            Box::new(stack) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(
        sim_cfg,
        Box::new(StaticPlacement::chain(n as usize, 200.0)),
        stacks,
    );
    let recorder = sim.run();
    let report = stats.lock().clone();
    // Both directions made progress and were accounted separately.
    assert_eq!(report.flows.len(), 2);
    let fwd = &report.flows[&0];
    let rev = &report.flows[&1];
    assert_eq!((fwd.src, fwd.dst), (NodeId(0), NodeId(3)));
    assert_eq!((rev.src, rev.dst), (NodeId(3), NodeId(0)));
    assert!(
        fwd.bytes_acked > 10_000,
        "forward flow: {}",
        fwd.bytes_acked
    );
    assert!(
        rev.bytes_acked > 10_000,
        "reverse flow: {}",
        rev.bytes_acked
    );
    assert_eq!(
        report.aggregate.bytes_acked,
        fwd.bytes_acked + rev.bytes_acked
    );
    // Per-connection recorder counters stay disjoint and sum to the totals.
    let c0 = recorder.flow_counter(ConnectionId(0));
    let c1 = recorder.flow_counter(ConnectionId(1));
    assert_eq!(
        c0.delivered_data + c1.delivered_data,
        recorder.delivered_data_packets()
    );
    assert_eq!(
        c0.delivered_bytes + c1.delivered_bytes,
        recorder.delivered_payload_bytes()
    );
}

/// A staggered, budgeted flow starts late, finishes early, and reports a
/// completion time between the two, once in the report and once as a
/// `flow_complete` telemetry event.
#[test]
fn staggered_budgeted_flow_reports_completion() {
    let n = 3u16;
    let mut sim_cfg = SimConfig::default();
    sim_cfg.num_nodes = n;
    sim_cfg.duration = Duration::from_secs(30.0);
    sim_cfg.telemetry = TelemetryConfig {
        enabled: true,
        window_secs: None,
        trace_packet: None,
    };
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..n)
        .map(|i| {
            let me = NodeId(i);
            let mut stack = ManetStack::new(me, Box::new(Aodv::new(me)), Arc::clone(&stats));
            if i == 0 {
                stack.add_sender(
                    ConnectionId(0),
                    NodeId(2),
                    TcpConfig::default(),
                    FlowProfile {
                        start: 5.0,
                        bytes: Some(50_000),
                    },
                );
            }
            if i == 2 {
                stack.add_receiver(ConnectionId(0), NodeId(0));
            }
            Box::new(stack) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(
        sim_cfg,
        Box::new(StaticPlacement::chain(n as usize, 200.0)),
        stacks,
    );
    let recorder = sim.run();
    let report = stats.lock().clone();
    let flow = &report.flows[&0];
    assert_eq!(flow.bytes_acked, 50_000, "the budget caps the transfer");
    let done = flow
        .completion_secs
        .expect("a budgeted flow reports completion");
    assert!(done > 5.0, "cannot complete before the flow starts");
    assert!(done < 30.0, "50 kB over two hops completes well in-run");
    // Nothing was transmitted before the staggered start.
    let first_delivery = recorder.delivery_series().first().map(|(t, _)| t.as_secs());
    assert!(first_delivery.unwrap_or(f64::INFINITY) > 5.0);
    // The sender announced the completion exactly once, at the same instant.
    let completions: Vec<(u16, u32, u64, f64)> = recorder
        .telemetry
        .events()
        .iter()
        .filter_map(|ev| match *ev {
            telemetry::TelemetryEvent::FlowComplete {
                t,
                node,
                conn,
                bytes,
            } => Some((node, conn, bytes, t)),
            _ => None,
        })
        .collect();
    assert_eq!(completions, vec![(0, 0, 50_000, done)]);
}

#[test]
#[should_panic(expected = "already terminates")]
fn duplicate_connection_endpoints_are_rejected() {
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let mut stack = ManetStack::new(NodeId(0), Box::new(Aodv::new(NodeId(0))), stats);
    stack.add_receiver(ConnectionId(3), NodeId(1));
    stack.add_receiver(ConnectionId(3), NodeId(2));
}
