//! Property-based tests for the connection-table stack: however many flows a
//! run carries and however their endpoints overlap, the per-flow accounting
//! must partition the aggregate accounting exactly.

use manet_netsim::mobility::StaticPlacement;
use manet_netsim::{Duration, NodeStack, Recorder, SimConfig, Simulator};
use manet_routing::Aodv;
use manet_stack::{ManetStack, SharedTcpStats, TcpRunReport};
use manet_tcp::{FlowProfile, TcpConfig};
use manet_wire::{ConnectionId, NodeId};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// One random flow on the 5-node chain: (src, dst, byte budget).
fn flow_strategy() -> impl Strategy<Value = (u16, u16, u64)> {
    (0u16..5, 0u16..5, 2_000u64..40_000)
}

/// Run `flows` over AODV on a static 5-node chain and return the recorder and
/// the TCP report.
fn run_flows(flows: &[(u16, u16, u64)], secs: f64) -> (Recorder, TcpRunReport) {
    let n = 5u16;
    let mut sim_cfg = SimConfig::default();
    sim_cfg.num_nodes = n;
    sim_cfg.duration = Duration::from_secs(secs);
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..n)
        .map(|i| {
            let me = NodeId(i);
            let mut stack = ManetStack::new(me, Box::new(Aodv::new(me)), Arc::clone(&stats));
            for (idx, &(src, dst, bytes)) in flows.iter().enumerate() {
                let conn = ConnectionId(idx as u32);
                if src == i {
                    stack.add_sender(
                        conn,
                        NodeId(dst),
                        TcpConfig::default(),
                        FlowProfile {
                            bytes: Some(bytes),
                            ..Default::default()
                        },
                    );
                }
                if dst == i {
                    stack.add_receiver(conn, NodeId(src));
                }
            }
            Box::new(stack) as Box<dyn NodeStack>
        })
        .collect();
    let sim = Simulator::new(
        sim_cfg,
        Box::new(StaticPlacement::chain(n as usize, 180.0)),
        stacks,
    );
    let recorder = sim.run();
    let report = stats.lock().clone();
    (recorder, report)
}

proptest! {
    /// The per-flow byte and segment counters of the TCP report partition the
    /// aggregate exactly, and the recorder's per-connection packet counters
    /// partition the run totals — for any flow set, including flows sharing
    /// sources, sinks, or whole endpoint pairs.
    #[test]
    fn per_flow_accounting_partitions_the_aggregates(
        raw in proptest::collection::vec(flow_strategy(), 1..4)
    ) {
        // Make every flow's endpoints distinct nodes (src != dst); endpoint
        // *pairs* may still repeat across flows.
        let flows: Vec<(u16, u16, u64)> = raw
            .into_iter()
            .map(|(s, d, b)| if s == d { (s, (d + 1) % 5, b) } else { (s, d, b) })
            .collect();
        let (recorder, report) = run_flows(&flows, 12.0);

        // TCP report: per-flow rows sum to the aggregate, field by field.
        let agg = report.aggregate;
        prop_assert_eq!(report.flows.len(), flows.len());
        let sum_delivered: u64 = report.flows.values().map(|f| f.bytes_delivered).sum();
        let sum_acked: u64 = report.flows.values().map(|f| f.bytes_acked).sum();
        let sum_segments: u64 = report.flows.values().map(|f| f.segments_received).sum();
        let sum_ooo: u64 = report.flows.values().map(|f| f.out_of_order).sum();
        prop_assert_eq!(sum_delivered, agg.bytes_delivered);
        prop_assert_eq!(sum_acked, agg.bytes_acked);
        prop_assert_eq!(sum_segments, agg.segments_received);
        prop_assert_eq!(sum_ooo, agg.out_of_order);

        // Recorder: per-connection packet/byte counters partition the totals.
        let counters = recorder.flow_counters();
        let sum_orig: u64 = counters.values().map(|c| c.originated_data).sum();
        let sum_del: u64 = counters.values().map(|c| c.delivered_data).sum();
        let sum_bytes: u64 = counters.values().map(|c| c.delivered_bytes).sum();
        prop_assert_eq!(sum_orig, recorder.originated_data_packets());
        prop_assert_eq!(sum_del, recorder.delivered_data_packets());
        prop_assert_eq!(sum_bytes, recorder.delivered_payload_bytes());

        // A receiver never hands the application more than the sender had
        // acknowledged plus what is still in flight; with budgets, delivery
        // never exceeds the budget.
        for (idx, &(_, _, bytes)) in flows.iter().enumerate() {
            let f = &report.flows[&(idx as u32)];
            prop_assert!(f.bytes_delivered <= bytes);
            prop_assert!(f.bytes_acked <= bytes);
            if let Some(done) = f.completion_secs {
                prop_assert!(done > 0.0 && done <= 12.0);
                prop_assert_eq!(f.bytes_acked, bytes);
            }
        }
    }
}
