//! Per-run metric extraction.
//!
//! Combines the simulator's recorder, the security metrics and the TCP
//! statistics into one [`RunMetrics`] value covering every quantity the
//! paper's figures plot.

use crate::scenario::Scenario;
use crate::stack::TcpRunReport;
use manet_adversary::AttackKind;
use manet_netsim::Recorder;
use manet_security::{
    capture_report, coalition_report, interception::summarize, participating_nodes,
    relay_distribution, select_coalition_greedy,
};
use manet_wire::{ConnectionId, NodeId};

/// Per-flow metrics of one run (one row per scenario flow).
///
/// Packet counts come from the recorder's [`ConnectionId`]-keyed counters;
/// the in-order byte counts and completion time come from the flow's TCP
/// endpoints in the run's [`TcpRunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics {
    /// Raw connection id (the flow's index in the scenario).
    pub conn: u32,
    /// TCP sender node.
    pub src: NodeId,
    /// TCP receiver node.
    pub dst: NodeId,
    /// Data packets this flow's source handed to the routing layer
    /// (retransmissions included).
    pub packets_generated: u64,
    /// Unique data packets delivered to the flow's destination.
    pub packets_delivered: u64,
    /// Delivered / generated data packets.
    pub delivery_rate: f64,
    /// Mean end-to-end delay of the flow's delivered packets, seconds.
    pub mean_delay: f64,
    /// Distinct in-order payload bytes the receiving application accepted.
    pub bytes_delivered: u64,
    /// Goodput: in-order application bytes per second of simulated time.
    pub goodput_bytes_per_sec: f64,
    /// Seconds until the flow's byte budget was fully acknowledged
    /// (`None` while incomplete or for unbounded flows).
    pub completion_secs: Option<f64>,
}

/// Jain's fairness index over non-negative allocations:
/// `(Σx)² / (n · Σx²)`, in `(0, 1]` — 1 when every flow gets the same
/// share, `1/n` when one flow takes everything.  Defined as 0 for an empty
/// or all-zero allocation.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sum <= 0.0 || sum_sq <= 0.0 {
        return 0.0;
    }
    (sum * sum) / (n * sum_sq)
}

/// Coalition interception ratio `Pe(coalition) / Pr` of a finished run (0
/// unless the attack is a coalition); the grid applies it to clean runs too.
pub(crate) fn coalition_interception_ratio(scenario: &Scenario, recorder: &Recorder) -> f64 {
    let AttackKind::Coalition { k } = scenario.attack.kind else {
        return 0.0;
    };
    let members = select_coalition_greedy(
        recorder,
        scenario.sim.num_nodes,
        &scenario.endpoints(),
        usize::from(k),
    );
    coalition_report(recorder, &members).ratio()
}

/// Every metric the paper's evaluation reports, for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    // --- security (Figs. 5-7, Table I) -----------------------------------------
    /// Number of intermediate nodes that relayed at least one data packet (Fig. 5).
    pub participating_nodes: usize,
    /// Mean number of distinct relays per 10 s window (the windowed Fig. 5
    /// variant: how many nodes carry the session *at a time*, instead of the
    /// churn-inflated cumulative count).
    pub mean_windowed_participants: f64,
    /// Standard deviation of the normalized relay shares (Fig. 6).
    pub relay_std_dev: f64,
    /// Interception ratio of the designated (random) eavesdropper (Eq. 1).
    pub interception_ratio: f64,
    /// Highest interception ratio over all candidate nodes (Fig. 7).
    pub highest_interception_ratio: f64,

    // --- adversary (attack-aware runs) -------------------------------------------
    /// Coalition interception ratio `Pe(coalition) / Pr` at the configured
    /// coalition size (0 unless the run's attack is a coalition).
    pub coalition_interception_ratio: f64,
    /// Packets deliberately discarded by black/gray-hole relays.
    pub adversary_drops: u64,
    /// Receptions destroyed by selective jamming.
    pub jammed_frames: u64,
    /// Fraction of the delivered data the hostile nodes captured (relayed or
    /// tunneled) — the headline number for route-attraction attacks
    /// (wormhole, rushing, black-hole attraction); 0 for other attacks.
    pub attacker_capture_ratio: f64,

    // --- TCP performance (Figs. 8-11) -------------------------------------------
    /// Mean end-to-end delay of delivered data packets, seconds (Fig. 8).
    pub mean_delay: f64,
    /// Throughput: unique data packets delivered to the destination (Fig. 9).
    pub throughput_packets: u64,
    /// Throughput in application payload bytes per second of simulated time.
    pub throughput_bytes_per_sec: f64,
    /// Delivery rate: delivered / generated data packets (Fig. 10).
    pub delivery_rate: f64,
    /// Control overhead: routing packets transmitted, all hops counted (Fig. 11).
    pub control_overhead: u64,

    // --- per-flow accounting (multi-flow runs) -----------------------------------
    /// One row per scenario flow: delivery, goodput, completion time.
    pub per_flow: Vec<FlowMetrics>,
    /// Jain's fairness index over the flows' goodputs, in [0, 1].
    pub fairness_index: f64,

    // --- background fluid layer (hybrid runs) ------------------------------------
    /// Total fluid flows the run carried (explicit scenario flows plus
    /// generated background flows); 0 when the fluid layer is off.
    pub fluid_flows: usize,
    /// Bytes delivered by the analytic fluid layer.  Ledgered separately
    /// from the packet counters above — never added into them, so packet
    /// conservation invariants are unaffected by hybrid runs.
    pub fluid_delivered_bytes: u64,

    // --- supporting detail -------------------------------------------------------
    /// Data packets generated at the source (including TCP retransmissions).
    pub data_packets_generated: u64,
    /// Bytes acknowledged end-to-end by TCP.
    pub tcp_bytes_acked: u64,
    /// TCP retransmissions.
    pub tcp_retransmissions: u64,
    /// TCP retransmission timeouts.
    pub tcp_timeouts: u64,
    /// Out-of-order arrivals at the TCP sink.
    pub tcp_out_of_order: u64,
    /// Route switches performed by the sender's routing agent.
    pub route_switches: u64,
    /// MAC-level collisions observed.
    pub mac_collisions: u64,
    /// MAC-level link failures (retry limit exhausted).
    pub link_failures: u64,
}

impl RunMetrics {
    /// Extract the metrics of a finished run.
    pub fn extract(scenario: &Scenario, recorder: &Recorder, report: &TcpRunReport) -> Self {
        let tcp = &report.aggregate;
        let endpoints = scenario.endpoints();
        let interception = summarize(
            recorder,
            scenario.sim.num_nodes,
            &endpoints,
            scenario.eavesdropper,
        );
        let distribution = relay_distribution(recorder);
        let duration = scenario.sim.duration.as_secs();
        let generated = recorder.originated_data_packets();
        let delivered = recorder.delivered_data_packets();
        let attacker_capture_ratio = if scenario.attack.captures_traffic() {
            capture_report(recorder, &scenario.attackers).ratio()
        } else {
            0.0
        };
        // One row per scenario flow (flow index == connection id), joining
        // the recorder's per-connection packet counters with the TCP
        // endpoints' byte/completion accounting.
        let per_flow: Vec<FlowMetrics> = scenario
            .flows
            .iter()
            .enumerate()
            .map(|(idx, flow)| {
                let conn = idx as u32;
                let counters = recorder.flow_counter(ConnectionId(conn));
                let endpoint = report.flows.get(&conn);
                let bytes_delivered = endpoint.map_or(0, |f| f.bytes_delivered);
                FlowMetrics {
                    conn,
                    src: flow.src,
                    dst: flow.dst,
                    packets_generated: counters.originated_data,
                    packets_delivered: counters.delivered_data,
                    delivery_rate: counters.delivery_rate(),
                    mean_delay: if counters.delivered_data == 0 {
                        0.0
                    } else {
                        counters.delay_sum_secs / counters.delivered_data as f64
                    },
                    bytes_delivered,
                    goodput_bytes_per_sec: if duration > 0.0 {
                        bytes_delivered as f64 / duration
                    } else {
                        0.0
                    },
                    completion_secs: endpoint.and_then(|f| f.completion_secs),
                }
            })
            .collect();
        let fairness_index = jain_fairness(
            &per_flow
                .iter()
                .map(|f| f.goodput_bytes_per_sec)
                .collect::<Vec<f64>>(),
        );
        let metrics = RunMetrics {
            participating_nodes: participating_nodes(recorder),
            mean_windowed_participants: recorder.mean_windowed_participants(10.0),
            relay_std_dev: distribution.std_dev,
            interception_ratio: interception.designated_ratio,
            highest_interception_ratio: interception.highest_ratio,
            coalition_interception_ratio: coalition_interception_ratio(scenario, recorder),
            adversary_drops: recorder.adversary_drops(),
            jammed_frames: recorder.jammed_frames(),
            attacker_capture_ratio,
            mean_delay: recorder.mean_delay_secs(),
            throughput_packets: delivered,
            throughput_bytes_per_sec: if duration > 0.0 {
                recorder.delivered_payload_bytes() as f64 / duration
            } else {
                0.0
            },
            delivery_rate: if generated == 0 {
                0.0
            } else {
                delivered as f64 / generated as f64
            },
            control_overhead: recorder.control_transmissions(),
            per_flow,
            fairness_index,
            fluid_flows: recorder.fluid_flows().len(),
            fluid_delivered_bytes: recorder.fluid_delivered_bytes(),
            data_packets_generated: generated,
            tcp_bytes_acked: tcp.bytes_acked,
            tcp_retransmissions: tcp.retransmissions,
            tcp_timeouts: tcp.timeouts,
            tcp_out_of_order: tcp.out_of_order,
            route_switches: tcp.route_switches,
            mac_collisions: recorder.collisions(),
            link_failures: recorder.link_failures(),
        };
        if cfg!(debug_assertions) {
            crate::invariants::interception_ratios_at_most_one(&metrics)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        metrics
    }

    /// Average several runs' metrics component-wise (the paper averages five
    /// repetitions per point).
    ///
    /// Per-flow rows are averaged by flow index when every run carries the
    /// same flow count (seeds of one scenario family); endpoint ids are taken
    /// from the first run.  Mismatched flow counts leave `per_flow` empty —
    /// averaging rows of different traffic matrices would be meaningless.
    pub fn average(runs: &[RunMetrics]) -> RunMetrics {
        if runs.is_empty() {
            return RunMetrics::default();
        }
        let n = runs.len() as f64;
        let avg_u = |f: &dyn Fn(&RunMetrics) -> u64| -> u64 {
            (runs.iter().map(|r| f(r) as f64).sum::<f64>() / n).round() as u64
        };
        let avg_f = |f: &dyn Fn(&RunMetrics) -> f64| -> f64 { runs.iter().map(f).sum::<f64>() / n };
        let flows = runs[0].per_flow.len();
        let per_flow: Vec<FlowMetrics> = if runs.iter().all(|r| r.per_flow.len() == flows) {
            (0..flows)
                .map(|i| {
                    let avg_fu = |f: &dyn Fn(&FlowMetrics) -> u64| -> u64 {
                        (runs.iter().map(|r| f(&r.per_flow[i]) as f64).sum::<f64>() / n).round()
                            as u64
                    };
                    let avg_ff = |f: &dyn Fn(&FlowMetrics) -> f64| -> f64 {
                        runs.iter().map(|r| f(&r.per_flow[i])).sum::<f64>() / n
                    };
                    let completions: Vec<f64> = runs
                        .iter()
                        .filter_map(|r| r.per_flow[i].completion_secs)
                        .collect();
                    FlowMetrics {
                        conn: runs[0].per_flow[i].conn,
                        src: runs[0].per_flow[i].src,
                        dst: runs[0].per_flow[i].dst,
                        packets_generated: avg_fu(&|f| f.packets_generated),
                        packets_delivered: avg_fu(&|f| f.packets_delivered),
                        delivery_rate: avg_ff(&|f| f.delivery_rate),
                        mean_delay: avg_ff(&|f| f.mean_delay),
                        bytes_delivered: avg_fu(&|f| f.bytes_delivered),
                        goodput_bytes_per_sec: avg_ff(&|f| f.goodput_bytes_per_sec),
                        completion_secs: if completions.len() == runs.len() {
                            Some(completions.iter().sum::<f64>() / n)
                        } else {
                            None
                        },
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        RunMetrics {
            participating_nodes: (runs
                .iter()
                .map(|r| r.participating_nodes as f64)
                .sum::<f64>()
                / n)
                .round() as usize,
            mean_windowed_participants: avg_f(&|r| r.mean_windowed_participants),
            relay_std_dev: avg_f(&|r| r.relay_std_dev),
            interception_ratio: avg_f(&|r| r.interception_ratio),
            highest_interception_ratio: avg_f(&|r| r.highest_interception_ratio),
            coalition_interception_ratio: avg_f(&|r| r.coalition_interception_ratio),
            adversary_drops: avg_u(&|r| r.adversary_drops),
            jammed_frames: avg_u(&|r| r.jammed_frames),
            attacker_capture_ratio: avg_f(&|r| r.attacker_capture_ratio),
            mean_delay: avg_f(&|r| r.mean_delay),
            throughput_packets: avg_u(&|r| r.throughput_packets),
            throughput_bytes_per_sec: avg_f(&|r| r.throughput_bytes_per_sec),
            delivery_rate: avg_f(&|r| r.delivery_rate),
            control_overhead: avg_u(&|r| r.control_overhead),
            per_flow,
            fairness_index: avg_f(&|r| r.fairness_index),
            fluid_flows: (runs.iter().map(|r| r.fluid_flows as f64).sum::<f64>() / n).round()
                as usize,
            fluid_delivered_bytes: avg_u(&|r| r.fluid_delivered_bytes),
            data_packets_generated: avg_u(&|r| r.data_packets_generated),
            tcp_bytes_acked: avg_u(&|r| r.tcp_bytes_acked),
            tcp_retransmissions: avg_u(&|r| r.tcp_retransmissions),
            tcp_timeouts: avg_u(&|r| r.tcp_timeouts),
            tcp_out_of_order: avg_u(&|r| r.tcp_out_of_order),
            route_switches: avg_u(&|r| r.route_switches),
            mac_collisions: avg_u(&|r| r.mac_collisions),
            link_failures: avg_u(&|r| r.link_failures),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use manet_netsim::{EventQueue, Observation, SimConfig, SimTime};
    use manet_wire::{
        BroadcastId, ConnectionId, DataPacket, NetPacket, NodeId, PacketId, RouteRequest, SeqNo,
        TcpSegment,
    };

    /// A 1000-byte data segment of `conn` with id `id`, from node 0 to node 9.
    fn data(id: u64, conn: u32) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(conn), 0, 0, 1000);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }

    /// Originate `packet` at node 0 at time 0, and deliver it at `at`.
    fn originate_and_deliver(rec: &mut Recorder, packet: &DataPacket, at: SimTime) {
        let (src, dst) = (packet.src, packet.dst);
        rec.observe(SimTime::ZERO, Observation::Originate { node: src, packet });
        rec.observe(
            at,
            Observation::Deliver {
                node: dst,
                from: src,
                packet,
            },
        );
    }

    fn small_scenario() -> Scenario {
        let mut sim = SimConfig::default();
        sim.num_nodes = 10;
        Scenario::from_sim(Protocol::Mts, sim)
    }

    fn recorder_with_traffic() -> Recorder {
        let mut rec = Recorder::new();
        for id in 0..10u64 {
            let packet = &data(id, 0);
            rec.observe(
                SimTime::ZERO,
                Observation::Originate {
                    node: NodeId(0),
                    packet,
                },
            );
        }
        for id in 0..8u64 {
            let packet = &data(id, 0);
            rec.observe(
                SimTime::ZERO,
                Observation::Relay {
                    node: NodeId(3),
                    packet,
                },
            );
            let at = SimTime::from_secs(1.0 + id as f64 * 0.01);
            rec.observe(
                at,
                Observation::Deliver {
                    node: NodeId(9),
                    from: NodeId(3),
                    packet,
                },
            );
        }
        let rreq = NetPacket::Rreq(RouteRequest {
            source: NodeId(0),
            destination: NodeId(9),
            broadcast_id: BroadcastId(0),
            hop_count: 0,
            route: vec![],
            dest_seqno: SeqNo(0),
            source_seqno: SeqNo(0),
        });
        let obs = Observation::TxStart {
            node: NodeId(0),
            packet: &rreq,
            bytes: 44,
            events: &EventQueue::default(),
        };
        rec.observe(SimTime::ZERO, obs);
        rec
    }

    #[test]
    fn extraction_computes_paper_metrics() {
        let scenario = small_scenario();
        let rec = recorder_with_traffic();
        let mut report = TcpRunReport::default();
        report.aggregate.bytes_acked = 8000;
        let m = RunMetrics::extract(&scenario, &rec, &report);
        assert_eq!(m.participating_nodes, 1);
        assert_eq!(m.throughput_packets, 8);
        assert!((m.delivery_rate - 0.8).abs() < 1e-12);
        assert_eq!(m.control_overhead, 1);
        assert!(m.mean_delay > 0.9);
        assert_eq!(m.tcp_bytes_acked, 8000);
        assert!(m.throughput_bytes_per_sec > 0.0);
        // The single flow's row mirrors the aggregates; a single flow is
        // perfectly fair by definition... but a zero-goodput report (no
        // receiver bytes recorded here) pins fairness at 0.
        assert_eq!(m.per_flow.len(), 1);
        assert_eq!(m.per_flow[0].packets_delivered, 8);
        assert!((m.per_flow[0].delivery_rate - 0.8).abs() < 1e-12);
        assert_eq!(m.fairness_index, 0.0);
    }

    #[test]
    fn per_flow_rows_join_recorder_and_tcp_report() {
        let mut sim = SimConfig::default();
        sim.num_nodes = 10;
        let mut scenario = Scenario::from_sim(Protocol::Mts, sim);
        scenario.flows = vec![
            crate::scenario::TrafficFlow::bulk(NodeId(0), NodeId(9)),
            crate::scenario::TrafficFlow::bulk(NodeId(1), NodeId(9)),
        ];
        scenario.eavesdropper = Some(NodeId(5));
        let mut rec = Recorder::new();
        for (conn, ids) in [(0u32, 0..4u64), (1u32, 100..108u64)] {
            for id in ids {
                originate_and_deliver(&mut rec, &data(id, conn), SimTime::from_secs(1.0));
            }
        }
        let mut report = TcpRunReport::default();
        for (conn, bytes) in [(0u32, 4000u64), (1, 8000)] {
            report.flows.insert(
                conn,
                crate::stack::FlowTcpStats {
                    bytes_delivered: bytes,
                    ..Default::default()
                },
            );
        }
        let m = RunMetrics::extract(&scenario, &rec, &report);
        assert_eq!(m.per_flow.len(), 2);
        assert_eq!(m.per_flow[0].packets_delivered, 4);
        assert_eq!(m.per_flow[1].packets_delivered, 8);
        assert_eq!(m.per_flow[0].bytes_delivered, 4000);
        assert_eq!(m.per_flow[1].bytes_delivered, 8000);
        assert!((m.per_flow[0].mean_delay - 1.0).abs() < 1e-12);
        // Jain over goodputs (1:2 split of two flows) = 9/10.
        assert!((m.fairness_index - 0.9).abs() < 1e-12);
        // The per-flow packet counters sum to the aggregates.
        assert_eq!(
            m.per_flow.iter().map(|f| f.packets_delivered).sum::<u64>(),
            m.throughput_packets
        );
    }

    #[test]
    fn jain_fairness_bounds() {
        assert_eq!(jain_fairness(&[]), 0.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let skewed = jain_fairness(&[10.0, 1.0, 1.0]);
        assert!(skewed > 0.0 && skewed < 1.0);
    }

    #[test]
    fn averaging_is_componentwise() {
        let a = RunMetrics {
            participating_nodes: 4,
            delivery_rate: 0.5,
            control_overhead: 100,
            fairness_index: 0.6,
            ..Default::default()
        };
        let b = RunMetrics {
            participating_nodes: 8,
            delivery_rate: 1.0,
            control_overhead: 300,
            fairness_index: 1.0,
            ..Default::default()
        };
        let avg = RunMetrics::average(&[a, b]);
        assert_eq!(avg.participating_nodes, 6);
        assert!((avg.delivery_rate - 0.75).abs() < 1e-12);
        assert_eq!(avg.control_overhead, 200);
        assert!((avg.fairness_index - 0.8).abs() < 1e-12);
        assert_eq!(RunMetrics::average(&[]), RunMetrics::default());
    }

    #[test]
    fn averaging_joins_per_flow_rows_by_index() {
        let row = |goodput: f64, completion: Option<f64>| FlowMetrics {
            conn: 0,
            src: NodeId(0),
            dst: NodeId(9),
            packets_generated: 10,
            packets_delivered: 8,
            delivery_rate: 0.8,
            mean_delay: 1.0,
            bytes_delivered: 8000,
            goodput_bytes_per_sec: goodput,
            completion_secs: completion,
        };
        let a = RunMetrics {
            per_flow: vec![row(100.0, Some(10.0))],
            ..Default::default()
        };
        let b = RunMetrics {
            per_flow: vec![row(300.0, Some(20.0))],
            ..Default::default()
        };
        let avg = RunMetrics::average(&[a.clone(), b]);
        assert_eq!(avg.per_flow.len(), 1);
        assert!((avg.per_flow[0].goodput_bytes_per_sec - 200.0).abs() < 1e-12);
        assert_eq!(avg.per_flow[0].completion_secs, Some(15.0));
        // Mismatched flow counts leave the per-flow table empty.
        let c = RunMetrics::default();
        assert!(RunMetrics::average(&[a, c]).per_flow.is_empty());
    }
}
