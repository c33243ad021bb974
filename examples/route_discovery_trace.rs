//! Route-discovery trace: run MTS on a small fixed diamond topology with the
//! event trace enabled and print every control-packet transmission, the
//! discovered disjoint paths and the periodic checking traffic.  This is the
//! executable counterpart of the paper's Figs. 1–4 (RREQ broadcast, RREP
//! unicast, non-disjoint paths, route checking).
//!
//! ```text
//! cargo run --release --example route_discovery_trace
//! ```

use manet_netsim::{Duration, Position, Recorder, SimConfig, TraceEvent, TraceMode};
use mts_repro::prelude::*;

fn main() {
    // Diamond topology: 0 (source) - {1 upper, 2 lower} - 3 (destination),
    // plus an extra relay 4 giving a third, longer path.
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(200.0, 130.0),
        Position::new(200.0, -130.0),
        Position::new(400.0, 0.0),
        Position::new(120.0, 240.0),
    ];
    let mut sim = SimConfig::default();
    sim.num_nodes = positions.len() as u16;
    sim.duration = Duration::from_secs(12.0);
    sim.mobility.max_speed = 0.0;
    let mut scenario = Scenario::custom(
        Protocol::Mts,
        sim,
        vec![TrafficFlow::bulk(NodeId(0), NodeId(3))],
    );
    scenario.placement = Placement::Static(positions);
    let options = RunOptions {
        trace: TraceMode::Keep,
        ..RunOptions::default()
    };
    let (_, recorder) = run_with(&scenario, options);

    print_trace(&recorder);
    print_summary(&recorder);
}

fn print_trace(recorder: &Recorder) {
    println!("control-plane trace (first 3 seconds):");
    for event in recorder.trace() {
        match event {
            TraceEvent::TxStart {
                node,
                kind,
                bytes,
                at,
            } => {
                if *kind != "DATA" && at.as_secs() <= 3.0 {
                    println!("  {at}  {node} sends {kind} ({bytes} B)");
                }
            }
            TraceEvent::Delivered { node, packet, at } => {
                if at.as_secs() <= 3.0 {
                    println!("  {at}  {node} delivered data packet {packet:?}");
                }
            }
            TraceEvent::LinkFailure { node, next_hop, at } => {
                println!("  {at}  {node} reports link failure towards {next_hop}");
            }
        }
    }
}

fn print_summary(recorder: &Recorder) {
    println!("\nrun summary:");
    println!(
        "  data packets delivered : {}",
        recorder.delivered_data_packets()
    );
    println!(
        "  control transmissions  : {}",
        recorder.control_transmissions()
    );
    for (kind, count) in recorder.control_by_kind() {
        println!("    {kind:<10}: {count}");
    }
    println!("  relays per node        : {:?}", {
        let mut v: Vec<(u16, u64)> = recorder
            .relay_counts()
            .iter()
            .map(|(n, c)| (n.0, *c))
            .collect();
        v.sort();
        v
    });
    println!("\nThe CHECK entries are the periodic route-checking packets the destination");
    println!("sends along every stored disjoint path (paper Fig. 4); both relays appear as");
    println!("forwarders because the source keeps switching to the freshest path.");
}
