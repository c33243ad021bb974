//! Integration tests: the MTS agent running inside the discrete-event
//! simulator over small topologies, using the datagram harness from
//! `manet-routing::testkit`.

use manet_netsim::mobility::StaticPlacement;
use manet_netsim::{DropReason, Duration, Position, SimConfig};
use manet_routing::testkit::{run_routing, TestFlow};
use manet_routing::{Aodv, Dsr, RoutingAgent};
use manet_wire::NodeId;
use mts_core::{Mts, MtsConfig};

fn config(n: u16, secs: f64) -> SimConfig {
    let mut c = SimConfig::default();
    c.num_nodes = n;
    c.duration = Duration::from_secs(secs);
    c
}

#[test]
fn mts_delivers_over_a_static_chain() {
    let n = 5u16;
    let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
    let result = run_routing(
        config(n, 20.0),
        StaticPlacement::chain(n as usize, 200.0),
        &flows,
        |me| Mts::new(me, MtsConfig::default()),
    );
    assert!(result.originated > 100);
    assert!(
        result.delivery_ratio() > 0.9,
        "MTS delivery ratio too low: {} ({}/{})",
        result.delivery_ratio(),
        result.delivered,
        result.originated
    );
}

#[test]
fn mts_emits_periodic_checking_packets() {
    // Over a 20 s run with a 3 s checking period the destination should emit
    // several CHECK rounds, which show up as control transmissions of kind
    // "CHECK" in the recorder.
    let n = 4u16;
    let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
    let result = run_routing(
        config(n, 20.0),
        StaticPlacement::chain(n as usize, 200.0),
        &flows,
        |me| Mts::new(me, MtsConfig::default()),
    );
    let checks = result
        .recorder
        .control_by_kind()
        .get("CHECK")
        .copied()
        .unwrap_or(0);
    assert!(
        checks >= 3,
        "expected several checking packets, saw {checks}"
    );
}

#[test]
fn mts_uses_multiple_paths_in_a_diamond_topology() {
    // Diamond: 0 (source) - {1, 2} - 3 (destination).  Both relays are within
    // range of source and destination but not too close to each other is not
    // required; what matters is that the destination stores two disjoint paths
    // and checking packets keep both alive, so over time both relays carry
    // data or at least both paths are exercised by checking packets.
    let positions = vec![
        Position::new(0.0, 0.0),      // 0: source
        Position::new(200.0, 120.0),  // 1: upper relay
        Position::new(200.0, -120.0), // 2: lower relay
        Position::new(400.0, 0.0),    // 3: destination
    ];
    let flows = [TestFlow::simple(NodeId(0), NodeId(3))];
    let result = run_routing(
        config(4, 40.0),
        StaticPlacement::new(positions),
        &flows,
        |me| Mts::new(me, MtsConfig::default()),
    );
    assert!(
        result.delivery_ratio() > 0.9,
        "ratio={}",
        result.delivery_ratio()
    );
    // Both relays participated in the protocol: each heard at least one data
    // packet (relayed or overheard — they are all in range of each other here),
    // and checking traffic flowed.
    let heard = result.recorder.heard_counts();
    assert!(heard.get(&NodeId(1)).copied().unwrap_or(0) > 0);
    assert!(heard.get(&NodeId(2)).copied().unwrap_or(0) > 0);
    let checks = result
        .recorder
        .control_by_kind()
        .get("CHECK")
        .copied()
        .unwrap_or(0);
    assert!(checks > 0);
}

#[test]
fn mts_control_overhead_exceeds_a_silent_network() {
    // MTS keeps emitting checking packets for the whole session, so control
    // traffic grows with the run duration even on a stable topology.
    let n = 4u16;
    let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
    let short = run_routing(
        config(n, 10.0),
        StaticPlacement::chain(n as usize, 200.0),
        &flows,
        |me| Mts::new(me, MtsConfig::default()),
    );
    let long = run_routing(
        config(n, 40.0),
        StaticPlacement::chain(n as usize, 200.0),
        &flows,
        |me| Mts::new(me, MtsConfig::default()),
    );
    assert!(
        long.recorder.control_transmissions() > short.recorder.control_transmissions(),
        "control overhead should grow with session length: short={}, long={}",
        short.recorder.control_transmissions(),
        long.recorder.control_transmissions()
    );
}

#[test]
fn mts_striping_ablation_still_delivers() {
    let n = 5u16;
    let flows = [TestFlow::simple(NodeId(0), NodeId(n - 1))];
    let cfg = MtsConfig {
        concurrent_striping: true,
        ..Default::default()
    };
    let result = run_routing(
        config(n, 20.0),
        StaticPlacement::chain(n as usize, 200.0),
        &flows,
        move |me| Mts::new(me, cfg),
    );
    assert!(
        result.delivery_ratio() > 0.8,
        "ratio={}",
        result.delivery_ratio()
    );
}

/// Originated packets, control transmissions, `DiscoveryFailed` drops and
/// `NoRoute` drops of one 40 s run towards a destination out of range.
fn unreachable_counts<A: RoutingAgent + 'static>(make_agent: impl FnMut(NodeId) -> A) -> [u64; 4] {
    let flows = [TestFlow::simple(NodeId(0), NodeId(1))];
    let result = run_routing(
        config(2, 40.0),
        StaticPlacement::chain(2, 800.0),
        &flows,
        make_agent,
    );
    assert_eq!(result.delivered, 0);
    let r = &result.recorder;
    [
        result.originated,
        r.control_transmissions(),
        r.drops(DropReason::DiscoveryFailed),
        r.drops(DropReason::NoRoute),
    ]
}

#[test]
fn unreachable_destination_is_handled_gracefully() {
    // All three agents share one discovery policy: three floods 1 s apart,
    // then a 5 s hold-down, with at most 64 packets buffered for at most
    // 8 s.  So they flood, buffer, evict and give up identically.
    let runs = [
        ("DSR", unreachable_counts(Dsr::new)),
        ("AODV", unreachable_counts(Aodv::new)),
        (
            "MTS",
            unreachable_counts(|me| Mts::new(me, MtsConfig::default())),
        ),
    ];
    for (name, counts) in runs {
        assert_eq!(counts, [390, 15, 286, 66], "{name}");
    }
}
