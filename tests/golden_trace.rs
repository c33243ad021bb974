//! Golden-trace pinning for the paper scenarios.
//!
//! The PR 5 connection-table refactor (and any future stack change) must keep
//! single-flow paper runs **byte-identical**: the same transmissions, the same
//! deliveries, the same MAC outcomes at the same times.  These tests pin a
//! digest of the full recorder trace — generated from the pre-refactor stack —
//! so a behavioural change anywhere in wire/netsim/routing/transport/stack
//! shows up as a digest mismatch instead of silently shifting the figures.
//!
//! To regenerate after an *intentional* behaviour change, run
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use manet_experiments::runner::{run_with, RunOptions};
use manet_experiments::{Placement, Protocol, RunMetrics, Scenario, TrafficFlow};
use manet_netsim::{
    Ctx, Duration, NodeStack, Position, Recorder, SimConfig, TimerToken, TraceEvent, TraceMode,
};
use manet_wire::{Frame, NetPacket, NodeId, SharedPacket};
use std::cell::RefCell;
use std::hash::Hasher;

/// Run `scenario` keeping the full event trace.
fn run_traced(scenario: &Scenario) -> (RunMetrics, Recorder) {
    let trace = TraceMode::Keep;
    run_with(
        scenario,
        RunOptions {
            trace,
            ..RunOptions::default()
        },
    )
}

/// FNV-1a over the Debug rendering of every trace event: stable across runs
/// (no randomized hashers) and sensitive to any reordering, retiming or
/// kind/size change of any transmission.
fn trace_digest(trace: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = String::new();
    for ev in trace {
        buf.clear();
        use std::fmt::Write as _;
        let _ = write!(buf, "{ev:?}");
        for b in buf.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Everything one golden row pins about a run.
#[derive(Debug, PartialEq)]
struct GoldenRow {
    scenario: &'static str,
    protocol: Protocol,
    trace_digest: u64,
    trace_len: usize,
    originated: u64,
    delivered: u64,
    control_tx: u64,
    collisions: u64,
    link_failures: u64,
    bytes_acked: u64,
    bytes_delivered: u64,
}

/// The scenario a [`GoldenRow`] pins: `"paper"` is the paper environment
/// (10 m/s, seed 1, 30 s), `"diamond"` the hand-placed topology of
/// `examples/route_discovery_trace.rs` (source 0 and destination 3 joined
/// through relays 1 and 2, a longer path over relay 4, 12 s), and `"storm"`
/// 20 random-pair flows over 200 nodes (10 m/s, seed 1, 5 s) on MTS: ~7 000
/// RREQ relays and ~900 RERRs, so it pins the flood-relay and route-error
/// paths that single-flow runs barely reach.
fn golden_scenario(label: &str, protocol: Protocol) -> Scenario {
    match label {
        "paper" => {
            let mut scenario = Scenario::paper(protocol, 10.0, 1);
            scenario.sim.duration = Duration::from_secs(30.0);
            scenario
        }
        "diamond" => {
            let mut sim = SimConfig::default();
            sim.num_nodes = 5;
            sim.duration = Duration::from_secs(12.0);
            sim.mobility.max_speed = 0.0;
            let flow = TrafficFlow::bulk(NodeId(0), NodeId(3));
            let mut scenario = Scenario::custom(protocol, sim, vec![flow]);
            scenario.placement = Placement::Static(vec![
                Position::new(0.0, 0.0),
                Position::new(200.0, 130.0),
                Position::new(200.0, -130.0),
                Position::new(400.0, 0.0),
                Position::new(120.0, 240.0),
            ]);
            scenario
        }
        "storm" => {
            let mut scenario = Scenario::random_pairs(protocol, 200, 20, 10.0, 1);
            scenario.sim.duration = Duration::from_secs(5.0);
            scenario
        }
        other => panic!("no golden scenario labelled {other}"),
    }
}

/// The golden row of one run of `golden_scenario(scenario, protocol)`.
fn golden_row(
    scenario: &'static str,
    protocol: Protocol,
    metrics: &RunMetrics,
    recorder: &Recorder,
) -> GoldenRow {
    GoldenRow {
        scenario,
        protocol,
        trace_digest: trace_digest(recorder.trace()),
        trace_len: recorder.trace().len(),
        originated: recorder.originated_data_packets(),
        delivered: recorder.delivered_data_packets(),
        control_tx: recorder.control_transmissions(),
        collisions: recorder.collisions(),
        link_failures: recorder.link_failures(),
        bytes_acked: metrics.tcp_bytes_acked,
        bytes_delivered: recorder.delivered_payload_bytes(),
    }
}

fn measure(scenario: &'static str, protocol: Protocol) -> GoldenRow {
    let (metrics, recorder) = run_traced(&golden_scenario(scenario, protocol));
    golden_row(scenario, protocol, &metrics, &recorder)
}

/// Measured from the pre-refactor (PR 4) single-flow stack: paper scenario,
/// 10 m/s, seed 1, 30 simulated seconds.  The diamond row was measured from
/// the simulator the route-discovery example assembled by hand before it
/// became a `Scenario`, so it pins the two assemblies as equal.  The storm
/// row (200 nodes, 20 flows, 5 s) pins MTS's route-error rule, the one AODV
/// follows: a node passes on a RERR naming only the listed routes it lost
/// through the sender (`RoutingTable::invalidate_listed`), not the whole list
/// it received.
const GOLDEN: [GoldenRow; 5] = [
    GoldenRow {
        scenario: "paper",
        protocol: Protocol::Dsr,
        trace_digest: 16152132416890033848,
        trace_len: 15983,
        originated: 1017,
        delivered: 1015,
        control_tx: 179,
        collisions: 1483,
        link_failures: 47,
        bytes_acked: 917000,
        bytes_delivered: 1015000,
    },
    GoldenRow {
        scenario: "paper",
        protocol: Protocol::Aodv,
        trace_digest: 6229608777755142515,
        trace_len: 61532,
        originated: 3159,
        delivered: 3124,
        control_tx: 587,
        collisions: 2766,
        link_failures: 12,
        bytes_acked: 3057000,
        bytes_delivered: 3124000,
    },
    GoldenRow {
        scenario: "paper",
        protocol: Protocol::Mts,
        trace_digest: 9826943569750941382,
        trace_len: 24423,
        originated: 1327,
        delivered: 1270,
        control_tx: 794,
        collisions: 542,
        link_failures: 51,
        bytes_acked: 1269000,
        bytes_delivered: 1270000,
    },
    GoldenRow {
        scenario: "diamond",
        protocol: Protocol::Mts,
        trace_digest: 1508093889572365115,
        trace_len: 19881,
        originated: 3344,
        delivered: 3326,
        control_tx: 18,
        collisions: 0,
        link_failures: 0,
        bytes_acked: 3231000,
        bytes_delivered: 3326000,
    },
    GoldenRow {
        scenario: "storm",
        protocol: Protocol::Mts,
        trace_digest: 13505917206392231394,
        trace_len: 50376,
        originated: 5091,
        delivered: 4853,
        control_tx: 8443,
        collisions: 6218,
        link_failures: 56,
        bytes_acked: 4340000,
        bytes_delivered: 4853000,
    },
];

/// Attack-matrix pin: delivered / adversary-drop counts of one hostile cell
/// per protocol variant (2 black holes, 10 m/s, seed 1, 20 s).  Together with
/// the clean-trace digests above this keeps the `reproduce attacks` numbers
/// stable across the connection-table refactor.
const GOLDEN_ATTACK: [(Protocol, u64, u64, u64); 4] = [
    (Protocol::Dsr, 5, 0, 5),
    (Protocol::Aodv, 5, 0, 5),
    (Protocol::Mts, 5, 0, 5),
    (Protocol::MtsHardened, 421, 397, 0),
];

#[test]
fn attack_matrix_cells_are_pinned_at_equal_seeds() {
    use manet_experiments::runner::run_scenario_with_recorder;
    use manet_experiments::AttackConfig;
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    for &(protocol, originated, delivered, adversary_drops) in &GOLDEN_ATTACK {
        let mut scenario =
            Scenario::paper(protocol, 10.0, 1).with_attack(AttackConfig::blackhole(2));
        scenario.sim.duration = Duration::from_secs(20.0);
        let (_, recorder) = run_scenario_with_recorder(&scenario);
        let row = (
            protocol,
            recorder.originated_data_packets(),
            recorder.delivered_data_packets(),
            recorder.adversary_drops(),
        );
        if regen {
            println!("    ({:?}, {}, {}, {}),", row.0, row.1, row.2, row.3);
            continue;
        }
        assert_eq!(
            row,
            (protocol, originated, delivered, adversary_drops),
            "{protocol}: the black-hole attack cell drifted from the pinned \
             pre-refactor numbers"
        );
    }
}

#[test]
fn paper_single_flow_runs_are_byte_identical_to_the_pre_refactor_stack() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    for golden in &GOLDEN {
        let row = measure(golden.scenario, golden.protocol);
        if regen {
            println!("    {row:#?},");
            continue;
        }
        assert_eq!(
            &row, golden,
            "{} {}: the recorder trace drifted from the pinned run (see the \
             module docs for regeneration)",
            golden.scenario, golden.protocol
        );
    }
}

/// Telemetry observes, never perturbs (docs/OBSERVABILITY.md): running the
/// same paper scenarios with the full telemetry stream ON — events, 1 s
/// sampler windows and a provenance tag — must reproduce the **same** pinned
/// digests as the telemetry-off golden rows above, while actually collecting
/// a non-empty event stream.
#[test]
fn telemetry_enabled_runs_keep_the_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return; // the pinned rows are regenerated by the test above
    }
    for golden in &GOLDEN {
        let scenario = golden_scenario(golden.scenario, golden.protocol).with_telemetry(
            manet_netsim::TelemetryConfig {
                enabled: true,
                window_secs: Some(1.0),
                trace_packet: Some((0, 0)),
            },
        );
        let (metrics, recorder) = run_traced(&scenario);
        assert_eq!(
            &golden_row(golden.scenario, golden.protocol, &metrics, &recorder),
            golden,
            "{} {}: enabling telemetry changed the pinned golden trace",
            golden.scenario,
            golden.protocol
        );
        assert!(
            !recorder.telemetry.events().is_empty(),
            "{} {}: the telemetry-on run collected no events",
            golden.scenario,
            golden.protocol
        );
    }
}

/// The fluid layer's Off-means-identical contract against the pinned
/// digests: a `background` config with **zero** fluid flows builds no fluid
/// state, draws no RNG and schedules no epoch events, so the paper runs
/// must reproduce the same golden rows byte for byte (docs/TRAFFIC.md).
#[test]
fn zero_flow_background_keeps_the_golden_digests() {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        return; // the pinned rows are regenerated by the test above
    }
    for golden in &GOLDEN {
        let scenario = golden_scenario(golden.scenario, golden.protocol).with_background(
            manet_netsim::FluidConfig {
                flows: 0,
                ..manet_netsim::FluidConfig::default()
            },
        );
        let (metrics, recorder) = run_traced(&scenario);
        assert_eq!(
            &golden_row(golden.scenario, golden.protocol, &metrics, &recorder),
            golden,
            "{} {}: a zero-flow fluid background changed the pinned golden trace",
            golden.scenario,
            golden.protocol
        );
        assert!(recorder.fluid_flows().is_empty());
    }
}

/// The flip side of the contract: with telemetry at its default (off), the
/// event buffer stays empty — the hot path pays one predictable branch per
/// observation and allocates nothing.
#[test]
fn disabled_telemetry_collects_nothing() {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1);
    scenario.sim.duration = Duration::from_secs(10.0);
    let (_, recorder) = run_traced(&scenario);
    assert!(!recorder.telemetry.enabled());
    assert!(recorder.telemetry.events().is_empty());
}

/// Everything one hostile-medium row pins: the full-trace digest plus the
/// counters the engine's jam, tunnel and rush branches move.
#[derive(Debug, PartialEq)]
struct MediumRow {
    protocol: Protocol,
    attack: &'static str,
    trace_digest: u64,
    trace_len: usize,
    delivered: u64,
    control_tx: u64,
    collisions: u64,
    jammed: u64,
    tunneled: u64,
}

/// The attack behind a [`MediumRow::attack`] label.
fn medium_attack(label: &str) -> manet_experiments::AttackConfig {
    use manet_experiments::AttackConfig;
    use manet_netsim::JamTarget;
    match label {
        "jam-control" => AttackConfig::jamming(2, JamTarget::Control, 0.8),
        "jam-data" => AttackConfig::jamming(2, JamTarget::Data, 0.8),
        "wormhole" => AttackConfig::wormhole(),
        "rushing" => AttackConfig::rushing(2),
        other => panic!("no medium attack labelled {other}"),
    }
}

fn measure_medium(protocol: Protocol, attack: &'static str) -> MediumRow {
    let mut scenario = Scenario::paper(protocol, 10.0, 1).with_attack(medium_attack(attack));
    scenario.sim.duration = Duration::from_secs(20.0);
    let (_, recorder) = run_traced(&scenario);
    MediumRow {
        protocol,
        attack,
        trace_digest: trace_digest(recorder.trace()),
        trace_len: recorder.trace().len(),
        delivered: recorder.delivered_data_packets(),
        control_tx: recorder.control_transmissions(),
        collisions: recorder.collisions(),
        jammed: recorder.jammed_frames(),
        tunneled: recorder.tunneled_frames(),
    }
}

/// The hostile medium: selective jamming of either frame class, the
/// wormhole's unicast shortcut and broadcast replay, and the rushers'
/// backoff exemption (paper scenario, 10 m/s, seed 1, 20 s).  The clean and
/// black-hole pins above never reach these engine branches.
const GOLDEN_MEDIUM: [MediumRow; 5] = [
    MediumRow {
        protocol: Protocol::Mts,
        attack: "jam-control",
        trace_digest: 6363512863085945413,
        trace_len: 39671,
        delivered: 1872,
        control_tx: 694,
        collisions: 528,
        jammed: 2108,
        tunneled: 0,
    },
    MediumRow {
        protocol: Protocol::Mts,
        attack: "jam-data",
        trace_digest: 5090625172242917199,
        trace_len: 736,
        delivered: 2,
        control_tx: 617,
        collisions: 54,
        jammed: 313,
        tunneled: 0,
    },
    MediumRow {
        protocol: Protocol::Mts,
        attack: "wormhole",
        trace_digest: 13849926513489265871,
        trace_len: 41753,
        delivered: 3268,
        control_tx: 778,
        collisions: 447,
        jammed: 0,
        tunneled: 3542,
    },
    MediumRow {
        protocol: Protocol::Mts,
        attack: "rushing",
        trace_digest: 11209226537813781865,
        trace_len: 39988,
        delivered: 2308,
        control_tx: 673,
        collisions: 638,
        jammed: 0,
        tunneled: 0,
    },
    MediumRow {
        protocol: Protocol::Dsr,
        attack: "wormhole",
        trace_digest: 14450156811751744965,
        trace_len: 16866,
        delivered: 1189,
        control_tx: 185,
        collisions: 1856,
        jammed: 0,
        tunneled: 1153,
    },
];

#[test]
fn hostile_medium_runs_are_pinned() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    for golden in &GOLDEN_MEDIUM {
        let row = measure_medium(golden.protocol, golden.attack);
        if regen {
            println!("    {row:#?},");
            continue;
        }
        assert_eq!(
            &row, golden,
            "{} under {}: the hostile-medium trace drifted from its pin",
            golden.protocol, golden.attack
        );
    }
}

/// Forwards every callback to the stack it wraps.
struct PassThrough(Box<dyn NodeStack>);

impl NodeStack for PassThrough {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.0.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.0.on_timer(ctx, token);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        self.0.on_receive(ctx, from, packet);
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        self.0.on_promiscuous(ctx, frame);
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.0.on_link_failure(ctx, next_hop, packet);
    }

    fn on_run_end(&mut self, ctx: &mut Ctx<'_>) {
        self.0.on_run_end(ctx);
    }
}

/// A stack decorator sees every node's finished stack exactly once, the
/// black-hole relays and the fluid flows' inert endpoints included, and a
/// decorator that only forwards leaves the run unchanged.
#[test]
fn a_forwarding_decorator_sees_every_node_once_and_changes_nothing() {
    use manet_experiments::AttackConfig;
    let mut blackhole =
        Scenario::paper(Protocol::MtsHardened, 10.0, 1).with_attack(AttackConfig::blackhole(2));
    blackhole.sim.duration = Duration::from_secs(10.0);
    let mut fluid = Scenario::paper(Protocol::Mts, 5.0, 1);
    fluid.sim.duration = Duration::from_secs(10.0);
    fluid.eavesdropper = None;
    fluid.flows.push(TrafficFlow::fluid(NodeId(10), NodeId(40)));
    for scenario in [blackhole, fluid] {
        let trace = TraceMode::Fingerprint;
        let (plain_metrics, plain) = run_with(
            &scenario,
            RunOptions {
                trace,
                ..RunOptions::default()
            },
        );
        let seen = RefCell::new(Vec::new());
        let decorate = |me: NodeId, stack: Box<dyn NodeStack>| -> Box<dyn NodeStack> {
            seen.borrow_mut().push(me);
            Box::new(PassThrough(stack))
        };
        let options = RunOptions {
            trace,
            decorate: Some(&decorate),
            ..RunOptions::default()
        };
        let (metrics, recorder) = run_with(&scenario, options);
        assert_eq!(metrics, plain_metrics);
        assert_eq!(
            recorder.trace_fingerprint().finish(),
            plain.trace_fingerprint().finish()
        );
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        let every_node: Vec<NodeId> = (0..scenario.sim.num_nodes).map(NodeId).collect();
        assert_eq!(seen, every_node, "each node decorated exactly once");
    }
}
