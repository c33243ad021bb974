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

use manet_experiments::runner::run_scenario_traced;
use manet_experiments::{Protocol, Scenario};
use manet_netsim::{Duration, TraceEvent};

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

fn measure(protocol: Protocol) -> GoldenRow {
    let mut scenario = Scenario::paper(protocol, 10.0, 1);
    scenario.sim.duration = Duration::from_secs(30.0);
    let (metrics, recorder) = run_scenario_traced(&scenario);
    GoldenRow {
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

/// Measured from the pre-refactor (PR 4) single-flow stack: paper scenario,
/// 10 m/s, seed 1, 30 simulated seconds.
const GOLDEN: [GoldenRow; 3] = [
    GoldenRow {
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
        let row = measure(golden.protocol);
        if regen {
            println!("    {row:#?},");
            continue;
        }
        assert_eq!(
            &row, golden,
            "{}: the paper scenario's recorder trace drifted from the \
             pinned pre-refactor run (see the module docs for regeneration)",
            golden.protocol
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
        let mut scenario = Scenario::paper(golden.protocol, 10.0, 1).with_telemetry(
            manet_netsim::TelemetryConfig {
                enabled: true,
                window_secs: Some(1.0),
                trace_packet: Some((0, 0)),
            },
        );
        scenario.sim.duration = Duration::from_secs(30.0);
        let (metrics, recorder) = run_scenario_traced(&scenario);
        let row = GoldenRow {
            protocol: golden.protocol,
            trace_digest: trace_digest(recorder.trace()),
            trace_len: recorder.trace().len(),
            originated: recorder.originated_data_packets(),
            delivered: recorder.delivered_data_packets(),
            control_tx: recorder.control_transmissions(),
            collisions: recorder.collisions(),
            link_failures: recorder.link_failures(),
            bytes_acked: metrics.tcp_bytes_acked,
            bytes_delivered: recorder.delivered_payload_bytes(),
        };
        assert_eq!(
            &row, golden,
            "{}: enabling telemetry changed the pinned golden trace",
            golden.protocol
        );
        assert!(
            !recorder.telemetry.events().is_empty(),
            "{}: the telemetry-on run collected no events",
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
        let mut scenario =
            Scenario::paper(golden.protocol, 10.0, 1).with_background(manet_netsim::FluidConfig {
                flows: 0,
                ..manet_netsim::FluidConfig::default()
            });
        scenario.sim.duration = Duration::from_secs(30.0);
        let (metrics, recorder) = run_scenario_traced(&scenario);
        let row = GoldenRow {
            protocol: golden.protocol,
            trace_digest: trace_digest(recorder.trace()),
            trace_len: recorder.trace().len(),
            originated: recorder.originated_data_packets(),
            delivered: recorder.delivered_data_packets(),
            control_tx: recorder.control_transmissions(),
            collisions: recorder.collisions(),
            link_failures: recorder.link_failures(),
            bytes_acked: metrics.tcp_bytes_acked,
            bytes_delivered: recorder.delivered_payload_bytes(),
        };
        assert_eq!(
            &row, golden,
            "{}: a zero-flow fluid background changed the pinned golden trace",
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
    let (_, recorder) = run_scenario_traced(&scenario);
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
    let (_, recorder) = run_scenario_traced(&scenario);
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
