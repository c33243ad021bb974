//! End-to-end contracts of the telemetry stream (see docs/OBSERVABILITY.md).
//!
//! Golden-digest identity under telemetry lives in `tests/golden_trace.rs`;
//! this suite pins the *content* of the stream itself, on real scenario runs
//! through the whole stack:
//!
//! 1. **Monotonicity** — timestamps never go backwards along the stream.
//! 2. **Conservation** — per connection, payload-carrying originations equal
//!    deliveries plus terminal drops plus a non-negative in-flight residual.
//! 3. **Round-trip** — every event encodes to one NDJSON line that parses
//!    back to an identical event.
//! 4. **Provenance** — a tagged packet's trail starts at `originate` and
//!    walks the pipeline stages in simulation-time order.
//! 5. **Agreement** — the stream counts the transmissions, collisions,
//!    originations, deliveries and drops the recorder counts.

use manet_experiments::runner::run_scenario_with_recorder;
use manet_experiments::{AttackConfig, Protocol, Scenario};
use manet_netsim::telemetry::json::parse_line;
use manet_netsim::telemetry::{
    check_conservation, check_monotone, validate_lines, write_ndjson, DropKind, Stage, StringSink,
    TelemetryEvent,
};
use manet_netsim::{Duration, FxHasher, JamTarget, Recorder, TelemetryConfig};
use proptest::prelude::*;
use std::hash::Hasher;

fn telemetry_on(trace_packet: Option<(u32, u64)>) -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet,
    }
}

fn run(scenario: Scenario) -> Recorder {
    run_scenario_with_recorder(&scenario).1
}

/// Where the stream and the recorder disagree: the count of `tx_start`,
/// `collision`, payload-carrying `originate`, `deliver` with a sequence
/// number, and `drop` per reason, against the recorder's own counters.
fn stream_recorder_mismatch(recorder: &Recorder) -> Option<String> {
    let events = recorder.telemetry.events();
    let count =
        |pred: &dyn Fn(&TelemetryEvent) -> bool| events.iter().filter(|ev| pred(ev)).count() as u64;
    let mut pairs = vec![
        (
            "tx_start",
            count(&|ev| matches!(ev, TelemetryEvent::TxStart { .. })),
            recorder.control_transmissions() + recorder.data_transmissions(),
        ),
        (
            "collision",
            count(&|ev| matches!(ev, TelemetryEvent::Collision { .. })),
            recorder.collisions(),
        ),
        (
            "originate{data:true}",
            count(&|ev| matches!(ev, TelemetryEvent::Originate { data: true, .. })),
            recorder.originated_data_packets(),
        ),
        (
            "deliver{seq:Some}",
            count(&|ev| matches!(ev, TelemetryEvent::Deliver { seq: Some(_), .. })),
            recorder.delivered_data_packets(),
        ),
    ];
    for kind in DropKind::ALL {
        pairs.push((
            kind.label(),
            count(&|ev| matches!(ev, TelemetryEvent::Drop { reason, .. } if *reason == kind)),
            recorder.drops(kind),
        ));
    }
    let wrong: Vec<String> = pairs
        .into_iter()
        .filter(|(_, stream, counted)| stream != counted)
        .map(|(what, stream, counted)| format!("{what}: stream {stream}, recorder {counted}"))
        .collect();
    (!wrong.is_empty()).then(|| wrong.join("; "))
}

/// Assert the stream invariants on a recorder's collected events, and that
/// the stream agrees with the recorder's counters.
fn assert_stream_invariants(recorder: &Recorder, context: &str) {
    let events = recorder.telemetry.events();
    assert!(!events.is_empty(), "{context}: no telemetry collected");
    check_monotone(events).unwrap_or_else(|e| panic!("{context}: timestamps not monotone: {e}"));
    let ledger = check_conservation(events)
        .unwrap_or_else(|e| panic!("{context}: conservation violated: {e}"));
    assert!(
        !ledger.per_conn.is_empty(),
        "{context}: conservation ledger saw no connections"
    );
    let mut sink = StringSink::default();
    write_ndjson(events, &mut sink).expect("string sink never fails");
    let parsed = validate_lines(&sink.0)
        .unwrap_or_else(|e| panic!("{context}: NDJSON failed to round-trip: {e}"));
    assert_eq!(
        parsed.as_slice(),
        events,
        "{context}: round-tripped events differ"
    );
    if let Some(wrong) = stream_recorder_mismatch(recorder) {
        panic!("{context}: the stream disagrees with the recorder: {wrong}");
    }
}

/// The provenance trail of the tagged packet: `(stage, node, t)` in order.
fn trail(recorder: &Recorder) -> Vec<(Stage, u16, f64)> {
    recorder
        .telemetry
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::Provenance { stage, node, t, .. } => Some((*stage, *node, *t)),
            _ => None,
        })
        .collect()
}

#[test]
fn serial_paper_run_satisfies_the_stream_invariants() {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1).with_telemetry(telemetry_on(None));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    assert_stream_invariants(&recorder, "serial paper run");
    // The sampler closed at least one window per simulated second.
    let windows = recorder
        .telemetry
        .events()
        .iter()
        .filter(|ev| matches!(ev, TelemetryEvent::Window { .. }))
        .count();
    assert!(windows >= 5, "only {windows} sampler windows in 10 s");
}

#[test]
fn blackhole_multiflow_run_satisfies_the_stream_invariants() {
    let mut scenario = Scenario::random_pairs(Protocol::MtsHardened, 100, 4, 10.0, 1)
        .with_attack(AttackConfig::blackhole(2))
        .with_telemetry(telemetry_on(None));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    assert_stream_invariants(&recorder, "black-hole run");
    let events = recorder.telemetry.events();
    // One stream: globally non-decreasing time.
    for pair in events.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            a.time() <= b.time(),
            "stream out of order: {a:?} then {b:?}"
        );
    }
}

#[test]
fn jamming_run_satisfies_the_stream_invariants() {
    let mut scenario = Scenario::random_pairs(Protocol::Mts, 100, 4, 10.0, 1)
        .with_attack(AttackConfig::jamming(2, JamTarget::Data, 0.8))
        .with_telemetry(telemetry_on(None));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    assert!(
        recorder.drops(DropKind::Jammed) > 0,
        "the jammers jammed nothing"
    );
    assert_stream_invariants(&recorder, "jamming run");
}

#[test]
fn wormhole_run_satisfies_the_stream_invariants_and_traces_the_tunnel() {
    let mut scenario = Scenario::paper(Protocol::Mts, 1.0, 1)
        .with_attack(AttackConfig::wormhole())
        .with_telemetry(telemetry_on(Some(TUNNELLED)));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    assert!(recorder.tunneled_frames() > 0, "nothing crossed the tunnel");
    assert_stream_invariants(&recorder, "wormhole run");
    let trail = trail(&recorder);
    let exit = trail
        .iter()
        .position(|&(stage, ..)| stage == Stage::Tunnel)
        .unwrap_or_else(|| panic!("the tagged packet never left the tunnel: {trail:?}"));
    // It comes out at the far endpoint, which then relays or takes it.
    let (_, node, t) = trail[exit];
    let received = trail.get(exit + 1).is_some_and(|&(stage, n, u)| {
        matches!(stage, Stage::Relay | Stage::Deliver) && (n, u) == (node, t)
    });
    assert!(
        received,
        "the tunnel exit is not followed by a reception there: {trail:?}"
    );
}

/// A segment of the paper flow that crosses the wormhole in the run above.
const TUNNELLED: (u32, u64) = (0, 34_000);

/// A tagged segment lost to a full MAC queue ends its trail with a `drop`
/// stage there, like every other terminal drop.
#[test]
fn queue_overflow_of_the_tagged_packet_leaves_a_drop_stage() {
    let mut scenario = Scenario::random_pairs(Protocol::Aodv, 100, 20, 10.0, 4)
        .with_telemetry(telemetry_on(Some((2, 37_000))));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    let trail = trail(&recorder);
    // The first copy reaches node 51 and overflows its queue at once.
    let relay = trail
        .iter()
        .position(|&(stage, node, _)| (stage, node) == (Stage::Relay, 51))
        .unwrap_or_else(|| panic!("the tagged packet never reached node 51: {trail:?}"));
    let t = trail[relay].2;
    assert_eq!(
        trail.get(relay + 1),
        Some(&(Stage::Drop, 51, t)),
        "the overflow at node 51 left no drop stage: {trail:?}"
    );
    let overflowed = recorder.telemetry.events().iter().any(|ev| match *ev {
        TelemetryEvent::Drop {
            t: u,
            node,
            reason,
            conn,
            ..
        } => (u, node, reason, conn) == (t, 51, DropKind::QueueOverflow, Some(2)),
        _ => false,
    });
    assert!(overflowed, "no queue_overflow drop at node 51 at t = {t}");
}

#[test]
fn hybrid_run_windows_carry_the_fluid_ledger() {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1).with_telemetry(telemetry_on(None));
    scenario.sim.duration = Duration::from_secs(10.0);
    scenario = scenario.with_background(manet_netsim::FluidConfig {
        flows: 6,
        flow_bytes: 15_000,
        demand_bytes_per_sec: 4_000.0,
        ..manet_netsim::FluidConfig::default()
    });
    let recorder = run(scenario);
    assert_stream_invariants(&recorder, "hybrid paper run");
    let events = recorder.telemetry.events();
    // The sampler windows surface the fluid layer's per-region epoch state.
    let fluid_windows = events
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                TelemetryEvent::Window { stats, .. }
                    if !stats.fluid_demand.is_empty() && !stats.fluid_alloc.is_empty()
            )
        })
        .count();
    assert!(
        fluid_windows > 0,
        "no sampler window carried fluid demand/alloc maps"
    );
    // Analytic completions emit the same flow_complete events TCP flows do,
    // tagged with the fluid connection id and the bytes the ledger moved.
    let completions: Vec<_> = events
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::FlowComplete { conn, bytes, .. }
                if *conn >= manet_netsim::FLUID_CONN_BASE =>
            {
                Some((*conn, *bytes))
            }
            _ => None,
        })
        .collect();
    assert!(
        !completions.is_empty(),
        "bounded 15 kB fluid flows at 4 kB/s should complete within 10 s"
    );
    for (conn, bytes) in completions {
        let totals = recorder
            .fluid_flow(conn)
            .unwrap_or_else(|| panic!("no ledger for completed fluid conn {conn}"));
        assert_eq!(
            bytes, totals.delivered_bytes,
            "conn {conn}: flow_complete bytes disagree with the fluid ledger"
        );
        assert!(totals.completion_secs.is_some());
    }
}

#[test]
fn tagged_packet_walks_the_pipeline_in_order() {
    let mut scenario =
        Scenario::paper(Protocol::Mts, 10.0, 1).with_telemetry(telemetry_on(Some((0, 0))));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    let trail: Vec<(Stage, f64)> = recorder
        .telemetry
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TelemetryEvent::Provenance {
                stage,
                t,
                conn,
                seq,
                ..
            } => {
                assert_eq!((*conn, *seq), (0, 0), "provenance leaked another packet");
                Some((*stage, *t))
            }
            _ => None,
        })
        .collect();
    assert!(!trail.is_empty(), "the tagged packet left no trail");
    assert_eq!(
        trail[0].0,
        Stage::Originate,
        "trail must start at the source"
    );
    assert!(
        trail.iter().any(|(stage, _)| *stage == Stage::Deliver),
        "segment 0:0 of the paper flow is delivered within 10 s: {trail:?}"
    );
    for pair in trail.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "provenance went back in time: {trail:?}"
        );
    }
}

/// The NDJSON bytes of one fixed run, pinned by length and FxHash: the
/// in-memory event layout and the codec may change, the wire format may not.
/// A deliberate format change updates both numbers and says so.
///
/// Re-pinned when the TCP sender stopped scheduling a retransmission timer
/// event per ACK: the stream fell from 43 251 to 42 397 lines, transport
/// `timer` lines from 864 to 10, and every other line is byte-identical.
/// Checked by writing `sink.0` of this run from both trees to files and
/// running `grep -v '"ev":"timer".*"class":"transport"' old.ndjson | cmp -
/// <(grep -v '"ev":"timer".*"class":"transport"' new.ndjson)`.
#[test]
fn ndjson_bytes_of_a_fixed_run_are_pinned() {
    let mut scenario =
        Scenario::paper(Protocol::Mts, 10.0, 1).with_telemetry(telemetry_on(Some((0, 0))));
    scenario.sim.duration = Duration::from_secs(10.0);
    let recorder = run(scenario);
    let mut sink = StringSink::default();
    write_ndjson(recorder.telemetry.events(), &mut sink).expect("string sink never fails");
    let mut h = FxHasher::default();
    h.write(sink.0.as_bytes());
    assert_eq!(
        (sink.0.len(), h.finish()),
        (3_579_165, 11_441_205_876_783_383_713),
        "the NDJSON bytes moved"
    );
}

/// A v1 stream (written before the dead `shard` and `xshard` keys were
/// dropped: one line of each event kind, kept in `tests/data`) is not v2.
/// The strict parser refuses every line by naming the first legacy key, as
/// it would any unknown field; `tools/trace_summary.py` still reads it.
#[test]
fn the_strict_parser_rejects_every_v1_line_by_its_shard_key() {
    let v1 = include_str!("data/telemetry_v1.ndjson");
    let mut kinds = std::collections::BTreeSet::new();
    for line in v1.lines() {
        assert_eq!(
            parse_line(line),
            Err(r#"unknown field "shard""#.to_string()),
            "on {line}"
        );
        let v2 = line
            .replace(r#","shard":0"#, "")
            .replace(r#","xshard":0"#, "");
        let event = parse_line(&v2).unwrap_or_else(|e| panic!("{v2}: {e}"));
        assert_eq!(event.to_ndjson(), v2, "the v2 line is not canonical");
        kinds.insert(event.name());
    }
    assert_eq!(kinds.len(), 12, "the fixture holds one line of each kind");
}

/// A run with telemetry disabled must match an enabled run exactly: same
/// events processed, same counters — the recording layer adds no work to the
/// simulation itself.
#[test]
fn disabled_and_enabled_runs_agree_on_engine_perf() {
    let mut base = Scenario::paper(Protocol::Mts, 10.0, 1);
    base.sim.duration = Duration::from_secs(10.0);
    let off = run(base.clone());
    let on = run(base.with_telemetry(telemetry_on(None)));
    assert_eq!(off.telemetry.events().len(), 0);
    assert!(!on.telemetry.events().is_empty());
    assert_eq!(
        off.engine_perf(),
        on.engine_perf(),
        "telemetry changed the engine's perf counters"
    );
}

proptest! {
    /// Seed-randomized sweep of the stream invariants on small multi-flow
    /// scenarios: whatever the seed and speed, timestamps stay monotone,
    /// every connection's ledger balances, the NDJSON encoding round-trips
    /// exactly, and the stream counts what the recorder counts.
    #[test]
    fn stream_invariants_hold_for_random_scenarios(
        seed in 0u64..500,
        max_speed in 2.0f64..20.0,
    ) {
        let mut scenario = Scenario::random_pairs(Protocol::Mts, 30, 2, max_speed, seed)
            .with_telemetry(telemetry_on(None));
        scenario.sim.duration = Duration::from_secs(5.0);
        let recorder = run(scenario);
        let events = recorder.telemetry.events();
        prop_assert!(!events.is_empty());
        let monotone = check_monotone(events);
        prop_assert!(monotone.is_ok(), "monotonicity: {:?}", monotone);
        let ledger = check_conservation(events);
        prop_assert!(ledger.is_ok(), "conservation: {:?}", ledger);
        let mut sink = StringSink::default();
        write_ndjson(events, &mut sink).expect("string sink never fails");
        let parsed = validate_lines(&sink.0);
        prop_assert!(parsed.is_ok(), "round-trip: {:?}", parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.as_slice(), events);
        let wrong = stream_recorder_mismatch(&recorder);
        prop_assert!(wrong.is_none(), "stream vs recorder: {:?}", wrong);
    }
}
