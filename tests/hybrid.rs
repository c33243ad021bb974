//! Acceptance tests of the hybrid fluid/packet traffic engine
//! (`manet_netsim::fluid`, `docs/TRAFFIC.md`).
//!
//! Two contracts are pinned here:
//!
//! 1. **Off means identical.**  A `background` config with zero fluid flows
//!    builds no fluid state, draws no RNG and schedules no epoch events: the
//!    run is byte-identical to one with `background: None`.
//! 2. **The collapse curve survives the abstraction.**  Replacing every
//!    offered flow beyond the PR 5 goodput peak with an analytic fluid flow
//!    must reproduce the congestion-collapse shape within the documented
//!    tolerance — peak location exact at 5 flows, Jain fairness within ±0.1
//!    of the equal-load packet run at every point — while processing a small
//!    fraction of the packet engine's events.
//!
//! The curve comparison needs the release-scale packet reference runs
//! (~3M events per seed at 50 flows), so it no-ops under debug builds; CI
//! runs it via `cargo test --release --test hybrid`.

use manet_experiments::runner::{run_scenario_with_recorder, run_with, RunOptions};
use manet_experiments::{Protocol, RunMetrics, Scenario, TrafficFlow};
use manet_netsim::telemetry::{write_ndjson, StringSink};
use manet_netsim::{
    Duration, FluidConfig, FluidFlowSpec, FxHasher, Recorder, TelemetryConfig, TraceMode,
};
use manet_wire::NodeId;
use std::fmt::Debug;
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

/// The PR 5 flow axis: the goodput peak sits at 5 concurrent flows.
const FLOW_AXIS: [u16; 4] = [1, 5, 25, 50];

/// Foreground packet flows a hybrid run keeps at paper fidelity; offered
/// flows beyond this cap run through the analytic fluid layer.  Five is the
/// PR 5 goodput peak — the flows actually under study.
const FOREGROUND: u16 = 5;

/// Seeds averaged per curve point.  A single 5-flow TCP sample is a chaotic
/// observable (one timeout cascade moves Jain's index by ±0.1), so the
/// collapse-curve comparison is defined over a small seed ensemble — the
/// same protocol the paper uses for its own figures.
const ENSEMBLE_SEEDS: u64 = 3;

/// The calibrated background configuration of the collapse-curve comparison
/// (see `docs/TRAFFIC.md` for the methodology).  Demand and airtime overhead
/// are tuned so a background flow's goodput and channel footprint mimic one
/// collapsed PR 5 TCP flow: low per-flow demand (TCP flows past the peak are
/// mostly starved) and a large per-byte airtime cost (multi-hop relaying,
/// MAC framing, retries, transport acks).
fn hybrid_background() -> FluidConfig {
    FluidConfig {
        flows: 0,
        flow_bytes: 0,
        demand_bytes_per_sec: 6_000.0,
        capacity_share: 0.015,
        busy_overhead: 45.0,
        ..FluidConfig::default()
    }
}

/// `flows` random-pair flows at n = 500 for 5 simulated seconds: every flow
/// at MAC fidelity, or (`hybrid`) the first [`FOREGROUND`] of them with the
/// rest offered to the fluid layer — the same load over the same endpoints.
fn offered_load(flows: u16, seed: u64, hybrid: bool) -> Scenario {
    let mut scenario = Scenario::random_pairs(Protocol::Mts, 500, flows, 10.0, seed);
    scenario.sim.duration = Duration::from_secs(5.0);
    if hybrid {
        for flow in scenario.flows.iter_mut().skip(FOREGROUND.into()) {
            flow.fluid = true;
        }
        scenario = scenario.with_background(hybrid_background());
    }
    scenario
}

/// One point of a collapse curve: means over [`ENSEMBLE_SEEDS`] seeds.
#[derive(Debug)]
struct CurvePoint {
    flows: u16,
    /// Events the engine processed.
    events: u64,
    /// Packet goodput plus the fluid flows' delivered-byte rate, B/s.
    goodput: f64,
    /// Jain's index over all offered flows' goodputs.
    fairness: f64,
    fluid_delivered_bytes: u64,
}

fn curve_point(flows: u16, hybrid: bool) -> CurvePoint {
    let mut point = CurvePoint {
        flows,
        events: 0,
        goodput: 0.0,
        fairness: 0.0,
        fluid_delivered_bytes: 0,
    };
    for seed in 1..=ENSEMBLE_SEEDS {
        let (metrics, recorder) = run_scenario_with_recorder(&offered_load(flows, seed, hybrid));
        let goodputs = metrics.per_flow.iter().map(|f| f.goodput_bytes_per_sec);
        point.events += recorder.engine_perf().events_processed;
        point.goodput += goodputs.sum::<f64>() / ENSEMBLE_SEEDS as f64;
        point.fairness += metrics.fairness_index / ENSEMBLE_SEEDS as f64;
        point.fluid_delivered_bytes += metrics.fluid_delivered_bytes;
    }
    point.events /= ENSEMBLE_SEEDS;
    point.fluid_delivered_bytes /= ENSEMBLE_SEEDS;
    point
}

#[test]
fn zero_flow_background_is_byte_identical_to_no_background() {
    let mut baseline = Scenario::paper(Protocol::Mts, 10.0, 1);
    baseline.sim.duration = Duration::from_secs(10.0);
    let mut with_empty_background = baseline.clone().with_background(FluidConfig {
        flows: 0,
        ..hybrid_background()
    });
    with_empty_background.sim.duration = Duration::from_secs(10.0);

    let (_, base) = run_traced(&baseline);
    let (fluid_metrics, fluid) = run_traced(&with_empty_background);
    assert_eq!(
        base.trace(),
        fluid.trace(),
        "a zero-flow background config must not perturb the packet run"
    );
    assert_eq!(
        base.delivered_data_packets(),
        fluid.delivered_data_packets()
    );
    assert_eq!(fluid_metrics.fluid_flows, 0);
    assert_eq!(fluid_metrics.fluid_delivered_bytes, 0);
    assert!(fluid.fluid_flows().is_empty());
}

#[test]
fn fluid_ledger_conserves_bytes_and_completes_bounded_flows() {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1);
    scenario.eavesdropper = None; // avoid colliding with the flow endpoints
    scenario
        .flows
        .push(TrafficFlow::fluid(NodeId(10), NodeId(40)));
    scenario.sim.duration = Duration::from_secs(10.0);
    scenario = scenario.with_background(FluidConfig {
        flows: 8,
        flow_bytes: 20_000,
        ..hybrid_background()
    });
    let (metrics, recorder) = run_traced(&scenario);

    assert_eq!(
        metrics.fluid_flows, 9,
        "8 generated + 1 explicit fluid flow"
    );
    let mut completed = 0;
    for (conn, totals) in recorder.fluid_flows() {
        assert!(
            totals.delivered_bytes <= totals.offered_bytes,
            "conn {conn}: delivered {} > offered {}",
            totals.delivered_bytes,
            totals.offered_bytes
        );
        // A flow's rate never exceeds its demand, so its ledger never
        // exceeds demand x duration.
        let cap = (hybrid_background().demand_bytes_per_sec * 10.0).ceil() as u64;
        assert!(
            totals.delivered_bytes <= cap,
            "conn {conn}: delivered {} exceeds demand x duration {cap}",
            totals.delivered_bytes
        );
        if totals.completion_secs.is_some() {
            completed += 1;
            assert_eq!(
                totals.delivered_bytes, totals.offered_bytes,
                "conn {conn}: completed flows must have moved every offered byte"
            );
        }
    }
    assert!(
        completed > 0,
        "bounded 20 kB flows at 6 kB/s demand should complete within 10 s"
    );
    // The analytic ledger stays separate from the exact packet ledger: the
    // recorder's aggregate equals the per-flow fluid sum, not the packet one.
    assert_eq!(
        metrics.fluid_delivered_bytes,
        recorder
            .fluid_flows()
            .values()
            .map(|f| f.delivered_bytes)
            .sum::<u64>()
    );
    assert!(metrics.fluid_delivered_bytes > 0);
}

/// FNV-1a over the `Debug` rendering of every item (the golden-trace digest:
/// `f64` fields print their shortest round-trip form, so one changed bit in a
/// completion time moves it).
fn debug_digest<T: Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    use std::fmt::Write as _;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = String::new();
    for item in items {
        buf.clear();
        let _ = write!(buf, "{item:?}");
        for b in buf.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Pins one small hybrid run end to end: the packet trace (which the fluid
/// busy pulses shape through carrier sense) and every fluid flow's ledger
/// row, completion times included.  The background is contended (regions run
/// out, 54 of 200 flows finish), so the allocations come out of many
/// progressive-filling rounds.  The values were measured on the PR 13 engine,
/// before the PR 14 epoch kernel: a rewrite of `netsim::fluid` that changes
/// one bit of one allocation shows up here.
#[test]
fn small_hybrid_run_keeps_its_trace_and_fluid_ledger() {
    let mut scenario = Scenario::scaled(Protocol::Mts, 100, 10.0, 1);
    scenario.sim.duration = Duration::from_secs(5.0);
    scenario = scenario.with_background(FluidConfig {
        flows: 200,
        flow_bytes: 30_000,
        demand_bytes_per_sec: 40_000.0,
        capacity_share: 0.15,
        arrival_spread: Duration::from_secs(4.0),
        ..FluidConfig::default()
    });
    let (metrics, recorder) = run_traced(&scenario);
    let trace = recorder.trace();
    let completed = recorder
        .fluid_flows()
        .values()
        .filter(|f| f.completion_secs.is_some())
        .count();
    let pinned = (
        debug_digest(trace),
        trace.len(),
        debug_digest(recorder.fluid_flows()),
        metrics.fluid_delivered_bytes,
        completed,
    );
    assert_eq!(
        pinned,
        (
            4858641158121593617,
            10124,
            17623769688228130447,
            3_265_654,
            54
        )
    );
}

/// Pins a hybrid run that mixes what the single-demand pin above never
/// does: generated bounded flows at one demand beside explicit flows at two
/// others (so the max-min demand order has several keys), two explicit flows
/// arriving at one instant, unbounded flows that run to the end, moving
/// endpoints whose leg changes force epochs and resample corridors, and
/// telemetry windows carrying the per-region `fluid_demand`/`fluid_alloc`
/// maps.  Pinned: the packet trace, every fluid ledger row, the completed
/// count and the FxHash of the run's NDJSON stream.
///
/// The stream half was re-pinned when the TCP sender stopped scheduling a
/// retransmission timer event per ACK (15 016 → 14 442 lines, transport
/// `timer` lines 579 → 5); the trace and fluid digests did not move.  With
/// `sink.0` of this run written from both trees,
/// `grep -v '"ev":"timer".*"class":"transport"' old.ndjson | cmp -
/// <(grep -v '"ev":"timer".*"class":"transport"' new.ndjson)` finds every
/// other line byte-identical.
#[test]
fn mixed_demand_hybrid_run_keeps_its_trace_ledger_and_stream() {
    let spec =
        |conn: u32, (src, dst): (u16, u16), start: f64, bytes: u64, demand: f64| FluidFlowSpec {
            conn,
            src: NodeId(src),
            dst: NodeId(dst),
            start: Duration::from_secs(start),
            bytes,
            demand_bytes_per_sec: demand,
        };
    let mut scenario =
        Scenario::scaled(Protocol::Mts, 100, 10.0, 3).with_telemetry(TelemetryConfig {
            enabled: true,
            window_secs: Some(1.0),
            trace_packet: None,
        });
    scenario.sim.duration = Duration::from_secs(5.0);
    scenario = scenario.with_background(FluidConfig {
        flows: 150,
        flow_bytes: 20_000,
        demand_bytes_per_sec: 30_000.0,
        capacity_share: 0.15,
        arrival_spread: Duration::from_secs(3.0),
        explicit: vec![
            spec(1_000, (3, 70), 0.5, 25_000, 12_000.0),
            spec(1_001, (15, 42), 0.5, 0, 55_000.0),
            spec(1_002, (60, 8), 1.25, 40_000, 12_000.0),
            spec(1_003, (88, 21), 2.0, 0, 55_000.0),
        ],
        ..FluidConfig::default()
    });
    let (metrics, recorder) = run_traced(&scenario);
    let completed = recorder
        .fluid_flows()
        .values()
        .filter(|f| f.completion_secs.is_some())
        .count();
    let mut sink = StringSink::default();
    write_ndjson(recorder.telemetry.events(), &mut sink).expect("string sink never fails");
    let mut ndjson = FxHasher::default();
    ndjson.write(sink.0.as_bytes());
    let pinned = (
        debug_digest(recorder.trace()),
        debug_digest(recorder.fluid_flows()),
        metrics.fluid_delivered_bytes,
        completed,
        sink.0.len(),
        ndjson.finish(),
    );
    assert_eq!(
        pinned,
        (
            3697082810068180473,
            6412514128305459891,
            2_743_227,
            90,
            1_235_996,
            1290112394565712872
        )
    );
}

#[test]
fn hybrid_collapse_curve_stays_within_documented_tolerance() {
    if cfg!(debug_assertions) {
        eprintln!(
            "skipping: the packet reference runs are release-scale \
             (CI runs `cargo test --release --test hybrid`)"
        );
        return;
    }
    // At or below the foreground cap no flow is converted, so the hybrid run
    // is the packet run (Off means identical, at release scale).
    for flows in FLOW_AXIS.into_iter().filter(|f| *f <= FOREGROUND) {
        let (_, packet) = run_traced(&offered_load(flows, 1, false));
        let (_, hybrid) = run_traced(&offered_load(flows, 1, true));
        assert_eq!(
            packet.trace(),
            hybrid.trace(),
            "flows={flows}: a hybrid run with no converted flow must be byte-identical \
             to the packet run"
        );
    }
    let packet = FLOW_AXIS.map(|flows| curve_point(flows, false));
    let hybrid = FLOW_AXIS.map(|flows| curve_point(flows, true));

    // Goodput peak location exact: 5 flows, on both curves.
    let hybrid_peak = hybrid
        .iter()
        .max_by(|a, b| {
            a.goodput
                .partial_cmp(&b.goodput)
                .expect("goodput is finite")
        })
        .expect("non-empty axis");
    assert_eq!(
        hybrid_peak.flows,
        5,
        "the hybrid curve's goodput peak moved off the 5-flow point: {:?}",
        hybrid
            .iter()
            .map(|p| (p.flows, p.goodput.round()))
            .collect::<Vec<_>>()
    );

    // Jain fairness within +-0.1 of the equal-load packet run, per point.
    for (p, h) in packet.iter().zip(&hybrid) {
        assert_eq!(p.flows, h.flows, "axes out of step");
        let dj = (p.fairness - h.fairness).abs();
        assert!(
            dj <= 0.1,
            "flows={}: fairness drifted by {dj:.3} (packet {:.3}, hybrid {:.3}) \
             — outside the documented +-0.1 tolerance",
            p.flows,
            p.fairness,
            h.fairness
        );
    }

    // Event-count budget: <= 25% of the pure-packet engine at 50 flows.
    let (p50, h50) = (&packet[3], &hybrid[3]);
    assert_eq!((p50.flows, h50.flows), (50, 50));
    assert!(
        h50.events * 4 <= p50.events,
        "hybrid processed {} events at 50 flows — more than 25% of the \
         packet engine's {}",
        h50.events,
        p50.events
    );

    // The fluid layer actually carried the background load.
    for h in &hybrid {
        if h.flows > FOREGROUND {
            assert!(
                h.fluid_delivered_bytes > 0,
                "flows={}: the fluid background delivered nothing",
                h.flows
            );
        }
    }
}
