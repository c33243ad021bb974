//! Replay contract of the bounded model checker (`manet_mck`, see
//! docs/VERIFICATION.md).
//!
//! Four guarantees are pinned here, end to end through the full protocol
//! stack:
//!
//! 1. Every counterexample the explorer emits **replays byte-identically**:
//!    feeding the returned [`ChoiceTrace`] back through the concrete engine
//!    reproduces the violating run's fingerprint — with telemetry off *and*
//!    on (telemetry is observational, never causal).
//! 2. The stock hunt's minimal counterexample is pinned as a **golden
//!    regression**: the same schedule, choice count, violation and
//!    fingerprint come back on every commit.  Regenerate after an
//!    intentional engine change with
//!    `GOLDEN_REGEN=1 cargo test --release --test explore -- --nocapture`.
//! 3. A `Drop` intervention is the engine's message-omission fault: it is
//!    accounted as a `schedule_drop` (never blamed on the MAC or the
//!    adversary) and surfaces through the telemetry stream.
//! 4. Zero adversarial choices means **zero perturbation**: an unforced
//!    explored schedule is trace-identical to the plain serial engine run,
//!    whatever the seed or horizon, with or without a fluid background
//!    (property-tested).

use manet_experiments::runner::{run_with, RunOptions};
use manet_experiments::Protocol;
use manet_mck::{
    blackhole_corridor, explore, outcome_digest, run_with_trace, ChoiceTrace, ExploreSpec,
    Invariant, ScheduleAction, Verdict,
};
use manet_netsim::telemetry::event::DropKind;
use manet_netsim::{DropReason, Duration, FluidConfig, TelemetryConfig, TraceEvent, TraceMode};
use proptest::prelude::*;

/// One reorder quantum, matching `reproduce explore`.
fn delay() -> Duration {
    Duration::from_secs(0.002)
}

/// The stock hunt of `reproduce explore`: plain MTS on the blackhole
/// corridor, asking whether any schedule pushes the black hole's absorption
/// past the bound the unforced run respects.
fn hunt_spec() -> ExploreSpec {
    ExploreSpec {
        scenario: blackhole_corridor(Protocol::Mts, 8, 2.0, 9),
        horizon: 12,
        max_interventions: 2,
        budget: 2000,
        delay: delay(),
        kinds: vec!["DATA"],
        invariant: Invariant::CaptureAtMost(0.65),
    }
}

/// FNV-1a over the Debug rendering of every trace event (same digest as
/// `tests/golden_trace.rs`).
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

// ---------------------------------------------------------------------------
// 1. + 2.  Counterexamples replay byte-identically; the minimal trace is a
//          pinned golden regression.
// ---------------------------------------------------------------------------

/// The minimal counterexample of the stock hunt, measured at the PR that
/// introduced the explorer: delaying the first two endpoint-to-endpoint DATA
/// deliveries pushes TCP onto the forged route, raising the black hole's
/// absorption from 0.55 (unforced) to 0.75.
const GOLDEN_MIN_ACTIONS: [(u32, ScheduleAction); 2] =
    [(0, ScheduleAction::Delay), (1, ScheduleAction::Delay)];
/// Depends on `outcome_digest`'s hash function as well as on the run (see
/// docs/VERIFICATION.md, "What the fingerprint hashes"); what does not is
/// [`PINNED_SEARCH_STATS`] below.
const GOLDEN_FINGERPRINT: u64 = 0x45ac_2b44_4bc6_d83a;

#[test]
fn stock_hunt_counterexample_is_minimal_pinned_and_replays_byte_identically() {
    let spec = hunt_spec();
    let report = explore(&spec);
    let v = match report.verdict {
        Verdict::Violated(v) => v,
        other => panic!("stock hunt must find a violation, got {other:?}"),
    };
    if std::env::var("GOLDEN_REGEN").is_ok() {
        println!("actions: {:?}", v.trace.actions);
        println!("choice_count: {}", v.choice_count);
        println!("fingerprint: {:#018x}", v.state_hash);
        println!("reason: {}", v.reason);
        return;
    }
    assert_eq!(
        v.trace.actions, GOLDEN_MIN_ACTIONS,
        "minimal schedule drifted"
    );
    assert_eq!(v.choice_count, 2);
    assert_eq!(v.state_hash, GOLDEN_FINGERPRINT, "violating run drifted");

    // Replay without telemetry: the explorer's own step function.
    let plain = run_with_trace(&spec.scenario, &v.trace);
    assert_eq!(
        outcome_digest(&plain),
        v.state_hash,
        "plain replay diverged"
    );
    assert!(
        spec.invariant.check(&plain.recorder).is_err(),
        "replay must still violate the invariant"
    );
    // Corridors never move: a node scans for its first transmission and
    // answers every later one from its neighbourhood cache.
    let perf = plain.recorder.engine_perf();
    let scans = perf.neighbor_queries - perf.neighbor_cache_hits;
    assert!(scans <= 8, "{scans} scans for 8 pinned nodes: {perf:?}");
    assert!(perf.neighbor_cache_hits > scans, "{perf:?}");

    // Replay with the telemetry stream on: observational, so the fingerprint
    // must not move, and the NDJSON-renderable event stream must exist.
    let traced = spec.scenario.clone().with_telemetry(TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    });
    let observed = run_with_trace(&traced, &v.trace);
    assert_eq!(
        outcome_digest(&observed),
        v.state_hash,
        "telemetry-on replay diverged"
    );
    assert!(
        !observed.recorder.telemetry.events().is_empty(),
        "telemetry replay must emit the event stream"
    );
}

/// `(runs, distinct_states, dedup_hits, max_eligible_seen)` of two proofs
/// shaped like the benchmark's `explore_schedules`, by corridor seed.  A
/// fingerprint's value may change with its hash function; the partition of
/// runs into states may not, and these numbers move if it does: a coarser
/// one lowers `distinct_states` on the connected corridor (seed 1), a finer
/// one lowers `dedup_hits` on the two-choice-point corridor (seed 3).
const PINNED_SEARCH_STATS: [(u64, (u64, u64, u64, u64)); 2] =
    [(1, (111, 51, 0, 2065)), (3, (7, 3, 4, 2))];

#[test]
fn search_statistics_survive_a_fingerprint_change() {
    for (seed, pinned) in PINNED_SEARCH_STATS {
        let report = explore(&ExploreSpec {
            scenario: blackhole_corridor(Protocol::MtsHardened, 6, 2.0, seed),
            horizon: 5,
            max_interventions: 3,
            budget: u64::MAX,
            delay: delay(),
            kinds: vec!["DATA"],
            invariant: Invariant::CaptureAtMost(1.0),
        });
        assert!(matches!(report.verdict, Verdict::Proved));
        assert_eq!(
            (
                report.runs,
                report.distinct_states,
                report.dedup_hits,
                report.max_eligible_seen
            ),
            pinned,
            "(runs, distinct_states, dedup_hits, max_eligible_seen) at seed {seed}"
        );
    }
}

#[test]
fn stock_proof_holds_exhaustively_at_n6() {
    let mut spec = hunt_spec();
    spec.scenario = blackhole_corridor(Protocol::MtsHardened, 6, 2.0, 9);
    spec.invariant = Invariant::CaptureAtMost(0.25);
    let report = explore(&spec);
    assert!(
        matches!(report.verdict, Verdict::Proved),
        "hardened MTS must keep the capture bound over the whole schedule class, got {:?}",
        report.verdict
    );
    assert!(report.runs > 1, "a proof must actually explore the class");
}

// ---------------------------------------------------------------------------
// 3.  Drop interventions are schedule drops, visible in telemetry.
// ---------------------------------------------------------------------------

#[test]
fn drop_intervention_is_accounted_as_schedule_drop() {
    let scenario = blackhole_corridor(Protocol::Mts, 8, 2.0, 9).with_telemetry(TelemetryConfig {
        enabled: true,
        window_secs: None,
        trace_packet: None,
    });
    let trace = ChoiceTrace {
        actions: vec![(0, ScheduleAction::Drop)],
        horizon: 12,
        delay: delay(),
        kinds: vec!["DATA"],
    };
    let outcome = run_with_trace(&scenario, &trace);
    assert_eq!(
        outcome.recorder.drops(DropReason::ScheduleDrop),
        1,
        "exactly the scripted omission must be recorded"
    );
    let schedule_drops = outcome
        .recorder
        .telemetry
        .events()
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                manet_netsim::telemetry::TelemetryEvent::Drop {
                    reason: DropKind::ScheduleDrop,
                    ..
                }
            )
        })
        .count();
    assert_eq!(schedule_drops, 1, "the omission must surface in telemetry");
    assert_eq!(
        outcome.log.points.first().map(|p| p.action),
        Some(Some(ScheduleAction::Drop))
    );
}

/// One pinned replay on the plain-MTS corridor with RREQ broadcasts and
/// DATA unicasts both open to intervention.
struct ReplayPin {
    actions: &'static [(u32, ScheduleAction)],
    /// `ChoiceRecord::broadcast` of each intervened slot, in order.
    broadcast: &'static [bool],
    trace_digest: u64,
    trace_len: usize,
    delivered: u64,
    schedule_drops: u64,
}

/// Replay A: a broadcast drop, a unicast delay and a unicast drop.  Replay
/// B: a broadcast delay and a broadcast drop.  The other intervening tests
/// open only DATA or RREP, so these are the pins on the broadcast branch of
/// the choice hook.
const REPLAY_PINS: [ReplayPin; 2] = [
    ReplayPin {
        actions: &[
            (0, ScheduleAction::Drop),
            (3, ScheduleAction::Delay),
            (5, ScheduleAction::Drop),
        ],
        broadcast: &[true, false, false],
        trace_digest: 19267026171422074,
        trace_len: 4050,
        delivered: 1027,
        schedule_drops: 2,
    },
    ReplayPin {
        actions: &[(0, ScheduleAction::Delay), (1, ScheduleAction::Drop)],
        broadcast: &[true, true],
        trace_digest: 17103747277753462336,
        trace_len: 33,
        delivered: 1,
        schedule_drops: 1,
    },
];

#[test]
fn broadcast_and_unicast_interventions_replay_to_their_pins() {
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let scenario = blackhole_corridor(Protocol::Mts, 8, 2.0, 9);
    for pin in &REPLAY_PINS {
        let actions = pin.actions;
        let trace = ChoiceTrace {
            actions: actions.to_vec(),
            horizon: 8,
            delay: delay(),
            kinds: vec!["RREQ", "DATA"],
        };
        let outcome = run_with_trace(&scenario, &trace);
        let recorder = &outcome.recorder;
        let row = (
            trace_digest(recorder.trace()),
            recorder.trace().len(),
            recorder.delivered_data_packets(),
            recorder.drops(DropReason::ScheduleDrop),
        );
        let intervened: Vec<bool> = outcome
            .log
            .points
            .iter()
            .filter(|p| p.action.is_some())
            .map(|p| p.broadcast)
            .collect();
        if regen {
            println!("{actions:?}: {row:?}, broadcast {intervened:?}");
            continue;
        }
        assert_eq!(
            intervened, pin.broadcast,
            "{actions:?}: the intervened slots changed branch"
        );
        assert_eq!(
            row,
            (
                pin.trace_digest,
                pin.trace_len,
                pin.delivered,
                pin.schedule_drops
            ),
            "{actions:?}: (trace digest, trace length, delivered, schedule drops) drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// 4.  Zero choices == zero perturbation (property-tested).
// ---------------------------------------------------------------------------

proptest! {
    /// An explored schedule with no interventions is byte-identical to the
    /// plain serial engine run: same trace, same counters.  This is the
    /// soundness anchor of the whole search — the root of every explore tree
    /// IS the unforced run.  Half the draws put a small generated fluid
    /// background under the corridor, so the hook also meets the fluid
    /// layer's epoch events and busy pulses.
    #[test]
    fn unforced_schedule_matches_the_plain_engine(
        seed in 1u64..200,
        horizon in 0u32..32,
        n in 4u16..9,
        fluid in any::<bool>(),
    ) {
        let mut scenario = blackhole_corridor(Protocol::Mts, n, 1.0, seed);
        if fluid {
            scenario = scenario.with_background(FluidConfig {
                flows: 3,
                arrival_spread: Duration::from_secs(0.5),
                ..FluidConfig::default()
            });
        }
        let trace = TraceMode::Keep;
        let (_, plain) = run_with(&scenario, RunOptions { trace, ..RunOptions::default() });
        let hooked = run_with_trace(
            &scenario,
            &ChoiceTrace::unforced(horizon, delay(), vec!["RREQ", "RREP", "DATA"]),
        );
        prop_assert_eq!(trace_digest(plain.trace()), trace_digest(hooked.recorder.trace()));
        prop_assert_eq!(plain.trace().len(), hooked.recorder.trace().len());
        prop_assert_eq!(
            plain.originated_data_packets(),
            hooked.recorder.originated_data_packets()
        );
        prop_assert_eq!(
            plain.delivered_data_packets(),
            hooked.recorder.delivered_data_packets()
        );
        prop_assert_eq!(plain.total_drops(), hooked.recorder.total_drops());
        prop_assert_eq!(plain.collisions(), hooked.recorder.collisions());
    }
}
