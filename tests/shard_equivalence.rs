//! Determinism contract of the sharded engine (see `manet_netsim::shard`).
//!
//! Three guarantees are pinned here, end to end through the full protocol
//! stack (TCP over routing over the MAC), not just the mobility layer:
//!
//! 1. `Sharded { shards: 1, .. }` is **byte-identical** to `Serial` — same
//!    trace, same counters — on the paper scenario, a black-hole attack
//!    scenario and a multi-flow scenario.
//! 2. At a fixed shard count, the worker count **never** changes the result:
//!    `workers ∈ {1, 2, 4, 8}` replay the same trace byte for byte.
//! 3. Sharded runs populate the shard counters in
//!    [`manet_netsim::EnginePerf`] coherently.

use manet_experiments::runner::run_scenario_traced;
use manet_experiments::{AttackConfig, Protocol, Scenario};
use manet_netsim::{Duration, Execution, TraceEvent};
use proptest::prelude::*;

/// FNV-1a over the Debug rendering of every trace event (same digest as
/// `tests/golden_trace.rs`): sensitive to any reordering, retiming or
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

/// Everything a byte-identity comparison looks at: the full trace digest
/// plus the headline counters (so a digest collision cannot hide a drift).
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    trace_digest: u64,
    trace_len: usize,
    originated: u64,
    delivered: u64,
    control_tx: u64,
    collisions: u64,
    link_failures: u64,
    adversary_drops: u64,
}

fn fingerprint(scenario: &Scenario) -> RunFingerprint {
    let (_, recorder) = run_scenario_traced(scenario);
    RunFingerprint {
        trace_digest: trace_digest(recorder.trace()),
        trace_len: recorder.trace().len(),
        originated: recorder.originated_data_packets(),
        delivered: recorder.delivered_data_packets(),
        control_tx: recorder.control_transmissions(),
        collisions: recorder.collisions(),
        link_failures: recorder.link_failures(),
        adversary_drops: recorder.adversary_drops(),
    }
}

fn with_execution(mut scenario: Scenario, execution: Execution) -> Scenario {
    scenario.sim.execution = execution;
    scenario
}

fn single_shard(workers: u16) -> Execution {
    Execution::Sharded {
        shards: 1,
        workers,
        window: None,
    }
}

/// The three scenario families the determinism contract must hold on, each
/// with the worker count of its single-shard run; release builds (CI's
/// perf-smoke job) add the n = 1000 scaled scenario under a 2-worker pool, so
/// the barrier path runs threaded.
fn contract_scenarios() -> Vec<(&'static str, Scenario, u16)> {
    let mut paper = Scenario::paper(Protocol::Mts, 10.0, 1);
    paper.sim.duration = Duration::from_secs(10.0);
    let mut attack =
        Scenario::paper(Protocol::MtsHardened, 10.0, 1).with_attack(AttackConfig::blackhole(2));
    attack.sim.duration = Duration::from_secs(10.0);
    let mut multi = Scenario::random_pairs(Protocol::Mts, 100, 4, 10.0, 1);
    multi.sim.duration = Duration::from_secs(10.0);
    let mut scenarios = vec![
        ("paper", paper, 1),
        ("blackhole-attack", attack, 1),
        ("multi-flow", multi, 1),
    ];
    if !cfg!(debug_assertions) {
        let mut scaled = Scenario::scaled(Protocol::Mts, 1000, 10.0, 1);
        scaled.sim.duration = Duration::from_secs(3.0);
        scenarios.push(("scaled-1000", scaled, 2));
    }
    scenarios
}

#[test]
fn one_shard_is_byte_identical_to_serial_on_every_contract_scenario() {
    for (name, scenario, workers) in contract_scenarios() {
        let serial = fingerprint(&with_execution(scenario.clone(), Execution::Serial));
        let sharded = fingerprint(&with_execution(scenario, single_shard(workers)));
        assert_eq!(
            serial, sharded,
            "{name}: Sharded{{shards: 1}} drifted from the serial engine"
        );
    }
}

#[test]
fn worker_count_never_changes_the_trace() {
    let scenario = {
        let mut s = Scenario::paper(Protocol::Mts, 10.0, 1);
        s.sim.duration = Duration::from_secs(10.0);
        s
    };
    let runs: Vec<(u16, RunFingerprint)> = [1u16, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let execution = Execution::Sharded {
                shards: 4,
                workers,
                window: None,
            };
            (
                workers,
                fingerprint(&with_execution(scenario.clone(), execution)),
            )
        })
        .collect();
    let (_, reference) = &runs[0];
    for (workers, fp) in &runs[1..] {
        assert_eq!(
            fp, reference,
            "workers={workers} replayed a different trace than workers=1 \
             at the same shard count"
        );
    }
}

/// The CI perf-smoke cell: a hostile relay pair plus four concurrent flows
/// under genuinely parallel execution (2 shards × 2 worker threads) must
/// replay the single-worker run byte for byte — adversarial drops and
/// multi-flow contention don't weaken the determinism contract.
#[test]
fn two_worker_multi_flow_blackhole_cell_is_worker_independent() {
    let mut scenario = Scenario::random_pairs(Protocol::MtsHardened, 100, 4, 10.0, 1)
        .with_attack(AttackConfig::blackhole(2));
    scenario.sim.duration = Duration::from_secs(10.0);
    let fingerprints: Vec<RunFingerprint> = [1u16, 2]
        .into_iter()
        .map(|workers| {
            let execution = Execution::Sharded {
                shards: 2,
                workers,
                window: None,
            };
            fingerprint(&with_execution(scenario.clone(), execution))
        })
        .collect();
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "2-worker multi-flow + black-hole run drifted from the 1-worker run"
    );
}

#[test]
fn sharded_runs_report_coherent_shard_counters() {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1);
    scenario.sim.duration = Duration::from_secs(10.0);
    let scenario = with_execution(
        scenario,
        Execution::Sharded {
            shards: 4,
            workers: 2,
            window: None,
        },
    );
    let (_, recorder) = run_scenario_traced(&scenario);
    let perf = recorder.engine_perf();
    assert_eq!(perf.shards, 4);
    assert!(perf.windows > 0, "a 10 s run must cross many barriers");
    assert!(perf.window_micros > 0, "the default lookahead is non-zero");
    assert!(
        perf.shard_events_min <= perf.shard_events_max,
        "per-shard event extremes are ordered"
    );
    assert!(
        perf.shard_events_max <= perf.events_processed,
        "no shard processes more events than the whole run"
    );
    assert!(
        perf.cross_shard_announcements > 0,
        "a 50-node paper run must announce transmissions across stripes"
    );
    // The destination-mask fan-out fix: on a 4-stripe field wider than the
    // carrier-sense range, most transmissions cannot touch the far stripes,
    // so the barrier must skip (announcements × shards) applications vs the
    // old all-to-all broadcast.  The counter proves the reduction happened.
    assert!(
        perf.announcements_skipped > 0,
        "narrow transmissions must be skipped at out-of-footprint shards \
         ({} announcements, 0 skipped)",
        perf.cross_shard_announcements
    );
}

/// The determinism contract holds with telemetry ENABLED: telemetry is
/// outside the trace digest — it observes, never perturbs.  A single-shard
/// run collecting the full event stream still replays the telemetry-off
/// serial engine byte for byte, a 4-shard telemetry-on run replays the
/// 4-shard telemetry-off run byte for byte, and the wall-clock phase timers
/// show up in [`manet_netsim::EnginePerf`] without entering the equivalence
/// comparison (masked by `without_phase_timers`).
#[test]
fn telemetry_enabled_sharded_run_keeps_byte_identity_and_reports_phase_timers() {
    let telemetry = manet_netsim::TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    };
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1);
    scenario.sim.duration = Duration::from_secs(10.0);
    let serial_off = fingerprint(&with_execution(scenario.clone(), Execution::Serial));
    let one_shard_on = fingerprint(&with_execution(
        scenario.clone().with_telemetry(telemetry),
        single_shard(2),
    ));
    assert_eq!(
        one_shard_on, serial_off,
        "telemetry-on single-shard run drifted from the telemetry-off serial run"
    );
    let four_shards = Execution::Sharded {
        shards: 4,
        workers: 2,
        window: None,
    };
    let sharded_off = fingerprint(&with_execution(scenario.clone(), four_shards));
    let sharded = with_execution(scenario.with_telemetry(telemetry), four_shards);
    let (_, recorder) = run_scenario_traced(&sharded);
    let fp = RunFingerprint {
        trace_digest: trace_digest(recorder.trace()),
        trace_len: recorder.trace().len(),
        originated: recorder.originated_data_packets(),
        delivered: recorder.delivered_data_packets(),
        control_tx: recorder.control_transmissions(),
        collisions: recorder.collisions(),
        link_failures: recorder.link_failures(),
        adversary_drops: recorder.adversary_drops(),
    };
    assert_eq!(
        fp, sharded_off,
        "enabling telemetry changed the 4-shard run"
    );
    assert!(
        !recorder.telemetry.events().is_empty(),
        "the sharded run collected no telemetry"
    );
    let perf = recorder.engine_perf();
    assert!(
        perf.phase_execute_nanos > 0,
        "worker execute-phase timer is zero"
    );
    assert!(
        perf.phase_barrier_nanos > 0,
        "worker barrier-phase timer is zero"
    );
    // The timers are wall-clock (nondeterministic) and must vanish from the
    // masked view used by equivalence comparisons.
    let masked = perf.without_phase_timers();
    assert_eq!(
        (
            masked.phase_execute_nanos,
            masked.phase_barrier_nanos,
            masked.phase_apply_nanos
        ),
        (0, 0, 0)
    );
}

proptest! {
    /// Seed-randomized spot check of guarantee 1: whatever the seed and the
    /// node speed, a single-shard run replays the serial engine byte for
    /// byte on a small multi-flow scenario.
    #[test]
    fn one_shard_matches_serial_for_random_seeds(
        seed in 0u64..500,
        max_speed in 2.0f64..20.0,
    ) {
        let mut scenario = Scenario::random_pairs(Protocol::Mts, 30, 2, max_speed, seed);
        scenario.sim.duration = Duration::from_secs(5.0);
        let serial = fingerprint(&with_execution(scenario.clone(), Execution::Serial));
        let sharded = fingerprint(&with_execution(scenario, single_shard(2)));
        prop_assert_eq!(serial, sharded);
    }
}
