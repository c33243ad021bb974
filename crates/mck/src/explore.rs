//! The bounded exhaustive explorer.
//!
//! # State-space model
//!
//! One *state* is one complete deterministic run of the concrete engine
//! under a [`ChoiceTrace`] script.  The explorer searches the tree of
//! scripts: the root is the unforced schedule (zero interventions), and a
//! child extends its parent by one intervention (drop or delay) at an
//! eligible slot **strictly after** the parent's last intervention.  The
//! engine is deterministic, so a run's prefix up to a slot does not depend
//! on interventions at later slots — extending only rightward enumerates
//! every intervention set exactly once (a canonical enumeration, not a
//! heuristic pruning).
//!
//! The search deepens by intervention count (iterative deepening), so the
//! first violation found carries a **minimal** number of adversarial
//! choices.  Within the budget, exhausting the tree up to
//! `max_interventions` over `horizon` slots proves the invariant for every
//! delivery/drop/reorder schedule in that bounded class.
//!
//! State-hash deduplication (via `fasthash`) recognises runs whose full
//! behaviour (recorder trace, counters, observed choice points) coincides;
//! a duplicate's unexplored extensions are skipped only when its extension
//! window is covered by the first occurrence, so the skip is exact, never
//! heuristic.

use crate::hook::{ChoiceTrace, RunLog, ScheduleAction, ScheduleHook};
use crate::invariant::Invariant;
use manet_experiments::runner::{run_with, RunOptions};
use manet_experiments::{RunMetrics, Scenario};
use manet_netsim::fasthash::{FxHashMap, FxHasher};
use manet_netsim::telemetry::FrameKind;
use manet_netsim::{Duration, Recorder, TraceMode};
use rayon::prelude::*;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What to explore: scenario, bounds, and the property to check.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// The (serial-execution) scenario driven through the choice hook.
    pub scenario: Scenario,
    /// Number of leading eligible choice points subject to intervention.
    pub horizon: u32,
    /// Maximum interventions per schedule (search depth).
    pub max_interventions: u32,
    /// Maximum number of engine runs before giving up.
    pub budget: u64,
    /// Extra delivery delay applied by delay interventions.
    pub delay: Duration,
    /// Frame kinds eligible for intervention.
    pub kinds: Vec<&'static str>,
    /// The property checked at every explored state.
    pub invariant: Invariant,
}

impl ExploreSpec {
    /// Check that `kinds` opens at least one frame kind to intervention and
    /// names only known ones ([`FrameKind`] labels).  A label no frame
    /// carries leaves every schedule unforced, so a "proof" would cover an
    /// empty schedule class.
    pub fn validate(&self) -> Result<(), String> {
        if self.kinds.is_empty() {
            return Err("kinds is empty: no frame is open to intervention".into());
        }
        match self
            .kinds
            .iter()
            .find(|k| FrameKind::from_label(k).is_none())
        {
            Some(unknown) => Err(format!(
                "unknown frame kind {unknown:?} in kinds (known: {})",
                FrameKind::LABELS.join(" ")
            )),
            None => Ok(()),
        }
    }

    /// The complete decision script of the schedule `actions`.
    pub(crate) fn trace(&self, actions: &[(u32, ScheduleAction)]) -> ChoiceTrace {
        ChoiceTrace {
            actions: actions.to_vec(),
            horizon: self.horizon,
            delay: self.delay,
            kinds: self.kinds.clone(),
        }
    }
}

/// The final state of one scripted run.
pub struct RunOutcome {
    /// Extracted per-run metrics.
    pub metrics: RunMetrics,
    /// The raw recorder: invariants read it, and [`run_with_trace`] keeps
    /// its trace.
    pub recorder: Recorder,
    /// The choice points the script was offered.
    pub log: RunLog,
}

/// Execute `scenario` under `trace` on the concrete engine, keeping the
/// recorder trace.  This is the counterexample replay path: same trace in,
/// byte-identical run out, with the fingerprint the explorer saw.
pub fn run_with_trace(scenario: &Scenario, trace: &ChoiceTrace) -> RunOutcome {
    run_scripted(scenario, trace, TraceMode::Keep)
}

fn run_scripted(scenario: &Scenario, trace: &ChoiceTrace, mode: TraceMode) -> RunOutcome {
    let (hook, log) = ScheduleHook::new(trace);
    let options = RunOptions {
        trace: mode,
        hook: Some(Box::new(hook)),
        decorate: None,
    };
    let (metrics, recorder) = run_with(scenario, options);
    let log = log.take();
    RunOutcome {
        metrics,
        recorder,
        log,
    }
}

/// Full-run fingerprint: the recorder trace (every transmission, delivery
/// and link event in order), the conservation counters, and the observed
/// choice-point sequence (sans actions — those are script inputs, not
/// behaviour).  Runs with equal fingerprints behaved identically.
///
/// The trace part is the recorder's streamed
/// [`Recorder::trace_fingerprint`], so the value does not depend on whether
/// the run kept its trace.
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut h = outcome.recorder.trace_fingerprint();
    hash_counters_and_choice_points(outcome, &mut h);
    h.finish()
}

pub(crate) fn hash_counters_and_choice_points(outcome: &RunOutcome, h: &mut FxHasher) {
    outcome.recorder.originated_data_packets().hash(h);
    outcome.recorder.delivered_data_packets().hash(h);
    outcome.recorder.delivered_payload_bytes().hash(h);
    outcome.recorder.adversary_drops().hash(h);
    outcome.recorder.total_drops().hash(h);
    outcome.log.eligible_seen.hash(h);
    for p in &outcome.log.points {
        p.slot.hash(h);
        p.at.as_secs().to_bits().hash(h);
        p.from.hash(h);
        p.to.hash(h);
        p.kind.hash(h);
        p.broadcast.hash(h);
    }
}

/// A found invariant violation, with its replayable script.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The complete decision script that reproduces the violation.
    pub trace: ChoiceTrace,
    /// Number of adversarial interventions (minimal by search order).
    pub choice_count: u32,
    /// Human-readable description of what was violated.
    pub reason: String,
    /// Fingerprint of the violating run (replay must reproduce it).
    pub state_hash: u64,
}

/// The explorer's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every schedule in the bounded class satisfies the invariant.
    Proved,
    /// A schedule violating the invariant, minimal in choice count.
    Violated(Violation),
    /// The run budget ran out before the class was exhausted.
    BudgetExhausted,
}

/// Search statistics alongside the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    /// The answer.
    pub verdict: Verdict,
    /// Schedules run up to the verdict, in search order (a depth's
    /// schedules run in parallel, so a violation may leave some schedules
    /// after it run but not counted).
    pub runs: u64,
    /// Distinct run fingerprints seen.
    pub distinct_states: u64,
    /// Runs whose extensions were skipped as exact duplicates.
    pub dedup_hits: u64,
    /// Largest number of eligible choice points any run exposed.
    pub max_eligible_seen: u64,
}

/// What the search reads of one explored run; the run itself is dropped.
struct Step {
    eligible_seen: u64,
    state_hash: u64,
    check: Result<(), String>,
}

/// The explorer's step: run one schedule with its trace folded into the
/// fingerprint, never buffered, and keep only what the search reads.
fn step(spec: &ExploreSpec, actions: &[(u32, ScheduleAction)]) -> Step {
    let outcome = run_scripted(&spec.scenario, &spec.trace(actions), TraceMode::Fingerprint);
    Step {
        eligible_seen: outcome.log.eligible_seen,
        state_hash: outcome_digest(&outcome),
        check: spec.invariant.check(&outcome.recorder),
    }
}

/// Exhaustively explore `spec`'s schedule class (see the module docs).
///
/// Iterative deepening by intervention count: all zero-choice schedules
/// first, then one-choice, then two-choice … so the first violation
/// returned is minimal in the number of adversarial choices.
///
/// The schedules of one depth are independent runs, so they run on every
/// core; their results are then merged in frontier order, which makes the
/// report identical to a one-at-a-time search whatever the core count.
/// Each run is dropped as soon as the search has read what it needs.
///
/// # Panics
/// Panics if `spec` is invalid (see [`ExploreSpec::validate`]).
pub fn explore(spec: &ExploreSpec) -> ExploreReport {
    if let Err(e) = spec.validate() {
        panic!("invalid explore spec: {e}");
    }
    // state fingerprint -> smallest extension-window start already expanded
    // from a run with this fingerprint.
    let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
    let mut runs = 0u64;
    let mut dedup_hits = 0u64;
    let mut max_eligible = 0u64;
    let report =
        |verdict, runs, seen: &FxHashMap<u64, u32>, dedup_hits, max_eligible| ExploreReport {
            verdict,
            runs,
            distinct_states: seen.len() as u64,
            dedup_hits,
            max_eligible_seen: max_eligible,
        };

    let mut frontier: Vec<Vec<(u32, ScheduleAction)>> = vec![Vec::new()];
    for depth in 0..=spec.max_interventions {
        // The budget admits a prefix of this depth.  A schedule after a
        // violating one cannot reach the merge below, so it is skipped once
        // the violation is known.
        let admitted = (spec.budget - runs).min(frontier.len() as u64) as usize;
        let first_violation = AtomicUsize::new(usize::MAX);
        let indices: Vec<usize> = (0..admitted).collect();
        let steps: Vec<Option<Step>> = indices
            .par_iter()
            .map(|&i| {
                if i > first_violation.load(Ordering::Relaxed) {
                    return None;
                }
                let taken = step(spec, &frontier[i]);
                if taken.check.is_err() {
                    first_violation.fetch_min(i, Ordering::Relaxed);
                }
                Some(taken)
            })
            .collect();
        let mut next: Vec<Vec<(u32, ScheduleAction)>> = Vec::new();
        for (plan, step) in frontier.iter().zip(steps) {
            let step = step.expect("every schedule up to the first violation runs");
            runs += 1;
            max_eligible = max_eligible.max(step.eligible_seen);
            // The invariant is evaluated at every explored state, before any
            // deduplication: the first violation at this depth is minimal.
            if let Err(reason) = step.check {
                let violation = Violation {
                    trace: spec.trace(plan),
                    choice_count: depth,
                    reason,
                    state_hash: step.state_hash,
                };
                return report(
                    Verdict::Violated(violation),
                    runs,
                    &seen,
                    dedup_hits,
                    max_eligible,
                );
            }
            if depth == spec.max_interventions {
                continue;
            }
            // Children intervene strictly after the parent's last slot, and
            // only at slots this run actually exposed (beyond
            // `eligible_seen` the script would never fire).
            let start = plan.last().map_or(0, |&(s, _)| s + 1);
            let limit = step.eligible_seen.min(u64::from(spec.horizon)) as u32;
            // Exact dedup: a behaviourally identical run was already
            // expanded from a window starting at or before ours, so every
            // child state of this run was (or will be) reached from it.
            match seen.get(&step.state_hash).copied() {
                Some(prev) if prev <= start => {
                    dedup_hits += 1;
                    continue;
                }
                _ => {
                    let entry = seen.entry(step.state_hash).or_insert(start);
                    *entry = (*entry).min(start);
                }
            }
            for slot in start..limit {
                for action in [ScheduleAction::Drop, ScheduleAction::Delay] {
                    let mut child = plan.clone();
                    child.push((slot, action));
                    next.push(child);
                }
            }
        }
        if admitted < frontier.len() {
            return report(
                Verdict::BudgetExhausted,
                runs,
                &seen,
                dedup_hits,
                max_eligible,
            );
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    report(Verdict::Proved, runs, &seen, dedup_hits, max_eligible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackhole_corridor;
    use crate::oracle::hash_trace;
    use manet_experiments::Protocol;
    use manet_netsim::fasthash::FxHashSet;
    use manet_netsim::{EventQueue, Observation, SimTime, TelemetryConfig, TraceEvent};
    use manet_wire::{
        BroadcastId, CheckError, CheckId, ConnectionId, DataPacket, NetPacket, NodeId, PacketId,
        RouteCheck, RouteError, RouteReply, RouteRequest, SeqNo, TcpSegment,
    };
    use proptest::prelude::*;

    /// The trace hash `outcome_digest` used before it went structural: the
    /// `Debug` rendering of every event, hashed as a string.  Kept as the
    /// reference for the partition the structural hash must reproduce.
    fn debug_hash_trace(trace: &[TraceEvent], h: &mut FxHasher) {
        let mut buf = String::new();
        for ev in trace {
            buf.clear();
            use std::fmt::Write as _;
            let _ = write!(buf, "{ev:?}");
            buf.hash(h);
        }
    }

    fn structural(trace: &[TraceEvent]) -> u64 {
        let mut h = FxHasher::default();
        hash_trace(trace, &mut h);
        h.finish()
    }

    fn by_debug(trace: &[TraceEvent]) -> u64 {
        let mut h = FxHasher::default();
        debug_hash_trace(trace, &mut h);
        h.finish()
    }

    /// Times whose `Debug` forms differ in shape (plain, exponent, many
    /// digits), nudged by `ulps` so neighbours one bit apart occur.
    fn time(pick: u64, ulps: u64) -> SimTime {
        const BASES: [f64; 6] = [0.0, 1e-7, 0.30000000000000004, 1.0, 123456.789, 1e16];
        let base = BASES[(pick % BASES.len() as u64) as usize];
        SimTime::from_secs(f64::from_bits(base.to_bits() + ulps))
    }

    /// One trace event from four small draws; small domains so that two
    /// independent draws are often equal in all but one field.
    fn event((variant, a, b, t): (u8, u16, u64, u64)) -> TraceEvent {
        let at = time(t / 3, t % 3);
        match variant {
            0 => TraceEvent::TxStart {
                node: NodeId(a),
                kind: FrameKind::LABELS[(b % 6) as usize],
                bytes: (b / 6) as u32,
                at,
            },
            1 => TraceEvent::Delivered {
                node: NodeId(a),
                packet: PacketId(b),
                at,
            },
            _ => TraceEvent::LinkFailure {
                node: NodeId(a),
                next_hop: NodeId(b as u16),
                at,
            },
        }
    }

    /// A 512-byte data segment of connection 0, with id `id`, for `dst`.
    fn data_packet(id: PacketId, dst: NodeId) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 512);
        DataPacket::new(id, NodeId(0), dst, segment)
    }

    /// A packet of the kind labelled `kind`.
    fn packet_of(kind: &str) -> NetPacket {
        let (a, b) = (NodeId(0), NodeId(1));
        match FrameKind::from_label(kind).expect("a frame kind label") {
            FrameKind::Rreq => NetPacket::Rreq(RouteRequest {
                source: a,
                destination: b,
                broadcast_id: BroadcastId(0),
                hop_count: 0,
                route: vec![],
                dest_seqno: SeqNo(0),
                source_seqno: SeqNo(0),
            }),
            FrameKind::Rrep => NetPacket::Rrep(RouteReply {
                source: a,
                destination: b,
                reply_id: BroadcastId(0),
                hop_count: 0,
                route: vec![],
                dest_seqno: SeqNo(0),
            }),
            FrameKind::Rerr => NetPacket::Rerr(RouteError::new(a, b, &[])),
            FrameKind::Check => NetPacket::Check(RouteCheck {
                source: a,
                destination: b,
                check_id: CheckId(0),
                hop_count: 0,
                path: vec![],
                path_index: 0,
            }),
            FrameKind::CheckErr => NetPacket::CheckErr(CheckError {
                reporter: a,
                destination: b,
                source: a,
                check_id: CheckId(0),
                path_index: 0,
            }),
            FrameKind::Data => NetPacket::Data(data_packet(PacketId(0), b)),
        }
    }

    fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
        proptest::collection::vec((0u8..3, 0u16..3, 0u64..13, 0u64..18), 0..6)
            .prop_map(|draws| draws.into_iter().map(event).collect())
    }

    proptest! {
        /// The structural hash and the Debug-string hash induce the same
        /// partition: two traces collide under one iff they collide under
        /// the other (and iff they are equal).
        #[test]
        fn structural_and_debug_digests_partition_traces_alike(
            a in events(),
            b in events(),
            splice in 0usize..8,
        ) {
            // Independent draws are rarely equal; also compare `a` with a
            // copy that shares a prefix of `a` and continues as `b`.
            let mut spliced: Vec<TraceEvent> = a.iter().take(splice).cloned().collect();
            spliced.extend(b.iter().skip(splice).cloned());
            for other in [&b, &spliced, &a] {
                prop_assert_eq!(
                    structural(&a) == structural(other),
                    by_debug(&a) == by_debug(other),
                    "digests disagree on {:?} vs {:?}", a, other
                );
                prop_assert_eq!(structural(&a) == structural(other), a == *other);
            }
        }
    }

    /// `outcome_digest` as it was with the Debug-string trace hash.
    fn debug_outcome_digest(outcome: &RunOutcome) -> u64 {
        let mut h = FxHasher::default();
        debug_hash_trace(outcome.recorder.trace(), &mut h);
        hash_counters_and_choice_points(outcome, &mut h);
        h.finish()
    }

    /// On real outcomes (one corridor, every one-intervention schedule in a
    /// two-slot window) the fingerprints fall into the same classes as with
    /// the old trace hash, and those classes are not all singletons.
    #[test]
    fn real_outcomes_keep_their_fingerprint_classes() {
        let scenario = blackhole_corridor(Protocol::MtsHardened, 6, 2.0, 3);
        let mut plans = vec![Vec::new()];
        for slot in 0..2 {
            for action in [ScheduleAction::Drop, ScheduleAction::Delay] {
                plans.push(vec![(slot, action)]);
            }
        }
        let outcomes: Vec<RunOutcome> = plans
            .into_iter()
            .map(|actions| {
                let trace = ChoiceTrace {
                    actions,
                    horizon: 5,
                    delay: Duration::from_secs(0.002),
                    kinds: vec!["DATA"],
                };
                run_with_trace(&scenario, &trace)
            })
            .collect();
        let mut equal_pairs = 0;
        for x in &outcomes {
            for y in &outcomes {
                let same = outcome_digest(x) == outcome_digest(y);
                assert_eq!(same, debug_outcome_digest(x) == debug_outcome_digest(y));
                equal_pairs += usize::from(same);
            }
        }
        assert!(
            equal_pairs > outcomes.len(),
            "this corridor has behaviourally equal schedules: some class must hold two runs"
        );
    }

    // -----------------------------------------------------------------------
    // The parallel frontier against the serial oracle.
    // -----------------------------------------------------------------------

    const INVARIANTS: [Invariant; 4] = [
        Invariant::NoAdversaryCapture,
        Invariant::CaptureAtMost(0.5),
        Invariant::CaptureAtMost(1.0),
        Invariant::DeliversData,
    ];

    proptest! {
        /// The parallel search returns the serial search's report: verdict,
        /// violation script and fingerprint, and the four counters.  Budgets from zero to past the whole class
        /// cut depths anywhere, and `NoAdversaryCapture` on plain MTS is
        /// violated, so both early returns are exercised.
        #[test]
        fn parallel_explore_matches_the_serial_oracle(
            hardened in any::<bool>(),
            n in 4u16..9,
            seed in 1u64..40,
            horizon in 1u32..6,
            max_interventions in 1u32..4,
            budget in 0u64..80,
            invariant in 0usize..INVARIANTS.len(),
        ) {
            let protocol = if hardened { Protocol::MtsHardened } else { Protocol::Mts };
            let spec = ExploreSpec {
                scenario: blackhole_corridor(protocol, n, 2.0, seed),
                horizon,
                max_interventions,
                // Half the draws cut the search short, half bound nothing.
                budget: if budget < 40 { budget } else { u64::MAX },
                delay: Duration::from_secs(0.002),
                kinds: vec!["DATA"],
                invariant: INVARIANTS[invariant],
            };
            prop_assert_eq!(explore(&spec), crate::oracle::explore(&spec), "{:?}", spec);
        }
    }

    /// The three verdicts pinned, each ending where the property draws it
    /// only now and then: a violation inside depth two with more plans
    /// after it, a budget spent inside depth two, and a proof over a class
    /// with deduplicated states.
    #[test]
    fn parallel_explore_matches_the_serial_oracle_on_each_verdict() {
        // (protocol, n, seed, budget, capture bound)
        let cases = [
            (Protocol::Mts, 8, 9, u64::MAX, 0.65),
            (Protocol::MtsHardened, 6, 1, 9, 1.0),
            (Protocol::MtsHardened, 6, 3, u64::MAX, 1.0),
        ];
        let specs = cases.map(|(protocol, n, seed, budget, bound)| ExploreSpec {
            scenario: blackhole_corridor(protocol, n, 2.0, seed),
            horizon: 3,
            max_interventions: 3,
            budget,
            delay: Duration::from_secs(0.002),
            kinds: vec!["DATA"],
            invariant: Invariant::CaptureAtMost(bound),
        });
        let reports = specs.each_ref().map(explore);
        for (spec, report) in specs.iter().zip(&reports) {
            assert_eq!(*report, crate::oracle::explore(spec));
        }
        match &reports[0].verdict {
            Verdict::Violated(v) => assert_eq!(v.choice_count, 2, "{v:?}"),
            other => panic!("the hunt must find its two-choice violation, got {other:?}"),
        }
        assert_eq!(reports[1].verdict, Verdict::BudgetExhausted);
        assert_eq!(reports[1].runs, 9);
        assert_eq!(reports[2].verdict, Verdict::Proved);
        assert!(reports[2].dedup_hits > 0, "{:?}", reports[2]);
    }

    // -----------------------------------------------------------------------
    // The streamed fingerprint against the walked trace.
    // -----------------------------------------------------------------------

    /// A corridor whose nodes move at up to `speed` m/s, so routes break
    /// and unicast frames exhaust their retries.
    fn moving_corridor(protocol: Protocol, n: u16, seed: u64, speed: f64) -> Scenario {
        let mut scenario = blackhole_corridor(protocol, n, 2.0, seed);
        scenario.sim.mobility.max_speed = speed;
        scenario
    }

    fn link_failures(trace: &[TraceEvent]) -> usize {
        trace
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::LinkFailure { .. }))
            .count()
    }

    /// The streamed trace fingerprint of a kept run equals the walk over
    /// its buffered trace, and the explorer's unbuffered step reports the
    /// same digest as the replay.
    fn assert_streamed_fingerprint(scenario: &Scenario, trace: &ChoiceTrace) -> usize {
        let kept = run_with_trace(scenario, trace);
        let mut walked = FxHasher::default();
        hash_trace(kept.recorder.trace(), &mut walked);
        assert_eq!(kept.recorder.trace_fingerprint().finish(), walked.finish());
        assert_eq!(outcome_digest(&kept), crate::oracle::outcome_digest(&kept));
        let streamed = run_scripted(scenario, trace, TraceMode::Fingerprint);
        assert!(
            streamed.recorder.trace().is_empty(),
            "a fingerprint run keeps no trace"
        );
        assert_eq!(outcome_digest(&streamed), outcome_digest(&kept));
        link_failures(kept.recorder.trace())
    }

    fn with_telemetry(scenario: Scenario, enabled: bool) -> Scenario {
        scenario.with_telemetry(TelemetryConfig {
            enabled,
            window_secs: enabled.then_some(0.5),
            trace_packet: None,
        })
    }

    /// A moving corridor with link failures in its trace, telemetry on and
    /// off, unforced and with one drop and one delay.
    #[test]
    fn streamed_fingerprint_covers_link_failures_with_telemetry_on_and_off() {
        let scenario = moving_corridor(Protocol::MtsHardened, 8, 6, 20.0);
        for telemetry in [false, true] {
            let scenario = with_telemetry(scenario.clone(), telemetry);
            for actions in [
                vec![],
                vec![(0, ScheduleAction::Drop), (2, ScheduleAction::Delay)],
            ] {
                let trace = ChoiceTrace {
                    actions,
                    horizon: 6,
                    delay: Duration::from_secs(0.002),
                    kinds: vec!["RREP", "DATA"],
                };
                let failures = assert_streamed_fingerprint(&scenario, &trace);
                assert!(
                    failures > 0,
                    "this corridor must break links (telemetry {telemetry})"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn streamed_fingerprint_equals_the_walked_trace(
            hardened in any::<bool>(),
            n in 4u16..9,
            seed in 1u64..200,
            speed in 0u32..25,
            telemetry in any::<bool>(),
            drop_slot in 0u32..4,
        ) {
            let protocol = if hardened { Protocol::MtsHardened } else { Protocol::Mts };
            let scenario = moving_corridor(protocol, n, seed, f64::from(speed));
            let trace = ChoiceTrace {
                actions: vec![(drop_slot, ScheduleAction::Drop)],
                horizon: 4,
                delay: Duration::from_secs(0.002),
                kinds: vec!["DATA"],
            };
            assert_streamed_fingerprint(&with_telemetry(scenario, telemetry), &trace);
        }

        /// Event by event, the recorder folds exactly the words the walk
        /// feeds, in the same order (a repeated delivery is not traced).
        #[test]
        fn recorder_folds_each_event_as_the_walk_does(trace in events()) {
            let mut recorder = Recorder::new();
            recorder.trace_mode = TraceMode::Fingerprint;
            let mut traced = Vec::new();
            let events = EventQueue::default();
            let mut delivered = FxHashSet::default();
            for ev in trace {
                let new = match ev {
                    TraceEvent::TxStart { node, kind, bytes, at } => {
                        let packet = &packet_of(kind);
                        let obs = Observation::TxStart { node, packet, bytes, events: &events };
                        recorder.observe(at, obs);
                        true
                    }
                    TraceEvent::Delivered { node, packet, at } => {
                        let packet = &data_packet(packet, node);
                        recorder.observe(at, Observation::Deliver { node, from: node, packet });
                        delivered.insert(packet.id)
                    }
                    TraceEvent::LinkFailure { node, next_hop, at } => {
                        let packet = &packet_of("DATA");
                        recorder.observe(at, Observation::LinkFailure { node, next_hop, packet });
                        true
                    }
                };
                if new {
                    traced.push(ev);
                }
            }
            let mut walked = FxHasher::default();
            hash_trace(&traced, &mut walked);
            prop_assert_eq!(recorder.trace_fingerprint().finish(), walked.finish());
            prop_assert!(recorder.trace().is_empty());
        }
    }

    // -----------------------------------------------------------------------
    // Vacuous specs are rejected.
    // -----------------------------------------------------------------------

    fn spec_with_kinds(kinds: Vec<&'static str>) -> ExploreSpec {
        ExploreSpec {
            scenario: blackhole_corridor(Protocol::MtsHardened, 6, 1.0, 3),
            horizon: 3,
            max_interventions: 1,
            budget: 100,
            delay: Duration::from_secs(0.002),
            kinds,
            invariant: Invariant::CaptureAtMost(1.0),
        }
    }

    #[test]
    fn validate_accepts_known_kinds_and_rejects_empty_or_unknown_ones() {
        assert_eq!(spec_with_kinds(vec!["RREP", "DATA"]).validate(), Ok(()));
        let empty = spec_with_kinds(vec![]).validate().unwrap_err();
        assert!(empty.contains("empty"), "{empty}");
        let typo = spec_with_kinds(vec!["DATA", "data"])
            .validate()
            .unwrap_err();
        assert!(typo.contains("\"data\""), "{typo}");
    }

    #[test]
    #[should_panic(expected = "kinds is empty")]
    fn explore_panics_on_empty_kinds() {
        explore(&spec_with_kinds(vec![]));
    }

    #[test]
    #[should_panic(expected = "unknown frame kind \"BEACON\"")]
    fn explore_panics_on_an_unknown_kind() {
        explore(&spec_with_kinds(vec!["DATA", "BEACON"]));
    }
}
