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
use manet_experiments::runner::run_scenario_hooked;
use manet_experiments::{RunMetrics, Scenario};
use manet_netsim::fasthash::{FxHashMap, FxHasher};
use manet_netsim::{Duration, Recorder, TraceEvent};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

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

/// The final state of one scripted run.
pub struct RunOutcome {
    /// Extracted per-run metrics.
    pub metrics: RunMetrics,
    /// The raw recorder (trace kept — fingerprints and invariants read it).
    pub recorder: Recorder,
    /// The choice points the script was offered.
    pub log: RunLog,
}

/// Execute `scenario` under `trace` on the concrete engine.  This is both
/// the explorer's step function and the counterexample replay path: same
/// trace in, byte-identical run out.
pub fn run_with_trace(scenario: &Scenario, trace: &ChoiceTrace) -> RunOutcome {
    let (hook, log) = ScheduleHook::new(trace);
    let (metrics, recorder) = run_scenario_hooked(scenario, Box::new(hook));
    let log = match Arc::try_unwrap(log) {
        Ok(m) => m.into_inner(),
        Err(arc) => arc.lock().clone(),
    };
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
pub fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut h = FxHasher::default();
    hash_trace(outcome.recorder.trace(), &mut h);
    hash_counters_and_choice_points(outcome, &mut h);
    h.finish()
}

fn hash_counters_and_choice_points(outcome: &RunOutcome, h: &mut FxHasher) {
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

/// Feed the recorder trace to `h` field by field: a variant tag, the ids,
/// the `kind` label and the bit pattern of the time.  Every event writes a
/// tag-determined sequence of fixed-width words (the label is
/// length-terminated by `str`'s `Hash`), so distinct traces feed distinct
/// word streams; sim-times are finite, where equal bits and equal values
/// coincide except for the sign of zero, which `Debug` tells apart too.
fn hash_trace(trace: &[TraceEvent], h: &mut FxHasher) {
    for ev in trace {
        match *ev {
            TraceEvent::TxStart {
                node,
                kind,
                bytes,
                at,
            } => (0u8, node, kind, bytes, at.as_secs().to_bits()).hash(h),
            TraceEvent::Delivered { node, packet, at } => {
                (1u8, node, packet, at.as_secs().to_bits()).hash(h)
            }
            TraceEvent::LinkFailure { node, next_hop, at } => {
                (2u8, node, next_hop, at.as_secs().to_bits()).hash(h)
            }
        }
    }
}

/// A found invariant violation, with its replayable script.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every schedule in the bounded class satisfies the invariant.
    Proved,
    /// A schedule violating the invariant, minimal in choice count.
    Violated(Violation),
    /// The run budget ran out before the class was exhausted.
    BudgetExhausted,
}

/// Search statistics alongside the verdict.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The answer.
    pub verdict: Verdict,
    /// Engine runs executed.
    pub runs: u64,
    /// Distinct run fingerprints seen.
    pub distinct_states: u64,
    /// Runs whose extensions were skipped as exact duplicates.
    pub dedup_hits: u64,
    /// Largest number of eligible choice points any run exposed.
    pub max_eligible_seen: u64,
}

/// Exhaustively explore `spec`'s schedule class (see the module docs).
///
/// Iterative deepening by intervention count: all zero-choice schedules
/// first, then one-choice, then two-choice … so the first violation
/// returned is minimal in the number of adversarial choices.
pub fn explore(spec: &ExploreSpec) -> ExploreReport {
    // state fingerprint -> smallest extension-window start already expanded
    // from a run with this fingerprint.
    let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
    let mut runs = 0u64;
    let mut dedup_hits = 0u64;
    let mut max_eligible = 0u64;
    let trace_of = |actions: &[(u32, ScheduleAction)]| ChoiceTrace {
        actions: actions.to_vec(),
        horizon: spec.horizon,
        delay: spec.delay,
        kinds: spec.kinds.clone(),
    };
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
        let mut next: Vec<Vec<(u32, ScheduleAction)>> = Vec::new();
        for plan in &frontier {
            if runs >= spec.budget {
                return report(
                    Verdict::BudgetExhausted,
                    runs,
                    &seen,
                    dedup_hits,
                    max_eligible,
                );
            }
            let trace = trace_of(plan);
            let outcome = run_with_trace(&spec.scenario, &trace);
            runs += 1;
            max_eligible = max_eligible.max(outcome.log.eligible_seen);
            let state_hash = outcome_digest(&outcome);
            // The invariant is evaluated at every explored state, before any
            // deduplication: the first violation at this depth is minimal.
            if let Err(reason) = spec.invariant.check(&outcome.recorder) {
                let violation = Violation {
                    trace,
                    choice_count: depth,
                    reason,
                    state_hash,
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
            let limit = outcome.log.eligible_seen.min(u64::from(spec.horizon)) as u32;
            // Exact dedup: a behaviourally identical run was already
            // expanded from a window starting at or before ours, so every
            // child state of this run was (or will be) reached from it.
            match seen.get(&state_hash).copied() {
                Some(prev) if prev <= start => {
                    dedup_hits += 1;
                    continue;
                }
                _ => {
                    let entry = seen.entry(state_hash).or_insert(start);
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
    use manet_experiments::Protocol;
    use manet_netsim::telemetry::FrameKind;
    use manet_netsim::SimTime;
    use manet_wire::{NodeId, PacketId};
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
}
