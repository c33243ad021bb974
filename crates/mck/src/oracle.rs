//! The explorer as it was before the parallel frontier, kept as the oracle
//! the property tests compare the new one against: one schedule at a time,
//! each run keeping its whole recorder trace, and the fingerprint walking
//! that trace after the run instead of reading the recorder's streamed one.
//!
//! Only `trace_of` moved, to [`ExploreSpec::trace`].

use crate::explore::{run_with_trace, ExploreReport, ExploreSpec, RunOutcome, Verdict, Violation};
use crate::hook::ScheduleAction;
use manet_netsim::fasthash::{FxHashMap, FxHasher};
use manet_netsim::TraceEvent;
use std::hash::{Hash, Hasher};

/// `outcome_digest` as it was: the trace part walks `recorder.trace()`.
pub(crate) fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let mut h = FxHasher::default();
    hash_trace(outcome.recorder.trace(), &mut h);
    crate::explore::hash_counters_and_choice_points(outcome, &mut h);
    h.finish()
}

/// Feed the recorder trace to `h` field by field: a variant tag, the ids,
/// the `kind` label and the bit pattern of the time.
pub(crate) fn hash_trace(trace: &[TraceEvent], h: &mut FxHasher) {
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

/// The serial search: budget check, run, invariant, dedup and children,
/// one plan at a time.
pub(crate) fn explore(spec: &ExploreSpec) -> ExploreReport {
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
            let trace = spec.trace(plan);
            let outcome = run_with_trace(&spec.scenario, &trace);
            runs += 1;
            max_eligible = max_eligible.max(outcome.log.eligible_seen);
            let state_hash = outcome_digest(&outcome);
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
            let start = plan.last().map_or(0, |&(s, _)| s + 1);
            let limit = outcome.log.eligible_seen.min(u64::from(spec.horizon)) as u32;
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
