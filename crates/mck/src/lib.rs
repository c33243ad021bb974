//! # manet-mck
//!
//! Bounded model checking over the deterministic engine.
//!
//! The attack matrix is Monte Carlo: it samples seeds, so it can only
//! estimate how bad an adversarial schedule can get.  This crate explores
//! instead of sampling: it branches on per-delivery decisions — deliver,
//! drop, or delay (reorder) each eligible reception within a bounded
//! horizon — through the engine's choice-injection hook
//! (`manet_netsim::choice`), checks an invariant at every explored state,
//! and returns either an exhaustive proof over the bounded schedule class
//! or a minimal counterexample as a replayable [`ChoiceTrace`].
//!
//! * [`hook`] — the choice-trace format and the scripted hook that drives
//!   one run through one schedule (and logs what it was offered).
//! * [`invariant`] — the invariant catalogue, delegating to the predicates
//!   shared with the Monte Carlo attack tests
//!   (`manet_experiments::invariants`).
//! * [`mod@explore`] — iterative-deepening exhaustive search with `fasthash`
//!   state deduplication, a run budget, and minimal-counterexample
//!   extraction; each depth's schedules run on every core and merge in
//!   search order.
//! * [`scenarios`] — stock small topologies (static corridor, one black
//!   hole) for the first targets.
//!
//! Replay contract: feeding a returned counterexample trace back through
//! [`explore::run_with_trace`] reproduces the violating run byte-identically
//! — same recorder trace, same counters, same fingerprint.  See
//! `docs/VERIFICATION.md` for the state-space model and bounds semantics.

pub mod explore;
pub mod hook;
pub mod invariant;
pub mod scenarios;

#[cfg(test)]
mod oracle;

pub use explore::{
    explore, outcome_digest, run_with_trace, ExploreReport, ExploreSpec, RunOutcome, Verdict,
    Violation,
};
pub use hook::{ChoiceRecord, ChoiceTrace, RunLog, ScheduleAction, ScheduleHook};
pub use invariant::Invariant;
pub use scenarios::blackhole_corridor;
