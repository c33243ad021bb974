//! # manet-experiments
//!
//! The experiment harness that reproduces the paper's evaluation (Section IV):
//!
//! * [`protocol`] — the protocol selector (DSR / AODV / MTS) and agent factory.
//! * [`stack`] — re-export of the `manet-stack` crate: the per-node protocol
//!   stack whose connection table glues a routing agent to any number of TCP
//!   Reno endpoints and to the recorder.
//! * [`scenario`] — scenario construction: the paper's environment (50 nodes,
//!   1000 m × 1000 m, 250 m range, random waypoint with 1 s pause, one bulk
//!   TCP flow, one random eavesdropper, 200 s), plus the multi-flow
//!   scenarios ([`Scenario::scaled`], [`Scenario::random_pairs`]) of bulk
//!   TCP or fluid flows and custom scenarios for the examples and tests,
//!   on random-waypoint or hand-placed static topologies ([`Placement`]).
//! * [`metrics`] — per-run metric extraction: the security metrics (Figs. 5–7,
//!   Table I) and the TCP metrics (Figs. 8–11).
//! * [`runner`] — the one run assembly, [`run_with`] (stacks, mobility and
//!   simulator for a scenario; [`RunOptions`] add a kept trace, a
//!   delivery-choice hook or a stack decorator), and the one grid runner
//!   over [`RunKey`]s behind the sweep over protocol × speed × seed.
//! * [`attacks`] — the attack-aware matrix, protocol × attack × speed × seed,
//!   a second view of the grid runner: coalitions, black/gray holes, mobile
//!   eavesdropper, selective jamming, wormhole and rushing.
//! * [`invariants`] — the shared attack-resilience predicates asserted by the
//!   Monte Carlo attack tests and exhaustively checked by the bounded
//!   model-checking explorer (`crates/mck`).
//! * [`figures`] — one generator per paper figure/table, returning the same
//!   rows/series the paper plots.
//! * [`report`] — plain-text rendering of figures and sweep results.

pub mod attacks;
pub mod figures;
pub mod invariants;
pub mod metrics;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod scenario;
pub use manet_stack as stack;

pub use attacks::{
    attack_matrix, render_attack_matrix, AttackCell, AttackMatrixOutcome, AttackSweepSpec,
};
pub use figures::{FigureId, FigurePoint, FigureSeries};
pub use manet_adversary::{AttackConfig, AttackKind};
pub use manet_security::{CoalitionPlacement, CoverageBasis};
pub use manet_tcp::FlowProfile;
pub use metrics::{FlowMetrics, RunMetrics};
pub use protocol::Protocol;
pub use runner::{
    run_scenario, run_with, sweep, AggregatedPoint, RunOptions, SweepOutcome, SweepSpec,
};
pub use scenario::{Placement, RunKey, Scenario, TrafficFlow};
