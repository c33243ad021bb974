//! # manet-security
//!
//! The passive-attack model and the confidentiality metrics of the paper's
//! evaluation (Section IV-B), and their generalisations to colluding and
//! route-attracting attackers:
//!
//! * [`mod@exposure`] — the one quantity behind every ratio below:
//!   `|(S_1 ∪ … ∪ S_n) ∩ delivered| / |delivered|` over per-node packet sets.
//! * [`eavesdropper`] — selection of the eavesdropping node: a randomly
//!   chosen node that is neither the TCP source nor the destination, relaying
//!   packets like any legitimate node while recording everything it hears in
//!   promiscuous mode.
//! * [`interception`] — the interception ratio `Ri = Pe / Pr` (Eq. 1) and the
//!   *highest* interception ratio (the worst-case node, Fig. 7).
//! * [`coalition`] — `k` colluding eavesdroppers: the exposure of the
//!   members' union, with random (nested) and greedy worst-case placement.
//! * [`capture`] — what route-attraction attackers (wormhole, rushing,
//!   black-hole attraction) captured: the exposure of their relayed sets and
//!   the wormhole's tunnel.
//! * [`participation`] — the participating-node count (Fig. 5) and the
//!   normalized relay-share distribution with its standard deviation
//!   (Eqs. 2–4, Table I, Fig. 6).
//!
//! All metrics are computed from the simulator's [`manet_netsim::Recorder`],
//! so they apply uniformly to DSR, AODV and MTS runs.
//!
//! ## Coalitions
//!
//! A coalition's knobs are its size `k` (the paper's single eavesdropper is
//! `k = 1`; [`coalition_curve`] sweeps `1..=k`), its [`CoalitionPlacement`]
//! and its [`CoverageBasis`]:
//!
//! * `Random` placement draws nested seeded coalitions (the size-`k`
//!   coalition is a prefix of the size-`k+1` one, so coverage is monotone in
//!   `k`); `Greedy` runs the classical max-k-coverage greedy over the
//!   finished run, which covers at least `1 - 1/e` of the best size-`k`
//!   coalition's coverage.
//! * The `Relayed` basis unions packets received to relay (the Fig. 7 β
//!   basis, the discriminating choice); `Heard` adds promiscuous overhearing
//!   and saturates near 1.0 at paper densities, where everyone overhears.
//!
//! ## Capture
//!
//! For the route-attraction attacks [`capture_report`] is the fraction of
//! the session's delivered data that crossed a hostile node,
//! `|(U_i relayed_i ∪ tunneled) ∩ delivered| / Pr`.  It surfaces as
//! `RunMetrics::attacker_capture_ratio` and the attack matrix's `capture`
//! column.

pub mod capture;
pub mod coalition;
pub mod eavesdropper;
pub mod exposure;
pub mod interception;
pub mod participation;

pub use capture::capture_report;
pub use coalition::{
    coalition_curve, coalition_report, select_coalition_greedy, select_coalition_random,
    CoalitionPlacement, CoverageBasis,
};
pub use eavesdropper::select_eavesdropper;
pub use exposure::{exposure, Exposure};
pub use interception::{highest_interception_ratio, interception_ratio, InterceptionSummary};
pub use participation::{
    participating_nodes, relay_distribution, RelayDistribution, RelayTableRow,
};
