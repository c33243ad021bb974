//! # manet-routing
//!
//! Routing substrate for the MTS reproduction:
//!
//! * [`agent`] — the [`RoutingAgent`] trait every protocol implements, plus
//!   per-protocol statistics and the timer-token namespace convention.
//! * [`common`] — shared building blocks: duplicate-RREQ suppression and
//!   [`Discovery`], the route-discovery state machine (packet buffer, retry
//!   timer, give-up and hold-down) that DSR, AODV and MTS all run.
//! * [`table`] — AODV/MTS-style hop-by-hop routing table with destination
//!   sequence numbers and lifetimes.
//! * [`cache`] — DSR-style route cache holding full source routes.
//! * [`suspicion`] — route-check hardening: the freshness test, its
//!   constants and the per-relay [`SuspicionTable`] the hardened MTS mode is
//!   built from.
//! * [`aodv`] — the AODV baseline (Perkins/Royer/Das draft semantics).
//! * [`dsr`] — the DSR baseline (Johnson/Maltz source routing).
//! * [`testkit`] — a harness that runs a routing agent inside the simulator
//!   with simple datagram traffic, used by unit/integration tests of this
//!   crate and of `mts-core`.
//!
//! The MTS protocol itself — the paper's contribution — lives in the
//! `mts-core` crate and implements the same [`RoutingAgent`] trait.

pub mod agent;
pub mod aodv;
pub mod cache;
pub mod common;
pub mod dsr;
pub mod suspicion;
pub mod table;
pub mod testkit;

pub use agent::{RoutingAgent, TimerClass};
pub use aodv::Aodv;
pub use cache::RouteCache;
pub use common::{Discovery, SeenTable};
pub use dsr::Dsr;
pub use suspicion::SuspicionTable;
pub use table::{RouteEntry, RoutingTable};
