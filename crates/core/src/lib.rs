//! # mts-core
//!
//! The paper's primary contribution: **MTS (Multipath TCP Security)**, an
//! on-demand multipath routing protocol that enhances the confidentiality of
//! TCP traffic in mobile ad hoc networks against passive eavesdroppers —
//! without any cryptography — by continuously spreading the data path over a
//! set of disjoint routes.
//!
//! ## Protocol summary (paper §III)
//!
//! 1. **Route discovery** ([`protocol`]): the source floods a RREQ;
//!    intermediate nodes relay only the first copy (duplicate suppression on
//!    `(source, destination, broadcast id)`), append themselves to the node
//!    list and build reverse paths.  The destination replies immediately to
//!    the *first* RREQ and silently collects the rest.
//! 2. **Disjoint path set** ([`disjoint`], [`path_set`]): the destination
//!    stores up to [`MtsConfig::max_paths`] (paper: 5) paths that pass the
//!    next-hop/last-hop disjointness rule.
//! 3. **Route checking** ([`protocol`]): every
//!    [`MtsConfig::check_period`] seconds (paper: 2–4 s, matched to the
//!    channel coherence time) the destination unicasts a checking packet along
//!    each stored path; intermediate nodes cache the checking id as the entry
//!    id of a *forward* route towards the destination.
//! 4. **Adaptive route switching** ([`source_state`]): the source treats the
//!    path whose checking packet arrives *first* in each round as the current
//!    best route and immediately switches its TCP traffic onto it.
//! 5. **Maintenance** ([`protocol`]): checking-error packets delete dead paths
//!    at the destination, MAC link-failure feedback produces RERRs towards the
//!    source (which then re-discovers), and a fresh RREQ (larger broadcast id)
//!    flushes every stored path.
//!
//! The agent implements the same [`manet_routing::RoutingAgent`] trait as the
//! DSR and AODV baselines, so the experiment harness can swap protocols
//! freely.
//!
//! ## Hardening mode
//!
//! [`MtsConfig::hardened`] arms the route-check hardening defenses
//! (suspicious-reply cross-validation + per-relay suspicion scores, see
//! [`manet_routing::suspicion`]) against insider attackers — black holes,
//! rushing relays — that plain route checking cannot catch.  Off by default;
//! disabled runs are byte-identical to the paper's protocol.

pub mod config;
pub mod disjoint;
pub mod path_set;
pub mod protocol;
pub mod source_state;

pub use config::MtsConfig;
pub use disjoint::{first_last_hop_disjoint, node_disjoint};
pub use manet_routing::suspicion::SuspicionTable;
pub use path_set::{PathSet, StoredPath};
pub use protocol::Mts;
pub use source_state::SourceRouteState;
