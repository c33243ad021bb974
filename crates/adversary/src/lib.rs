//! # manet-adversary
//!
//! Active and colluding attacker models for the MANET simulator.  The paper's
//! evaluation stops at a single passive eavesdropper; this crate supplies the
//! hostile regimes its argument actually cares about:
//!
//! * [`config`] — [`AttackConfig`]: the attack axis carried by experiment
//!   scenarios (kind + intensity knobs + canonical matrix).
//! * [`blackhole`] — black-hole / gray-hole relays implemented as
//!   [`manet_netsim::NodeStack`] wrappers: forged route replies attract
//!   traffic, attracted data is silently discarded.
//! * [`mobile`] — a mobile eavesdropper whose waypoints hunt the
//!   source–destination corridor instead of roaming uniformly.
//!
//! What the attackers achieve is analysis, not behaviour: coalition
//! coverage and the capture ratio are [`manet_security::coalition`] and
//! [`manet_security::capture`].
//!
//! Three attacks are engine-level hooks in `manet_netsim` built from the
//! attack axis: selective jamming ([`manet_netsim::JamConfig`], via
//! [`AttackConfig::jam_config`]), the wormhole pair's out-of-band tunnel
//! ([`manet_netsim::WormholeConfig`], via [`AttackConfig::wormhole_config`])
//! and rushing relays' zero-backoff MAC ([`manet_netsim::RushConfig`], via
//! [`AttackConfig::rush_config`]).  All three leave clean runs byte-identical
//! when disabled.
//!
//! Every model is deterministic per run seed: attacker placement comes from
//! salted scenario streams, drop decisions from per-attacker RNGs, and clean
//! runs consume no adversary randomness at all.

pub mod blackhole;
pub mod config;
pub mod mobile;

pub use blackhole::{BlackholeStack, FORGED_SEQNO};
pub use config::{AttackConfig, AttackKind};
pub use mobile::CorridorMobility;
