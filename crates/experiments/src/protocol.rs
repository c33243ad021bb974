//! Protocol selection.

use manet_routing::{Aodv, Dsr, RoutingAgent};
use manet_wire::NodeId;
use mts_core::{Mts, MtsConfig};
use std::fmt;

/// The routing protocol a run uses (the paper compares the first three;
/// [`Protocol::MtsHardened`] adds the route-check-hardened MTS variant to
/// attack-aware sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Dynamic Source Routing (baseline).
    Dsr,
    /// Ad hoc On-demand Distance Vector (baseline).
    Aodv,
    /// Multipath TCP Security (the paper's contribution).
    Mts,
    /// MTS with the route-check hardening mode armed (suspicious-reply
    /// cross-validation + per-relay suspicion; see
    /// [`MtsConfig::hardened`]).
    MtsHardened,
}

impl Protocol {
    /// The paper's three protocols, in the order the paper lists them (the
    /// figure sweeps use exactly these).
    pub const ALL: [Protocol; 3] = [Protocol::Dsr, Protocol::Aodv, Protocol::Mts];

    /// The paper's three protocols plus the hardened MTS variant (the attack
    /// matrix compares all four).
    pub const WITH_HARDENED: [Protocol; 4] = [
        Protocol::Dsr,
        Protocol::Aodv,
        Protocol::Mts,
        Protocol::MtsHardened,
    ];

    /// Human-readable name (matches the paper's figure legends).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Dsr => "DSR",
            Protocol::Aodv => "AODV",
            Protocol::Mts => "MTS",
            Protocol::MtsHardened => "MTS-H",
        }
    }

    /// Build a routing agent of this protocol for node `me`.
    ///
    /// `mts_config` only affects the MTS variants; the baselines use their
    /// defaults.  [`Protocol::MtsHardened`] arms the hardening switch on top
    /// of the given configuration.
    pub fn build_agent(self, me: NodeId, mts_config: MtsConfig) -> Box<dyn RoutingAgent> {
        match self {
            Protocol::Dsr => Box::new(Dsr::new(me)),
            Protocol::Aodv => Box::new(Aodv::new(me)),
            Protocol::Mts => Box::new(Mts::new(me, mts_config)),
            Protocol::MtsHardened => Box::new(Mts::new(me, mts_config.hardened())),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Protocol::Dsr.name(), "DSR");
        assert_eq!(Protocol::Aodv.name(), "AODV");
        assert_eq!(Protocol::Mts.name(), "MTS");
        assert_eq!(Protocol::MtsHardened.name(), "MTS-H");
        assert_eq!(Protocol::ALL.len(), 3, "figure sweeps stay paper-shaped");
        assert_eq!(Protocol::WITH_HARDENED.len(), 4);
        assert_eq!(&Protocol::WITH_HARDENED[..3], &Protocol::ALL[..]);
    }

    #[test]
    fn factory_builds_matching_agents() {
        for p in Protocol::ALL {
            let agent = p.build_agent(NodeId(1), MtsConfig::default());
            assert_eq!(agent.name(), p.name());
        }
        // The hardened variant is still the MTS agent, with the switch armed.
        let hard = Protocol::MtsHardened.build_agent(NodeId(1), MtsConfig::default());
        assert_eq!(hard.name(), "MTS");
    }
}
