//! Attack configuration: which adversary runs inside a scenario and how hard.
//!
//! An [`AttackConfig`] is carried by an experiment scenario the same way the
//! protocol choice is, so sweeps can form the full protocol × attack ×
//! intensity matrix.  Runs with [`AttackKind::None`] are byte-identical to
//! pre-adversary runs (no extra randomness is consumed anywhere).

use manet_netsim::{JamConfig, JamTarget, RushConfig, WormholeConfig};
use manet_wire::NodeId;
use std::fmt;

/// The adversary model of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackKind {
    /// No adversary: the clean baseline every attack is compared against.
    None,
    /// A coalition of `k` colluding eavesdroppers; purely passive, evaluated
    /// from the finished run's trace (union coverage, generalizing Eq. 1 to
    /// `Pe(coalition) / Pr`).  The members are placed greedily over the
    /// packets they relayed: the near-worst case.
    Coalition {
        /// Coalition size (the paper's single eavesdropper is `k = 1`).
        k: u8,
    },
    /// Black-hole / gray-hole relays: the attackers answer route discoveries
    /// with forged replies (claiming a fresh zero-hop route) to attract
    /// traffic, then drop forwarded data packets with probability
    /// `drop_fraction` (1.0 = black hole, fractions = gray hole).
    Blackhole {
        /// Number of hostile relays.
        attackers: u16,
        /// Fraction of attracted data packets that are discarded.
        drop_fraction: f64,
    },
    /// The designated eavesdropper steers its random-waypoint destinations
    /// toward the source–destination corridor instead of roaming uniformly,
    /// at most [`crate::mobile::CORRIDOR_JITTER_M`] off its centre line.
    MobileEavesdropper,
    /// Selective jamming: hostile nodes statistically destroy receptions of
    /// the targeted frame class in their radio vicinity.
    Jamming {
        /// Number of jamming nodes.
        jammers: u16,
        /// Frame class the jammers key on.
        target: JamTarget,
        /// Probability a targeted reception near a jammer is corrupted.
        loss_prob: f64,
    },
    /// A wormhole pair: two colluders joined by an out-of-band tunnel
    /// (engine-level link hook, see [`manet_netsim::WormholeConfig`]).
    /// Discovery floods cross the tunnel, so routes collapse through the
    /// pair, which then sees — *captures* — the attracted traffic.  The
    /// tunnel's latency is [`manet_netsim::config::WORMHOLE_DELAY`].
    Wormhole,
    /// Rushing attackers: relays that forward with zero processing delay
    /// (no DIFS, no backoff — see [`manet_netsim::RushConfig`]), so their
    /// RREQ copies win the duplicate-suppression race and discovered routes
    /// run through them.
    Rushing {
        /// Number of rushing relays.
        attackers: u16,
    },
}

/// Attack configuration carried by a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// The adversary model (and its intensity knobs).
    pub kind: AttackKind,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            kind: AttackKind::None,
        }
    }
}

impl AttackConfig {
    /// The clean baseline (no adversary).
    pub fn none() -> Self {
        Self::default()
    }

    /// A colluding eavesdropper coalition of size `k`.
    pub fn coalition(k: u8) -> Self {
        AttackConfig {
            kind: AttackKind::Coalition { k },
        }
    }

    /// `attackers` black holes dropping every attracted data packet.
    pub fn blackhole(attackers: u16) -> Self {
        AttackConfig {
            kind: AttackKind::Blackhole {
                attackers,
                drop_fraction: 1.0,
            },
        }
    }

    /// `attackers` gray holes dropping `drop_fraction` of attracted data.
    pub fn grayhole(attackers: u16, drop_fraction: f64) -> Self {
        AttackConfig {
            kind: AttackKind::Blackhole {
                attackers,
                drop_fraction,
            },
        }
    }

    /// A corridor-steering mobile eavesdropper.
    pub fn mobile_eavesdropper() -> Self {
        AttackConfig {
            kind: AttackKind::MobileEavesdropper,
        }
    }

    /// `jammers` selective jammers destroying `loss_prob` of the targeted
    /// class.
    pub fn jamming(jammers: u16, target: JamTarget, loss_prob: f64) -> Self {
        AttackConfig {
            kind: AttackKind::Jamming {
                jammers,
                target,
                loss_prob,
            },
        }
    }

    /// A wormhole pair with a 1 µs out-of-band tunnel.
    pub fn wormhole() -> Self {
        AttackConfig {
            kind: AttackKind::Wormhole,
        }
    }

    /// `attackers` rushing relays.
    pub fn rushing(attackers: u16) -> Self {
        AttackConfig {
            kind: AttackKind::Rushing { attackers },
        }
    }

    /// True for the clean baseline.
    pub fn is_none(&self) -> bool {
        matches!(self.kind, AttackKind::None)
    }

    /// Number of hostile nodes this attack needs placed inside the network
    /// (0 for passive/analysis-only attacks and the mobile eavesdropper,
    /// which reuses the designated eavesdropper).
    pub fn attackers_needed(&self) -> u16 {
        match self.kind {
            AttackKind::Blackhole { attackers, .. } => attackers,
            AttackKind::Jamming { jammers, .. } => jammers,
            AttackKind::Wormhole => 2,
            AttackKind::Rushing { attackers } => attackers,
            _ => 0,
        }
    }

    /// True when the attack's hostile nodes *capture* traffic by attracting
    /// routes through themselves (the capture-ratio metric applies).
    pub fn captures_traffic(&self) -> bool {
        matches!(
            self.kind,
            AttackKind::Wormhole | AttackKind::Rushing { .. } | AttackKind::Blackhole { .. }
        )
    }

    /// True when the attack changes nothing in the run and is evaluated
    /// from the finished run's recorder alone: it places no attackers,
    /// installs no engine hook, wraps no stack and moves no node.  Such an
    /// attack's run equals the clean run of the same seed, so the experiment
    /// grid evaluates it on that run instead of simulating it again.
    pub fn is_analysis_only(&self) -> bool {
        matches!(self.kind, AttackKind::Coalition { .. })
    }

    /// Validate the knobs.
    pub fn validate(&self) -> Result<(), String> {
        match self.kind {
            AttackKind::None | AttackKind::MobileEavesdropper | AttackKind::Wormhole => Ok(()),
            AttackKind::Coalition { k } => {
                if k == 0 {
                    Err("coalition size k must be at least 1".into())
                } else {
                    Ok(())
                }
            }
            AttackKind::Blackhole {
                attackers,
                drop_fraction,
            } => {
                if attackers == 0 {
                    return Err("black hole needs at least one attacker".into());
                }
                if !(0.0..=1.0).contains(&drop_fraction) {
                    return Err("drop_fraction must be in [0, 1]".into());
                }
                Ok(())
            }
            AttackKind::Jamming {
                jammers, loss_prob, ..
            } => {
                if jammers == 0 {
                    return Err("jamming needs at least one jammer".into());
                }
                if !(0.0..=1.0).contains(&loss_prob) {
                    return Err("jamming loss_prob must be in [0, 1]".into());
                }
                Ok(())
            }
            AttackKind::Rushing { attackers } => {
                if attackers == 0 {
                    Err("rushing needs at least one attacker".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Build the netsim-level jamming configuration for the given hostile
    /// nodes, if this attack jams.
    pub fn jam_config(&self, attackers: &[NodeId]) -> Option<JamConfig> {
        match self.kind {
            AttackKind::Jamming {
                target, loss_prob, ..
            } => Some(JamConfig {
                jammers: attackers.to_vec(),
                target,
                loss_prob,
            }),
            _ => None,
        }
    }

    /// Build the netsim-level wormhole configuration for the given hostile
    /// nodes, if this attack is a wormhole (the first two placed attackers
    /// become the tunnel endpoints).
    pub fn wormhole_config(&self, attackers: &[NodeId]) -> Option<WormholeConfig> {
        match self.kind {
            AttackKind::Wormhole if attackers.len() >= 2 => Some(WormholeConfig {
                a: attackers[0],
                b: attackers[1],
            }),
            _ => None,
        }
    }

    /// Build the netsim-level rushing configuration for the given hostile
    /// nodes, if this attack rushes.
    pub fn rush_config(&self, attackers: &[NodeId]) -> Option<RushConfig> {
        match self.kind {
            AttackKind::Rushing { .. } if !attackers.is_empty() => Some(RushConfig {
                rushers: attackers.to_vec(),
            }),
            _ => None,
        }
    }

    /// The canonical attack matrix axis used by the experiment sweeps, the
    /// benchmark's `attack_matrix` workload and `reproduce attacks`.
    ///
    /// # Examples
    ///
    /// ```
    /// use manet_adversary::AttackConfig;
    ///
    /// let matrix = AttackConfig::canonical_matrix();
    /// assert!(matrix[0].is_none(), "the clean baseline comes first");
    /// assert!(matrix.iter().all(|a| a.validate().is_ok()));
    /// let labels: Vec<String> = matrix.iter().map(|a| a.to_string()).collect();
    /// assert!(labels.contains(&"blackhole(x2)".to_string()));
    /// assert!(labels.contains(&"wormhole".to_string()));
    /// assert!(labels.contains(&"rushing(x2)".to_string()));
    /// ```
    pub fn canonical_matrix() -> Vec<AttackConfig> {
        vec![
            AttackConfig::none(),
            AttackConfig::coalition(3),
            AttackConfig::grayhole(2, 0.5),
            AttackConfig::blackhole(2),
            AttackConfig::mobile_eavesdropper(),
            AttackConfig::jamming(2, JamTarget::Control, 0.8),
            AttackConfig::jamming(2, JamTarget::Data, 0.8),
            AttackConfig::wormhole(),
            AttackConfig::rushing(2),
        ]
    }
}

impl fmt::Display for AttackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AttackKind::None => write!(f, "clean"),
            AttackKind::Coalition { k } => write!(f, "coalition(k={k},greedy)"),
            AttackKind::Blackhole {
                attackers,
                drop_fraction,
            } => {
                if (drop_fraction - 1.0).abs() < 1e-12 {
                    write!(f, "blackhole(x{attackers})")
                } else {
                    write!(f, "grayhole(x{attackers},p={drop_fraction})")
                }
            }
            AttackKind::MobileEavesdropper => write!(f, "mobile-eve"),
            AttackKind::Jamming {
                jammers,
                target,
                loss_prob,
            } => {
                let t = match target {
                    JamTarget::Control => "ctrl",
                    JamTarget::Data => "data",
                };
                write!(f, "jam-{t}(x{jammers},p={loss_prob})")
            }
            AttackKind::Wormhole => write!(f, "wormhole"),
            AttackKind::Rushing { attackers } => write!(f, "rushing(x{attackers})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_matrix_is_valid_and_starts_clean() {
        let matrix = AttackConfig::canonical_matrix();
        assert!(matrix[0].is_none());
        assert!(matrix.len() >= 6);
        for a in &matrix {
            a.validate().unwrap();
        }
        // Labels are unique (they key the report rows).
        let labels: std::collections::HashSet<String> =
            matrix.iter().map(|a| a.to_string()).collect();
        assert_eq!(labels.len(), matrix.len());
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(AttackConfig::coalition(0).validate().is_err());
        assert!(AttackConfig::blackhole(0).validate().is_err());
        assert!(AttackConfig::grayhole(1, 1.5).validate().is_err());
        assert!(AttackConfig::jamming(0, JamTarget::Data, 0.5)
            .validate()
            .is_err());
        assert!(AttackConfig::jamming(1, JamTarget::Data, -0.1)
            .validate()
            .is_err());
    }

    #[test]
    fn attackers_needed_matches_kind() {
        assert_eq!(AttackConfig::none().attackers_needed(), 0);
        assert_eq!(AttackConfig::blackhole(3).attackers_needed(), 3);
        assert_eq!(
            AttackConfig::jamming(2, JamTarget::Data, 0.5).attackers_needed(),
            2
        );
        assert_eq!(AttackConfig::mobile_eavesdropper().attackers_needed(), 0);
        assert_eq!(AttackConfig::coalition(4).attackers_needed(), 0);
    }

    #[test]
    fn wormhole_and_rushing_knobs() {
        let worm = AttackConfig::wormhole();
        worm.validate().unwrap();
        assert_eq!(worm.attackers_needed(), 2);
        assert_eq!(worm.to_string(), "wormhole");
        assert!(worm.captures_traffic());
        let endpoints = [NodeId(4), NodeId(11)];
        let cfg = worm.wormhole_config(&endpoints).unwrap();
        assert_eq!((cfg.a, cfg.b), (NodeId(4), NodeId(11)));
        assert!(worm.wormhole_config(&[NodeId(4)]).is_none(), "needs 2");
        assert!(worm.rush_config(&endpoints).is_none());

        let rush = AttackConfig::rushing(3);
        rush.validate().unwrap();
        assert_eq!(rush.attackers_needed(), 3);
        assert_eq!(rush.to_string(), "rushing(x3)");
        assert!(rush.captures_traffic());
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(rush.rush_config(&nodes).unwrap().rushers, nodes.to_vec());
        assert!(rush.wormhole_config(&nodes).is_none());
        assert!(AttackConfig::rushing(0).validate().is_err());
        // Passive attacks do not capture.
        assert!(!AttackConfig::none().captures_traffic());
        assert!(!AttackConfig::coalition(2).captures_traffic());
        assert!(AttackConfig::blackhole(1).captures_traffic());
    }

    #[test]
    fn jam_config_only_for_jamming() {
        let nodes = [NodeId(1), NodeId(2)];
        let jam = AttackConfig::jamming(2, JamTarget::Control, 0.7);
        let cfg = jam.jam_config(&nodes).unwrap();
        assert_eq!(cfg.jammers, nodes.to_vec());
        assert_eq!(cfg.loss_prob, 0.7);
        assert!(AttackConfig::blackhole(2).jam_config(&nodes).is_none());
        assert!(AttackConfig::none().jam_config(&nodes).is_none());
    }
}
