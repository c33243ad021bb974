//! MTS protocol configuration.

use manet_routing::suspicion::RouteCheckConfig;

/// Tuning parameters for the MTS protocol.
///
/// Defaults follow the paper: at most five disjoint paths stored at the
/// destination and a route-checking period of three seconds (the paper says
/// "two to four seconds is acceptable", sized from the channel coherence
/// time).  Route discovery (retries, hold-down, packet buffer) is the one
/// DSR and AODV run too, [`manet_routing::common::Discovery`], and has no
/// knobs.  The route-check
/// hardening mode (suspicious-reply cross-validation + per-relay suspicion,
/// see [`RouteCheckConfig`]) is off by default, keeping the default
/// configuration byte-identical to the paper's protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtsConfig {
    /// Maximum number of disjoint paths kept at the destination (paper: 5).
    pub max_paths: usize,
    /// Period between route-checking rounds emitted by the destination, s.
    pub check_period: f64,
    /// Ablation switch: stripe data packets round-robin over every fresh path
    /// instead of using only the best one (SMR-like concurrent multipath,
    /// which the related work shows hurts TCP).
    pub concurrent_striping: bool,
    /// Route-check hardening knobs (disabled by default).
    pub route_check: RouteCheckConfig,
}

impl Default for MtsConfig {
    fn default() -> Self {
        MtsConfig {
            max_paths: 5,
            check_period: 3.0,
            concurrent_striping: false,
            route_check: RouteCheckConfig::default(),
        }
    }
}

impl MtsConfig {
    /// Validate invariants.  Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_paths == 0 {
            return Err("max_paths must be at least 1".into());
        }
        if !(self.check_period > 0.0 && self.check_period.is_finite()) {
            return Err("check_period must be positive and finite".into());
        }
        self.route_check.validate()?;
        Ok(())
    }

    /// The paper's configuration with a custom checking period (used by the
    /// checking-period ablation bench).
    pub fn with_check_period(period: f64) -> Self {
        MtsConfig {
            check_period: period,
            ..Self::default()
        }
    }

    /// The paper's configuration with a custom path budget (used by the
    /// max-paths ablation bench).
    pub fn with_max_paths(max_paths: usize) -> Self {
        MtsConfig {
            max_paths,
            ..Self::default()
        }
    }

    /// This configuration with the route-check hardening mode switched on
    /// (suspicious-reply cross-validation + per-relay suspicion scores).
    ///
    /// # Examples
    ///
    /// ```
    /// use mts_core::MtsConfig;
    ///
    /// let hard = MtsConfig::default().hardened();
    /// assert!(hard.route_check.enabled);
    /// // Every paper knob is untouched; only the defense is armed.
    /// assert_eq!(hard.max_paths, MtsConfig::default().max_paths);
    /// hard.validate().unwrap();
    /// ```
    pub fn hardened(mut self) -> Self {
        self.route_check = RouteCheckConfig {
            enabled: true,
            ..self.route_check
        };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = MtsConfig::default();
        assert_eq!(c.max_paths, 5);
        assert!((2.0..=4.0).contains(&c.check_period));
        assert!(!c.concurrent_striping);
        c.validate().unwrap();
    }

    #[test]
    fn ablation_constructors() {
        assert_eq!(MtsConfig::with_check_period(0.5).check_period, 0.5);
        assert_eq!(MtsConfig::with_max_paths(8).max_paths, 8);
    }

    #[test]
    fn hardening_is_off_by_default_and_armable() {
        assert!(!MtsConfig::default().route_check.enabled);
        let hard = MtsConfig::default().hardened();
        assert!(hard.route_check.enabled);
        hard.validate().unwrap();
        // Arming only flips the switch; all paper knobs are untouched.
        assert_eq!(
            MtsConfig {
                route_check: RouteCheckConfig::default(),
                ..hard
            },
            MtsConfig::default()
        );
        // Invalid hardening knobs are caught by the top-level validation.
        let mut bad = MtsConfig::default().hardened();
        bad.route_check.suspicion_decay = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = |c: MtsConfig| assert!(c.validate().is_err(), "{c:?}");
        bad(MtsConfig {
            max_paths: 0,
            ..Default::default()
        });
        for check_period in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            bad(MtsConfig::with_check_period(check_period));
        }
    }
}
