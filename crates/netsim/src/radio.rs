//! Radio parameters.
//!
//! The paper's setup uses a 250 m transmission range over the ns-2 two-ray
//! ground model; for the metrics it reports, what matters is *which nodes can
//! hear a transmission* and how that set changes with mobility.  The engine
//! therefore uses unit-disk propagation: a node hears a transmission iff it
//! is within `range_m` of the transmitter, and senses the medium busy within
//! [`RadioConfig::carrier_sense_range`].

/// Carrier-sense range as a multiple of the transmission range:
/// transmissions within it keep the medium busy even when they cannot be
/// decoded.  At least 1, because a transmitter's one neighbourhood scan runs
/// at the carrier-sense radius and also collects its receivers.
pub const CARRIER_SENSE_FACTOR: f64 = 1.8;

/// Radio parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Transmission range in metres (paper: 250 m).
    pub range_m: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig { range_m: 250.0 }
    }
}

impl RadioConfig {
    /// Carrier-sense range in metres.
    pub fn carrier_sense_range(&self) -> f64 {
        self.range_m * CARRIER_SENSE_FACTOR
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_radio_matches_paper_range() {
        let r = RadioConfig::default();
        assert_eq!(r.range_m, 250.0);
        assert!(r.carrier_sense_range() > r.range_m);
    }
}
