//! Retransmission-timeout estimation.
//!
//! Standard Jacobson/Karels smoothed RTT estimation (RFC 6298 constants),
//! Karn's rule (never sample a retransmitted segment) — which the caller
//! enforces by only feeding unambiguous samples — and exponential back-off on
//! consecutive timeouts.

use manet_netsim::Duration;

/// Maximum retransmission timeout of a TCP sender, seconds.
pub const MAX_RTO: f64 = 64.0;

/// Cap on a TCP sender's back-off exponent: it keeps backing off after this
/// many consecutive RTO expirations, but no further.
pub const MAX_BACKOFF_EXPONENT: u32 = 6;

/// Round-trip-time estimator producing the retransmission timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtoEstimator {
    /// Smoothed RTT, seconds (`None` until the first sample).
    srtt: Option<f64>,
    /// RTT variance, seconds.
    rttvar: f64,
    /// Current back-off exponent (0 = no back-off).
    backoff: u32,
    /// Lower bound on the RTO, seconds.
    min_rto: f64,
    /// Upper bound on the RTO, seconds.
    max_rto: f64,
    /// Cap on the back-off exponent.
    max_backoff: u32,
}

impl RtoEstimator {
    /// New estimator with the given RTO bounds.  `max_backoff` is at most
    /// 31: the back-off factor is a `u32` power of two.
    pub fn new(min_rto: f64, max_rto: f64, max_backoff: u32) -> Self {
        RtoEstimator {
            srtt: None,
            rttvar: 0.0,
            backoff: 0,
            min_rto,
            max_rto,
            max_backoff,
        }
    }

    /// Feed one RTT sample (seconds).  Must only be called for segments that
    /// were *not* retransmitted (Karn's rule).
    pub fn sample(&mut self, rtt_secs: f64) {
        let rtt = rtt_secs.max(0.0);
        match self.srtt {
            None => {
                // First measurement: RFC 6298 §2.2.
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2.0;
            }
            Some(srtt) => {
                // Subsequent measurements: alpha = 1/8, beta = 1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - rtt).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * rtt);
            }
        }
        // A valid sample means the path is alive: clear the back-off.
        self.backoff = 0;
    }

    /// The current RTO (including any back-off), clamped to the bounds.
    pub fn rto(&self) -> Duration {
        let base = match self.srtt {
            None => self.min_rto.max(1.0),
            Some(srtt) => srtt + (4.0 * self.rttvar).max(0.010),
        };
        let backed_off = base * f64::from(1u32 << self.backoff.min(self.max_backoff));
        Duration::from_secs(backed_off.clamp(self.min_rto, self.max_rto))
    }

    /// A retransmission timer expired: double the timeout (bounded).
    pub fn back_off(&mut self) {
        self.backoff = (self.backoff + 1).min(self.max_backoff);
    }

    /// Current smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// Current back-off exponent.
    pub fn backoff_exponent(&self) -> u32 {
        self.backoff
    }
}

impl Default for RtoEstimator {
    fn default() -> Self {
        RtoEstimator::new(1.0, MAX_RTO, MAX_BACKOFF_EXPONENT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_conservative() {
        let e = RtoEstimator::default();
        assert!(e.rto().as_secs() >= 1.0);
        assert!(e.srtt().is_none());
    }

    #[test]
    fn first_sample_sets_srtt_and_variance() {
        let mut e = RtoEstimator::default();
        e.sample(0.2);
        assert!((e.srtt().unwrap() - 0.2).abs() < 1e-9);
        // RTO = srtt + 4*rttvar = 0.2 + 4*0.1 = 0.6, clamped to min_rto 1.0.
        assert!((e.rto().as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_converges_towards_stable_rtt() {
        let mut e = RtoEstimator::new(0.1, 64.0, 6);
        for _ in 0..100 {
            e.sample(0.25);
        }
        assert!((e.srtt().unwrap() - 0.25).abs() < 1e-3);
        // With zero variance the RTO approaches srtt + small floor, above min.
        assert!(e.rto().as_secs() < 0.4);
    }

    #[test]
    fn backoff_doubles_and_is_cleared_by_samples() {
        let mut e = RtoEstimator::new(0.5, 64.0, 6);
        e.sample(0.5);
        let base = e.rto().as_secs();
        e.back_off();
        let once = e.rto().as_secs();
        e.back_off();
        let twice = e.rto().as_secs();
        assert!(once >= 2.0 * base - 1e-9);
        assert!(twice >= 2.0 * once - 1e-9);
        assert_eq!(e.backoff_exponent(), 2);
        e.sample(0.5);
        assert_eq!(e.backoff_exponent(), 0);
        // Back-off cleared: the RTO returns to the un-backed-off scale
        // (the variance term shrinks slightly with each consistent sample).
        assert!(e.rto().as_secs() <= base + 1e-9);
        assert!(e.rto().as_secs() < once / 2.0 + 1e-9);
    }

    #[test]
    fn rto_respects_maximum() {
        let mut e = RtoEstimator::new(1.0, 8.0, 10);
        e.sample(3.0);
        for _ in 0..10 {
            e.back_off();
        }
        assert!(e.rto().as_secs() <= 8.0);
    }

    #[test]
    fn the_largest_valid_backoff_cap_saturates_at_max_rto() {
        // 31 is the largest cap `new` allows: 2^31 still fits the back-off
        // factor, and backing off past the cap stays there.
        let mut e = RtoEstimator::new(1.0, 64.0, 31);
        e.sample(0.5);
        for _ in 0..40 {
            e.back_off();
        }
        assert_eq!(e.backoff_exponent(), 31);
        assert_eq!(e.rto().as_secs(), 64.0);
    }

    #[test]
    fn negative_samples_are_clamped() {
        let mut e = RtoEstimator::default();
        e.sample(-5.0);
        assert!(e.srtt().unwrap() >= 0.0);
        assert!(e.rto().as_secs() >= 1.0);
    }
}
