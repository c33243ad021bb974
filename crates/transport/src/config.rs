//! Transport-layer parameters: the TCP Reno knobs ([`TcpConfig`]) and the
//! start time and byte budget of one bulk flow ([`FlowProfile`]).

use manet_wire::sizes::DEFAULT_MSS;

/// When a bulk flow starts and how much it sends.
///
/// The application is always an FTP-like bulk source, the paper's traffic
/// model: it offers data as fast as the window allows until the byte budget
/// (if any) is sent.  The default profile (`start` 0, no byte budget) is
/// exactly the paper's single unbounded flow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlowProfile {
    /// Simulated seconds after run start at which the flow opens.
    pub start: f64,
    /// Total byte budget; `None` keeps sending for the whole run.  A flow
    /// with a budget reports a completion time once every budgeted byte is
    /// acknowledged.
    pub bytes: Option<u64>,
}

impl FlowProfile {
    /// Bulk transfer from time 0 with no byte budget (the paper's flow).
    pub fn bulk() -> Self {
        Self::default()
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if !self.start.is_finite() || self.start < 0.0 {
            return Err("flow start must be a finite non-negative time".into());
        }
        if let Some(0) = self.bytes {
            return Err("a flow byte budget must be positive".into());
        }
        Ok(())
    }
}

/// TCP Reno parameters.
///
/// Defaults follow the classic ns-2 era Reno configuration the paper used:
/// 1000-byte segments, an initial congestion window of one segment, a 64
/// segment receive window, a 1 s minimum / 64 s maximum retransmission
/// timeout and three duplicate ACKs triggering fast retransmit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, in segments: at least 2, and `+∞` is
    /// RFC 5681's "arbitrarily high".
    pub initial_ssthresh: f64,
    /// Receiver window, in segments (caps the usable window).
    pub receiver_window: f64,
    /// Minimum retransmission timeout, seconds.
    pub min_rto: f64,
    /// Maximum retransmission timeout, seconds.
    pub max_rto: f64,
    /// Number of duplicate ACKs that triggers a fast retransmit.
    pub dupack_threshold: u32,
    /// Maximum number of consecutive RTO expirations before the connection is
    /// considered (temporarily) dead; the sender keeps backing off but caps
    /// the exponent here.  At most 31: the back-off factor is a `u32` power
    /// of two.
    pub max_backoff_exponent: u32,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: DEFAULT_MSS,
            initial_cwnd: 1.0,
            initial_ssthresh: 32.0,
            receiver_window: 64.0,
            min_rto: 1.0,
            max_rto: 64.0,
            dupack_threshold: 3,
            max_backoff_exponent: 6,
        }
    }
}

impl TcpConfig {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if !(self.initial_cwnd >= 1.0 && self.initial_cwnd.is_finite()) {
            return Err("initial_cwnd must be a finite number of at least one segment".into());
        }
        if !(self.receiver_window >= 1.0 && self.receiver_window.is_finite()) {
            return Err("receiver_window must be a finite number of at least one segment".into());
        }
        // +inf passes: RFC 5681's "arbitrarily high".
        if self.initial_ssthresh.is_nan() || self.initial_ssthresh < 2.0 {
            return Err("initial_ssthresh must be at least two segments".into());
        }
        if !(self.min_rto > 0.0 && self.min_rto <= self.max_rto && self.max_rto.is_finite()) {
            return Err("RTO bounds must satisfy 0 < min_rto <= max_rto < inf".into());
        }
        if self.dupack_threshold == 0 {
            return Err("dupack_threshold must be at least 1".into());
        }
        if self.max_backoff_exponent > 31 {
            return Err("max_backoff_exponent must be at most 31".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_reno_setup() {
        let c = TcpConfig::default();
        c.validate().unwrap();
        assert_eq!(c.mss, DEFAULT_MSS);
        assert_eq!(c.dupack_threshold, 3);
        assert!(c.min_rto >= 1.0);
    }

    #[test]
    fn default_profile_is_the_paper_bulk_flow() {
        let p = FlowProfile::default();
        p.validate().unwrap();
        assert_eq!(p, FlowProfile::bulk());
        assert_eq!(p.start, 0.0);
        assert_eq!(p.bytes, None);
    }

    #[test]
    fn profile_validation_rejects_bad_values() {
        let bad = |p: FlowProfile| assert!(p.validate().is_err(), "{p:?}");
        bad(FlowProfile {
            start: -1.0,
            ..Default::default()
        });
        bad(FlowProfile {
            start: f64::NAN,
            ..Default::default()
        });
        bad(FlowProfile {
            bytes: Some(0),
            ..Default::default()
        });
        FlowProfile {
            start: 3.0,
            bytes: Some(100_000),
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(TcpConfig {
            mss: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            initial_cwnd: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            receiver_window: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            min_rto: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            max_rto: 0.5,
            min_rto: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(TcpConfig {
            dupack_threshold: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        for bad in [1.5, f64::NAN, f64::NEG_INFINITY] {
            let c = TcpConfig {
                initial_ssthresh: bad,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "initial_ssthresh = {bad}");
        }
        TcpConfig {
            initial_ssthresh: f64::INFINITY,
            ..Default::default()
        }
        .validate()
        .expect("an arbitrarily high initial ssthresh is RFC 5681's default");
        for (exponent, valid) in [(31, true), (32, false), (u32::MAX, false)] {
            let c = TcpConfig {
                max_backoff_exponent: exponent,
                ..Default::default()
            };
            assert_eq!(
                c.validate().is_ok(),
                valid,
                "max_backoff_exponent = {exponent}"
            );
        }
        // Non-finite values fail validation instead of panicking mid-run.
        for x in [f64::NAN, f64::INFINITY] {
            for bad in [
                TcpConfig {
                    initial_cwnd: x,
                    ..Default::default()
                },
                TcpConfig {
                    receiver_window: x,
                    ..Default::default()
                },
                TcpConfig {
                    min_rto: x,
                    ..Default::default()
                },
                TcpConfig {
                    max_rto: x,
                    ..Default::default()
                },
            ] {
                assert!(bad.validate().is_err(), "{bad:?}");
            }
        }
    }
}
