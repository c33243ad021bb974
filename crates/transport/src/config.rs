//! Transport-layer parameters: the TCP Reno knobs ([`TcpConfig`]) and the
//! application-level traffic shape of one flow ([`FlowProfile`]).

use manet_wire::sizes::DEFAULT_MSS;
use serde::{Deserialize, Serialize};

/// The application-level send pattern of one flow.
///
/// The paper's evaluation uses a single [`FlowShape::Bulk`] transfer; the
/// other shapes model the traffic mixes of a production deployment (bursty
/// media, request/response RPC) so multi-flow scenarios can stress the
/// routing layer with diverse offered loads.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum FlowShape {
    /// FTP-like bulk transfer: an unbounded backlog of application data
    /// (the paper's traffic model).
    #[default]
    Bulk,
    /// Periodic on/off source: the application offers data during `on_secs`,
    /// then goes silent for `off_secs`, repeating from the flow's start time.
    /// Retransmissions of already-offered data are not gated.
    OnOff {
        /// Length of the sending phase, seconds (> 0).
        on_secs: f64,
        /// Length of the silent phase, seconds (> 0).
        off_secs: f64,
    },
    /// Closed-loop request/response: the application writes `request_bytes`,
    /// waits until every byte is acknowledged, thinks for `think_secs`, then
    /// writes the next request.
    RequestResponse {
        /// Bytes per request (> 0).
        request_bytes: u64,
        /// Idle time between a fully-acknowledged request and the next one,
        /// seconds (>= 0).
        think_secs: f64,
    },
}

/// When a flow starts, what it sends and how much.
///
/// The default profile (`start` 0, [`FlowShape::Bulk`], no byte budget) is
/// exactly the paper's single bulk flow, so single-flow scenarios built from
/// defaults stay byte-identical to the pre-profile transport.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowProfile {
    /// Simulated seconds after run start at which the flow opens.
    pub start: f64,
    /// Application-level send pattern.
    pub shape: FlowShape,
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
        match self.shape {
            FlowShape::Bulk => {}
            FlowShape::OnOff { on_secs, off_secs } => {
                if !(on_secs > 0.0 && on_secs.is_finite()) {
                    return Err("on-off flows need a positive on_secs".into());
                }
                if !(off_secs > 0.0 && off_secs.is_finite()) {
                    return Err("on-off flows need a positive off_secs".into());
                }
            }
            FlowShape::RequestResponse {
                request_bytes,
                think_secs,
            } => {
                if request_bytes == 0 {
                    return Err("request-response flows need positive request_bytes".into());
                }
                if !(think_secs >= 0.0 && think_secs.is_finite()) {
                    return Err("request-response flows need a non-negative think_secs".into());
                }
            }
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, in segments.
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
    /// the exponent here.
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
        if !(self.min_rto > 0.0 && self.min_rto <= self.max_rto && self.max_rto.is_finite()) {
            return Err("RTO bounds must satisfy 0 < min_rto <= max_rto < inf".into());
        }
        if self.dupack_threshold == 0 {
            return Err("dupack_threshold must be at least 1".into());
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
        assert_eq!(p.shape, FlowShape::Bulk);
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
        bad(FlowProfile {
            shape: FlowShape::OnOff {
                on_secs: 0.0,
                off_secs: 1.0,
            },
            ..Default::default()
        });
        bad(FlowProfile {
            shape: FlowShape::OnOff {
                on_secs: 1.0,
                off_secs: 0.0,
            },
            ..Default::default()
        });
        bad(FlowProfile {
            shape: FlowShape::RequestResponse {
                request_bytes: 0,
                think_secs: 1.0,
            },
            ..Default::default()
        });
        bad(FlowProfile {
            shape: FlowShape::RequestResponse {
                request_bytes: 1000,
                think_secs: -0.5,
            },
            ..Default::default()
        });
        FlowProfile {
            start: 3.0,
            shape: FlowShape::OnOff {
                on_secs: 2.0,
                off_secs: 1.0,
            },
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
