//! Transport-layer parameters: the TCP Reno settings ([`TcpConfig`]) and the
//! start time and byte budget of one bulk flow ([`FlowProfile`]).

use crate::rto::MAX_RTO;
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
/// The paper's ns-2 era Reno runs with 1000-byte segments and a 1 s
/// minimum retransmission timeout.  Its other values are constants of the
/// module that reads them: the initial window, slow-start threshold and
/// receiver window ([`crate::reno`]), the 64 s maximum RTO and the back-off
/// cap ([`crate::rto`]), and the three duplicate ACKs that trigger a fast
/// retransmit ([`crate::sender`]).  The two fields stay settable because
/// something reads them at other values: the benchmark reads `mss`, and the
/// sender's timer-discipline tests draw `min_rto`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Minimum retransmission timeout, seconds.
    pub min_rto: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: DEFAULT_MSS,
            min_rto: 1.0,
        }
    }
}

impl TcpConfig {
    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if !(self.min_rto > 0.0 && self.min_rto <= MAX_RTO) {
            return Err("min_rto must satisfy 0 < min_rto <= MAX_RTO".into());
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
        let bad = |c: TcpConfig| assert!(c.validate().is_err(), "{c:?}");
        bad(TcpConfig {
            mss: 0,
            ..Default::default()
        });
        // Non-finite values fail validation instead of panicking mid-run.
        for min_rto in [0.0, -1.0, MAX_RTO + 1.0, f64::NAN, f64::INFINITY] {
            bad(TcpConfig {
                min_rto,
                ..Default::default()
            });
        }
        TcpConfig {
            min_rto: MAX_RTO,
            ..Default::default()
        }
        .validate()
        .expect("the RTO bounds may meet");
    }
}
