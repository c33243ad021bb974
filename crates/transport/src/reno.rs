//! Reno congestion control.
//!
//! The controller tracks the congestion window (`cwnd`) and slow-start
//! threshold (`ssthresh`) in units of segments, moving between slow start,
//! congestion avoidance and fast recovery exactly as the classic Reno
//! algorithm does:
//!
//! * slow start — `cwnd += 1` per new ACK while `cwnd < ssthresh`;
//! * congestion avoidance — `cwnd += 1/cwnd` per new ACK;
//! * fast retransmit/recovery — on the third duplicate ACK, halve the window,
//!   retransmit the missing segment and inflate the window by one segment per
//!   further duplicate ACK until a new ACK deflates it back to `ssthresh`;
//! * timeout — `ssthresh = flight/2`, `cwnd = 1`, back to slow start.

/// The congestion-control phase the sender is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionState {
    /// Exponential window growth.
    SlowStart,
    /// Linear window growth.
    CongestionAvoidance,
    /// Recovering from a fast retransmit; the window is temporarily inflated.
    FastRecovery,
}

/// Reno congestion controller (window arithmetic only — no clocks, no I/O).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenoController {
    cwnd: f64,
    ssthresh: f64,
    receiver_window: f64,
    state: CongestionState,
    /// Window value to restore when fast recovery completes.
    recovery_ssthresh: f64,
    /// Counters for diagnostics.
    fast_retransmits: u64,
    timeouts: u64,
}

impl RenoController {
    /// New controller.
    pub fn new(initial_cwnd: f64, initial_ssthresh: f64, receiver_window: f64) -> Self {
        RenoController {
            cwnd: initial_cwnd.max(1.0),
            ssthresh: initial_ssthresh.max(2.0),
            receiver_window: receiver_window.max(1.0),
            state: CongestionState::SlowStart,
            recovery_ssthresh: initial_ssthresh,
            fast_retransmits: 0,
            timeouts: 0,
        }
    }

    /// Current congestion window, in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current slow-start threshold, in segments.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Current phase.
    pub fn state(&self) -> CongestionState {
        self.state
    }

    /// Usable window in whole segments: `min(cwnd, receiver window)`.
    pub fn usable_window(&self) -> u64 {
        self.cwnd.min(self.receiver_window).floor().max(1.0) as u64
    }

    /// Number of fast retransmits performed.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// Number of retransmission timeouts taken.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// A new (window-advancing) ACK arrived.
    pub fn on_new_ack(&mut self) {
        match self.state {
            CongestionState::FastRecovery => {
                // Recovery complete: deflate to ssthresh and continue in
                // congestion avoidance.
                self.cwnd = self.recovery_ssthresh;
                self.state = CongestionState::CongestionAvoidance;
            }
            CongestionState::SlowStart => {
                self.cwnd += 1.0;
                if self.cwnd >= self.ssthresh {
                    self.state = CongestionState::CongestionAvoidance;
                }
            }
            CongestionState::CongestionAvoidance => {
                self.cwnd += 1.0 / self.cwnd;
            }
        }
    }

    /// A duplicate ACK beyond the fast-retransmit threshold arrived while in
    /// fast recovery: inflate the window by one segment.
    pub fn on_extra_dupack(&mut self) {
        if self.state == CongestionState::FastRecovery {
            self.cwnd += 1.0;
        }
    }

    /// The duplicate-ACK threshold was crossed: enter fast recovery.
    /// `flight_segments` is the amount of outstanding data in segments.
    pub fn on_fast_retransmit(&mut self, flight_segments: f64) {
        self.fast_retransmits += 1;
        self.ssthresh = (flight_segments / 2.0).max(2.0);
        self.recovery_ssthresh = self.ssthresh;
        // Window = ssthresh + 3 (the three duplicate ACKs that triggered us).
        self.cwnd = self.ssthresh + 3.0;
        self.state = CongestionState::FastRecovery;
    }

    /// The retransmission timer expired.
    pub fn on_timeout(&mut self, flight_segments: f64) {
        self.timeouts += 1;
        self.ssthresh = (flight_segments / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.state = CongestionState::SlowStart;
    }
}

impl Default for RenoController {
    fn default() -> Self {
        RenoController::new(1.0, 32.0, 64.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = RenoController::new(1.0, 64.0, 128.0);
        assert_eq!(c.state(), CongestionState::SlowStart);
        // One ACK per outstanding segment: after acking a full window the
        // window roughly doubles.
        for _ in 0..4 {
            c.on_new_ack();
        }
        assert!((c.cwnd() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn transitions_to_congestion_avoidance_at_ssthresh() {
        let mut c = RenoController::new(1.0, 4.0, 64.0);
        for _ in 0..3 {
            c.on_new_ack();
        }
        assert_eq!(c.state(), CongestionState::CongestionAvoidance);
        let before = c.cwnd();
        c.on_new_ack();
        // Linear growth: roughly +1/cwnd.
        assert!(c.cwnd() - before < 1.0);
        assert!(c.cwnd() > before);
    }

    #[test]
    fn fast_retransmit_halves_window_and_recovery_deflates() {
        let mut c = RenoController::new(1.0, 8.0, 64.0);
        for _ in 0..16 {
            c.on_new_ack();
        }
        let flight = c.cwnd();
        c.on_fast_retransmit(flight);
        assert_eq!(c.state(), CongestionState::FastRecovery);
        assert!((c.ssthresh() - flight / 2.0).abs() < 1e-9);
        assert!((c.cwnd() - (flight / 2.0 + 3.0)).abs() < 1e-9);
        assert_eq!(c.fast_retransmits(), 1);
        // Extra dupacks inflate.
        c.on_extra_dupack();
        assert!((c.cwnd() - (flight / 2.0 + 4.0)).abs() < 1e-9);
        // New ACK ends recovery at ssthresh, in congestion avoidance.
        c.on_new_ack();
        assert_eq!(c.state(), CongestionState::CongestionAvoidance);
        assert!((c.cwnd() - flight / 2.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_collapses_to_one_segment() {
        let mut c = RenoController::new(1.0, 8.0, 64.0);
        for _ in 0..20 {
            c.on_new_ack();
        }
        let flight = c.cwnd();
        c.on_timeout(flight);
        assert_eq!(c.state(), CongestionState::SlowStart);
        assert!((c.cwnd() - 1.0).abs() < 1e-9);
        assert!((c.ssthresh() - flight / 2.0).abs() < 1e-9);
        assert_eq!(c.timeouts(), 1);
    }

    #[test]
    fn usable_window_respects_receiver_window() {
        let mut c = RenoController::new(1.0, 1000.0, 8.0);
        for _ in 0..100 {
            c.on_new_ack();
        }
        assert_eq!(c.usable_window(), 8);
    }

    #[test]
    fn ssthresh_never_collapses_below_two() {
        let mut c = RenoController::default();
        c.on_timeout(1.0);
        assert!(c.ssthresh() >= 2.0);
        c.on_fast_retransmit(1.0);
        assert!(c.ssthresh() >= 2.0);
    }

    #[test]
    fn extra_dupacks_outside_recovery_are_ignored() {
        let mut c = RenoController::default();
        let before = c.cwnd();
        c.on_extra_dupack();
        assert_eq!(c.cwnd(), before);
    }
}
