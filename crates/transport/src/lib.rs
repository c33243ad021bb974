//! # manet-tcp
//!
//! A self-contained TCP Reno implementation driven by the discrete-event
//! simulator, reproducing the behaviour the paper's evaluation relies on:
//!
//! * [`rto`] — Jacobson/Karels round-trip estimation with Karn's rule and
//!   exponential back-off;
//! * [`reno`] — the Reno congestion-control state machine (slow start,
//!   congestion avoidance, fast retransmit, fast recovery);
//! * [`sender`] — the sending endpoint: window management, retransmission
//!   queue, duplicate-ACK counting, retransmission timer, fed by a bulk
//!   source whose [`FlowProfile`] sets the start time and an optional byte
//!   budget;
//! * [`receiver`] — the receiving endpoint: cumulative ACK generation and an
//!   out-of-order reassembly buffer (out-of-order arrivals are what punish
//!   concurrent-multipath schemes, cf. the SMR discussion in the paper);
//! * [`config`] — transport parameters.
//!
//! The endpoints are *sans-io*: they never talk to the simulator directly.
//! They consume events (`segment arrived`, `timer fired`, `time to send`) and
//! return [`TcpOutcome`] values listing segments to transmit and the next
//! retransmission deadline; the connection-table node stack in `manet-stack`
//! moves those segments through the routing layer.  This keeps the whole
//! transport logic unit-testable without a simulator.

pub mod config;
pub mod receiver;
pub mod reno;
pub mod rto;
pub mod sender;

pub use config::{FlowProfile, TcpConfig};
pub use receiver::TcpReceiver;
pub use reno::{CongestionState, RenoController};
pub use rto::RtoEstimator;
pub use sender::{TcpOutcome, TcpSender, TimerHandle};
