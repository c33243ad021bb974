//! # mts-repro
//!
//! Umbrella crate for the reproduction of *"A New Multipath Routing Approach
//! to Enhancing TCP Security in Ad Hoc Wireless Networks"* (Zhi Li and
//! Yu-Kwong Kwok, ICPP Workshops 2005).
//!
//! The workspace is organised in layers (see `DESIGN.md`); this crate simply
//! re-exports the pieces a downstream user needs, and hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! ```no_run
//! use mts_repro::prelude::*;
//!
//! // One paper-environment run of MTS at max speed 10 m/s.
//! let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1);
//! scenario.sim.duration = manet_netsim::Duration::from_secs(30.0);
//! let metrics = run_scenario(&scenario);
//! println!("participating nodes: {}", metrics.participating_nodes);
//! println!("highest interception ratio: {:.3}", metrics.highest_interception_ratio);
//! ```

pub use manet_adversary as adversary;
pub use manet_experiments as experiments;
pub use manet_mck as mck;
pub use manet_netsim as netsim;
pub use manet_routing as routing;
pub use manet_security as security;
pub use manet_stack as stack;
pub use manet_tcp as tcp;
pub use manet_wire as wire;
pub use mts_core as mts;

/// The most common imports for building and running experiments.
pub mod prelude {
    pub use manet_adversary::{AttackConfig, AttackKind};
    pub use manet_experiments::attacks::{
        attack_matrix, render_attack_matrix, AttackMatrixOutcome, AttackSweepSpec,
    };
    pub use manet_experiments::figures::{figure_series, table1_relay_table, FigureId};
    pub use manet_experiments::report::{render_figure, render_relay_table};
    pub use manet_experiments::runner::{
        run_scenario, run_scenario_with_recorder, run_with, sweep, RunOptions, SweepSpec,
    };
    pub use manet_experiments::{
        FlowMetrics, Placement, Protocol, RunKey, RunMetrics, Scenario, TrafficFlow,
    };
    pub use manet_netsim::{Duration, JamTarget, RushConfig, SimConfig, SimTime, WormholeConfig};
    pub use manet_security::{
        capture_report, coalition_report, exposure, select_coalition_greedy, Exposure,
    };
    pub use manet_stack::{ManetStack, SharedTcpStats, TcpRunReport, TcpRunStats};
    pub use manet_tcp::FlowProfile;
    pub use manet_wire::{ConnectionId, NodeId};
    pub use mts_core::{Mts, MtsConfig};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_core_types() {
        use crate::prelude::*;
        let s = Scenario::paper(Protocol::Mts, 5.0, 1);
        assert_eq!(s.sim.num_nodes, 50);
        assert_eq!(MtsConfig::default().max_paths, 5);
    }
}
