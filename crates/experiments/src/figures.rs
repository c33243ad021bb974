//! Figure and table generators.
//!
//! One generator per figure/table of the paper's evaluation section.  Each
//! figure is a set of series (one per protocol) of `(max speed, value)`
//! points; Table I is a per-node relay table for a single DSR run.  The
//! generators only *select* data from a [`SweepOutcome`]; running the sweep is
//! the caller's job (see the root package's `reproduce` binary).

use crate::metrics::RunMetrics;
use crate::protocol::Protocol;
use crate::runner::SweepOutcome;
use crate::scenario::{RunKey, Scenario};
use manet_adversary::AttackConfig;
use manet_security::{relay_distribution, RelayDistribution};

/// Which figure/table of the paper a result regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Fig. 5 — number of participating nodes vs. speed.
    Fig5ParticipatingNodes,
    /// Fig. 6 — standard deviation of the relay shares vs. speed.
    Fig6RelayStdDev,
    /// Fig. 7 — highest interception ratio vs. speed.
    Fig7HighestInterception,
    /// Fig. 8 — average end-to-end delay vs. speed.
    Fig8Delay,
    /// Fig. 9 — TCP throughput vs. speed.
    Fig9Throughput,
    /// Fig. 10 — delivery rate vs. speed.
    Fig10DeliveryRate,
    /// Fig. 11 — control overhead vs. speed.
    Fig11ControlOverhead,
    /// Table I — per-node relay normalization example.
    Table1RelayTable,
}

impl FigureId {
    /// Every figure/table in the evaluation.
    pub const ALL: [FigureId; 8] = [
        FigureId::Fig5ParticipatingNodes,
        FigureId::Fig6RelayStdDev,
        FigureId::Fig7HighestInterception,
        FigureId::Fig8Delay,
        FigureId::Fig9Throughput,
        FigureId::Fig10DeliveryRate,
        FigureId::Fig11ControlOverhead,
        FigureId::Table1RelayTable,
    ];

    /// Short human-readable title.
    pub fn title(self) -> &'static str {
        match self {
            FigureId::Fig5ParticipatingNodes => "Fig. 5 — number of participating nodes",
            FigureId::Fig6RelayStdDev => "Fig. 6 — std. deviation of relayed-packet shares",
            FigureId::Fig7HighestInterception => "Fig. 7 — highest interception ratio",
            FigureId::Fig8Delay => "Fig. 8 — average end-to-end delay (s)",
            FigureId::Fig9Throughput => "Fig. 9 — throughput (data packets delivered)",
            FigureId::Fig10DeliveryRate => "Fig. 10 — delivery rate",
            FigureId::Fig11ControlOverhead => "Fig. 11 — control overhead (routing packets)",
            FigureId::Table1RelayTable => "Table I — relay normalization example (DSR)",
        }
    }

    /// The metric this figure plots, extracted from a run's metrics.
    pub fn value(self, m: &RunMetrics) -> f64 {
        match self {
            FigureId::Fig5ParticipatingNodes => m.participating_nodes as f64,
            FigureId::Fig6RelayStdDev => m.relay_std_dev,
            FigureId::Fig7HighestInterception => m.highest_interception_ratio,
            FigureId::Fig8Delay => m.mean_delay,
            FigureId::Fig9Throughput => m.throughput_packets as f64,
            FigureId::Fig10DeliveryRate => m.delivery_rate,
            FigureId::Fig11ControlOverhead => m.control_overhead as f64,
            FigureId::Table1RelayTable => f64::NAN,
        }
    }
}

/// One `(speed, value)` point of a figure series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigurePoint {
    /// Maximum node speed, m/s (the x axis of every figure).
    pub max_speed: f64,
    /// The plotted value.
    pub value: f64,
}

/// One protocol's series in a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// The figure this series belongs to.
    pub figure: FigureId,
    /// Protocol of the series.
    pub protocol: Protocol,
    /// Points ordered by speed.
    pub points: Vec<FigurePoint>,
}

/// Build the series of `figure` for every protocol present in `outcome`.
pub fn figure_series(figure: FigureId, outcome: &SweepOutcome) -> Vec<FigureSeries> {
    let speeds = outcome.speeds();
    Protocol::ALL
        .iter()
        .filter_map(|&protocol| {
            let points: Vec<FigurePoint> = speeds
                .iter()
                .filter_map(|&speed| {
                    outcome.point(protocol, speed).map(|p| FigurePoint {
                        max_speed: speed,
                        value: figure.value(&p.metrics),
                    })
                })
                .collect();
            if points.is_empty() {
                None
            } else {
                Some(FigureSeries {
                    figure,
                    protocol,
                    points,
                })
            }
        })
        .collect()
}

/// Regenerate Table I: run one DSR scenario and return its per-node relay
/// distribution (β, γ, α, σ).
pub fn table1_relay_table(max_speed: f64, seed: u64, duration_secs: f64) -> RelayDistribution {
    let scenario = Scenario::from_key(&RunKey {
        protocol: Protocol::Dsr,
        attack: AttackConfig::none(),
        max_speed,
        seed,
        duration: duration_secs,
    });
    let (_, recorder) = crate::runner::run_scenario_with_recorder(&scenario);
    relay_distribution(&recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{sweep, SweepSpec};

    #[test]
    fn every_figure_has_a_title_and_metric() {
        let m = RunMetrics {
            participating_nodes: 7,
            relay_std_dev: 0.2,
            highest_interception_ratio: 0.4,
            mean_delay: 0.05,
            throughput_packets: 1234,
            delivery_rate: 0.9,
            control_overhead: 567,
            ..Default::default()
        };
        for f in FigureId::ALL {
            assert!(!f.title().is_empty());
            let v = f.value(&m);
            if f == FigureId::Table1RelayTable {
                assert!(v.is_nan());
            } else {
                assert!(v >= 0.0);
            }
        }
        assert_eq!(FigureId::Fig5ParticipatingNodes.value(&m), 7.0);
        assert_eq!(FigureId::Fig9Throughput.value(&m), 1234.0);
    }

    #[test]
    fn series_are_built_per_protocol_and_ordered_by_speed() {
        let spec = SweepSpec {
            protocols: vec![Protocol::Aodv, Protocol::Mts],
            speeds: vec![10.0, 2.0],
            seeds: vec![1],
            duration: 8.0,
        };
        let outcome = sweep(&spec);
        let series = figure_series(FigureId::Fig11ControlOverhead, &outcome);
        assert_eq!(series.len(), 2);
        for s in &series {
            let speeds: Vec<f64> = s.points.iter().map(|p| p.max_speed).collect();
            assert_eq!(speeds, vec![2.0, 10.0]);
        }
    }
}
