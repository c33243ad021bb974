//! Plain-text rendering of figures, tables and sweep results.
//!
//! The `reproduce` binary of the root package prints these tables; EXPERIMENTS.md
//! records them next to the paper's reported trends.

use crate::figures::{figure_series, FigureId, FigureSeries};
use crate::runner::SweepOutcome;
use manet_security::RelayDistribution;
use std::fmt::Write as _;

/// Render one figure as a text table: one row per speed, one column per
/// protocol.
pub fn render_figure(figure: FigureId, outcome: &SweepOutcome) -> String {
    let series = figure_series(figure, outcome);
    render_series(figure, &series)
}

/// Render pre-built series (used by the ablation benches as well).
pub fn render_series(figure: FigureId, series: &[FigureSeries]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", figure.title());
    if series.is_empty() {
        let _ = writeln!(out, "  (no data)");
        return out;
    }
    // Header.
    let _ = write!(out, "{:>12}", "speed (m/s)");
    for s in series {
        let _ = write!(out, "{:>14}", s.protocol.name());
    }
    let _ = writeln!(out);
    // Every speed present in the first series (all series share the grid).
    let speeds: Vec<f64> = series[0].points.iter().map(|p| p.max_speed).collect();
    for (i, speed) in speeds.iter().enumerate() {
        let _ = write!(out, "{:>12.1}", speed);
        for s in series {
            let v = s.points.get(i).map(|p| p.value).unwrap_or(f64::NAN);
            let _ = write!(out, "{:>14.4}", v);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render Table I: per-node relay counts, shares, the total and the standard
/// deviation, in the same layout as the paper.  β counts relay *events* (a
/// MAC retry or a TCP retransmission relays the same packet again), which
/// the column header says; Fig. 7's `Pe` counts unique delivered packets.
pub fn render_relay_table(table: &RelayDistribution) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I — normalization of the received packets in the participating nodes"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12}",
        "Node ID", "beta events", "gamma"
    );
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>11.4}%",
            row.node.0,
            row.beta,
            row.gamma * 100.0
        );
    }
    let _ = writeln!(out, "{:>8} {:>12} {:>12}", "", "alpha", "std dev");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>11.2}%",
        "",
        table.alpha,
        table.std_dev * 100.0
    );
    out
}

/// Render every figure of the evaluation section for one sweep.
pub fn render_all_figures(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    for figure in FigureId::ALL {
        if figure == FigureId::Table1RelayTable {
            continue; // Table I needs its own single run, not the sweep.
        }
        out.push_str(&render_figure(figure, outcome));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::protocol::Protocol;
    use crate::runner::{AggregatedPoint, SweepOutcome};
    use manet_netsim::{Observation, Recorder, SimTime};
    use manet_security::relay_distribution;
    use manet_wire::{ConnectionId, DataPacket, NodeId, PacketId, TcpSegment};

    fn fake_outcome() -> SweepOutcome {
        let mut points = Vec::new();
        for &protocol in &Protocol::ALL {
            for &speed in &[2.0, 20.0] {
                let metrics = RunMetrics {
                    participating_nodes: 5,
                    delivery_rate: 0.9,
                    control_overhead: 100,
                    ..Default::default()
                };
                points.push(AggregatedPoint {
                    protocol,
                    max_speed: speed,
                    metrics: metrics.clone(),
                    per_seed: vec![metrics],
                });
            }
        }
        SweepOutcome { points }
    }

    #[test]
    fn figure_rendering_includes_all_protocols_and_speeds() {
        let text = render_figure(FigureId::Fig5ParticipatingNodes, &fake_outcome());
        assert!(text.contains("Fig. 5"));
        assert!(text.contains("DSR"));
        assert!(text.contains("AODV"));
        assert!(text.contains("MTS"));
        assert!(text.contains("2.0"));
        assert!(text.contains("20.0"));
    }

    #[test]
    fn empty_outcome_renders_gracefully() {
        let text = render_figure(FigureId::Fig8Delay, &SweepOutcome::default());
        assert!(text.contains("no data"));
    }

    #[test]
    fn relay_table_rendering_mirrors_table1_layout() {
        let mut rec = Recorder::new();
        for (node, count) in [(2u16, 10u64), (7, 30)] {
            for i in 0..count {
                let id = PacketId(u64::from(node) * 1000 + i);
                let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
                let packet = &DataPacket::new(id, NodeId(0), NodeId(9), segment);
                rec.observe(
                    SimTime::ZERO,
                    Observation::Relay {
                        node: NodeId(node),
                        packet,
                    },
                );
            }
        }
        let table = relay_distribution(&rec);
        let text = render_relay_table(&table);
        assert!(text.contains("Table I"));
        assert!(text.contains("beta"));
        assert!(text.contains("alpha"));
        assert!(text.contains("40")); // alpha = 40
    }

    /// The rendered Figs 5–11 of a tiny grid (AODV and MTS × 2 and 10 m/s ×
    /// seed 1 × 5 s).  The text was taken from a build of the commit before
    /// the figure grid and the attack matrix shared one run list, so a change
    /// to the grid runner, the figure selection or the renderer that moves a
    /// printed digit fails here.  Only Fig. 7 was re-pinned since, when its
    /// `Pe` became unique delivered packets (AODV 0.9304 → 0.8867, MTS
    /// 1.0377 → 1.0000, at 2 m/s); nothing simulated moved.
    #[test]
    fn rendered_figures_of_a_tiny_grid_are_pinned() {
        let spec = crate::runner::SweepSpec {
            protocols: vec![Protocol::Aodv, Protocol::Mts],
            speeds: vec![2.0, 10.0],
            seeds: vec![1],
            duration: 5.0,
        };
        let text = render_all_figures(&crate::runner::sweep(&spec));
        assert_eq!(text, PINNED_FIGURES);
    }

    const PINNED_FIGURES: &str = concat!(
        "Fig. 5 — number of participating nodes\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0       22.0000       14.0000\n",
        "        10.0       22.0000       14.0000\n",
        "\n",
        "Fig. 6 — std. deviation of relayed-packet shares\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0        0.0450        0.0599\n",
        "        10.0        0.0449        0.0596\n",
        "\n",
        "Fig. 7 — highest interception ratio\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0        0.8867        1.0000\n",
        "        10.0        0.8858        1.0000\n",
        "\n",
        "Fig. 8 — average end-to-end delay (s)\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0        0.0893        0.1569\n",
        "        10.0        0.0894        0.1662\n",
        "\n",
        "Fig. 9 — throughput (data packets delivered)\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0      503.0000      583.0000\n",
        "        10.0      499.0000      548.0000\n",
        "\n",
        "Fig. 10 — delivery rate\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0        0.9581        0.9636\n",
        "        10.0        0.9615        0.9631\n",
        "\n",
        "Fig. 11 — control overhead (routing packets)\n",
        " speed (m/s)          AODV           MTS\n",
        "         2.0      334.0000      162.0000\n",
        "        10.0      334.0000      163.0000\n",
        "\n",
    );

    #[test]
    fn render_all_covers_each_figure() {
        let text = render_all_figures(&fake_outcome());
        for fig in [
            "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11",
        ] {
            assert!(text.contains(fig), "missing {fig}");
        }
    }
}
