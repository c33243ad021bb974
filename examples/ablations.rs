//! Ablations of the three MTS design knobs, one table each: the number of
//! disjoint paths kept at the destination (the paper fixes five), the
//! route-checking period (the paper recommends 2–4 s, matched to the channel
//! coherence time; shorter periods switch routes more often at the cost of
//! control traffic), and single-best-route forwarding against SMR-like
//! concurrent striping (which the related work reports hurts TCP, because
//! out-of-order arrivals trigger spurious congestion control).
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use mts_repro::prelude::*;

/// One 20 s paper-environment MTS run (max speed 10 m/s, seed 1).
fn run(config: MtsConfig) -> RunMetrics {
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1).with_mts_config(config);
    scenario.sim.duration = Duration::from_secs(20.0);
    run_scenario(&scenario)
}

/// A metric column: heading, width, cell.
type Column = (&'static str, usize, fn(&RunMetrics) -> String);

const PARTICIPANTS: Column = ("participants", 14, |m| m.participating_nodes.to_string());
const HIGHEST_RI: Column = ("highest Ri", 14, |m| {
    format!("{:.4}", m.highest_interception_ratio)
});
const OVERHEAD: Column = ("ctrl overhead", 16, |m| m.control_overhead.to_string());
const fn throughput(width: usize) -> Column {
    ("throughput", width, |m| m.throughput_packets.to_string())
}

/// One ablation: its heading, the knob's column, and the rows by
/// `(knob value, config)`.
struct Ablation {
    title: &'static str,
    knob: (&'static str, usize),
    rows: Vec<(String, MtsConfig)>,
    columns: Vec<Column>,
}

fn main() {
    let striping = |concurrent_striping| MtsConfig {
        concurrent_striping,
        ..MtsConfig::default()
    };
    let ablations = [
        Ablation {
            title: "MTS max_paths ablation (20 s runs, max speed 10 m/s)",
            knob: ("max_paths", 10),
            rows: [1usize, 2, 3, 5, 8]
                .map(|n| (n.to_string(), MtsConfig::with_max_paths(n)))
                .into(),
            columns: vec![PARTICIPANTS, HIGHEST_RI, OVERHEAD],
        },
        Ablation {
            title: "MTS check_period ablation (20 s runs, max speed 10 m/s)",
            knob: ("period (s)", 12),
            rows: [0.5, 1.0, 2.0, 3.0, 4.0, 8.0]
                .map(|p| (format!("{p:.1}"), MtsConfig::with_check_period(p)))
                .into(),
            columns: vec![PARTICIPANTS, HIGHEST_RI, OVERHEAD, throughput(14)],
        },
        Ablation {
            title: "MTS single-best-route vs. SMR-like concurrent striping (20 s runs)",
            knob: ("mode", 16),
            rows: vec![
                ("best-route".to_string(), striping(false)),
                ("striping".to_string(), striping(true)),
            ],
            columns: vec![
                throughput(12),
                ("out-of-order", 14, |m| m.tcp_out_of_order.to_string()),
                ("retransmits", 14, |m| m.tcp_retransmissions.to_string()),
                ("delay (s)", 12, |m| format!("{:.4}", m.mean_delay)),
            ],
        },
    ];
    for ablation in ablations {
        println!("# {}", ablation.title);
        let (knob, width) = ablation.knob;
        let headings = ablation
            .columns
            .iter()
            .map(|(name, w, _)| format!(" {name:>w$}"));
        println!("{knob:>width$}{}", headings.collect::<String>());
        for (label, config) in ablation.rows {
            let metrics = run(config);
            let cells = ablation
                .columns
                .iter()
                .map(|(_, w, cell)| format!(" {:>w$}", cell(&metrics)));
            println!("{label:>width$}{}", cells.collect::<String>());
        }
    }
}
