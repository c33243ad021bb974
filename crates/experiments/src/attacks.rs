//! The attack-aware experiment matrix: protocol × attack × speed × seed.
//!
//! The paper's sweep varies protocol and node speed against a single passive
//! eavesdropper.  This module adds the hostile axes: every protocol
//! (including the hardened MTS variant) is run against every
//! [`AttackConfig`] of a spec (clean baseline included) at every mobility
//! regime of the spec, seeds are averaged exactly like the paper's five
//! repetitions, and the runs parallelise with rayon just like the speed
//! sweep.  Because attacker placement, drop decisions, tunnel hooks and
//! jamming draws are all derived from the run seed, the whole matrix is
//! reproducible byte-for-byte.

use crate::metrics::RunMetrics;
use crate::protocol::Protocol;
use crate::runner::run_scenario;
use crate::scenario::Scenario;
use manet_adversary::AttackConfig;
use rayon::prelude::*;
use std::fmt::Write as _;

/// Specification of an attack matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSweepSpec {
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Attack axis (usually starts with the clean baseline).
    pub attacks: Vec<AttackConfig>,
    /// Maximum node speeds, m/s (the canonical matrix sweeps {1, 10, 20}:
    /// near-static, the paper's moderate regime, and high mobility).
    pub speeds: Vec<f64>,
    /// Seeds averaged per cell.
    pub seeds: Vec<u64>,
    /// Simulated duration per run, seconds.
    pub duration: f64,
}

impl AttackSweepSpec {
    /// The canonical speeds of the attack matrix, m/s.
    pub const CANONICAL_SPEEDS: [f64; 3] = [1.0, 10.0, 20.0];

    /// The canonical matrix: all protocols (hardened MTS included) × the
    /// canonical attack axis × the canonical speeds {1, 10, 20 m/s}.
    pub fn canonical(duration: f64, seeds: u64) -> Self {
        AttackSweepSpec {
            protocols: Protocol::WITH_HARDENED.to_vec(),
            attacks: AttackConfig::canonical_matrix(),
            speeds: Self::CANONICAL_SPEEDS.to_vec(),
            seeds: (1..=seeds).collect(),
            duration,
        }
    }

    /// The canonical matrix restricted to one mobility regime.
    pub fn canonical_at_speeds(duration: f64, seeds: u64, speeds: Vec<f64>) -> Self {
        AttackSweepSpec {
            speeds,
            ..Self::canonical(duration, seeds)
        }
    }

    /// Total number of simulation runs in the matrix.
    pub fn total_runs(&self) -> usize {
        self.protocols.len() * self.attacks.len() * self.speeds.len() * self.seeds.len()
    }
}

/// One aggregated (protocol, attack, speed) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackCell {
    /// Routing protocol of the cell.
    pub protocol: Protocol,
    /// Attack of the cell.
    pub attack: AttackConfig,
    /// Maximum node speed of the cell, m/s.
    pub max_speed: f64,
    /// Metrics averaged over the seeds.
    pub metrics: RunMetrics,
    /// Per-seed metrics (variance inspection, paired tests).
    pub per_seed: Vec<RunMetrics>,
}

/// Result of an attack-matrix sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttackMatrixOutcome {
    /// One cell per (protocol, attack, speed), ordered speed-major, then
    /// attack, then protocol.
    pub cells: Vec<AttackCell>,
}

impl AttackMatrixOutcome {
    /// The cell for a (protocol, attack, speed) triple.
    pub fn cell(
        &self,
        protocol: Protocol,
        attack: &AttackConfig,
        speed: f64,
    ) -> Option<&AttackCell> {
        self.cells.iter().find(|c| {
            c.protocol == protocol && c.attack == *attack && (c.max_speed - speed).abs() < 1e-9
        })
    }

    /// Distinct attack labels, in matrix order.
    pub fn attack_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for c in &self.cells {
            let l = c.attack.to_string();
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
        labels
    }

    /// Distinct speeds, ascending.
    pub fn speeds(&self) -> Vec<f64> {
        let mut v: Vec<f64> = Vec::new();
        for c in &self.cells {
            if !v.iter().any(|s| (s - c.max_speed).abs() < 1e-9) {
                v.push(c.max_speed);
            }
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    /// Distinct protocols, in matrix order.
    pub fn protocols(&self) -> Vec<Protocol> {
        let mut v = Vec::new();
        for c in &self.cells {
            if !v.contains(&c.protocol) {
                v.push(c.protocol);
            }
        }
        v
    }
}

/// Run the attack matrix, parallelising across independent runs.
///
/// # Examples
///
/// A minimal matrix — one protocol pair, one attack plus the clean baseline,
/// one speed and seed (larger specs only add axes):
///
/// ```no_run
/// use manet_adversary::AttackConfig;
/// use manet_experiments::attacks::{attack_matrix, AttackSweepSpec};
/// use manet_experiments::Protocol;
///
/// let spec = AttackSweepSpec {
///     protocols: vec![Protocol::Mts, Protocol::MtsHardened],
///     attacks: vec![AttackConfig::none(), AttackConfig::blackhole(2)],
///     speeds: vec![10.0],
///     seeds: vec![1],
///     duration: 30.0,
/// };
/// let outcome = attack_matrix(&spec);
/// let clean = outcome
///     .cell(Protocol::Mts, &AttackConfig::none(), 10.0)
///     .expect("every (protocol, attack, speed) triple gets a cell");
/// assert_eq!(clean.metrics.adversary_drops, 0);
/// ```
pub fn attack_matrix(spec: &AttackSweepSpec) -> AttackMatrixOutcome {
    // Runs carry their attack's index in the spec so aggregation groups by
    // value even if two attacks render to similar labels.
    let mut runs: Vec<(Protocol, usize, f64, u64)> = Vec::with_capacity(spec.total_runs());
    for &speed in &spec.speeds {
        for attack_idx in 0..spec.attacks.len() {
            for &protocol in &spec.protocols {
                for &seed in &spec.seeds {
                    runs.push((protocol, attack_idx, speed, seed));
                }
            }
        }
    }
    let results: Vec<((Protocol, usize, f64), RunMetrics)> = runs
        .par_iter()
        .map(|&(protocol, attack_idx, speed, seed)| {
            let mut scenario = Scenario::paper(protocol, speed, seed);
            scenario.sim.duration = manet_netsim::Duration::from_secs(spec.duration);
            let scenario = scenario.with_attack(spec.attacks[attack_idx]);
            let metrics = run_scenario(&scenario);
            ((protocol, attack_idx, speed), metrics)
        })
        .collect();

    let mut cells = Vec::new();
    for &speed in &spec.speeds {
        for (attack_idx, &attack) in spec.attacks.iter().enumerate() {
            for &protocol in &spec.protocols {
                let per_seed: Vec<RunMetrics> = results
                    .iter()
                    .filter(|((p, a, s), _)| {
                        *p == protocol && *a == attack_idx && (*s - speed).abs() < 1e-9
                    })
                    .map(|(_, m)| m.clone())
                    .collect();
                if per_seed.is_empty() {
                    continue;
                }
                cells.push(AttackCell {
                    protocol,
                    attack,
                    max_speed: speed,
                    metrics: RunMetrics::average(&per_seed),
                    per_seed,
                });
            }
        }
    }
    AttackMatrixOutcome { cells }
}

/// The matrix columns rendered by [`render_attack_matrix`].
const MATRIX_COLUMNS: [(&str, fn(&RunMetrics) -> f64); 6] = [
    ("delivery", |m| m.delivery_rate),
    ("thru(pkt)", |m| m.throughput_packets as f64),
    ("adv.drops", |m| m.adversary_drops as f64),
    ("jammed", |m| m.jammed_frames as f64),
    ("coalition", |m| m.coalition_interception_ratio),
    ("capture", |m| m.attacker_capture_ratio),
];

/// Render the matrix as one text table per (protocol, speed): one row per
/// attack, one column per headline metric.
pub fn render_attack_matrix(outcome: &AttackMatrixOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Attack matrix — protocol x attack x speed (seed-averaged)"
    );
    let labels = outcome.attack_labels();
    for &protocol in &outcome.protocols() {
        for &speed in &outcome.speeds() {
            let rows: Vec<&AttackCell> = outcome
                .cells
                .iter()
                .filter(|c| c.protocol == protocol && (c.max_speed - speed).abs() < 1e-9)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n[{} @ {} m/s]", protocol.name(), speed);
            let _ = write!(out, "{:>24}", "attack");
            for (name, _) in MATRIX_COLUMNS {
                let _ = write!(out, "{:>12}", name);
            }
            let _ = writeln!(out);
            for label in &labels {
                let Some(cell) = rows.iter().find(|c| &c.attack.to_string() == label) else {
                    continue;
                };
                let _ = write!(out, "{:>24}", label);
                for (_, value) in MATRIX_COLUMNS {
                    let _ = write!(out, "{:>12.4}", value(&cell.metrics));
                }
                let _ = writeln!(out);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_adversary::CoalitionPlacement;

    #[test]
    fn spec_counts_runs() {
        let spec = AttackSweepSpec::canonical(10.0, 2);
        assert_eq!(
            spec.total_runs(),
            4 * AttackConfig::canonical_matrix().len() * 3 * 2
        );
        let single = AttackSweepSpec::canonical_at_speeds(10.0, 2, vec![10.0]);
        assert_eq!(
            single.total_runs(),
            4 * AttackConfig::canonical_matrix().len() * 2
        );
    }

    #[test]
    fn tiny_matrix_covers_every_cell_and_renders() {
        let spec = AttackSweepSpec {
            protocols: vec![Protocol::Dsr, Protocol::Mts],
            attacks: vec![
                AttackConfig::none(),
                AttackConfig::blackhole(2),
                AttackConfig::coalition(2, CoalitionPlacement::Greedy),
            ],
            speeds: vec![10.0],
            seeds: vec![1],
            duration: 10.0,
        };
        let outcome = attack_matrix(&spec);
        assert_eq!(outcome.cells.len(), 6);
        assert_eq!(outcome.attack_labels().len(), 3);
        assert_eq!(outcome.speeds(), vec![10.0]);
        assert_eq!(outcome.protocols(), vec![Protocol::Dsr, Protocol::Mts]);
        let clean = outcome
            .cell(Protocol::Mts, &AttackConfig::none(), 10.0)
            .unwrap();
        assert_eq!(clean.metrics.adversary_drops, 0);
        assert_eq!(clean.metrics.jammed_frames, 0);
        assert_eq!(clean.metrics.attacker_capture_ratio, 0.0);
        let coalition = outcome
            .cell(
                Protocol::Mts,
                &AttackConfig::coalition(2, CoalitionPlacement::Greedy),
                10.0,
            )
            .unwrap();
        assert!(coalition.metrics.coalition_interception_ratio >= 0.0);
        let text = render_attack_matrix(&outcome);
        assert!(text.contains("[MTS @ 10 m/s]") && text.contains("[DSR @ 10 m/s]"));
        assert!(text.contains("blackhole(x2)"));
        assert!(text.contains("clean"));
        assert!(text.contains("capture"));
    }

    #[test]
    fn speed_axis_produces_one_block_per_speed() {
        let spec = AttackSweepSpec {
            protocols: vec![Protocol::Aodv],
            attacks: vec![AttackConfig::none()],
            speeds: vec![1.0, 20.0],
            seeds: vec![1],
            duration: 8.0,
        };
        let outcome = attack_matrix(&spec);
        assert_eq!(outcome.cells.len(), 2);
        assert_eq!(outcome.speeds(), vec![1.0, 20.0]);
        assert!(outcome
            .cell(Protocol::Aodv, &AttackConfig::none(), 1.0)
            .is_some());
        assert!(outcome
            .cell(Protocol::Aodv, &AttackConfig::none(), 10.0)
            .is_none());
        let text = render_attack_matrix(&outcome);
        assert!(text.contains("[AODV @ 1 m/s]") && text.contains("[AODV @ 20 m/s]"));
    }

    #[test]
    fn matrix_is_deterministic_per_seed() {
        let spec = AttackSweepSpec {
            protocols: vec![Protocol::Aodv],
            attacks: vec![AttackConfig::grayhole(2, 0.5)],
            speeds: vec![10.0],
            seeds: vec![3],
            duration: 8.0,
        };
        let a = attack_matrix(&spec);
        let b = attack_matrix(&spec);
        assert_eq!(a, b, "same spec, same matrix");
    }
}
