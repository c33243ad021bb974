//! The attack-aware experiment matrix: protocol × attack × speed × seed.
//!
//! The paper's sweep varies protocol and node speed against a single passive
//! eavesdropper.  This module adds the hostile axes: every protocol
//! (including the hardened MTS variant) meets every [`AttackConfig`] of a
//! spec (clean baseline included) at every mobility regime of the spec, and
//! seeds are averaged exactly like the paper's five repetitions.  The matrix
//! is a view of the same grid runner as the speed sweep
//! ([`runner`](crate::runner)): its keys run in parallel, and an
//! analysis-only attack (a coalition) is evaluated on the clean run of its
//! seed instead of being simulated again.  Because attacker placement, drop
//! decisions, tunnel hooks and jamming draws are all derived from the run
//! seed, the whole matrix is reproducible byte-for-byte.

use crate::metrics::RunMetrics;
use crate::protocol::Protocol;
use crate::runner::{distinct, run_grid, Cell};
use manet_adversary::AttackConfig;
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

    /// Total number of runs in the matrix, one per cell and seed.
    pub fn total_runs(&self) -> usize {
        self.protocols.len() * self.attacks.len() * self.speeds.len() * self.seeds.len()
    }

    /// The (protocol, attack, speed) cells, speed-major, then attack, then
    /// protocol.
    fn cells(&self) -> impl Iterator<Item = Cell> + '_ {
        let speed_attack = self
            .speeds
            .iter()
            .flat_map(move |&s| self.attacks.iter().map(move |&a| (s, a)));
        speed_attack.flat_map(move |(s, a)| self.protocols.iter().map(move |&p| (p, a, s)))
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
        distinct(self.cells.iter().map(|c| c.attack.to_string()))
    }

    /// Distinct speeds, ascending.
    pub fn speeds(&self) -> Vec<f64> {
        let mut v = distinct(self.cells.iter().map(|c| c.max_speed));
        v.sort_by(f64::total_cmp);
        v
    }

    /// Distinct protocols, in matrix order.
    pub fn protocols(&self) -> Vec<Protocol> {
        distinct(self.cells.iter().map(|c| c.protocol))
    }
}

/// Run the attack matrix.
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
    let cells = run_grid(spec.cells(), &spec.seeds, spec.duration)
        .into_iter()
        .map(|(key, per_seed)| AttackCell {
            protocol: key.protocol,
            attack: key.attack,
            max_speed: key.max_speed,
            metrics: RunMetrics::average(&per_seed),
            per_seed,
        })
        .collect();
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
    use crate::runner::{grid_keys, run_scenario, simulations};
    use crate::scenario::Scenario;
    use manet_security::CoalitionPlacement;

    #[test]
    fn spec_counts_runs() {
        let spec = AttackSweepSpec::canonical(10.0, 2);
        assert_eq!(
            spec.total_runs(),
            4 * AttackConfig::canonical_matrix().len() * 3 * 2
        );
        let single = AttackSweepSpec {
            speeds: vec![10.0],
            ..AttackSweepSpec::canonical(10.0, 2)
        };
        assert_eq!(
            single.total_runs(),
            4 * AttackConfig::canonical_matrix().len() * 2
        );
        // The coalition reuses the clean runs: 480 simulations for the
        // paper-size 540 runs.
        let paper = AttackSweepSpec::canonical(200.0, 5);
        let keys = grid_keys(paper.cells(), &paper.seeds, paper.duration);
        assert_eq!((keys.len(), simulations(&keys).len()), (540, 480));
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

    /// The rendered matrix of DSR and MTS × {clean, a random k = 3 coalition,
    /// a wormhole} × 10 m/s × seed 1 × 5 s.  The text was taken from a build
    /// of the commit before coalition cells reused the clean runs, when every
    /// cell was simulated on its own: the coalition rows must still equal the
    /// clean rows except in the `coalition` column.
    #[test]
    fn rendered_matrix_of_a_tiny_spec_is_pinned() {
        let spec = AttackSweepSpec {
            protocols: vec![Protocol::Dsr, Protocol::Mts],
            attacks: vec![
                AttackConfig::none(),
                AttackConfig::coalition(3, CoalitionPlacement::Random),
                AttackConfig::wormhole(),
            ],
            speeds: vec![10.0],
            seeds: vec![1],
            duration: 5.0,
        };
        assert_eq!(render_attack_matrix(&attack_matrix(&spec)), PINNED_MATRIX);
    }

    const PINNED_MATRIX: &str = concat!(
        "Attack matrix — protocol x attack x speed (seed-averaged)\n",
        "\n",
        "[DSR @ 10 m/s]\n",
        "                  attack    delivery   thru(pkt)   adv.drops      jammed   coalition     capture\n",
        "                   clean      0.9730    648.0000      0.0000      0.0000      0.0000      0.0000\n",
        "     coalition(k=3,rand)      0.9730    648.0000      0.0000      0.0000      0.0000      0.0000\n",
        "                wormhole      0.9973    748.0000      0.0000      0.0000      0.0000      0.9439\n",
        "\n",
        "[MTS @ 10 m/s]\n",
        "                  attack    delivery   thru(pkt)   adv.drops      jammed   coalition     capture\n",
        "                   clean      0.9631    548.0000      0.0000      0.0000      0.0000      0.0000\n",
        "     coalition(k=3,rand)      0.9631    548.0000      0.0000      0.0000      0.0018      0.0000\n",
        "                wormhole      0.9557    690.0000      0.0000      0.0000      0.0000      0.0783\n",
    );

    /// A coalition cell is the clean run of its seed with the coalition
    /// evaluated on that run's recorder: its per-seed metrics equal a fresh
    /// simulation of the coalition scenario, whether or not the spec also
    /// lists the clean baseline.
    #[test]
    fn coalition_cells_equal_a_fresh_coalition_run() {
        let coalition = AttackConfig::coalition(3, CoalitionPlacement::Greedy);
        let (speed, seeds, duration) = (10.0, vec![1, 2], 5.0);
        let fresh: Vec<RunMetrics> = seeds
            .iter()
            .map(|&seed| {
                let mut scenario = Scenario::paper(Protocol::Mts, speed, seed);
                scenario.sim.duration = manet_netsim::Duration::from_secs(duration);
                run_scenario(&scenario.with_attack(coalition))
            })
            .collect();
        assert!(fresh.iter().any(|m| m.coalition_interception_ratio > 0.0));
        for attacks in [vec![AttackConfig::none(), coalition], vec![coalition]] {
            let spec = AttackSweepSpec {
                protocols: vec![Protocol::Mts],
                attacks,
                speeds: vec![speed],
                seeds: seeds.clone(),
                duration,
            };
            let keys = grid_keys(spec.cells(), &spec.seeds, spec.duration);
            assert_eq!(simulations(&keys).len(), seeds.len());
            let outcome = attack_matrix(&spec);
            let cell = outcome.cell(Protocol::Mts, &coalition, speed).unwrap();
            assert_eq!(cell.per_seed, fresh);
        }
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
