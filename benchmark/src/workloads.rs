//! The seven workloads and how their inputs are generated from `--seed`.
//!
//! The program under test only ever sees the generated [`Scenario`] and
//! [`ExploreSpec`] values.  Benchmark seed `b` draws scenario seeds from the
//! block `(b - 1) * SEED_STRIDE + 1 ..`, so two benchmark seeds never share a
//! scenario.  Every run of a pass gets a scenario seed of its own (the paper's
//! grid pairs protocols on equal seeds; that pairing matters for figures, not
//! for cost): a pass then averages over a few hundred independent topologies,
//! which is what keeps `wall_s` comparable from one benchmark seed to the
//! next.  README.md has the measurements behind every size below.

use manet_experiments::{AttackConfig, Protocol, Scenario};
use manet_mck::{blackhole_corridor, run_with_trace, ChoiceTrace, ExploreSpec, Invariant};
use manet_netsim::{Duration, FluidConfig, TelemetryConfig};

/// Scenario seeds reserved per benchmark seed (more than any workload draws).
const SEED_STRIDE: u64 = 10_000;

/// The paper's five maximum node speeds, m/s.
const PAPER_SPEEDS: [f64; 5] = [2.0, 5.0, 10.0, 15.0, 20.0];

/// Extra delivery delay of a delay intervention (the explorer CLI's value).
const EXPLORE_DELAY_SECS: f64 = 0.002;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    AttackMatrix,
    ScaleFlood,
    FlowsCongested,
    HybridBackground,
    TelemetryStream,
    ExploreSchedules,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::PaperSweep,
        Workload::AttackMatrix,
        Workload::ScaleFlood,
        Workload::FlowsCongested,
        Workload::HybridBackground,
        Workload::TelemetryStream,
        Workload::ExploreSchedules,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::AttackMatrix => "attack_matrix",
            Workload::ScaleFlood => "scale_flood",
            Workload::FlowsCongested => "flows_congested",
            Workload::HybridBackground => "hybrid_background",
            Workload::TelemetryStream => "telemetry_stream",
            Workload::ExploreSchedules => "explore_schedules",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`; README.md has the long form.
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperSweep => {
                "the paper's figure grid (3 protocols x 5 speeds, n=50, one flow) plus Table I and rendering: light load, grid irrelevant, stack callbacks dominate"
            }
            Workload::AttackMatrix => {
                "the canonical attack matrix (4 protocols x 9 attacks x 3 speeds): the only workload running the adversary crate, the engine's jam/wormhole/rush branches and hardened route checks"
            }
            Workload::ScaleFlood => {
                "n=2000, 20 flows: the largest n that still delivers; RREQ-flood bound, so control on_receive plus engine queue/grid/MAC broadcast dominate and transport is idle"
            }
            Workload::FlowsCongested => {
                "n=500 with 50 random-pair flows: same engine, opposite regime - MAC contention, link failures, TCP retransmits and timeouts, connection-table demux"
            }
            Workload::HybridBackground => {
                "n=500, 5 packet flows under 1500 analytic background flows: netsim::fluid does most of the work and the packet path almost none"
            }
            Workload::TelemetryStream => {
                "n=500, 25 flows with telemetry on, then NDJSON encode, parse and conservation check: the engine's write side, and the only place buffering shows in peak_rss_mb"
            }
            Workload::ExploreSchedules => {
                "manet_mck::explore proving a never-violated invariant on black-hole corridors: thousands of 2 ms simulations, so per-run set-up, traced recorder and fingerprinting dominate"
            }
        }
    }
}

/// The aggregation point a simulation run belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub protocol: Protocol,
    pub speed: f64,
    pub attack: AttackConfig,
    /// Health-gate group: the clean runs of one group must together deliver
    /// something.  The sweeps pool a protocol's runs, because a single short
    /// paper run may deliver nothing when its endpoints start out
    /// disconnected (1.3 % of 10 sim-s runs do); elsewhere every run is a
    /// group of its own.
    pub gate: String,
}

#[derive(Clone)]
pub enum OpKind {
    /// One simulation through the public runner; `point` indexes
    /// [`Inputs::points`].
    Sim { scenario: Scenario, point: usize },
    /// One exhaustive exploration.
    Explore(ExploreSpec),
}

#[derive(Clone)]
pub struct Op {
    pub label: String,
    pub kind: OpKind,
}

/// Everything a pass runs, in order.
pub struct Inputs {
    pub workload: Workload,
    pub ops: Vec<Op>,
    pub points: Vec<Point>,
    /// `(speed, seed, sim-seconds)` of the Table I relay-table run.
    pub table1: Option<(f64, u64, f64)>,
}

/// Size of a workload at `scale` (1.0 is the size documented in README.md,
/// about 8 s of work on the reference box; `--seconds` sets `scale`).
/// Shrinks the run count first and the simulated time only below one run.
fn sized(base_count: f64, base_secs: f64, scale: f64) -> (usize, f64) {
    let count = base_count * scale;
    if count >= 1.0 {
        (count.round() as usize, base_secs)
    } else {
        (1, (base_secs * count).max(1.0))
    }
}

/// Generate the inputs of `workload` for benchmark seed `seed` (≥ 1).
pub fn generate(workload: Workload, seed: u64, scale: f64) -> Inputs {
    let mut next_seed = seed.wrapping_sub(1).wrapping_mul(SEED_STRIDE);
    let mut fresh_seed = move || {
        next_seed = next_seed.wrapping_add(1);
        next_seed
    };
    let runs_of = |protocol: Protocol| format!("runs of {protocol}");
    let with_secs = |mut scenario: Scenario, secs: f64| {
        scenario.sim.duration = Duration::from_secs(secs);
        scenario
    };
    let mut inputs = Inputs {
        workload,
        ops: Vec::new(),
        points: Vec::new(),
        table1: None,
    };
    let push_sim = |inputs: &mut Inputs, point: usize, scenario: Scenario| {
        inputs.ops.push(Op {
            label: format!(
                "{} {} v={} seed={}",
                scenario.protocol,
                scenario.attack,
                scenario.sim.mobility.max_speed,
                scenario.sim.seed
            ),
            kind: OpKind::Sim { scenario, point },
        });
    };

    match workload {
        Workload::PaperSweep => {
            let (seeds, secs) = sized(20.0, 20.0, scale);
            for protocol in Protocol::ALL {
                for speed in PAPER_SPEEDS {
                    inputs.points.push(Point {
                        protocol,
                        speed,
                        attack: AttackConfig::none(),
                        gate: runs_of(protocol),
                    });
                    let point = inputs.points.len() - 1;
                    for _ in 0..seeds {
                        let scenario = Scenario::paper(protocol, speed, fresh_seed());
                        push_sim(&mut inputs, point, with_secs(scenario, secs));
                    }
                }
            }
            inputs.table1 = Some((10.0, fresh_seed(), secs));
        }
        Workload::AttackMatrix => {
            let (seeds, secs) = sized(4.0, 15.0, scale);
            // Cell order of `AttackSweepSpec::canonical`: speed-major, then
            // attack, then protocol.
            for speed in [1.0, 10.0, 20.0] {
                for attack in AttackConfig::canonical_matrix() {
                    for protocol in Protocol::WITH_HARDENED {
                        inputs.points.push(Point {
                            protocol,
                            speed,
                            attack,
                            gate: runs_of(protocol),
                        });
                        let point = inputs.points.len() - 1;
                        for _ in 0..seeds {
                            let scenario =
                                Scenario::paper(protocol, speed, fresh_seed()).with_attack(attack);
                            push_sim(&mut inputs, point, with_secs(scenario, secs));
                        }
                    }
                }
            }
        }
        Workload::ScaleFlood
        | Workload::FlowsCongested
        | Workload::HybridBackground
        | Workload::TelemetryStream => {
            let (base_runs, base_secs) = match workload {
                Workload::ScaleFlood => (20.0, 1.0),
                Workload::FlowsCongested => (16.0, 3.0),
                Workload::HybridBackground => (7.0, 10.0),
                _ => (14.0, 3.0),
            };
            let (runs, secs) = sized(base_runs, base_secs, scale);
            // The fluid layer's cost follows its flow count, not the
            // simulated time, so below one run the count shrinks instead.
            let fluid_flows = (1500.0 * (base_runs * scale).min(1.0)) as u32;
            for _ in 0..runs {
                let s = fresh_seed();
                let scenario = match workload {
                    Workload::ScaleFlood => Scenario::scaled(Protocol::Mts, 2000, 10.0, s),
                    Workload::FlowsCongested => {
                        Scenario::random_pairs(Protocol::Mts, 500, 50, 10.0, s)
                    }
                    Workload::HybridBackground => Scenario::scaled(Protocol::Mts, 500, 10.0, s)
                        .with_background(FluidConfig {
                            flows: fluid_flows,
                            arrival_spread: Duration::from_secs(0.8 * secs),
                            ..FluidConfig::default()
                        }),
                    _ => Scenario::random_pairs(Protocol::Mts, 500, 25, 10.0, s).with_telemetry(
                        TelemetryConfig {
                            enabled: true,
                            window_secs: Some(1.0),
                            trace_packet: None,
                        },
                    ),
                };
                // Every run is its own point.
                let point = inputs.points.len();
                inputs.points.push(Point {
                    protocol: Protocol::Mts,
                    speed: 10.0,
                    attack: AttackConfig::none(),
                    gate: format!("run {point}"),
                });
                push_sim(&mut inputs, point, with_secs(scenario, secs));
            }
        }
        Workload::ExploreSchedules => {
            // `capture<=1.0` can never be violated, so every corridor's whole
            // schedule class is enumerated on every seed.
            let corridors = (34.0 * scale).round().max(1.0) as usize;
            let spec_for = |scenario| ExploreSpec {
                scenario,
                horizon: 5,
                max_interventions: 3,
                budget: u64::MAX,
                delay: Duration::from_secs(EXPLORE_DELAY_SECS),
                kinds: vec!["DATA"],
                invariant: Invariant::CaptureAtMost(1.0),
            };
            while inputs.ops.len() < corridors {
                let s = fresh_seed();
                let spec = spec_for(blackhole_corridor(Protocol::MtsHardened, 6, 2.0, s));
                // About one random corridor in four is disconnected: its flow
                // delivers nothing, its schedule class is a single run and a
                // proof over it is vacuous.  Keep the corridors whose unforced
                // schedule exposes the whole horizon.
                let unforced = ChoiceTrace::unforced(spec.horizon, spec.delay, spec.kinds.clone());
                if run_with_trace(&spec.scenario, &unforced).log.eligible_seen
                    >= u64::from(spec.horizon)
                {
                    inputs.ops.push(Op {
                        label: format!("corridor seed={s} horizon={}", spec.horizon),
                        kind: OpKind::Explore(spec),
                    });
                }
            }
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(inputs: &Inputs) -> Vec<String> {
        inputs.ops.iter().map(|op| op.label.clone()).collect()
    }

    #[test]
    fn equal_seeds_give_equal_inputs_and_other_seeds_other_scenarios() {
        for workload in [Workload::PaperSweep, Workload::ScaleFlood] {
            let a = generate(workload, 7, 0.1);
            let b = generate(workload, 7, 0.1);
            assert_eq!(labels(&a), labels(&b));
            let c = generate(workload, 8, 0.1);
            assert!(labels(&a).iter().all(|l| !labels(&c).contains(l)));
        }
    }

    #[test]
    fn every_generated_scenario_is_valid() {
        for workload in Workload::ALL {
            let inputs = generate(workload, 1, 0.1);
            assert!(!inputs.ops.is_empty());
            for op in &inputs.ops {
                let scenario = match &op.kind {
                    OpKind::Sim { scenario, .. } => scenario,
                    OpKind::Explore(spec) => &spec.scenario,
                };
                scenario
                    .validate()
                    .unwrap_or_else(|e| panic!("{}: {e}", op.label));
            }
        }
    }
}
