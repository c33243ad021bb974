//! Run execution and the experiment grid.
//!
//! [`run_with`] is the one place that assembles a run: it builds every
//! node's stack (the connection-table stack, wrapped into a hostile relay on
//! a configured black hole, then handed to [`RunOptions::decorate`] when
//! there is one), the scenario's mobility ([`Placement`]) and the
//! [`Simulator`], runs it and extracts the [`RunMetrics`].  [`run_scenario`]
//! and [`run_scenario_with_recorder`] are `run_with` with default options.
//!
//! The evaluation is one grid of runs, each named by a [`RunKey`], run in
//! parallel with rayon, one simulation per distinct simulated scenario: a
//! key whose attack is analysis-only ([`AttackConfig::is_analysis_only`])
//! is evaluated on the clean run of its seed.  [`sweep`] (averaged per point
//! as the paper averages its five repetitions) and
//! [`attack_matrix`](crate::attacks::attack_matrix) are views of that grid.

use crate::metrics::{coalition_interception_ratio, RunMetrics};
use crate::protocol::Protocol;
use crate::scenario::{Placement, RunKey, Scenario};
use crate::stack::{ManetStack, SharedTcpStats, TcpRunReport};
use manet_adversary::mobile::CORRIDOR_JITTER_M;
use manet_adversary::{AttackConfig, AttackKind, BlackholeStack, CorridorMobility};
use manet_netsim::mobility::{MobilityModel, RandomWaypoint, StaticPlacement};
use manet_netsim::{DeliveryChoiceHook, NodeStack, Recorder, Simulator, TraceMode};
use manet_tcp::TcpConfig;
use manet_wire::{ConnectionId, NodeId};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::Arc;

/// How [`run_with`] runs a scenario, beyond what the scenario itself fixes.
/// The default keeps no trace, installs no hook and decorates nothing.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// What the recorder keeps of the event trace.  The equivalence suites
    /// keep it ([`TraceMode::Keep`]) to diff two runs byte for byte; the
    /// explorer folds it into the fingerprint only
    /// ([`TraceMode::Fingerprint`]); sweeps keep it off, since a kept trace
    /// costs memory proportional to the number of transmissions.
    pub trace: TraceMode,
    /// Offered every addressed reception (bounded model checking; see
    /// `manet_netsim::choice` and `crates/mck`).
    pub hook: Option<Box<dyn DeliveryChoiceHook>>,
    /// Called once per node with its finished stack (after the black-hole
    /// wrapper); the engine runs the stack it returns.  A measuring wrapper
    /// that forwards every callback leaves the run unchanged.
    pub decorate: Option<&'a dyn Fn(NodeId, Box<dyn NodeStack>) -> Box<dyn NodeStack>>,
}

/// Build node `me`'s protocol stack for `scenario`: the connection-table
/// stack, wrapped into a hostile relay when `me` is a configured attacker.
fn build_stack(scenario: &Scenario, stats: &SharedTcpStats, me: NodeId) -> Box<dyn NodeStack> {
    let tcp_config: TcpConfig = scenario.tcp;
    let agent = scenario.protocol.build_agent(me, scenario.mts);
    // Flow `idx` is connection `idx`: every endpoint the node terminates
    // goes into its connection table (a node can hold any mix of senders and
    // receivers concurrently).
    let mut node_stack = ManetStack::new(me, agent, Arc::clone(stats));
    for (idx, flow) in scenario.flows.iter().enumerate() {
        let conn = ConnectionId(idx as u32);
        if flow.fluid {
            // Fluid flows run in the engine's analytic layer; the stack only
            // keeps an inert endpoint at the source so the flow shows up in
            // the TCP report alongside its packet siblings.
            if flow.src == me {
                node_stack.add_fluid(conn, flow.dst);
            }
        } else {
            if flow.src == me {
                node_stack.add_sender(conn, flow.dst, tcp_config, flow.profile());
            }
            if flow.dst == me {
                node_stack.add_receiver(conn, flow.src);
            }
        }
    }
    let stack = Box::new(node_stack) as Box<dyn NodeStack>;
    // Hostile relays wrap the honest stack so they stay protocol-
    // conformant except for the forged replies and the data drops.
    if let AttackKind::Blackhole { drop_fraction, .. } = scenario.attack.kind {
        if scenario.attackers.contains(&me) {
            return Box::new(BlackholeStack::new(
                me,
                stack,
                drop_fraction,
                scenario.sim.seed,
            ));
        }
    }
    stack
}

/// Build the scenario's mobility model.
fn build_mobility(scenario: &Scenario) -> Box<dyn MobilityModel> {
    if let Placement::Static(positions) = &scenario.placement {
        return Box::new(StaticPlacement::new(positions.clone()));
    }
    let waypoint = RandomWaypoint::new(
        scenario.sim.field_width,
        scenario.sim.field_height,
        scenario.sim.mobility,
    );
    match (scenario.attack.kind, scenario.eavesdropper) {
        (AttackKind::MobileEavesdropper, Some(eve)) => {
            let flow = scenario.flows[0];
            Box::new(CorridorMobility::new(
                waypoint,
                eve,
                flow.src,
                flow.dst,
                CORRIDOR_JITTER_M,
            ))
        }
        _ => Box::new(waypoint),
    }
}

/// Execute one scenario as `options` say and return its metrics together
/// with the raw recorder (Table I style relay tables, trace diffs and
/// fingerprints read it).
///
/// # Panics
/// Panics when [`Scenario::validate`] rejects `scenario`.
pub fn run_with(scenario: &Scenario, options: RunOptions<'_>) -> (RunMetrics, Recorder) {
    scenario.validate().expect("invalid scenario");
    let stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stacks = (0..scenario.sim.num_nodes)
        .map(|i| {
            let me = NodeId(i);
            let stack = build_stack(scenario, &stats, me);
            match options.decorate {
                Some(decorate) => decorate(me, stack),
                None => stack,
            }
        })
        .collect();
    let mut sim = Simulator::new(scenario.effective_sim(), build_mobility(scenario), stacks);
    sim.set_trace_mode(options.trace);
    if let Some(hook) = options.hook {
        sim.set_choice_hook(hook);
    }
    let recorder = sim.run();
    let tcp_report = stats.lock().clone();
    let metrics = RunMetrics::extract(scenario, &recorder, &tcp_report);
    (metrics, recorder)
}

/// Execute one scenario and return its metrics and recorder
/// ([`run_with`] with default options).
pub fn run_scenario_with_recorder(scenario: &Scenario) -> (RunMetrics, Recorder) {
    run_with(scenario, RunOptions::default())
}

/// Execute one scenario and return its metrics.
pub fn run_scenario(scenario: &Scenario) -> RunMetrics {
    run_scenario_with_recorder(scenario).0
}

/// Specification of a sweep over the paper's parameter grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Protocols to compare (the paper uses all three).
    pub protocols: Vec<Protocol>,
    /// Maximum node speeds, m/s (the paper uses 2, 5, 10, 15, 20).
    pub speeds: Vec<f64>,
    /// Seeds (the paper repeats each point five times).
    pub seeds: Vec<u64>,
    /// Simulated duration per run, seconds (the paper uses 200 s).
    pub duration: f64,
}

impl SweepSpec {
    /// The paper's full grid: 3 protocols × 5 speeds × 5 seeds × 200 s.
    pub fn paper() -> Self {
        SweepSpec {
            protocols: Protocol::ALL.to_vec(),
            speeds: vec![2.0, 5.0, 10.0, 15.0, 20.0],
            seeds: vec![1, 2, 3, 4, 5],
            duration: 200.0,
        }
    }

    /// Total number of runs in the grid.
    pub fn total_runs(&self) -> usize {
        self.protocols.len() * self.speeds.len() * self.seeds.len()
    }
}

/// The averaged metrics of one (protocol, speed) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedPoint {
    /// Routing protocol of this point.
    pub protocol: Protocol,
    /// Maximum node speed, m/s.
    pub max_speed: f64,
    /// Metrics averaged over the seeds.
    pub metrics: RunMetrics,
    /// Per-seed metrics (kept for variance inspection).
    pub per_seed: Vec<RunMetrics>,
}

/// Result of a sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepOutcome {
    /// One aggregated point per (protocol, speed) pair, ordered by protocol
    /// then speed.
    pub points: Vec<AggregatedPoint>,
}

impl SweepOutcome {
    /// The aggregated point for a (protocol, speed) pair, if present.
    pub fn point(&self, protocol: Protocol, speed: f64) -> Option<&AggregatedPoint> {
        self.points
            .iter()
            .find(|p| p.protocol == protocol && (p.max_speed - speed).abs() < 1e-9)
    }

    /// All speeds present, sorted ascending.
    pub fn speeds(&self) -> Vec<f64> {
        let mut v = distinct(self.points.iter().map(|p| p.max_speed));
        v.sort_by(f64::total_cmp);
        v
    }
}

/// The distinct values of `items`, in first-seen order.
pub(crate) fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// Run the paper's sweep.
pub fn sweep(spec: &SweepSpec) -> SweepOutcome {
    let none = AttackConfig::none();
    let cells = spec
        .protocols
        .iter()
        .flat_map(|&p| spec.speeds.iter().map(move |&s| (p, none, s)));
    let points = run_grid(cells, &spec.seeds, spec.duration)
        .into_iter()
        .map(|(key, per_seed)| AggregatedPoint {
            protocol: key.protocol,
            max_speed: key.max_speed,
            metrics: RunMetrics::average(&per_seed),
            per_seed,
        })
        .collect();
    SweepOutcome { points }
}

/// A cell of the experiment grid: protocol, attack and maximum speed.
pub(crate) type Cell = (Protocol, AttackConfig, f64);

/// The keys of every cell at every seed, cell by cell.
pub(crate) fn grid_keys(cells: impl Iterator<Item = Cell>, seeds: &[u64], dur: f64) -> Vec<RunKey> {
    let key = |(protocol, attack, max_speed): Cell, seed| RunKey {
        protocol,
        attack,
        max_speed,
        seed,
        duration: dur,
    };
    cells
        .flat_map(|cell| seeds.iter().map(move |&seed| key(cell, seed)))
        .collect()
}

/// Each distinct simulated key with the indices of the `keys` it serves; an
/// analysis-only key is served by the clean key of its seed.
pub(crate) fn simulations(keys: &[RunKey]) -> Vec<(RunKey, Vec<usize>)> {
    let mut runs: Vec<(RunKey, Vec<usize>)> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let mut simulated = *key;
        if key.attack.is_analysis_only() {
            simulated.attack = AttackConfig::none();
        }
        match runs.iter_mut().find(|(k, _)| *k == simulated) {
            Some((_, served)) => served.push(i),
            None => runs.push((simulated, vec![i])),
        }
    }
    runs
}

/// Run every cell at every seed, the [`simulations`] in parallel, and return
/// each cell's first key with its per-seed metrics.  A key served by another
/// key's run takes its metrics and evaluates its coalition on its recorder.
pub(crate) fn run_grid(
    cells: impl Iterator<Item = Cell>,
    seeds: &[u64],
    dur: f64,
) -> Vec<(RunKey, Vec<RunMetrics>)> {
    let keys = grid_keys(cells, seeds, dur);
    let served: Vec<Vec<(usize, RunMetrics)>> = simulations(&keys)
        .par_iter()
        .map(|(simulated, served)| {
            let (metrics, recorder) = run_scenario_with_recorder(&Scenario::from_key(simulated));
            let serve = |i: usize| {
                let mut m = metrics.clone();
                if keys[i] != *simulated {
                    let scenario = Scenario::from_key(&keys[i]);
                    m.coalition_interception_ratio =
                        coalition_interception_ratio(&scenario, &recorder);
                }
                (i, m)
            };
            served.iter().map(|&i| serve(i)).collect()
        })
        .collect();
    let mut metrics = vec![RunMetrics::default(); keys.len()];
    for (i, m) in served.into_iter().flatten() {
        metrics[i] = m;
    }
    let seeds = seeds.len().max(1);
    let per_seed = metrics.chunks(seeds).map(<[RunMetrics]>::to_vec);
    keys.chunks(seeds)
        .map(|cell| cell[0])
        .zip(per_seed)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grids_have_expected_sizes() {
        assert_eq!(SweepSpec::paper().total_runs(), 3 * 5 * 5);
    }

    #[test]
    fn single_paper_run_produces_traffic_and_metrics() {
        // One short MTS run of the full 50-node paper scenario.
        let mut scenario = Scenario::paper(Protocol::Mts, 5.0, 1);
        scenario.sim.duration = manet_netsim::Duration::from_secs(15.0);
        let m = run_scenario(&scenario);
        assert!(
            m.data_packets_generated > 0,
            "the TCP source must generate traffic"
        );
        assert!(
            m.control_overhead > 0,
            "route discovery must produce control packets"
        );
    }

    #[test]
    fn hybrid_run_carries_fluid_and_packet_flows_side_by_side() {
        use manet_netsim::FluidConfig;
        // One packet flow plus one fluid-marked scenario flow plus generated
        // background flows — all three traffic kinds in a single short run.
        let mut scenario = Scenario::paper(Protocol::Mts, 5.0, 1);
        scenario.sim.duration = manet_netsim::Duration::from_secs(10.0);
        scenario.eavesdropper = None; // avoid colliding with the flow endpoints
        scenario
            .flows
            .push(crate::scenario::TrafficFlow::fluid(NodeId(10), NodeId(40)));
        scenario = scenario.with_background(FluidConfig {
            flows: 8,
            ..FluidConfig::default()
        });
        scenario.validate().expect("hybrid scenario validates");
        let m = run_scenario(&scenario);
        assert!(
            m.data_packets_generated > 0,
            "the packet flow must still generate traffic"
        );
        assert_eq!(
            m.fluid_flows, 9,
            "1 explicit + 8 generated fluid flows in the ledger"
        );
        assert!(
            m.fluid_delivered_bytes > 0,
            "the fluid layer must deliver bytes"
        );
        // The explicit fluid flow surfaces as a per-flow row via its inert
        // stack endpoint, with bytes from the fluid ledger.
        let row = &m.per_flow[1];
        assert_eq!(row.packets_generated, 0, "fluid flows move no packets");
        assert!(row.bytes_delivered > 0, "fluid bytes reach the flow row");
    }

    #[test]
    fn tiny_sweep_aggregates_every_grid_point() {
        let spec = SweepSpec {
            protocols: vec![Protocol::Aodv, Protocol::Mts],
            speeds: vec![2.0, 10.0],
            seeds: vec![1, 2],
            duration: 10.0,
        };
        let outcome = sweep(&spec);
        assert_eq!(outcome.points.len(), 4);
        for p in &outcome.points {
            assert_eq!(p.per_seed.len(), 2);
        }
        assert!(outcome.point(Protocol::Mts, 10.0).is_some());
        assert!(outcome.point(Protocol::Dsr, 10.0).is_none());
        assert_eq!(outcome.speeds(), vec![2.0, 10.0]);
    }
}
