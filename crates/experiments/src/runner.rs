//! Run execution and parameter sweeps.
//!
//! [`run_with`] is the one place that assembles a run: it builds every
//! node's stack (the connection-table stack, wrapped into a hostile relay on
//! a configured black hole, then handed to [`RunOptions::decorate`] when
//! there is one), the scenario's mobility ([`Placement`]) and the
//! [`Simulator`], runs it and extracts the [`RunMetrics`].  [`run_scenario`]
//! and [`run_scenario_with_recorder`] are `run_with` with default options.
//! [`sweep`] runs the paper's full grid — protocol × maximum speed × seed —
//! in parallel with rayon (the runs are independent, so the sweep scales
//! linearly with cores) and averages the seeds per point, exactly as the
//! paper averages its five repetitions.

use crate::metrics::RunMetrics;
use crate::protocol::Protocol;
use crate::scenario::{Placement, Scenario};
use crate::stack::{ManetStack, SharedTcpStats, TcpRunReport};
use manet_adversary::{AttackKind, BlackholeStack, CorridorMobility};
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
        (AttackKind::MobileEavesdropper { corridor_jitter_m }, Some(eve)) => {
            let flow = scenario.flows[0];
            Box::new(CorridorMobility::new(
                waypoint,
                eve,
                flow.src,
                flow.dst,
                corridor_jitter_m,
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

    /// A scaled-down grid for quick runs (`reproduce figures --duration D
    /// --seeds S`): the same protocols and speeds, fewer seeds and a
    /// shorter duration.
    pub fn quick(duration: f64, seeds: u64) -> Self {
        SweepSpec {
            protocols: Protocol::ALL.to_vec(),
            speeds: vec![2.0, 5.0, 10.0, 15.0, 20.0],
            seeds: (1..=seeds).collect(),
            duration,
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
        let mut v: Vec<f64> = Vec::new();
        for p in &self.points {
            if !v.iter().any(|s| (s - p.max_speed).abs() < 1e-9) {
                v.push(p.max_speed);
            }
        }
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }
}

/// Run the sweep, parallelising across independent runs with rayon.
///
/// `customize` lets ablation studies adjust each scenario (e.g. a different
/// MTS checking period) after it is built; pass `|s| s` for the plain paper
/// configuration.
pub fn sweep_with<F>(spec: &SweepSpec, customize: F) -> SweepOutcome
where
    F: Fn(Scenario) -> Scenario + Sync,
{
    // Build the full run list first so rayon can schedule it freely.
    let mut runs: Vec<(Protocol, f64, u64)> = Vec::with_capacity(spec.total_runs());
    for &protocol in &spec.protocols {
        for &speed in &spec.speeds {
            for &seed in &spec.seeds {
                runs.push((protocol, speed, seed));
            }
        }
    }
    let results: Vec<((Protocol, f64), RunMetrics)> = runs
        .par_iter()
        .map(|&(protocol, speed, seed)| {
            let mut scenario = Scenario::paper(protocol, speed, seed);
            scenario.sim.duration = manet_netsim::Duration::from_secs(spec.duration);
            let scenario = customize(scenario);
            let metrics = run_scenario(&scenario);
            ((protocol, speed), metrics)
        })
        .collect();

    let mut points = Vec::new();
    for &protocol in &spec.protocols {
        for &speed in &spec.speeds {
            let per_seed: Vec<RunMetrics> = results
                .iter()
                .filter(|((p, s), _)| *p == protocol && (*s - speed).abs() < 1e-9)
                .map(|(_, m)| m.clone())
                .collect();
            if per_seed.is_empty() {
                continue;
            }
            points.push(AggregatedPoint {
                protocol,
                max_speed: speed,
                metrics: RunMetrics::average(&per_seed),
                per_seed,
            });
        }
    }
    SweepOutcome { points }
}

/// Run the paper's sweep without customization.
pub fn sweep(spec: &SweepSpec) -> SweepOutcome {
    sweep_with(spec, |s| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grids_have_expected_sizes() {
        assert_eq!(SweepSpec::paper().total_runs(), 3 * 5 * 5);
        assert_eq!(SweepSpec::quick(20.0, 2).total_runs(), 3 * 5 * 2);
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
