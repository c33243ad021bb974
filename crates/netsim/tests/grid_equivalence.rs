//! The spatial grid and the neighbourhood cache against brute force.
//!
//! The spatial grid is an index, not an approximation: for any mobility
//! history and any query time, `neighbors_into` must return exactly the
//! nodes an O(N) distance check over every node returns.  The `Sampler`
//! stacks below make that check at every sample, over seeded random
//! scenarios — including nodes placed exactly on the range circle.
//!
//! The second half covers the per-node neighbourhood cache
//! (`src/neighborhood.rs`): most transmissions are answered from the cache,
//! and the tests pin how many really scan.  They run in debug, where the
//! engine checks each cache hit against a fresh scan and each scan against
//! the brute-force answer, so every run below is also a run against both
//! oracles.

mod common;

use common::{logging_chatter_stacks, Heard};
use manet_netsim::mobility::{RandomWaypoint, StaticPlacement, Waypoint};
use manet_netsim::{
    Ctx, Duration, EnginePerf, MobilityModel, NodeStack, Position, Recorder, SimConfig, SimTime,
    Simulator, TimerToken, TraceEvent, TraceMode,
};
use manet_wire::{NetPacket, NodeId, SharedPacket};
use rand::rngs::SmallRng;
use rand::RngCore;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

type SampleLog = Vec<(SimTime, NodeId, Vec<NodeId>)>;

/// A stack that samples its own neighbourhood on a jittered periodic timer,
/// checks it against brute force and logs `(time, node, neighbors)` into a
/// shared trace.
struct Sampler {
    me: NodeId,
    period: Duration,
    scratch: Vec<NodeId>,
    log: Rc<RefCell<SampleLog>>,
}

impl NodeStack for Sampler {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        // Stagger the nodes so samples land at many distinct event times.
        let offset = Duration::from_millis(37.0 * f64::from(self.me.0) + 11.0);
        ctx.schedule_timer(offset, TimerToken(0));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: TimerToken) {
        ctx.neighbors_into(&mut self.scratch);
        let now = ctx.now();
        // The brute-force reference: an exact distance check against every
        // other node.
        let exact: Vec<NodeId> = (0..ctx.num_nodes())
            .map(NodeId)
            .filter(|&other| other != self.me && ctx.is_neighbor(other))
            .collect();
        assert_eq!(
            self.scratch, exact,
            "node {} at {now:?}: grid and brute-force neighbourhoods diverged",
            self.me
        );
        self.log
            .borrow_mut()
            .push((now, self.me, self.scratch.clone()));
        let period = self.period;
        ctx.schedule_timer(period, TimerToken(0));
    }
    fn on_receive(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _packet: SharedPacket) {}
    fn on_link_failure(&mut self, _ctx: &mut Ctx<'_>, _n: NodeId, _p: NetPacket) {}
}

/// Run `Sampler` stacks sampling every `period_ms` under `config`.
fn sample_run(
    config: SimConfig,
    mobility: Box<dyn MobilityModel>,
    period_ms: f64,
) -> (SampleLog, Recorder) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let stacks: Vec<Box<dyn NodeStack>> = (0..config.num_nodes)
        .map(|i| {
            Box::new(Sampler {
                me: NodeId(i),
                period: Duration::from_millis(period_ms),
                scratch: Vec::new(),
                log: Rc::clone(&log),
            }) as Box<dyn NodeStack>
        })
        .collect();
    let rec = Simulator::new(config, mobility, stacks).run();
    let log = Rc::try_unwrap(log)
        .expect("stacks dropped with the simulator")
        .into_inner();
    (log, rec)
}

#[test]
fn grid_matches_brute_force_across_random_waypoint_runs() {
    for seed in [1u64, 7, 42, 1337] {
        let mut config = SimConfig::default();
        config.num_nodes = 40;
        config.duration = Duration::from_secs(12.0);
        config.seed = seed;
        config.mobility.min_speed = 1.0;
        config.mobility.max_speed = 20.0;
        config.mobility.pause = Duration::from_secs(0.5);
        let mobility = RandomWaypoint::new(1000.0, 1000.0, SimConfig::default().mobility);
        let (log, _) = sample_run(config, Box::new(mobility), 400.0);
        assert!(log.len() > 1000, "seed {seed}: {} samples", log.len());
        assert!(
            log.iter().any(|(_, _, hood)| hood.len() > 1),
            "seed {seed}: no sample saw more than one neighbour"
        );
    }
}

#[test]
fn grid_matches_brute_force_with_small_slack_and_fast_nodes() {
    // A tight slack forces frequent drift refreshes; fast nodes maximise the
    // drift rate.  Correctness must not depend on the slack value.
    let mut config = SimConfig::default();
    config.num_nodes = 25;
    config.duration = Duration::from_secs(8.0);
    config.seed = 99;
    config.mobility.min_speed = 10.0;
    config.mobility.max_speed = 20.0;
    config.grid_slack_m = 2.0;
    let mobility = RandomWaypoint::new(600.0, 600.0, SimConfig::default().mobility);
    let (log, rec) = sample_run(config, Box::new(mobility), 400.0);
    assert!(!log.is_empty());
    assert!(
        rec.engine_perf().grid_refreshes > 100,
        "a 2 m slack at 10-20 m/s must refresh anchors often"
    );
}

#[test]
fn grid_matches_brute_force_on_range_circle_boundaries() {
    // Static layouts with distances engineered to land exactly on, just
    // inside and just outside the 250 m range circle, in many directions.
    let range = SimConfig::default().radio.range_m;
    let mut rng = SmallRng::seed_from_u64(0xc1_5c1e);
    for case in 0..20 {
        let mut positions = vec![Position::new(500.0, 500.0)];
        for k in 0..24usize {
            let angle = rng.gen_range(0.0..std::f64::consts::TAU);
            // Cycle exact / inside / outside placements relative to node 0.
            let dist = match k % 3 {
                0 => range,
                1 => range - rng.gen_range(0.0..5.0),
                _ => range + rng.gen_range(1e-9..5.0),
            };
            positions.push(Position::new(
                500.0 + dist * angle.cos(),
                500.0 + dist * angle.sin(),
            ));
        }
        let mut config = SimConfig::default();
        config.num_nodes = positions.len() as u16;
        config.duration = Duration::from_secs(1.0);
        config.seed = case;
        config.mobility.max_speed = 0.0;
        let mobility = StaticPlacement::new(positions.clone());
        let (log, _) = sample_run(config, Box::new(mobility), 400.0);
        // Node 0 sees every on-circle and inside node (distance <= range
        // counts as in range), never the outside ones.
        let expected: Vec<NodeId> = positions
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, p)| p.distance_sq(positions[0]) <= range * range)
            .map(|(i, _)| NodeId(i as u16))
            .collect();
        let (_, _, first_sample) = log
            .iter()
            .find(|(_, node, _)| *node == NodeId(0))
            .expect("node 0 sampled at least once");
        assert_eq!(first_sample, &expected, "case {case}");
    }
}

#[test]
fn grid_runs_report_index_perf_counters() {
    let mut config = SimConfig::default();
    config.num_nodes = 30;
    config.duration = Duration::from_secs(10.0);
    config.mobility.min_speed = 5.0;
    config.mobility.max_speed = 15.0;
    let n = u64::from(config.num_nodes);
    let mobility = RandomWaypoint::new(1000.0, 1000.0, config.mobility);
    let (log, rec) = sample_run(config, Box::new(mobility), 250.0);
    let perf = rec.engine_perf();
    assert_eq!(
        perf.neighbor_queries,
        log.len() as u64,
        "one range query per sample and none elsewhere"
    );
    assert!(
        perf.grid_refreshes > 0,
        "mobile grid runs must refresh anchors"
    );
    assert!(perf.grid_rebinds > 0, "mobile nodes must change cells");
    assert!(
        perf.candidates_scanned <= perf.neighbor_queries * n,
        "the grid must never scan more candidates than the full scan \
         ({} candidates for {} queries over {n} nodes)",
        perf.candidates_scanned,
        perf.neighbor_queries
    );
    assert!(perf.position_cache_hits > 0);
}

// ---- the neighbourhood cache, checked hit by hit in debug ---------------------

/// One finished run of the shared `Chatter` stacks, everything logged.
struct TalkRun {
    heard: Heard,
    trace: Vec<TraceEvent>,
    perf: EnginePerf,
}

impl TalkRun {
    /// Transmissions that really scanned.
    fn scans(&self) -> u64 {
        self.perf.neighbor_queries - self.perf.neighbor_cache_hits
    }

    /// Frames `node` put on the air.
    fn transmissions_of(&self, node: NodeId) -> u64 {
        self.trace
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::TxStart { node: n, .. } if *n == node))
            .count() as u64
    }
}

/// Run `config` with the shared `Chatter` stacks and require a run that
/// exercised every reception path.  Each cache hit is checked against a scan
/// (debug builds), and each transmission resolves one neighbourhood.
fn cached_run(config: SimConfig, mobility: Box<dyn MobilityModel>, what: &str) -> TalkRun {
    let heard = Rc::new(RefCell::new(Vec::new()));
    let stacks =
        logging_chatter_stacks(config.num_nodes, Duration::from_millis(23.0), Some(&heard));
    let mut sim = Simulator::new(config, mobility, stacks);
    sim.set_trace_mode(TraceMode::Keep);
    let rec = sim.run();
    let heard = heard.borrow().clone();
    let run = TalkRun {
        heard,
        trace: rec.trace().to_vec(),
        perf: rec.engine_perf(),
    };
    for how in ["receive", "overhear", "link failure"] {
        assert!(
            run.heard.iter().any(|h| h.4 == how),
            "{what}: no {how} in the run"
        );
    }
    let transmissions = run
        .trace
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::TxStart { .. }))
        .count() as u64;
    assert_eq!(
        run.perf.neighbor_queries, transmissions,
        "{what}: a hit and a scan each count as one resolved neighbourhood"
    );
    assert_eq!(run.perf.stale_tx_ends, 0, "{what}");
    run
}

fn waypoint_config(n: u16, secs: f64, seed: u64, min: f64, max: f64, pause: f64) -> SimConfig {
    let mut config = SimConfig::default();
    config.num_nodes = n;
    config.duration = Duration::from_secs(secs);
    config.seed = seed;
    config.mobility.min_speed = min;
    config.mobility.max_speed = max;
    config.mobility.pause = Duration::from_secs(pause);
    config
}

fn random_waypoint(config: &SimConfig) -> Box<dyn MobilityModel> {
    let (w, h, m) = (config.field_width, config.field_height, config.mobility);
    Box::new(RandomWaypoint::new(w, h, m))
}

#[test]
fn cache_matches_the_oracle_with_fast_movers_and_no_pause() {
    for seed in [1u64, 7, 101] {
        // Everybody at the paper's top speed, all the time: the shortest
        // validity the bound ever hands out.
        let config = waypoint_config(30, 6.0, seed, 20.0, 20.0, 0.0);
        let mobility = random_waypoint(&config);
        let grid = cached_run(config, mobility, "20 m/s movers");
        let perf = grid.perf;
        assert!(perf.neighbor_cache_hits > 0, "seed {seed}: never hit");
        assert!(grid.scans() > 30, "seed {seed}: fast movers must rescan");
        assert!(
            perf.candidates_scanned < perf.neighbor_queries * 30 / 2,
            "seed {seed}: most transmissions scan nothing ({} candidates, {} queries)",
            perf.candidates_scanned,
            perf.neighbor_queries
        );
    }
}

/// A mobility model that plays per-node scripts of `(jump, to, speed)` legs
/// and then pins the node; `jump` starts the leg somewhere the node is not.
struct Scripted {
    start: Vec<Position>,
    legs: Vec<Vec<(Option<Position>, Position, f64)>>,
}

impl MobilityModel for Scripted {
    fn initial_position(&mut self, idx: usize, _rng: &mut dyn RngCore) -> Position {
        self.start[idx]
    }
    fn next_leg(
        &mut self,
        idx: usize,
        current: Position,
        now: SimTime,
        epoch: u64,
        _rng: &mut dyn RngCore,
    ) -> Waypoint {
        let (from, to, speed) = match self.legs[idx].get(epoch as usize) {
            Some(&(jump, to, speed)) => (jump.unwrap_or(current), to, speed),
            None => (current, current, 0.0),
        };
        Waypoint {
            from,
            to,
            speed,
            start: now,
            epoch,
        }
    }
}

/// Three pinned nodes on a line and a fourth whose script is `legs`; every
/// pairwise distance starts about 50 m or more from both circles, so at the
/// first leg's 1 m/s a scan holds for longer than the run.
fn line_with_a_mover(legs: Vec<(Option<Position>, Position, f64)>) -> (SimConfig, Scripted) {
    let at = |x: f64| Position::new(x, 300.0);
    let model = Scripted {
        start: vec![at(0.0), at(100.0), at(200.0), at(600.0)],
        legs: vec![vec![], vec![], vec![], legs],
    };
    (waypoint_config(4, 15.0, 5, 0.0, 0.0, 0.0), model)
}

#[test]
fn a_leg_faster_than_all_before_it_empties_every_cache() {
    let at = |x: f64| Position::new(x, 300.0);
    let run = |second_leg_speed: f64| {
        let (config, model) = line_with_a_mover(vec![
            (None, at(598.0), 1.0),
            // Through the carrier-sense circle of node 1 and the range
            // circles of nodes 1 and 2, seconds into a validity that was
            // granted for 24 s at the old bound.
            (None, at(300.0), second_leg_speed),
        ]);
        cached_run(config, Box::new(model), "a faster leg")
    };
    let steady = run(1.0);
    assert_eq!(steady.scans(), 4, "at 1 m/s throughout, one scan per node");
    let faster = run(20.0);
    assert!(
        faster.scans() >= 8,
        "the 20 m/s leg must make every node scan again ({} scans)",
        faster.scans()
    );
    assert!(faster.perf.neighbor_cache_hits > 0);
}

#[test]
fn a_leg_that_starts_elsewhere_empties_every_cache() {
    let at = |x: f64| Position::new(x, 300.0);
    // No faster than before, but the mover reappears next to node 2.
    let (config, model) = line_with_a_mover(vec![
        (None, at(598.0), 1.0),
        (Some(at(320.0)), at(310.0), 1.0),
    ]);
    let grid = cached_run(config, Box::new(model), "a jump");
    assert_eq!(
        grid.scans(),
        8,
        "one scan per node before and after the jump"
    );
}

#[test]
fn a_static_placement_scans_once_per_node_for_the_whole_run() {
    // 97 m spacing: no pairwise distance is within a micrometre of a circle.
    let n = 20u16;
    let config = waypoint_config(n, 8.0, 3, 0.0, 0.0, 0.0);
    let mobility = StaticPlacement::grid(20, 5, 97.0);
    let grid = cached_run(config, Box::new(mobility), "static placement");
    assert_eq!(grid.scans(), u64::from(n));
    assert_eq!(
        grid.perf.neighbor_cache_hits,
        grid.perf.neighbor_queries - u64::from(n)
    );
    assert!(grid.perf.neighbor_queries > 100 * u64::from(n));
}

#[test]
fn nodes_on_a_circle_are_never_cached() {
    let radio = SimConfig::default().radio;
    // Node 1 exactly on node 0's range circle, node 2 exactly on its
    // carrier-sense circle (and node 0 on theirs); node 3 is nowhere special.
    let positions = vec![
        Position::new(500.0, 500.0),
        Position::new(500.0 + radio.range_m, 500.0),
        Position::new(500.0, 500.0 + radio.carrier_sense_range()),
        Position::new(530.0, 480.0),
    ];
    let config = waypoint_config(4, 4.0, 9, 0.0, 0.0, 0.0);
    let grid = cached_run(
        config,
        Box::new(StaticPlacement::new(positions)),
        "on-circle placement",
    );
    // `<=` keeps an on-circle node in: node 0's broadcasts reach node 1.
    assert!(grid
        .heard
        .iter()
        .any(|&(_, at, from, _, how)| at == NodeId(1) && from == NodeId(0) && how == "receive"));
    let on_circle: u64 = (0..3).map(|i| grid.transmissions_of(NodeId(i))).sum();
    assert!(on_circle > 100 && grid.transmissions_of(NodeId(3)) > 100);
    assert_eq!(
        grid.scans(),
        on_circle + 1,
        "nodes 0-2 scan on every transmission, node 3 once"
    );
}
