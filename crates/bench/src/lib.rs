//! # manet-bench
//!
//! Benchmark harness for the MTS reproduction.
//!
//! * One Criterion bench per paper figure/table (`benches/fig05_*` …
//!   `benches/table1_*`).  Each bench runs a scaled-down sweep (shorter
//!   simulated duration, fewer seeds) so `cargo bench --workspace` completes
//!   in reasonable time on one core, prints the regenerated table to stderr,
//!   and reports the wall-clock cost of producing one figure point.
//! * Ablation benches for the design knobs called out in DESIGN.md
//!   (`max_paths`, `check_period`, concurrent striping) plus a raw engine
//!   throughput bench.
//! * The `reproduce` binary runs the *full* paper-scale sweep (200 s, five
//!   seeds) and prints every figure and Table I; use it to regenerate
//!   EXPERIMENTS.md numbers.
//!
//! This library exposes the small shared helpers used by both.

use manet_experiments::runner::{
    run_scenario_traced, run_scenario_with_recorder, sweep, SweepOutcome, SweepSpec,
};
use manet_experiments::{Protocol, Scenario};
use manet_netsim::{Duration, EnginePerf, EventQueueKind, Execution, FluidConfig, TelemetryConfig};

/// The canonical node-count scaling points of the perf trajectory
/// (constant density; see `Scenario::scaled`).
pub const BENCH_SCALES: [u16; 5] = [100, 200, 500, 1000, 2000];

/// The large-scale extension of the ladder introduced with the sharded
/// engine (constant density, like [`BENCH_SCALES`]).  These points are run
/// with a shorter simulated duration — at n = 50 000 a single simulated
/// second is tens of millions of events.
pub const BENCH_SCALES_LARGE: [u16; 2] = [10_000, 50_000];

/// The canonical flow-count axis of the perf trajectory: concurrent
/// random-pair flows at [`BENCH_FLOW_NODES`] nodes
/// (see `Scenario::random_pairs`).
pub const BENCH_FLOWS: [u16; 4] = [1, 5, 25, 50];

/// Node count of the flow-scaling axis.
pub const BENCH_FLOW_NODES: u16 = 500;

/// Simulated seconds per perf-trajectory run: long enough for discovery plus
/// steady-state data traffic, short enough that the heap baseline at
/// n = 2000 stays benchable.
pub const BENCH_SIM_SECS: f64 = 5.0;

/// The PR 1 grid baseline on the reference container (n = 500 MTS scaled
/// scenario, 5 sim-secs): the events/sec figure this PR's acceptance
/// criterion is measured against.
pub const PR1_BASELINE_N500_EV_PER_SEC: f64 = 1.78e6;

/// One measured point of the perf trajectory.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Node count of the scaled scenario.
    pub n: u16,
    /// Event-queue backend label (`"calendar"` or `"heap"`).
    pub queue: &'static str,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Unique data packets delivered (sanity/identity check).
    pub delivered: u64,
    /// Engine counters (queue + payload + grid).
    pub perf: EnginePerf,
}

/// Run the perf trajectory: the scaled MTS scenario at each node count in
/// `scales`, once per event-queue backend, asserting that the two backends
/// produce identical runs (event counts, deliveries, and — at n ≤ 500, where
/// the trace fits comfortably in memory — the full byte-identical recorder
/// trace).
///
/// `reps` timed repetitions are run per point and the fastest wall clock is
/// reported (the standard throughput protocol: the minimum is the least
/// noise-contaminated sample on a shared box); the identity checks run on
/// the first repetition.
///
/// # Panics
/// Panics if the two backends diverge (they must be trace-identical), a
/// scenario is invalid, or `reps` is zero.
pub fn bench_scales(scales: &[u16], sim_secs: f64, seed: u64, reps: u32) -> Vec<BenchPoint> {
    assert!(reps > 0, "need at least one timed repetition");
    let mut points = Vec::new();
    for &n in scales {
        let trace = n <= 500;
        let mut per_queue = Vec::new();
        for (queue, kind) in [
            ("calendar", EventQueueKind::Calendar),
            ("heap", EventQueueKind::Heap),
        ] {
            let mut scenario = Scenario::scaled(Protocol::Mts, n, 10.0, seed);
            scenario.sim.duration = Duration::from_secs(sim_secs);
            scenario.sim.event_queue = kind;
            let mut wall_secs = f64::INFINITY;
            let mut first: Option<manet_netsim::Recorder> = None;
            for rep in 0..reps {
                // The identity-check repetition keeps the trace (slightly
                // slower); timing always uses the plain runs.
                let with_trace = trace && rep == 0;
                let t0 = std::time::Instant::now();
                let (_, recorder) = if with_trace {
                    run_scenario_traced(&scenario)
                } else {
                    run_scenario_with_recorder(&scenario)
                };
                if !with_trace || reps == 1 {
                    wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
                }
                if first.is_none() {
                    first = Some(recorder);
                }
            }
            let recorder = first.expect("at least one repetition ran");
            let perf = recorder.engine_perf();
            points.push(BenchPoint {
                n,
                queue,
                wall_secs,
                events: perf.events_processed,
                events_per_sec: perf.events_processed as f64 / wall_secs,
                delivered: recorder.delivered_data_packets(),
                perf,
            });
            per_queue.push(recorder);
        }
        let (cal, heap) = (&per_queue[0], &per_queue[1]);
        let cp = cal.engine_perf();
        let hp = heap.engine_perf();
        assert_eq!(
            cp.events_processed, hp.events_processed,
            "n={n}: queue backends processed different event streams"
        );
        assert_eq!(
            cp.queue_pushes, hp.queue_pushes,
            "n={n}: push counts diverged"
        );
        assert_eq!(
            cal.delivered_data_packets(),
            heap.delivered_data_packets(),
            "n={n}: deliveries diverged across queue backends"
        );
        assert_eq!(
            cal.collisions(),
            heap.collisions(),
            "n={n}: collisions diverged across queue backends"
        );
        assert_eq!(
            cal.control_transmissions(),
            heap.control_transmissions(),
            "n={n}: control overhead diverged across queue backends"
        );
        if trace {
            assert_eq!(
                cal.trace(),
                heap.trace(),
                "n={n}: recorder traces diverged across queue backends"
            );
        }
    }
    points
}

/// One measured point of the flow-scaling axis.
#[derive(Debug, Clone)]
pub struct FlowBenchPoint {
    /// Node count of the scenario.
    pub n: u16,
    /// Number of concurrent random-pair flows.
    pub flows: u16,
    /// Event-queue backend label (`"calendar"` or `"heap"`).
    pub queue: &'static str,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Unique data packets delivered across all flows.
    pub delivered: u64,
    /// Aggregate goodput over all flows, application bytes per simulated
    /// second.
    pub goodput_bytes_per_sec: f64,
    /// Jain's fairness index over the per-flow goodputs.
    pub fairness_index: f64,
    /// Engine counters (queue + payload + grid).
    pub perf: EnginePerf,
}

/// Run the flow-scaling trajectory: `Scenario::random_pairs` at
/// [`BENCH_FLOW_NODES`]-scale with each flow count in `flows`, once per
/// event-queue backend, asserting the two backends produce identical runs
/// (event counts, deliveries, and the full byte-identical recorder trace) —
/// multi-flow runs must stay exactly as deterministic as the paper's single
/// flow.
///
/// `reps` timed repetitions per point, fastest wall clock reported (identity
/// checks run on the first repetition), as in [`bench_scales`].
///
/// # Panics
/// Panics if the two backends diverge, a scenario is invalid, or `reps` is 0.
pub fn bench_flows(
    num_nodes: u16,
    flows: &[u16],
    sim_secs: f64,
    seed: u64,
    reps: u32,
) -> Vec<FlowBenchPoint> {
    assert!(reps > 0, "need at least one timed repetition");
    let mut points = Vec::new();
    for &num_flows in flows {
        let mut per_queue = Vec::new();
        for (queue, kind) in [
            ("calendar", EventQueueKind::Calendar),
            ("heap", EventQueueKind::Heap),
        ] {
            let mut scenario =
                Scenario::random_pairs(Protocol::Mts, num_nodes, num_flows, 10.0, seed);
            scenario.sim.duration = Duration::from_secs(sim_secs);
            scenario.sim.event_queue = kind;
            let mut wall_secs = f64::INFINITY;
            let mut first: Option<(manet_experiments::RunMetrics, manet_netsim::Recorder)> = None;
            for rep in 0..reps {
                let with_trace = rep == 0;
                let t0 = std::time::Instant::now();
                let run = if with_trace {
                    run_scenario_traced(&scenario)
                } else {
                    run_scenario_with_recorder(&scenario)
                };
                if !with_trace || reps == 1 {
                    wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
                }
                if first.is_none() {
                    first = Some(run);
                }
            }
            let (metrics, recorder) = first.expect("at least one repetition ran");
            let perf = recorder.engine_perf();
            points.push(FlowBenchPoint {
                n: num_nodes,
                flows: num_flows,
                queue,
                wall_secs,
                events: perf.events_processed,
                events_per_sec: perf.events_processed as f64 / wall_secs,
                delivered: recorder.delivered_data_packets(),
                goodput_bytes_per_sec: metrics
                    .per_flow
                    .iter()
                    .map(|f| f.goodput_bytes_per_sec)
                    .sum(),
                fairness_index: metrics.fairness_index,
                perf,
            });
            per_queue.push(recorder);
        }
        let (cal, heap) = (&per_queue[0], &per_queue[1]);
        assert_eq!(
            cal.engine_perf().events_processed,
            heap.engine_perf().events_processed,
            "flows={num_flows}: queue backends processed different event streams"
        );
        assert_eq!(
            cal.delivered_data_packets(),
            heap.delivered_data_packets(),
            "flows={num_flows}: deliveries diverged across queue backends"
        );
        assert_eq!(
            cal.trace(),
            heap.trace(),
            "flows={num_flows}: recorder traces diverged across queue backends"
        );
    }
    points
}

/// Foreground packet flows the hybrid axis keeps at paper fidelity; offered
/// flows beyond this cap run through the analytic fluid layer.  Five is the
/// PR 5 goodput peak — the flows actually under study.
pub const BENCH_HYBRID_FOREGROUND: u16 = 5;

/// The calibrated background configuration of the hybrid collapse-curve
/// comparison (see `docs/TRAFFIC.md` for the methodology).  Demand and
/// airtime overhead are tuned so a background flow's goodput and channel
/// footprint mimic one collapsed PR 5 TCP flow: low per-flow demand (TCP
/// flows past the peak are mostly starved) and a large per-byte airtime cost
/// (multi-hop relaying, MAC framing, retries, transport acks).
pub fn hybrid_background() -> FluidConfig {
    FluidConfig {
        flows: 0,
        flow_bytes: 0,
        demand_bytes_per_sec: 6_000.0,
        capacity_share: 0.015,
        busy_overhead: 45.0,
        ..FluidConfig::default()
    }
}

/// One measured point of the hybrid axis (pure-packet vs hybrid engine at
/// equal offered load).
#[derive(Debug, Clone)]
pub struct HybridBenchPoint {
    /// Node count of the scenario.
    pub n: u16,
    /// Offered concurrent flows (foreground + background).
    pub flows: u16,
    /// How many of the offered flows run through the analytic fluid layer
    /// (0 in the pure-packet baseline).
    pub background: u32,
    /// `"packet"` (every flow at MAC fidelity) or `"hybrid"` (foreground
    /// packet flows + fluid background).
    pub mode: &'static str,
    /// Wall-clock seconds of the run (per-seed mean on the hybrid axis).
    pub wall_secs: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Unique data packets delivered (packet flows only).
    pub delivered: u64,
    /// Aggregate goodput over all offered flows — packet goodput plus the
    /// fluid flows' delivered-byte rate — application bytes per simulated
    /// second.
    pub goodput_bytes_per_sec: f64,
    /// Jain's fairness index over all offered flows' goodputs.
    pub fairness_index: f64,
    /// Bytes delivered by the fluid layer (0 in the packet baseline).
    pub fluid_delivered_bytes: u64,
    /// Engine counters.
    pub perf: EnginePerf,
}

/// Seeds averaged per hybrid-axis point.  A single 5-flow TCP sample is a
/// chaotic observable (one timeout cascade moves Jain's index by ±0.1), so
/// the collapse-curve comparison is defined over a small seed ensemble —
/// the same protocol the paper uses for its own figures.
pub const BENCH_HYBRID_SEEDS: u64 = 3;

/// Run the hybrid axis of the perf trajectory: at each offered flow count in
/// `flows`, one pure-packet run (every flow at MAC fidelity — the PR 5
/// collapse curve) and one hybrid run keeping [`BENCH_HYBRID_FOREGROUND`]
/// packet flows and pushing the rest through the fluid layer (config from
/// [`hybrid_background`]).  The two runs offer the same load over the same
/// seed-derived endpoint pairs, so the curves are directly comparable; at
/// flow counts at or below the foreground cap the hybrid run has no fluid
/// flows and is byte-identical to the packet run (the Off-means-identical
/// contract, asserted here on the recorder trace).
///
/// Every point is the mean over [`BENCH_HYBRID_SEEDS`] consecutive seeds
/// (events, deliveries, goodput, fairness, fluid bytes, and `wall_secs`: the
/// per-seed wall clock, fastest of `reps` repetitions on the first seed), so
/// a row's `events ÷ wall_secs` is its `events_per_sec`, the ensemble's
/// throughput.  The identity check runs on the first seed.
///
/// # Panics
/// Panics if a scenario is invalid, `reps` is zero, or a no-background hybrid
/// run diverges from its packet twin.
pub fn bench_hybrid(
    num_nodes: u16,
    flows: &[u16],
    sim_secs: f64,
    seed: u64,
    reps: u32,
) -> Vec<HybridBenchPoint> {
    assert!(reps > 0, "need at least one timed repetition");
    let mut points = Vec::new();
    for &num_flows in flows {
        let background = num_flows.saturating_sub(BENCH_HYBRID_FOREGROUND);
        let mut traces: Vec<Option<Vec<manet_netsim::TraceEvent>>> = Vec::new();
        for mode in ["packet", "hybrid"] {
            let mut wall_sum = 0.0f64;
            let mut events_sum = 0u64;
            let mut delivered_sum = 0u64;
            let mut goodput_sum = 0.0f64;
            let mut fairness_sum = 0.0f64;
            let mut fluid_sum = 0u64;
            let mut first_perf: Option<EnginePerf> = None;
            for s in 0..BENCH_HYBRID_SEEDS {
                let mut scenario =
                    Scenario::random_pairs(Protocol::Mts, num_nodes, num_flows, 10.0, seed + s);
                scenario.sim.duration = Duration::from_secs(sim_secs);
                if mode == "hybrid" {
                    for flow in scenario
                        .flows
                        .iter_mut()
                        .skip(BENCH_HYBRID_FOREGROUND as usize)
                    {
                        flow.fluid = true;
                    }
                    scenario = scenario.with_background(hybrid_background());
                }
                let keep_trace = background == 0 && s == 0;
                let seed_reps = if s == 0 { reps } else { 1 };
                let mut wall_secs = f64::INFINITY;
                let mut first: Option<(manet_experiments::RunMetrics, manet_netsim::Recorder)> =
                    None;
                for rep in 0..seed_reps {
                    let with_trace = keep_trace && rep == 0;
                    let t0 = std::time::Instant::now();
                    let run = if with_trace {
                        run_scenario_traced(&scenario)
                    } else {
                        run_scenario_with_recorder(&scenario)
                    };
                    if !with_trace || seed_reps == 1 {
                        wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
                    }
                    if first.is_none() {
                        first = Some(run);
                    }
                }
                let (metrics, recorder) = first.expect("at least one repetition ran");
                let perf = recorder.engine_perf();
                wall_sum += wall_secs;
                events_sum += perf.events_processed;
                delivered_sum += recorder.delivered_data_packets();
                goodput_sum += metrics
                    .per_flow
                    .iter()
                    .map(|f| f.goodput_bytes_per_sec)
                    .sum::<f64>();
                fairness_sum += metrics.fairness_index;
                fluid_sum += metrics.fluid_delivered_bytes;
                if first_perf.is_none() {
                    first_perf = Some(perf);
                }
                if keep_trace {
                    traces.push(Some(recorder.trace().to_vec()));
                }
            }
            let ens = BENCH_HYBRID_SEEDS;
            points.push(HybridBenchPoint {
                n: num_nodes,
                flows: num_flows,
                background: if mode == "hybrid" {
                    u32::from(background)
                } else {
                    0
                },
                mode,
                wall_secs: wall_sum / ens as f64,
                events: events_sum / ens,
                events_per_sec: events_sum as f64 / wall_sum,
                delivered: delivered_sum / ens,
                goodput_bytes_per_sec: goodput_sum / ens as f64,
                fairness_index: fairness_sum / ens as f64,
                fluid_delivered_bytes: fluid_sum / ens,
                perf: first_perf.expect("at least one seed ran"),
            });
        }
        if let [Some(packet), Some(hybrid)] = &traces[..] {
            assert_eq!(
                packet, hybrid,
                "flows={num_flows}: a hybrid run with no background flows \
                 must be byte-identical to the packet run"
            );
        }
    }
    points
}

/// One large-scale fluid point: the scaled scenario at `n` nodes carrying
/// `background` generated fluid flows next to its single foreground packet
/// flow — the regime the pure packet engine cannot reach.  Returns a
/// [`HybridBenchPoint`] for the `hybrid_runs` JSON section.
///
/// # Panics
/// Panics if the scenario is invalid or the fluid ledger stays empty.
pub fn bench_fluid_scale(n: u16, background: u32, sim_secs: f64, seed: u64) -> HybridBenchPoint {
    let mut scenario = Scenario::scaled(Protocol::Mts, n, 10.0, seed);
    scenario.sim.duration = Duration::from_secs(sim_secs);
    scenario = scenario.with_background(FluidConfig {
        flows: background,
        ..hybrid_background()
    });
    let t0 = std::time::Instant::now();
    let (metrics, recorder) = run_scenario_with_recorder(&scenario);
    let wall_secs = t0.elapsed().as_secs_f64();
    assert!(
        metrics.fluid_delivered_bytes > 0,
        "n={n}: {background} background flows delivered nothing"
    );
    let perf = recorder.engine_perf();
    HybridBenchPoint {
        n,
        flows: scenario.flows.len() as u16,
        background,
        mode: "hybrid",
        wall_secs,
        events: perf.events_processed,
        events_per_sec: perf.events_processed as f64 / wall_secs,
        delivered: recorder.delivered_data_packets(),
        goodput_bytes_per_sec: metrics
            .per_flow
            .iter()
            .map(|f| f.goodput_bytes_per_sec)
            .sum(),
        fairness_index: metrics.fairness_index,
        fluid_delivered_bytes: metrics.fluid_delivered_bytes,
        perf,
    }
}

/// One measured point of the execution axis (serial vs sharded engine).
#[derive(Debug, Clone)]
pub struct ExecBenchPoint {
    /// Node count of the scaled scenario.
    pub n: u16,
    /// Execution label (`"serial"` or `"sharded"`).
    pub execution: &'static str,
    /// Shard count (1 for serial).
    pub shards: u16,
    /// Worker-thread count (1 for serial).
    pub workers: u16,
    /// Simulated seconds of this point's run.
    pub sim_secs: f64,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Events the engine processed (summed across shards).
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Unique data packets delivered.
    pub delivered: u64,
    /// Engine counters (queue + payload + grid + shard).
    pub perf: EnginePerf,
}

/// Worker threads the host can actually run in parallel.  Recorded in the
/// bench JSON so speedup numbers can be judged against the machine that
/// produced them (a 1-core container cannot show an 8-worker speedup no
/// matter how well the engine scales).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// Run the execution axis of the perf trajectory: the scaled MTS scenario at
/// each node count in `scales` under the serial engine and under the sharded
/// engine with `shards` shards at each worker count in `workers_axis`.
///
/// Determinism checks ride along with the timing runs:
/// * at `shards == 1` the sharded run must be **byte-identical** to the
///   serial run (full recorder-trace diff at n ≤ 1000, counter identity
///   everywhere) — this is the CI sharded-vs-serial gate;
/// * at any shard count, every worker count must replay the **same** run
///   (trace diff at n ≤ 1000, counter identity everywhere): workers are a
///   pure parallelism knob.
///
/// `reps` timed repetitions per point, fastest wall clock reported, identity
/// checks on the first repetition — as in [`bench_scales`].
///
/// # Panics
/// Panics if an identity check fails, a scenario is invalid, `reps` is zero,
/// or `shards` is zero.
pub fn bench_executions(
    scales: &[u16],
    sim_secs: f64,
    seed: u64,
    reps: u32,
    shards: u16,
    workers_axis: &[u16],
) -> Vec<ExecBenchPoint> {
    assert!(reps > 0, "need at least one timed repetition");
    assert!(shards > 0, "need at least one shard");
    let workers_axis: Vec<u16> = if workers_axis.is_empty() {
        vec![1]
    } else {
        workers_axis.to_vec()
    };
    let mut points = Vec::new();
    for &n in scales {
        let trace = n <= 1000;
        // (label, shards, workers, recorder) of every run at this n, for the
        // identity checks below.
        let mut recorders: Vec<(&'static str, u16, u16, manet_netsim::Recorder)> = Vec::new();
        let mut configs: Vec<(&'static str, u16, u16, Execution)> =
            vec![("serial", 1, 1, Execution::Serial)];
        for &workers in &workers_axis {
            configs.push((
                "sharded",
                shards,
                workers,
                Execution::Sharded {
                    shards,
                    workers,
                    window: None,
                },
            ));
        }
        for (execution, point_shards, workers, mode) in configs {
            let mut scenario = Scenario::scaled(Protocol::Mts, n, 10.0, seed);
            scenario.sim.duration = Duration::from_secs(sim_secs);
            scenario.sim.execution = mode;
            let mut wall_secs = f64::INFINITY;
            let mut first: Option<manet_netsim::Recorder> = None;
            for rep in 0..reps {
                let with_trace = trace && rep == 0;
                let t0 = std::time::Instant::now();
                let (_, recorder) = if with_trace {
                    run_scenario_traced(&scenario)
                } else {
                    run_scenario_with_recorder(&scenario)
                };
                if !with_trace || reps == 1 {
                    wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
                }
                if first.is_none() {
                    first = Some(recorder);
                }
            }
            let recorder = first.expect("at least one repetition ran");
            let perf = recorder.engine_perf();
            points.push(ExecBenchPoint {
                n,
                execution,
                shards: point_shards,
                workers,
                sim_secs,
                wall_secs,
                events: perf.events_processed,
                events_per_sec: perf.events_processed as f64 / wall_secs,
                delivered: recorder.delivered_data_packets(),
                perf,
            });
            recorders.push((execution, point_shards, workers, recorder));
        }
        let serial = &recorders[0].3;
        let reference_sharded = &recorders[1].3;
        for (execution, point_shards, workers, recorder) in &recorders[1..] {
            // Single-shard runs must replay the serial engine byte for byte;
            // multi-shard runs must at least be worker-count independent.
            let (against, what) = if *point_shards == 1 {
                (serial, "the serial engine")
            } else {
                (reference_sharded, "the first worker count")
            };
            let label = format!("n={n} {execution} shards={point_shards} workers={workers}");
            assert_eq!(
                recorder.engine_perf().events_processed,
                against.engine_perf().events_processed,
                "{label}: event count diverged from {what}"
            );
            assert_eq!(
                recorder.delivered_data_packets(),
                against.delivered_data_packets(),
                "{label}: deliveries diverged from {what}"
            );
            assert_eq!(
                recorder.collisions(),
                against.collisions(),
                "{label}: collisions diverged from {what}"
            );
            if trace {
                assert_eq!(
                    recorder.trace(),
                    against.trace(),
                    "{label}: recorder trace diverged from {what}"
                );
            }
        }
    }
    points
}

/// One measured point of the telemetry-overhead axis (telemetry off vs on).
#[derive(Debug, Clone)]
pub struct TelemetryBenchPoint {
    /// Node count of the scaled scenario.
    pub n: u16,
    /// Telemetry mode label (`"off"` or `"on"`).
    pub mode: &'static str,
    /// Wall-clock seconds of the run.
    pub wall_secs: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Unique data packets delivered.
    pub delivered: u64,
    /// Telemetry events collected (0 in the `"off"` run by contract).
    pub telemetry_events: u64,
}

/// Measure telemetry overhead: the scaled MTS scenario at `n` nodes run with
/// telemetry off (the default) and on (event stream + 1 s sampler windows),
/// asserting the two runs are **identical** apart from the collected events —
/// telemetry observes, never perturbs.  At n ≤ 500 the full recorder trace is
/// diffed; event counts and deliveries are checked everywhere.  The `off` run
/// must collect zero telemetry events, the `on` run a non-empty stream.
///
/// `reps` timed repetitions per mode, fastest wall clock reported, identity
/// checks on the first repetition — as in [`bench_scales`].
///
/// # Panics
/// Panics if the runs diverge, the scenario is invalid, or `reps` is zero.
pub fn bench_telemetry(n: u16, sim_secs: f64, seed: u64, reps: u32) -> Vec<TelemetryBenchPoint> {
    assert!(reps > 0, "need at least one timed repetition");
    let trace = n <= 500;
    let mut points = Vec::new();
    let mut recorders: Vec<manet_netsim::Recorder> = Vec::new();
    for (mode, enabled) in [("off", false), ("on", true)] {
        let mut scenario = Scenario::scaled(Protocol::Mts, n, 10.0, seed);
        scenario.sim.duration = Duration::from_secs(sim_secs);
        scenario.sim.telemetry = TelemetryConfig {
            enabled,
            window_secs: enabled.then_some(1.0),
            trace_packet: None,
        };
        let mut wall_secs = f64::INFINITY;
        let mut first: Option<manet_netsim::Recorder> = None;
        for rep in 0..reps {
            let with_trace = trace && rep == 0;
            let t0 = std::time::Instant::now();
            let (_, recorder) = if with_trace {
                run_scenario_traced(&scenario)
            } else {
                run_scenario_with_recorder(&scenario)
            };
            if !with_trace || reps == 1 {
                wall_secs = wall_secs.min(t0.elapsed().as_secs_f64());
            }
            if first.is_none() {
                first = Some(recorder);
            }
        }
        let recorder = first.expect("at least one repetition ran");
        let perf = recorder.engine_perf();
        points.push(TelemetryBenchPoint {
            n,
            mode,
            wall_secs,
            events: perf.events_processed,
            events_per_sec: perf.events_processed as f64 / wall_secs,
            delivered: recorder.delivered_data_packets(),
            telemetry_events: recorder.telemetry.events().len() as u64,
        });
        recorders.push(recorder);
    }
    let (off, on) = (&recorders[0], &recorders[1]);
    assert_eq!(
        off.engine_perf().events_processed,
        on.engine_perf().events_processed,
        "n={n}: enabling telemetry changed the event stream"
    );
    assert_eq!(
        off.delivered_data_packets(),
        on.delivered_data_packets(),
        "n={n}: enabling telemetry changed deliveries"
    );
    if trace {
        assert_eq!(
            off.trace(),
            on.trace(),
            "n={n}: enabling telemetry changed the recorder trace"
        );
    }
    assert_eq!(
        off.telemetry.events().len(),
        0,
        "n={n}: disabled telemetry collected events"
    );
    assert!(
        !on.telemetry.events().is_empty(),
        "n={n}: enabled telemetry collected nothing"
    );
    points
}

/// Render the perf trajectory as the machine-readable JSON committed as
/// `BENCH_PR9.json` (hand-rolled: the offline build's serde is a no-op shim).
/// `runs` is the node-scaling axis, `flow_runs` the flows-per-scenario axis,
/// `execution_runs` the serial-vs-sharded axis, `telemetry_runs` the
/// telemetry-off-vs-on overhead axis, `hybrid_runs` the packet-vs-hybrid
/// axis (pass `&[]` to omit any of them).
pub fn bench_points_json(
    points: &[BenchPoint],
    flow_points: &[FlowBenchPoint],
    exec_points: &[ExecBenchPoint],
    tele_points: &[TelemetryBenchPoint],
    hybrid_points: &[HybridBenchPoint],
    sim_secs: f64,
    seed: u64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"mts-scaled-scenario perf trajectory\",\n");
    out.push_str("  \"protocol\": \"MTS\",\n");
    out.push_str(&format!("  \"sim_secs\": {sim_secs},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    out.push_str(&format!(
        "  \"baseline_pr1_n500_grid_events_per_sec\": {PR1_BASELINE_N500_EV_PER_SEC},\n"
    ));
    out.push_str("  \"runs\": [\n");
    for (i, p) in points.iter().enumerate() {
        let e = &p.perf;
        out.push_str(&format!(
            "    {{\"n\": {}, \"queue\": \"{}\", \"events\": {}, \"wall_secs\": {:.6}, \
             \"events_per_sec\": {:.0}, \"delivered\": {}, \
             \"queue_pushes\": {}, \"queue_pops\": {}, \"queue_max_occupancy\": {}, \
             \"calendar_resizes\": {}, \"payload_clones_avoided\": {}, \
             \"payload_deep_clones\": {}, \"neighbor_queries\": {}, \
             \"candidates_per_query\": {:.1}}}{}\n",
            p.n,
            p.queue,
            p.events,
            p.wall_secs,
            p.events_per_sec,
            p.delivered,
            e.queue_pushes,
            e.queue_pops,
            e.queue_max_occupancy,
            e.calendar_resizes,
            e.payload_clones_avoided,
            e.payload_deep_clones,
            e.neighbor_queries,
            e.mean_candidates_per_query(),
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"flow_runs\": [\n");
    for (i, p) in flow_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"flows\": {}, \"queue\": \"{}\", \"events\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \"delivered\": {}, \
             \"goodput_bytes_per_sec\": {:.0}, \"fairness_index\": {:.4}, \
             \"queue_max_occupancy\": {}, \"payload_deep_clones\": {}}}{}\n",
            p.n,
            p.flows,
            p.queue,
            p.events,
            p.wall_secs,
            p.events_per_sec,
            p.delivered,
            p.goodput_bytes_per_sec,
            p.fairness_index,
            p.perf.queue_max_occupancy,
            p.perf.payload_deep_clones,
            if i + 1 == flow_points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"execution_runs\": [\n");
    for (i, p) in exec_points.iter().enumerate() {
        let e = &p.perf;
        out.push_str(&format!(
            "    {{\"n\": {}, \"execution\": \"{}\", \"shards\": {}, \"workers\": {}, \
             \"sim_secs\": {}, \"events\": {}, \"wall_secs\": {:.6}, \
             \"events_per_sec\": {:.0}, \"delivered\": {}, \"windows\": {}, \
             \"window_micros\": {}, \"cross_shard_frames\": {}, \
             \"cross_shard_announcements\": {}, \"forwarded_events\": {}, \
             \"shard_events_min\": {}, \"shard_events_max\": {}, \
             \"phase_execute_nanos\": {}, \"phase_barrier_nanos\": {}, \
             \"phase_apply_nanos\": {}}}{}\n",
            p.n,
            p.execution,
            p.shards,
            p.workers,
            p.sim_secs,
            p.events,
            p.wall_secs,
            p.events_per_sec,
            p.delivered,
            e.windows,
            e.window_micros,
            e.cross_shard_frames,
            e.cross_shard_announcements,
            e.forwarded_events,
            e.shard_events_min,
            e.shard_events_max,
            e.phase_execute_nanos,
            e.phase_barrier_nanos,
            e.phase_apply_nanos,
            if i + 1 == exec_points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"telemetry_runs\": [\n");
    for (i, p) in tele_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"mode\": \"{}\", \"events\": {}, \"wall_secs\": {:.6}, \
             \"events_per_sec\": {:.0}, \"delivered\": {}, \"telemetry_events\": {}}}{}\n",
            p.n,
            p.mode,
            p.events,
            p.wall_secs,
            p.events_per_sec,
            p.delivered,
            p.telemetry_events,
            if i + 1 == tele_points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"hybrid_runs\": [\n");
    for (i, p) in hybrid_points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"flows\": {}, \"background\": {}, \"mode\": \"{}\", \
             \"events\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"delivered\": {}, \"goodput_bytes_per_sec\": {:.0}, \
             \"fairness_index\": {:.4}, \"fluid_delivered_bytes\": {}}}{}\n",
            p.n,
            p.flows,
            p.background,
            p.mode,
            p.events,
            p.wall_secs,
            p.events_per_sec,
            p.delivered,
            p.goodput_bytes_per_sec,
            p.fairness_index,
            p.fluid_delivered_bytes,
            if i + 1 == hybrid_points.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One (file, configuration) cell of the merged perf-trend table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Which bench JSON the row came from (file stem, e.g. `BENCH_PR5`).
    pub label: String,
    /// Node count.
    pub n: u64,
    /// Event-queue backend (`"calendar"` unless the run says otherwise).
    pub queue: String,
    /// Execution mode (`"serial"` unless the run says otherwise).
    pub execution: String,
    /// Shard count (1 for serial).
    pub shards: u64,
    /// Worker-thread count (1 for serial).
    pub workers: u64,
    /// Offered flows of a hybrid-axis run (0 for the other axes).
    pub flows: u64,
    /// Background fluid flows of a hybrid-axis run (0 for the pure-packet
    /// baseline and the other axes).
    pub background: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
}

/// The configuration label a trend row sorts and merges under: `serial`,
/// `sharded <S>s<W>w`, or — for the hybrid axis — `<mode> <F>fl+<B>bg`.
fn trend_config_label(row: &TrendRow) -> String {
    if row.flows > 0 {
        format!("{} {}fl+{}bg", row.execution, row.flows, row.background)
    } else if row.execution == "serial" {
        row.execution.clone()
    } else {
        format!("{} {}s{}w", row.execution, row.shards, row.workers)
    }
}

/// Extract the raw value of `"key": value` from a single JSON line (the
/// bench JSONs are written one run per line, so no real parser is needed —
/// the offline build has no serde_json).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parse every node-scaling, execution and hybrid run of one bench JSON into
/// trend rows labelled `label`.  A `"background"` field marks a hybrid-axis
/// run (its `mode` becomes the execution column); other flow-axis and
/// telemetry-axis runs are skipped.  Files written before the execution axis
/// existed default to `serial` with one shard and one worker.
pub fn parse_bench_trend(label: &str, json: &str) -> Vec<TrendRow> {
    let mut rows = Vec::new();
    for line in json.lines() {
        if !line.trim_start().starts_with('{') {
            continue;
        }
        // Hybrid-axis lines carry `flows` and `mode` too — check first.
        let hybrid = json_field(line, "background").is_some();
        if !hybrid && (json_field(line, "flows").is_some() || json_field(line, "mode").is_some()) {
            continue;
        }
        let (Some(n), Some(eps)) = (json_field(line, "n"), json_field(line, "events_per_sec"))
        else {
            continue;
        };
        let (Ok(n), Ok(events_per_sec)) = (n.parse::<u64>(), eps.parse::<f64>()) else {
            continue;
        };
        let parse_u64 = |key: &str, default: u64| {
            json_field(line, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(default)
        };
        let execution = if hybrid {
            json_field(line, "mode").unwrap_or("hybrid").to_string()
        } else {
            json_field(line, "execution")
                .unwrap_or("serial")
                .to_string()
        };
        rows.push(TrendRow {
            label: label.to_string(),
            n,
            queue: json_field(line, "queue").unwrap_or("calendar").to_string(),
            execution,
            shards: parse_u64("shards", 1),
            workers: parse_u64("workers", 1),
            flows: if hybrid { parse_u64("flows", 0) } else { 0 },
            background: parse_u64("background", 0),
            events_per_sec,
        });
    }
    rows
}

/// Render the merged trend rows as one table: one row per
/// (n, queue, execution) configuration, one events/sec column per source
/// file, `-` where a file has no measurement for that configuration.
pub fn render_bench_trend(rows: &[TrendRow]) -> String {
    let mut labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut configs: Vec<(u64, &str, String)> = rows
        .iter()
        .map(|r| (r.n, r.queue.as_str(), trend_config_label(r)))
        .collect();
    configs.sort();
    configs.dedup();
    let mut out = String::new();
    out.push_str(&format!("{:>6}  {:<8}  {:<14}", "n", "queue", "execution"));
    for label in &labels {
        out.push_str(&format!("  {label:>12}"));
    }
    out.push('\n');
    for (n, queue, execution) in &configs {
        out.push_str(&format!("{n:>6}  {queue:<8}  {execution:<14}"));
        for label in &labels {
            let cell = rows
                .iter()
                .find(|r| {
                    r.label == *label
                        && r.n == *n
                        && r.queue == *queue
                        && trend_config_label(r) == *execution
                })
                .map(|r| format!("{:.0}", r.events_per_sec))
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!("  {cell:>12}"));
        }
        out.push('\n');
    }
    out
}

/// The scaled-down sweep used by the Criterion benches.
///
/// 20 simulated seconds and two seeds per point keep one full figure under a
/// couple of minutes of wall clock while preserving the qualitative ordering
/// of the protocols.
pub fn quick_sweep() -> SweepOutcome {
    sweep(&SweepSpec::quick(20.0, 2))
}

/// An even smaller sweep for smoke-testing the bench plumbing.
pub fn smoke_sweep() -> SweepOutcome {
    sweep(&SweepSpec {
        duration: 8.0,
        seeds: vec![1],
        ..SweepSpec::quick(8.0, 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_the_grid() {
        let outcome = smoke_sweep();
        // 3 protocols x 5 speeds.
        assert_eq!(outcome.points.len(), 15);
    }

    const SAMPLE_JSON: &str = r#"{
  "benchmark": "sample",
  "sim_secs": 5,
  "runs": [
    {"n": 100, "queue": "calendar", "events": 30557, "wall_secs": 0.0078, "events_per_sec": 3887041, "delivered": 614},
    {"n": 100, "queue": "heap", "events": 30557, "wall_secs": 0.0099, "events_per_sec": 3066666, "delivered": 614}
  ],
  "flow_runs": [
    {"n": 500, "flows": 25, "queue": "calendar", "events": 1, "wall_secs": 1.0, "events_per_sec": 99, "delivered": 1}
  ],
  "execution_runs": [
    {"n": 10000, "execution": "sharded", "shards": 8, "workers": 4, "sim_secs": 1, "events": 9000000, "wall_secs": 6.0, "events_per_sec": 1500000, "delivered": 900, "windows": 4716, "window_micros": 212}
  ],
  "telemetry_runs": [
    {"n": 500, "mode": "on", "events": 1, "wall_secs": 1.0, "events_per_sec": 77, "delivered": 1, "telemetry_events": 12}
  ],
  "hybrid_runs": [
    {"n": 500, "flows": 50, "background": 0, "mode": "packet", "events": 1881112, "wall_secs": 0.8, "events_per_sec": 2351390, "delivered": 915, "goodput_bytes_per_sec": 174400, "fairness_index": 0.2277, "fluid_delivered_bytes": 0},
    {"n": 500, "flows": 50, "background": 45, "mode": "hybrid", "events": 260000, "wall_secs": 0.1, "events_per_sec": 2600000, "delivered": 900, "goodput_bytes_per_sec": 170000, "fairness_index": 0.25, "fluid_delivered_bytes": 450000}
  ]
}
"#;

    #[test]
    fn trend_parse_reads_runs_and_execution_runs_but_skips_flow_runs() {
        let rows = parse_bench_trend("SAMPLE", SAMPLE_JSON);
        assert_eq!(
            rows.len(),
            5,
            "2 queue runs + 1 execution run + 2 hybrid runs: {rows:?}"
        );
        assert_eq!(rows[0].queue, "calendar");
        assert_eq!(rows[0].execution, "serial");
        assert_eq!(rows[0].events_per_sec, 3887041.0);
        assert_eq!(rows[1].queue, "heap");
        let exec = &rows[2];
        assert_eq!(
            (exec.n, exec.execution.as_str(), exec.shards, exec.workers),
            (10_000, "sharded", 8, 4)
        );
        assert!(
            rows.iter().all(|r| r.events_per_sec != 99.0),
            "flow run leaked in"
        );
        assert!(
            rows.iter().all(|r| r.events_per_sec != 77.0),
            "telemetry run leaked in"
        );
    }

    #[test]
    fn trend_parse_defaults_pre_execution_axis_files_to_serial() {
        let rows = parse_bench_trend(
            "OLD",
            "  {\"n\": 100, \"queue\": \"calendar\", \"events_per_sec\": 12}\n",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].execution, "serial");
        assert_eq!((rows[0].shards, rows[0].workers), (1, 1));
    }

    #[test]
    fn trend_table_merges_files_into_columns() {
        let mut rows = parse_bench_trend("A", SAMPLE_JSON);
        rows.extend(parse_bench_trend("B", SAMPLE_JSON));
        let table = render_bench_trend(&rows);
        let header = table.lines().next().unwrap();
        assert!(header.contains('A') && header.contains('B'), "{header}");
        // One line per configuration: 2 queue configs + 1 execution config
        // + 2 hybrid configs.
        assert_eq!(table.lines().count(), 6, "{table}");
        assert!(table.contains("sharded 8s4w"), "{table}");
        assert!(table.contains("packet 50fl+0bg"), "{table}");
        assert!(table.contains("hybrid 50fl+45bg"), "{table}");
        let serial_row = table
            .lines()
            .find(|l| l.contains("calendar") && l.contains("serial"))
            .unwrap();
        assert_eq!(serial_row.matches("3887041").count(), 2, "{serial_row}");
    }

    #[test]
    fn bench_json_includes_the_execution_axis_and_host_cores() {
        let exec = ExecBenchPoint {
            n: 200,
            execution: "sharded",
            shards: 4,
            workers: 2,
            sim_secs: 5.0,
            wall_secs: 0.5,
            events: 1000,
            events_per_sec: 2000.0,
            delivered: 10,
            perf: EnginePerf::default(),
        };
        let json = bench_points_json(&[], &[], &[exec], &[], &[], 5.0, 1);
        assert!(json.contains("\"host_cores\":"), "{json}");
        assert!(json.contains("\"execution\": \"sharded\""), "{json}");
        assert!(json.contains("\"phase_execute_nanos\":"), "{json}");
        // The JSON must round-trip through the trend parser.
        let rows = parse_bench_trend("X", &json);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].shards, rows[0].workers), (4, 2));
    }

    #[test]
    fn bench_json_telemetry_runs_stay_out_of_the_trend_table() {
        let tele = TelemetryBenchPoint {
            n: 500,
            mode: "on",
            wall_secs: 0.5,
            events: 1000,
            events_per_sec: 2000.0,
            delivered: 10,
            telemetry_events: 42,
        };
        let json = bench_points_json(&[], &[], &[], &[tele], &[], 5.0, 1);
        assert!(json.contains("\"mode\": \"on\""), "{json}");
        assert!(json.contains("\"telemetry_events\": 42"), "{json}");
        assert!(parse_bench_trend("X", &json).is_empty(), "{json}");
    }

    #[test]
    fn bench_json_hybrid_runs_round_trip_through_the_trend_parser() {
        let hybrid = HybridBenchPoint {
            n: 500,
            flows: 50,
            background: 45,
            mode: "hybrid",
            wall_secs: 0.1,
            events: 260_000,
            events_per_sec: 2_600_000.0,
            delivered: 900,
            goodput_bytes_per_sec: 170_000.0,
            fairness_index: 0.25,
            fluid_delivered_bytes: 450_000,
            perf: EnginePerf::default(),
        };
        let json = bench_points_json(&[], &[], &[], &[], &[hybrid], 5.0, 1);
        assert!(json.contains("\"hybrid_runs\":"), "{json}");
        assert!(json.contains("\"background\": 45"), "{json}");
        assert!(json.contains("\"fluid_delivered_bytes\": 450000"), "{json}");
        let rows = parse_bench_trend("X", &json);
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0].execution, "hybrid");
        assert_eq!((rows[0].flows, rows[0].background), (50, 45));
        let table = render_bench_trend(&rows);
        assert!(table.contains("hybrid 50fl+45bg"), "{table}");
    }

    /// A hybrid-axis row is an ensemble mean in every column, so its own
    /// `events` over its own `wall_secs` is its `events_per_sec` (to within
    /// the one event the integer mean may drop).
    #[test]
    fn hybrid_axis_rows_satisfy_events_over_wall_equals_throughput() {
        let points = bench_hybrid(50, &[2, 7], 1.0, 1, 1);
        assert_eq!(points.len(), 4, "packet and hybrid at each flow count");
        for p in &points {
            assert!(p.events > 0 && p.wall_secs > 0.0, "{p:?}");
            let from_row = p.events as f64 / p.wall_secs;
            assert!(
                (from_row - p.events_per_sec).abs() <= 1.0 / p.wall_secs + 1e-9 * p.events_per_sec,
                "flows={} {}: {} events / {} s = {from_row}, row says {}",
                p.flows,
                p.mode,
                p.events,
                p.wall_secs,
                p.events_per_sec
            );
        }
    }
}
