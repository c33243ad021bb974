//! Running one pass of a workload: every operation in order, then the
//! workload's aggregation and rendering, with the correctness gates applied
//! along the way.

use crate::alloc::AllocSnapshot;
use crate::metrics::Values;
use crate::trace::{self, Callback, Tracer};
use crate::workloads::{generate, Inputs, OpKind, Workload};
use manet_experiments::attacks::{render_attack_matrix, AttackCell, AttackMatrixOutcome};
use manet_experiments::figures::table1_relay_table;
use manet_experiments::report::{render_all_figures, render_relay_table};
use manet_experiments::runner::{run_scenario_with_recorder, AggregatedPoint, SweepOutcome};
use manet_experiments::{RunMetrics, Scenario};
use manet_mck::{explore, run_with_trace, ChoiceTrace, ExploreReport, ExploreSpec, Verdict};
use manet_netsim::fasthash::FxHasher;
use manet_netsim::telemetry::{check_conservation, validate_lines, write_ndjson, StringSink};
use manet_netsim::{Duration, EnginePerf, Recorder};
use manet_security::interception::summarize;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Recorder counts that `RunMetrics` does not carry.
#[derive(Debug, Default, Clone, Copy)]
struct RecorderCounts {
    control_bytes: u64,
    rreq_tx: u64,
    rrep_tx: u64,
    rerr_tx: u64,
    check_tx: u64,
    data_tx: u64,
    drops_total: u64,
    tunneled_frames: u64,
    fluid_offered_bytes: u64,
    telemetry_events: u64,
    ndjson_bytes: u64,
}

/// One finished simulation run.
struct SimRun {
    point: usize,
    sim_secs: f64,
    metrics: RunMetrics,
    perf: EnginePerf,
    counts: RecorderCounts,
}

/// Everything one pass produced.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Fx hash of every run's `RunMetrics` and `EnginePerf` (or explore
    /// report), in order: equal digests mean equal simulated statistics.
    pub digest: u64,
    /// The same hash for each operation that succeeded, `None` for one that
    /// failed.
    pub op_digests: Vec<Option<u64>>,
    /// Operations attempted and failed: one per simulation run or explored
    /// schedule, plus one per unhealthy aggregation point.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall milliseconds of each operation, and the slowest one with its
    /// label.
    pub op_ms: Vec<f64>,
    pub slowest: (f64, String),
    pub allocs: AllocSnapshot,
    /// Allocation calls inside stack callbacks and inside `Simulator::run`
    /// (decorated traced passes only).
    pub stack_allocs: u64,
    pub run_allocs: u64,
    sims: Vec<SimRun>,
    explores: Vec<ExploreReport>,
}

/// Set-up as a user of the workload pays it: every input generated and
/// validated, then one warm-up of at most one simulated second of the first
/// scenario, so lazy initialisation is out of the timed pass.
pub fn setup(workload: Workload, seed: u64, scale: f64) -> Inputs {
    let inputs = generate(workload, seed, scale);
    let invalid = inputs
        .ops
        .iter()
        .filter(|op| {
            let scenario = match &op.kind {
                OpKind::Sim { scenario, .. } => scenario,
                OpKind::Explore(spec) => &spec.scenario,
            };
            scenario.validate().is_err()
        })
        .count();
    // An invalid scenario is not reported here: its run panics in the pass
    // and is counted as failed there.
    if invalid == 0 {
        let _ = catch_unwind(AssertUnwindSafe(|| match &inputs.ops[0].kind {
            OpKind::Sim { scenario, .. } => {
                let mut short = scenario.clone();
                short.sim.duration = short.sim.duration.min(Duration::from_secs(1.0));
                black_box(run_scenario_with_recorder(&short));
            }
            OpKind::Explore(spec) => {
                let unforced = ChoiceTrace::unforced(spec.horizon, spec.delay, spec.kinds.clone());
                black_box(run_with_trace(&spec.scenario, &unforced).metrics);
            }
        }));
    }
    inputs
}

fn fx(text: &str) -> u64 {
    let mut h = FxHasher::default();
    text.hash(&mut h);
    h.finish()
}

/// The gates every simulation run must pass.
fn check_run(scenario: &Scenario, m: &RunMetrics, recorder: &Recorder) -> Result<(), String> {
    let floats = [
        m.delivery_rate,
        m.mean_delay,
        m.throughput_bytes_per_sec,
        m.fairness_index,
        m.relay_std_dev,
        m.interception_ratio,
        m.highest_interception_ratio,
        m.coalition_interception_ratio,
        m.attacker_capture_ratio,
        m.mean_windowed_participants,
    ];
    if floats.iter().any(|v| !v.is_finite()) {
        return Err("non-finite metric".into());
    }
    if m.throughput_packets > m.data_packets_generated {
        return Err(format!(
            "delivered {} > generated {}",
            m.throughput_packets, m.data_packets_generated
        ));
    }
    if !scenario.sim.telemetry.enabled && !recorder.telemetry.events().is_empty() {
        return Err("telemetry is off but events were collected".into());
    }
    Ok(())
}

/// Encode the run's telemetry as NDJSON, parse it back and check it.
fn check_telemetry(
    recorder: &Recorder,
    tracer: &mut Tracer,
    counts: &mut RecorderCounts,
) -> Result<(), String> {
    let events = recorder.telemetry.events();
    if events.is_empty() {
        return Err("telemetry is on but no events were collected".into());
    }
    let mut sink = StringSink::default();
    tracer
        .span("telemetry.encode", |_| write_ndjson(events, &mut sink))
        .map_err(|e| format!("NDJSON encode: {e}"))?;
    counts.ndjson_bytes = sink.0.len() as u64;
    tracer.span("telemetry.validate", |_| {
        let parsed = validate_lines(&sink.0).map_err(|e| format!("NDJSON schema: {e}"))?;
        if parsed.as_slice() != events {
            return Err("NDJSON round trip changed the events".to_string());
        }
        check_conservation(&parsed).map(|_| ())
    })
}

/// Run one scenario and apply the per-run gates.
fn run_sim(
    decorate: bool,
    scenario: &Scenario,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> Result<(RunMetrics, EnginePerf, RecorderCounts), String> {
    let (metrics, recorder) = tracer.span("experiments.run_scenario", |tracer| {
        if decorate {
            let run = trace::run_decorated(scenario, tracer);
            pass.stack_allocs += run.stack_allocs;
            pass.run_allocs += run.run_allocs;
            (run.metrics, run.recorder)
        } else {
            run_scenario_with_recorder(scenario)
        }
    });
    check_run(scenario, &metrics, &recorder)?;
    let by_kind = |kind: &str| recorder.control_by_kind().get(kind).copied().unwrap_or(0);
    let mut counts = RecorderCounts {
        control_bytes: recorder.control_bytes(),
        rreq_tx: by_kind("RREQ"),
        rrep_tx: by_kind("RREP"),
        rerr_tx: by_kind("RERR"),
        check_tx: by_kind("CHECK") + by_kind("CHECK_ERR"),
        data_tx: recorder.data_transmissions(),
        drops_total: recorder.total_drops(),
        tunneled_frames: recorder.tunneled_frames(),
        fluid_offered_bytes: recorder.fluid_offered_bytes(),
        telemetry_events: recorder.telemetry.events().len() as u64,
        ndjson_bytes: 0,
    };
    if scenario.sim.telemetry.enabled {
        check_telemetry(&recorder, tracer, &mut counts)?;
    }
    if tracer.enabled() {
        // The interception summary is the costly part of metric extraction;
        // time it on its own by calling it again.
        tracer.span("security.summarize", |_| {
            black_box(summarize(
                &recorder,
                scenario.sim.num_nodes,
                &scenario.endpoints(),
                scenario.eavesdropper,
            ))
        });
    }
    Ok((metrics, recorder.engine_perf(), counts))
}

fn run_explore(spec: &ExploreSpec, tracer: &mut Tracer) -> Result<ExploreReport, String> {
    let report = tracer.span("mck.explore", |_| explore(spec));
    match report.verdict {
        Verdict::Proved => Ok(report),
        Verdict::Violated(ref v) => Err(format!("explore found a violation: {}", v.reason)),
        Verdict::BudgetExhausted => Err("explore ran out of budget".into()),
    }
}

/// The workload's aggregation, rendering and output checks.
fn aggregate_and_render(inputs: &Inputs, pass: &Pass) -> Result<(), String> {
    // The runs of each aggregation point, in point order.
    let mut grouped = vec![Vec::new(); inputs.points.len()];
    for run in &pass.sims {
        grouped[run.point].push(run.metrics.clone());
    }
    let rendered = match inputs.workload {
        Workload::PaperSweep => {
            let points = inputs
                .points
                .iter()
                .zip(grouped)
                .filter(|(_, per_seed)| !per_seed.is_empty())
                .map(|(p, per_seed)| AggregatedPoint {
                    protocol: p.protocol,
                    max_speed: p.speed,
                    metrics: RunMetrics::average(&per_seed),
                    per_seed,
                })
                .collect();
            let mut text = render_all_figures(&SweepOutcome { points });
            if let Some((speed, seed, secs)) = inputs.table1 {
                text.push_str(&render_relay_table(&table1_relay_table(speed, seed, secs)));
            }
            text
        }
        Workload::AttackMatrix => {
            let cells = inputs
                .points
                .iter()
                .zip(grouped)
                .filter(|(_, per_seed)| !per_seed.is_empty())
                .map(|(p, per_seed)| AttackCell {
                    protocol: p.protocol,
                    attack: p.attack,
                    max_speed: p.speed,
                    metrics: RunMetrics::average(&per_seed),
                    per_seed,
                })
                .collect();
            render_attack_matrix(&AttackMatrixOutcome { cells })
        }
        _ => return Ok(()),
    };
    // Every protocol that ran must have made it into the rendered tables.
    for p in &inputs.points {
        if !rendered.contains(p.protocol.name()) {
            return Err(format!("rendered report lacks {}", p.protocol.name()));
        }
    }
    black_box(rendered);
    Ok(())
}

/// Run every operation of `inputs` once.
pub fn run_pass(inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    // The traced pass splits runs by stack callback when every scenario of the
    // workload allows it; a partial split would only confuse the sums.
    let decorate = tracer.enabled()
        && inputs.ops.iter().all(
            |op| matches!(&op.kind, OpKind::Sim { scenario, .. } if trace::decoratable(scenario)),
        );
    let allocs_before = AllocSnapshot::now();
    let start = Instant::now();
    for op in &inputs.ops {
        let depth = tracer.depth();
        let op_start = Instant::now();
        // A panic inside the program under test fails the operation, not the
        // benchmark.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tracer.span_labeled("run", Some(&op.label), |tracer| match &op.kind {
                OpKind::Sim { scenario, point } => {
                    let (metrics, perf, counts) = run_sim(decorate, scenario, tracer, &mut pass)?;
                    let digest = fx(&format!("{metrics:?}{perf:?}"));
                    pass.sims.push(SimRun {
                        point: *point,
                        sim_secs: scenario.sim.duration.as_secs(),
                        metrics,
                        perf,
                        counts,
                    });
                    Ok((1, digest))
                }
                OpKind::Explore(spec) => {
                    let report = run_explore(spec, tracer)?;
                    let runs = report.runs;
                    let digest = fx(&format!(
                        "{runs} {} {} {}",
                        report.distinct_states, report.dedup_hits, report.max_eligible_seen
                    ));
                    pass.explores.push(report);
                    Ok((runs, digest))
                }
            })
        }));
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        pass.op_ms.push(ms);
        if ms > pass.slowest.0 {
            pass.slowest = (ms, op.label.clone());
        }
        let result: Result<(u64, u64), String> = outcome.unwrap_or_else(|_| {
            tracer.unwind_to(depth);
            Err("panicked".into())
        });
        match result {
            Ok((attempted, digest)) => {
                pass.attempted += attempted;
                pass.op_digests.push(Some(digest));
            }
            Err(why) => {
                pass.attempted += 1;
                pass.failed += 1;
                pass.failures.push(format!("{}: {why}", op.label));
                pass.op_digests.push(None);
            }
        }
    }
    // Health gate: the clean runs of a gate group must deliver something
    // (attacked ones may legitimately deliver nothing).
    let mut delivered: BTreeMap<&str, u64> = BTreeMap::new();
    for run in &pass.sims {
        let point = &inputs.points[run.point];
        if point.attack.is_none() {
            *delivered.entry(&point.gate).or_default() += run.metrics.throughput_packets;
        }
    }
    for (group, delivered) in delivered {
        if delivered == 0 {
            pass.attempted += 1;
            pass.failed += 1;
            pass.failures
                .push(format!("the clean {group} delivered nothing"));
        }
    }
    let tail = catch_unwind(AssertUnwindSafe(|| {
        tracer.span("experiments.aggregate_render", |_| {
            aggregate_and_render(inputs, &pass)
        })
    }));
    if let Err(why) = tail.unwrap_or_else(|_| Err("aggregation panicked".into())) {
        pass.attempted += 1;
        pass.failed += 1;
        pass.failures.push(why);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.allocs = AllocSnapshot::now().since(allocs_before);
    pass.digest = fx(&format!("{:?}", pass.op_digests));
    pass
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

impl Pass {
    /// Unique TCP data segments delivered over all runs.
    pub fn delivered(&self) -> u64 {
        self.sims.iter().map(|r| r.metrics.throughput_packets).sum()
    }

    /// Simulated results and exact counts of this (untraced) pass.
    pub fn counts_into(&self, inputs: &Inputs, v: &mut Values) {
        let sum = |f: &dyn Fn(&SimRun) -> u64| self.sims.iter().map(f).sum::<u64>() as f64;
        let delivered = self.delivered() as f64;
        let generated = sum(&|r| r.metrics.data_packets_generated);
        let events = sum(&|r| r.perf.events_processed);

        v.set("experiments.delivered", delivered);
        v.set(
            "experiments.delivered_per_wall_s",
            ratio(delivered, self.wall_s),
        );
        v.set("experiments.delivery_rate", ratio(delivered, generated));
        v.set(
            "experiments.goodput_kBps",
            mean(
                self.sims
                    .iter()
                    .map(|r| r.metrics.throughput_bytes_per_sec / 1e3),
            ),
        );
        v.set(
            "experiments.mean_delay_ms",
            ratio(
                self.sims
                    .iter()
                    .map(|r| r.metrics.mean_delay * r.metrics.throughput_packets as f64)
                    .sum::<f64>()
                    * 1e3,
                delivered,
            ),
        );
        v.set("experiments.events_per_delivered", ratio(events, delivered));
        v.set(
            "experiments.fairness_jain",
            mean(self.sims.iter().map(|r| r.metrics.fairness_index)),
        );
        v.set(
            "experiments.failed_share",
            ratio(self.failed as f64, self.attempted as f64),
        );
        v.set(
            "security.peak_interception",
            mean(
                self.sims
                    .iter()
                    .map(|r| r.metrics.highest_interception_ratio),
            ),
        );
        v.set(
            "adversary.capture_ratio",
            mean(
                self.sims
                    .iter()
                    .filter(|r| inputs.points[r.point].attack.captures_traffic())
                    .map(|r| r.metrics.attacker_capture_ratio),
            ),
        );
        v.set(
            "netsim.fluid.goodput_kBps",
            mean(
                self.sims
                    .iter()
                    .map(|r| ratio(r.metrics.fluid_delivered_bytes as f64 / 1e3, r.sim_secs)),
            ),
        );

        v.set("netsim.events", events);
        v.set("netsim.events_per_s", ratio(events, self.wall_s));
        v.set(
            "netsim.queue.ops_per_event",
            ratio(sum(&|r| r.perf.queue_pushes + r.perf.queue_pops), events),
        );
        v.set(
            "netsim.queue.max_occupancy",
            self.sims
                .iter()
                .map(|r| r.perf.queue_max_occupancy)
                .max()
                .unwrap_or(0) as f64,
        );
        v.set(
            "netsim.queue.calendar_resizes",
            sum(&|r| r.perf.calendar_resizes),
        );
        let queries = sum(&|r| r.perf.neighbor_queries);
        v.set("netsim.grid.queries_per_event", ratio(queries, events));
        v.set(
            "netsim.grid.candidates_per_query",
            ratio(sum(&|r| r.perf.candidates_scanned), queries),
        );
        v.set("netsim.grid.rebinds", sum(&|r| r.perf.grid_rebinds));
        let hits = sum(&|r| r.perf.position_cache_hits);
        v.set(
            "netsim.mobility.position_cache_hit_rate",
            ratio(hits, hits + sum(&|r| r.perf.position_cache_misses)),
        );
        let shared = sum(&|r| r.perf.payload_clones_avoided);
        let cloned = sum(&|r| r.perf.payload_deep_clones);
        v.set("netsim.payload.share_rate", ratio(shared, shared + cloned));
        v.set("netsim.payload.deep_clones", cloned);
        v.set(
            "netsim.mac.collisions_per_data_tx",
            ratio(
                sum(&|r| r.metrics.mac_collisions),
                sum(&|r| r.counts.data_tx),
            ),
        );
        v.set(
            "netsim.mac.link_failures",
            sum(&|r| r.metrics.link_failures),
        );
        v.set("netsim.mac.drops_total", sum(&|r| r.counts.drops_total));
        v.set(
            "netsim.fluid.delivered_share",
            ratio(
                sum(&|r| r.metrics.fluid_delivered_bytes),
                sum(&|r| r.counts.fluid_offered_bytes),
            ),
        );
        v.set(
            "routing.control_per_delivered",
            ratio(sum(&|r| r.metrics.control_overhead), delivered),
        );
        v.set("routing.control_bytes", sum(&|r| r.counts.control_bytes));
        v.set("routing.rreq_tx", sum(&|r| r.counts.rreq_tx));
        v.set("routing.rrep_tx", sum(&|r| r.counts.rrep_tx));
        v.set("routing.rerr_tx", sum(&|r| r.counts.rerr_tx));
        v.set("core.check_tx", sum(&|r| r.counts.check_tx));
        v.set("routing.route_switches", sum(&|r| r.metrics.route_switches));
        v.set(
            "transport.retx_per_delivered",
            ratio(sum(&|r| r.metrics.tcp_retransmissions), delivered),
        );
        v.set("transport.timeouts", sum(&|r| r.metrics.tcp_timeouts));
        v.set(
            "transport.out_of_order",
            sum(&|r| r.metrics.tcp_out_of_order),
        );
        v.set("adversary.drops", sum(&|r| r.metrics.adversary_drops));
        v.set("adversary.jammed_frames", sum(&|r| r.metrics.jammed_frames));
        v.set(
            "adversary.tunneled_frames",
            sum(&|r| r.counts.tunneled_frames),
        );
        v.set(
            "security.participants_mean",
            mean(
                self.sims
                    .iter()
                    .map(|r| r.metrics.participating_nodes as f64),
            ),
        );
        v.set(
            "security.relay_stddev",
            mean(self.sims.iter().map(|r| r.metrics.relay_std_dev)),
        );
        let telemetry_events = sum(&|r| r.counts.telemetry_events);
        v.set(
            "telemetry.events_per_engine_event",
            ratio(telemetry_events, events),
        );
        v.set(
            "telemetry.ndjson_bytes_per_event",
            ratio(sum(&|r| r.counts.ndjson_bytes), telemetry_events),
        );

        let schedules: u64 = self.explores.iter().map(|e| e.runs).sum();
        v.set("mck.runs", schedules as f64);
        v.set(
            "mck.schedules_per_wall_s",
            ratio(schedules as f64, self.wall_s),
        );
        v.set(
            "mck.distinct_states",
            self.explores.iter().map(|e| e.distinct_states).sum::<u64>() as f64,
        );
        v.set(
            "mck.dedup_hits",
            self.explores.iter().map(|e| e.dedup_hits).sum::<u64>() as f64,
        );
        v.set(
            "mck.max_eligible",
            self.explores
                .iter()
                .map(|e| e.max_eligible_seen)
                .max()
                .unwrap_or(0) as f64,
        );

        // The explorer reports no engine event count, so the allocation
        // ratios read 0 on `explore_schedules`.
        v.set(
            "alloc.count_per_event",
            ratio(self.allocs.count as f64, events),
        );
        v.set(
            "alloc.bytes_per_event",
            ratio(self.allocs.bytes as f64, events),
        );
        let mut sorted = self.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        v.set(
            "experiments.run_ms_p50",
            sorted.get(sorted.len() / 2).copied().unwrap_or(0.0),
        );
        v.set("experiments.run_ms_max", self.slowest.0);
    }

    /// Span totals of this (traced) pass.
    pub fn spans_into(&self, tracer: &Tracer, untraced_wall_s: f64, v: &mut Values) {
        for name in [
            "experiments.run_scenario",
            "netsim.sim_new",
            "netsim.sim_run",
            "netsim.engine_self",
            "experiments.extract",
            "security.summarize",
            "experiments.aggregate_render",
            "telemetry.encode",
            "telemetry.validate",
        ] {
            v.set(&format!("{name}_s"), tracer.total_s(name));
        }
        for kind in Callback::ALL {
            let name = kind.span_name();
            let secs = tracer.total_s(name);
            let calls = tracer.total_calls(name) as f64;
            v.set(&format!("{name}_s"), secs);
            v.set(&format!("{name}_calls"), calls);
            v.set(&format!("{name}_ns_per_call"), ratio(secs * 1e9, calls));
        }
        v.set(
            "netsim.engine_self_ns_per_event",
            ratio(
                tracer.total_s("netsim.engine_self") * 1e9,
                tracer.total_calls("netsim.engine_self") as f64,
            ),
        );
        v.set(
            "alloc.stack_share",
            ratio(self.stack_allocs as f64, self.run_allocs as f64),
        );
        let schedules: u64 = self.explores.iter().map(|e| e.runs).sum();
        v.set(
            "mck.ns_per_schedule",
            ratio(tracer.total_s("mck.explore") * 1e9, schedules as f64),
        );
        v.set("trace.overhead_ratio", ratio(self.wall_s, untraced_wall_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Op, Point};
    use manet_experiments::{AttackConfig, Protocol};

    fn one_run(workload: Workload, scenario: Scenario) -> Inputs {
        Inputs {
            workload,
            ops: vec![Op {
                label: "test run".into(),
                kind: OpKind::Sim { scenario, point: 0 },
            }],
            points: vec![Point {
                protocol: Protocol::Mts,
                speed: 10.0,
                attack: AttackConfig::none(),
                gate: "run 0".into(),
            }],
            table1: None,
        }
    }

    fn paper(secs: f64) -> Scenario {
        let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 2);
        scenario.sim.duration = Duration::from_secs(secs);
        scenario
    }

    #[test]
    fn a_healthy_run_passes_and_repeats_its_digest() {
        let inputs = one_run(Workload::ScaleFlood, paper(5.0));
        let a = run_pass(&inputs, &mut Tracer::new(false));
        let b = run_pass(&inputs, &mut Tracer::new(false));
        assert_eq!((a.attempted, a.failed), (1, 0), "{:?}", a.failures);
        assert!(a.delivered() > 0);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn the_decorated_run_reproduces_the_public_runner() {
        let inputs = one_run(Workload::PaperSweep, paper(5.0));
        let plain = run_pass(&inputs, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = run_pass(&inputs, &mut tracer);
        assert_eq!(plain.digest, traced.digest);
        assert!(traced.run_allocs >= traced.stack_allocs && traced.stack_allocs > 0);
        // The aggregated children of a run span sum to it.
        let children: f64 = Callback::ALL
            .iter()
            .map(|k| k.span_name())
            .chain(["netsim.engine_self"])
            .map(|name| tracer.total_s(name))
            .sum();
        let run = tracer.total_s("netsim.sim_run");
        assert!(
            children <= run && children > 0.98 * run,
            "{children} of {run}"
        );
    }

    #[test]
    fn an_invalid_scenario_and_a_silent_clean_run_both_fail() {
        let mut invalid = paper(5.0);
        invalid.flows.clear();
        let pass = run_pass(
            &one_run(Workload::ScaleFlood, invalid),
            &mut Tracer::new(false),
        );
        assert_eq!((pass.attempted, pass.failed), (1, 1));
        assert_eq!(pass.op_digests, vec![None]);

        // One simulated millisecond delivers nothing.
        let pass = run_pass(
            &one_run(Workload::ScaleFlood, paper(0.001)),
            &mut Tracer::new(false),
        );
        assert_eq!((pass.attempted, pass.failed), (2, 1), "{:?}", pass.failures);
        assert!(pass.failures[0].contains("delivered nothing"));
    }
}
