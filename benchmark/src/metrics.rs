//! The metric registry: every metric the benchmark reports, with its unit,
//! direction and (for end-to-end metrics) regression bound.  `BENCHMARK.json`
//! is printed from these tables (`--print-manifest`), so the manifest and the
//! program cannot disagree.

use crate::json::Json;
use crate::workloads::Workload;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Measured with tracing off; every workload reports every one of them and
/// none can be 0.  See README.md for why the simulated results (delivery,
/// goodput, interception, capture) are per-layer metrics here and not
/// end-to-end ones.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Reported by the traced run.  A metric a workload cannot produce reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // --- simulated results of the untraced pass (exact for a seed) ---------
    higher("experiments.delivered", "count"),
    higher("experiments.delivered_per_wall_s", "1/s"),
    higher("experiments.delivery_rate", "ratio"),
    higher("experiments.goodput_kBps", "kB/s"),
    lower("experiments.mean_delay_ms", "ms"),
    lower("experiments.events_per_delivered", "ratio"),
    higher("experiments.fairness_jain", "ratio"),
    lower("experiments.failed_share", "ratio"),
    lower("security.peak_interception", "ratio"),
    lower("adversary.capture_ratio", "ratio"),
    higher("netsim.fluid.goodput_kBps", "kB/s"),
    higher("mck.schedules_per_wall_s", "1/s"),
    // --- (a) exact counts of the untraced pass ------------------------------
    lower("netsim.events", "count"),
    higher("netsim.events_per_s", "1/s"),
    lower("netsim.queue.ops_per_event", "ratio"),
    lower("netsim.queue.max_occupancy", "count"),
    lower("netsim.queue.calendar_resizes", "count"),
    lower("netsim.grid.queries_per_event", "ratio"),
    lower("netsim.grid.candidates_per_query", "ratio"),
    lower("netsim.grid.rebinds", "count"),
    higher("netsim.mobility.position_cache_hit_rate", "ratio"),
    higher("netsim.payload.share_rate", "ratio"),
    lower("netsim.payload.deep_clones", "count"),
    lower("netsim.mac.collisions_per_data_tx", "ratio"),
    lower("netsim.mac.link_failures", "count"),
    lower("netsim.mac.drops_total", "count"),
    higher("netsim.fluid.delivered_share", "ratio"),
    lower("routing.control_per_delivered", "ratio"),
    lower("routing.control_bytes", "B"),
    lower("routing.rreq_tx", "count"),
    lower("routing.rrep_tx", "count"),
    lower("routing.rerr_tx", "count"),
    lower("core.check_tx", "count"),
    lower("routing.route_switches", "count"),
    lower("transport.retx_per_delivered", "ratio"),
    lower("transport.timeouts", "count"),
    lower("transport.out_of_order", "count"),
    lower("adversary.drops", "count"),
    lower("adversary.jammed_frames", "count"),
    lower("adversary.tunneled_frames", "count"),
    higher("security.participants_mean", "count"),
    lower("security.relay_stddev", "ratio"),
    lower("telemetry.events_per_engine_event", "ratio"),
    lower("telemetry.ndjson_bytes_per_event", "B"),
    lower("mck.runs", "count"),
    lower("mck.distinct_states", "count"),
    higher("mck.dedup_hits", "count"),
    lower("mck.max_eligible", "count"),
    lower("alloc.count_per_event", "ratio"),
    lower("alloc.bytes_per_event", "B"),
    lower("experiments.run_ms_p50", "ms"),
    lower("experiments.run_ms_max", "ms"),
    // --- (b) spans of the traced pass ----------------------------------------
    lower("experiments.scenario_build_s", "s"),
    lower("experiments.run_scenario_s", "s"),
    lower("netsim.sim_new_s", "s"),
    lower("netsim.sim_run_s", "s"),
    lower("stack.start_s", "s"),
    lower("stack.start_calls", "count"),
    lower("stack.start_ns_per_call", "ns"),
    lower("stack.on_timer_s", "s"),
    lower("stack.on_timer_calls", "count"),
    lower("stack.on_timer_ns_per_call", "ns"),
    lower("stack.on_promiscuous_s", "s"),
    lower("stack.on_promiscuous_calls", "count"),
    lower("stack.on_promiscuous_ns_per_call", "ns"),
    lower("stack.on_link_failure_s", "s"),
    lower("stack.on_link_failure_calls", "count"),
    lower("stack.on_link_failure_ns_per_call", "ns"),
    lower("routing.ctrl_rx_s", "s"),
    lower("routing.ctrl_rx_calls", "count"),
    lower("routing.ctrl_rx_ns_per_call", "ns"),
    lower("routing.data_fwd_s", "s"),
    lower("routing.data_fwd_calls", "count"),
    lower("routing.data_fwd_ns_per_call", "ns"),
    lower("transport.data_rx_s", "s"),
    lower("transport.data_rx_calls", "count"),
    lower("transport.data_rx_ns_per_call", "ns"),
    lower("netsim.engine_self_s", "s"),
    lower("netsim.engine_self_ns_per_event", "ns"),
    lower("alloc.stack_share", "ratio"),
    lower("experiments.extract_s", "s"),
    lower("security.summarize_s", "s"),
    lower("experiments.aggregate_render_s", "s"),
    lower("telemetry.encode_s", "s"),
    lower("telemetry.validate_s", "s"),
    lower("mck.ns_per_schedule", "ns"),
    lower("netsim.fluid.cost_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    // --- (c) layer probes -----------------------------------------------------
    lower("netsim.queue.hold_ns_per_op", "ns"),
    lower("netsim.grid.query_ns", "ns"),
    lower("netsim.grid.rebin_ns", "ns"),
    lower("netsim.fluid.max_min_us", "us"),
    lower("transport.loopback_ns_per_segment", "ns"),
    lower("transport.loss_recovery_ns_per_segment", "ns"),
    lower("telemetry.encode_ns_per_event", "ns"),
    lower("telemetry.parse_ns_per_line", "ns"),
    lower("security.highest_interception_us", "us"),
    lower("mck.replay_us", "us"),
    lower("mck.digest_us", "us"),
];

/// Measured values keyed by registered metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// # Panics
    /// Panics on a name missing from both tables: a typo would otherwise
    /// silently drop the measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not registered"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The measured value; a metric never measured reads 0.
    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// True when every measured value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.values().all(|v| v.is_finite())
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for every metric of `defs`,
    /// in table order; a metric never measured reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(defs.iter().map(|m| {
            let value = self.value(m.name);
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest(run_seconds: u64) -> Json {
    let better = |b: Better| {
        Json::str(match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(run_seconds)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound.expect("end-to-end bound"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The limits the driver puts on `BENCHMARK.json`.
    #[test]
    fn registry_fits_the_manifest_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&Workload::ALL.len()));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
            "a name is used twice"
        );
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END {
            let bound = m.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap());
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert!(manifest(10).encode_pretty().len() < 64 * 1024);
    }
}
