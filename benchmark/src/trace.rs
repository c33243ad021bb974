//! Spans recorded from outside the program, and the timing decorator that
//! splits a simulation run by stack callback.
//!
//! Spans nest as `workload > run > {...}`.  They are kept in memory and
//! written once, when the benchmark ends.  A [`Tracer`] that is off runs the
//! wrapped work directly, so the untraced pass pays nothing for it.

use crate::alloc;
use crate::json::Json;
use manet_experiments::stack::{ManetStack, SharedTcpStats, TcpRunReport};
use manet_experiments::{RunMetrics, Scenario};
use manet_netsim::mobility::RandomWaypoint;
use manet_netsim::{Ctx, NodeStack, Recorder, Simulator, TimerToken};
use manet_wire::{ConnectionId, Frame, NetPacket, NodeId, SharedPacket};
use parking_lot::Mutex;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// What the span ran (the run's label), when it has one.
    pub label: Option<String>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `Some(n)` marks an aggregate of `n` callbacks whose time was sampled
    /// (see [`TimedStack`]): its duration is an estimate and its start is its
    /// parent's, not an observed instant.
    pub calls: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `work` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_labeled(name, None, work)
    }

    pub fn span_labeled<T>(
        &mut self,
        name: &'static str,
        label: Option<&str>,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return work(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            label: label.map(str::to_string),
            start_ns,
            end_ns: start_ns,
            calls: None,
        });
        self.open.push(id);
        let out = work(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Add an aggregated child of the innermost open span.
    fn aggregated(&mut self, name: &'static str, total_ns: u64, calls: u64) {
        let parent = *self.open.last().expect("aggregated span needs a parent");
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            parent: Some(parent),
            name,
            label: None,
            start_ns,
            end_ns: start_ns + total_ns,
            calls: Some(calls),
        });
    }

    /// How many spans are open; with [`Tracer::unwind_to`] this closes the
    /// spans a panicking run left open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span");
            self.spans[id].end_ns = now;
        }
    }

    /// Seconds spent in every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Callbacks counted under every aggregated span named `name`.
    pub fn total_calls(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.calls)
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut fields = vec![
                    ("id", Json::Int(id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                ];
                if let Some(label) = &s.label {
                    fields.push(("label", Json::str(label.as_str())));
                }
                if let Some(calls) = s.calls {
                    fields.push(("aggregated_calls", Json::Int(calls)));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed)),
            ("sample_every", Json::Int(SAMPLE_EVERY)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// The stack callbacks the decorator tells apart.  `on_receive` is split by
/// what arrived: a control packet (routing work), a data packet for another
/// node (forwarding) or a data packet for this node (transport work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Start,
    OnTimer,
    OnPromiscuous,
    OnLinkFailure,
    CtrlRx,
    DataFwd,
    DataRx,
}

impl Callback {
    pub const ALL: [Callback; 7] = [
        Callback::Start,
        Callback::OnTimer,
        Callback::OnPromiscuous,
        Callback::OnLinkFailure,
        Callback::CtrlRx,
        Callback::DataFwd,
        Callback::DataRx,
    ];

    /// Span name; the per-layer metrics are this name plus `_s`, `_calls`
    /// and `_ns_per_call`.
    pub fn span_name(self) -> &'static str {
        match self {
            Callback::Start => "stack.start",
            Callback::OnTimer => "stack.on_timer",
            Callback::OnPromiscuous => "stack.on_promiscuous",
            Callback::OnLinkFailure => "stack.on_link_failure",
            Callback::CtrlRx => "routing.ctrl_rx",
            Callback::DataFwd => "routing.data_fwd",
            Callback::DataRx => "transport.data_rx",
        }
    }
}

/// Timing every callback cost +57 % on `paper_sweep` (tens of millions of
/// sub-100 ns `on_promiscuous` calls); counts stay exact, time is sampled one
/// call in this many per kind and scaled.
const SAMPLE_EVERY: u64 = 64;

/// What an empty `Instant::now()` .. `elapsed()` pair reads on this box,
/// nanoseconds (median of 1001).  It is subtracted from every sampled
/// callback: `on_promiscuous` runs for a few nanoseconds, tens of millions of
/// times, and would otherwise be charged mostly with the clock's own cost.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let start = Instant::now();
                start.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// What the decorators of one run observed, shared by all its stacks.
#[derive(Default)]
struct CallbackStats {
    calls: [Cell<u64>; 7],
    sampled_calls: [Cell<u64>; 7],
    sampled_ns: [Cell<u64>; 7],
    /// Allocation calls made inside callbacks (exact).
    allocs: Cell<u64>,
    clock_overhead_ns: u64,
}

impl CallbackStats {
    #[inline]
    fn timed<T>(&self, kind: Callback, work: impl FnOnce() -> T) -> T {
        let k = kind as usize;
        let n = self.calls[k].get();
        self.calls[k].set(n + 1);
        let allocs_before = alloc::count_now();
        let out = if n.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let out = work();
            let ns = (start.elapsed().as_nanos() as u64).saturating_sub(self.clock_overhead_ns);
            self.sampled_ns[k].set(self.sampled_ns[k].get() + ns);
            self.sampled_calls[k].set(self.sampled_calls[k].get() + 1);
            out
        } else {
            work()
        };
        self.allocs
            .set(self.allocs.get() + alloc::count_now() - allocs_before);
        out
    }

    /// Estimated nanoseconds spent in callbacks of `kind`.
    fn estimated_ns(&self, kind: Callback) -> u64 {
        let k = kind as usize;
        let sampled = self.sampled_calls[k].get();
        if sampled == 0 {
            return 0;
        }
        (self.sampled_ns[k].get() as f64 * self.calls[k].get() as f64 / sampled as f64) as u64
    }
}

/// Decorator over the public [`NodeStack`] trait.  Work a callback hands to
/// the engine through `Ctx::send_frame` is charged to the callback.
struct TimedStack {
    inner: ManetStack,
    stats: Rc<CallbackStats>,
}

impl NodeStack for TimedStack {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let inner = &mut self.inner;
        self.stats.timed(Callback::Start, || inner.start(ctx));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let inner = &mut self.inner;
        self.stats
            .timed(Callback::OnTimer, || inner.on_timer(ctx, token));
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        let kind = match packet.as_data() {
            None => Callback::CtrlRx,
            Some(data) if data.dst == ctx.me() => Callback::DataRx,
            Some(_) => Callback::DataFwd,
        };
        let inner = &mut self.inner;
        self.stats
            .timed(kind, || inner.on_receive(ctx, from, packet));
    }

    fn on_promiscuous(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        let inner = &mut self.inner;
        self.stats
            .timed(Callback::OnPromiscuous, || inner.on_promiscuous(ctx, frame));
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        let inner = &mut self.inner;
        self.stats.timed(Callback::OnLinkFailure, || {
            inner.on_link_failure(ctx, next_hop, packet)
        });
    }

    fn on_run_end(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_run_end(ctx);
    }
}

/// What [`run_decorated`] measured besides the spans it recorded.
pub struct DecoratedRun {
    pub metrics: RunMetrics,
    pub recorder: Recorder,
    /// Allocation calls made inside stack callbacks and during the whole
    /// `Simulator::run`.
    pub stack_allocs: u64,
    pub run_allocs: u64,
}

/// Whether [`run_decorated`] can run `scenario`: no attack and no scenario
/// flow routed through the fluid layer.  Those need the runner's own stack
/// wrappers and mobility, which the hand-built copy does not have.  (Generated
/// background flows and telemetry live in the engine and are fine.)
pub fn decoratable(scenario: &Scenario) -> bool {
    scenario.attack.is_none() && scenario.flows.iter().all(|f| !f.fluid)
}

/// Run a scenario the way `manet_experiments::runner` runs it on the serial
/// engine, with every stack behind a [`TimedStack`].  The caller checks that
/// the result digest equals the public runner's.
///
/// # Panics
/// Panics on a scenario that is not [`decoratable`].
pub fn run_decorated(scenario: &Scenario, tracer: &mut Tracer) -> DecoratedRun {
    assert!(
        decoratable(scenario),
        "scenario needs the runner's wrappers"
    );
    scenario.validate().expect("invalid scenario");
    let tcp_stats: SharedTcpStats = Arc::new(Mutex::new(TcpRunReport::default()));
    let stats = Rc::new(CallbackStats {
        clock_overhead_ns: clock_overhead_ns(),
        ..CallbackStats::default()
    });
    let sim = tracer.span("netsim.sim_new", |_| {
        let stacks: Vec<Box<dyn NodeStack>> = (0..scenario.sim.num_nodes)
            .map(|i| {
                let me = NodeId(i);
                let agent = scenario.protocol.build_agent(me, scenario.mts);
                let mut stack = ManetStack::new(me, agent, Arc::clone(&tcp_stats));
                for (idx, flow) in scenario.flows.iter().enumerate() {
                    let conn = ConnectionId(idx as u32);
                    if flow.src == me {
                        stack.add_sender(conn, flow.dst, scenario.tcp, flow.profile());
                    }
                    if flow.dst == me {
                        stack.add_receiver(conn, flow.src);
                    }
                }
                Box::new(TimedStack {
                    inner: stack,
                    stats: Rc::clone(&stats),
                }) as Box<dyn NodeStack>
            })
            .collect();
        let mobility = RandomWaypoint::new(
            scenario.sim.field_width,
            scenario.sim.field_height,
            scenario.sim.mobility,
        );
        Simulator::new(scenario.effective_sim(), Box::new(mobility), stacks)
    });
    let mut run_allocs = 0;
    let recorder = tracer.span("netsim.sim_run", |tracer| {
        let allocs_before = alloc::count_now();
        let start = Instant::now();
        let recorder = sim.run();
        let run_ns = start.elapsed().as_nanos() as u64;
        run_allocs = alloc::count_now() - allocs_before;
        let mut callbacks_ns = 0;
        for kind in Callback::ALL {
            let ns = stats.estimated_ns(kind);
            callbacks_ns += ns;
            tracer.aggregated(kind.span_name(), ns, stats.calls[kind as usize].get());
        }
        // Run minus callbacks: queue, grid, MAC and recorder.
        tracer.aggregated(
            "netsim.engine_self",
            run_ns.saturating_sub(callbacks_ns),
            recorder.engine_perf().events_processed,
        );
        recorder
    });
    let metrics = tracer.span("experiments.extract", |_| {
        let report = tcp_stats.lock().clone();
        RunMetrics::extract(scenario, &recorder, &report)
    });
    DecoratedRun {
        metrics,
        recorder,
        stack_allocs: stats.allocs.get(),
        run_allocs,
    }
}
