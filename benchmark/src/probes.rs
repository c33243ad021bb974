//! Layer probes: direct calls into public functions of single layers, on
//! fixed seeded inputs (independent of `--seed` and of the workload), each
//! reported as the median over [`BATCHES`] timed batches.

use crate::metrics::Values;
use manet_experiments::runner::run_scenario_with_recorder;
use manet_experiments::{Protocol, Scenario};
use manet_mck::{blackhole_corridor, outcome_digest, run_with_trace, ChoiceTrace};
use manet_netsim::telemetry::{validate_lines, write_ndjson, StringSink};
use manet_netsim::{
    max_min_allocate, CalendarQueue, Duration, Event, EventQueue, Position, SimConfig, SimTime,
    SpatialGrid, TelemetryConfig, TimerToken,
};
use manet_security::highest_interception_ratio;
use manet_tcp::{TcpConfig, TcpReceiver, TcpSender, TimerHandle};
use manet_wire::{ConnectionId, NodeId, TcpSegment};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 11;

/// SplitMix64: the probes' only source of randomness (the workspace's `rand`
/// shim is not a dependency of the root package).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Median nanoseconds per item; `batch` returns how many items it processed.
/// One untimed batch first, so caches and lazy set-up are out of the numbers.
fn median_ns_per_item(mut batch: impl FnMut() -> u64) -> f64 {
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let items = batch();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Hold model on the calendar queue: pop the earliest event, schedule it
/// again a random increment later, at a steady occupancy of 4096.
fn queue_hold_ns() -> f64 {
    let mut rng = SplitMix64(1);
    let mut queue = EventQueue::calendar(CalendarQueue::width_for_mac(&SimConfig::default().mac));
    for i in 0..4096u64 {
        queue.schedule(
            SimTime::from_secs(rng.unit() * 0.05),
            Event::Timer {
                node: NodeId((i % 2000) as u16),
                token: TimerToken(i),
            },
        );
    }
    median_ns_per_item(|| {
        for _ in 0..20_000 {
            let ev = queue.pop().expect("steady occupancy");
            queue.schedule(ev.time + Duration::from_secs(rng.unit() * 0.05), ev.event);
        }
        20_000
    })
}

/// Range queries and rebins on the spatial grid: 2000 nodes at the paper's
/// density, carrier-sense radius.  Returns `(query_ns, rebin_ns)`.
fn grid_ns() -> (f64, f64) {
    const NODES: usize = 2000;
    let mut rng = SplitMix64(2);
    let config = SimConfig::scaled_environment(NODES as u16, 10.0, 1);
    let side = config.field_width;
    let radius = config.radio.carrier_sense_range();
    let slack = config.grid_slack_m;
    let mut grid = SpatialGrid::new(side, side, radius, slack, NODES);
    let mut positions: Vec<Position> = (0..NODES)
        .map(|_| Position::new(rng.unit() * side, rng.unit() * side))
        .collect();
    for (i, &p) in positions.iter().enumerate() {
        grid.rebin(NodeId(i as u16), p);
    }
    let query = median_ns_per_item(|| {
        let mut seen = 0u64;
        for &p in &positions {
            seen += grid.for_each_candidate(p, radius, |n| {
                black_box(n);
            });
        }
        black_box(seen);
        NODES as u64
    });
    let rebin = median_ns_per_item(|| {
        for (i, p) in positions.iter_mut().enumerate() {
            // A drift refresh: the node moved about one slack since its
            // last rebin.
            let step = 2.0 * slack;
            p.x = (p.x + (rng.unit() - 0.5) * step).clamp(0.0, side);
            p.y = (p.y + (rng.unit() - 0.5) * step).clamp(0.0, side);
            black_box(grid.rebin(NodeId(i as u16), *p));
        }
        NODES as u64
    });
    (query, rebin)
}

/// One max-min fair allocation of 2000 flows over 100 regions, microseconds.
fn max_min_us() -> f64 {
    let mut rng = SplitMix64(3);
    let capacity = vec![250_000.0; 100];
    let paths: Vec<Vec<usize>> = (0..2000)
        .map(|_| {
            let hops = 3 + rng.below(6);
            (0..hops).map(|_| rng.below(100)).collect()
        })
        .collect();
    let demands: Vec<f64> = (0..2000).map(|_| 8_000.0 + rng.unit() * 16_000.0).collect();
    median_ns_per_item(|| {
        black_box(max_min_allocate(&capacity, &paths, &demands));
        1
    }) / 1e3
}

/// Move `segments` data segments from a `TcpSender` to a `TcpReceiver` and
/// the ACKs back, dropping every `drop_every`-th data segment (0: none).
/// Each exchange advances the clock by a fixed 20 ms round trip; when
/// nothing is in flight on the wire the retransmission timer fires.
fn tcp_transfer(segments: u64, drop_every: u64) -> u64 {
    let conn = ConnectionId(1);
    let config = TcpConfig::default();
    let mut sender = TcpSender::new(conn, config);
    let mut receiver = TcpReceiver::new(conn);
    let target = segments * u64::from(config.mss);
    let mut now = SimTime::from_secs(0.0);
    let mut wire: VecDeque<TcpSegment> = VecDeque::new();
    let mut timer: Option<TimerHandle> = None;
    let mut sent = 0u64;
    let mut outcome = sender.pump(now);
    loop {
        timer = outcome.timer.take().or(timer);
        wire.extend(outcome.segments.drain(..));
        if sender.bytes_acked() >= target {
            return sent;
        }
        now += Duration::from_secs(0.02);
        match wire.pop_front() {
            Some(segment) => {
                sent += 1;
                if drop_every == 0 || !sent.is_multiple_of(drop_every) {
                    let ack = receiver.on_segment(&segment);
                    outcome = sender.on_ack(&ack, now);
                }
            }
            None => {
                let handle = timer.take().expect("data in flight has a timer armed");
                now += handle.delay;
                outcome = sender.on_timer(handle.generation, now);
            }
        }
    }
}

/// Run the benchmark's fixed probes and record their medians.
pub fn run_all(v: &mut Values) {
    v.set("netsim.queue.hold_ns_per_op", queue_hold_ns());
    let (query, rebin) = grid_ns();
    v.set("netsim.grid.query_ns", query);
    v.set("netsim.grid.rebin_ns", rebin);
    v.set("netsim.fluid.max_min_us", max_min_us());
    v.set(
        "transport.loopback_ns_per_segment",
        median_ns_per_item(|| tcp_transfer(20_000, 0)),
    );
    v.set(
        "transport.loss_recovery_ns_per_segment",
        median_ns_per_item(|| tcp_transfer(20_000, 50)),
    );

    // One short paper run with telemetry on supplies real events and a real
    // recorder for the telemetry and security probes.
    let mut scenario = Scenario::paper(Protocol::Mts, 10.0, 1).with_telemetry(TelemetryConfig {
        enabled: true,
        window_secs: Some(1.0),
        trace_packet: None,
    });
    scenario.sim.duration = Duration::from_secs(10.0);
    let (_, recorder) = run_scenario_with_recorder(&scenario);
    let events = recorder.telemetry.events();
    let mut ndjson = StringSink::default();
    v.set(
        "telemetry.encode_ns_per_event",
        median_ns_per_item(|| {
            ndjson.0.clear();
            write_ndjson(events, &mut ndjson).expect("string sink never fails");
            events.len() as u64
        }),
    );
    v.set(
        "telemetry.parse_ns_per_line",
        median_ns_per_item(|| {
            black_box(validate_lines(&ndjson.0).expect("own encoding parses"));
            events.len() as u64
        }),
    );
    let endpoints = scenario.endpoints();
    v.set(
        "security.highest_interception_us",
        median_ns_per_item(|| {
            black_box(highest_interception_ratio(
                &recorder,
                scenario.sim.num_nodes,
                &endpoints,
            ));
            1
        }) / 1e3,
    );

    // The explorer's step (one scripted 2 ms run) and its fingerprint.
    let corridor = blackhole_corridor(Protocol::MtsHardened, 6, 2.0, 9);
    let unforced = ChoiceTrace::unforced(9, Duration::from_secs(0.002), vec!["DATA"]);
    v.set(
        "mck.replay_us",
        median_ns_per_item(|| {
            black_box(run_with_trace(&corridor, &unforced));
            1
        }) / 1e3,
    );
    let outcome = run_with_trace(&corridor, &unforced);
    v.set(
        "mck.digest_us",
        median_ns_per_item(|| {
            black_box(outcome_digest(&outcome));
            1
        }) / 1e3,
    );
}
