//! Cross-crate integration tests: the full stack (wire formats, simulator,
//! routing protocols, TCP Reno, security metrics, experiment harness) run
//! end-to-end on the paper's scenario at reduced duration.
//!
//! These tests assert the *qualitative* properties the paper's figures rest
//! on, not absolute numbers: all three protocols move TCP data, MTS spreads
//! traffic over more intermediate nodes, MTS pays more control overhead, and
//! the whole pipeline is deterministic for a fixed seed.

use mts_repro::prelude::*;

/// A shortened paper-environment run of one protocol.
fn short_run(protocol: Protocol, speed: f64, seed: u64, secs: f64) -> RunMetrics {
    let mut scenario = Scenario::paper(protocol, speed, seed);
    scenario.sim.duration = Duration::from_secs(secs);
    run_scenario(&scenario)
}

#[test]
fn all_protocols_deliver_tcp_traffic_in_the_paper_environment() {
    for protocol in Protocol::ALL {
        let m = short_run(protocol, 5.0, 1, 20.0);
        assert!(
            m.data_packets_generated > 0,
            "{}: the TCP source never generated data",
            protocol.name()
        );
        assert!(
            m.throughput_packets > 0,
            "{}: no data packet reached the destination (generated {})",
            protocol.name(),
            m.data_packets_generated
        );
        assert!(
            m.control_overhead > 0,
            "{}: no routing traffic at all",
            protocol.name()
        );
        assert!(m.delivery_rate > 0.0 && m.delivery_rate <= 1.0);
    }
}

#[test]
fn runs_are_deterministic_for_a_fixed_seed() {
    let a = short_run(Protocol::Mts, 10.0, 7, 15.0);
    let b = short_run(Protocol::Mts, 10.0, 7, 15.0);
    assert_eq!(a, b, "identical seeds must give identical runs");
    let c = short_run(Protocol::Mts, 10.0, 8, 15.0);
    assert_ne!(a, c, "different seeds should differ");
    // The paper's single flow is the degenerate one-row case of the
    // connection-table accounting.
    assert_eq!(a.per_flow.len(), 1);
    assert_eq!(
        a.per_flow[0].packets_delivered, a.throughput_packets,
        "the single flow carries the whole run"
    );
}

/// The multi-flow stack holds the same determinism contract as the paper's
/// single flow: a random-pairs traffic matrix produces identical runs from
/// identical inputs, and the per-flow metrics are well-formed (goodput rows
/// sum to the aggregate throughput, Jain's fairness in [0, 1]).  Debug
/// builds check every event-queue pop and every neighbour scan in-run.
/// Release builds (CI's perf-smoke job) add the full-scale inputs: the
/// n = 500 scaled scenario and 25 random-pair flows at n = 500, full traces
/// diffed between two runs.
#[test]
fn multi_flow_runs_are_deterministic_and_well_formed() {
    use mts_repro::netsim::TraceMode;
    let mut scenario = Scenario::random_pairs(Protocol::Mts, 100, 10, 10.0, 3);
    scenario.sim.duration = Duration::from_secs(10.0);
    let first = run_scenario(&scenario);
    assert_eq!(
        first,
        run_scenario(&scenario),
        "multi-flow runs must be seed-deterministic"
    );
    assert_eq!(first.per_flow.len(), 10);
    assert!(first.fairness_index >= 0.0 && first.fairness_index <= 1.0);
    assert!(
        first.per_flow.iter().any(|f| f.packets_delivered > 0),
        "at least one flow must move data"
    );
    let summed: u64 = first.per_flow.iter().map(|f| f.packets_delivered).sum();
    assert_eq!(
        summed, first.throughput_packets,
        "per-flow deliveries partition the aggregate"
    );
    let goodput: f64 = first.per_flow.iter().map(|f| f.goodput_bytes_per_sec).sum();
    assert!(goodput > 0.0);

    if cfg!(debug_assertions) {
        return; // the n = 500 runs are release-scale
    }
    let scaled = Scenario::scaled(Protocol::Mts, 500, 10.0, 1);
    let flows = Scenario::random_pairs(Protocol::Mts, 500, 25, 10.0, 1);
    for (name, mut scenario) in [("scaled", scaled), ("25 flows", flows)] {
        scenario.sim.duration = Duration::from_secs(3.0);
        let traced = || {
            let trace = TraceMode::Keep;
            run_with(
                &scenario,
                RunOptions {
                    trace,
                    ..RunOptions::default()
                },
            )
            .1
        };
        let (a, b) = (traced(), traced());
        assert!(
            a.delivered_data_packets() > 0,
            "n=500 {name}: nothing delivered"
        );
        assert_eq!(
            a.engine_perf(),
            b.engine_perf(),
            "n=500 {name}: the engine did different work"
        );
        assert!(
            a.trace() == b.trace(),
            "n=500 {name}: recorder traces diverged between identical runs"
        );
    }
}

#[test]
fn mts_emits_checking_traffic_and_baselines_do_not() {
    let mut mts = Scenario::paper(Protocol::Mts, 5.0, 3);
    mts.sim.duration = Duration::from_secs(20.0);
    let (_, mts_rec) = run_scenario_with_recorder(&mts);
    assert!(
        mts_rec.control_by_kind().get("CHECK").copied().unwrap_or(0) > 0,
        "MTS must emit route-checking packets"
    );

    let mut aodv = Scenario::paper(Protocol::Aodv, 5.0, 3);
    aodv.sim.duration = Duration::from_secs(20.0);
    let (_, aodv_rec) = run_scenario_with_recorder(&aodv);
    assert_eq!(
        aodv_rec
            .control_by_kind()
            .get("CHECK")
            .copied()
            .unwrap_or(0),
        0
    );
}

#[test]
#[ignore = "measured, not fixable by duration: AODV route churn inflates its CUMULATIVE \
            relay set at every run length tried (300 s x 5 seeds: AODV 24.4 vs MTS 22.2 \
            participants; 25 s shows the same ordering).  The cumulative participating-node \
            count rewards AODV for an instability the paper's instantaneous-spreading \
            argument does not: each route break recruits a fresh relay chain, while MTS \
            reuses its stored disjoint set.  MTS's spreading advantage is captured by the \
            relay-share std-dev (Fig. 6) and the k-coalition coverage metrics instead \
            (see tests/attacks.rs::mts_coalition_coverage_not_worse_than_dsr).  \
            Tracked in ROADMAP.md open items"]
fn mts_spreads_traffic_over_at_least_as_many_nodes_as_the_baselines() {
    // Investigated for the adversary PR (ISSUE 2 satellite): re-run at >= 300 s
    // per the ROADMAP suggestion.  Longer durations do NOT close the gap —
    // AODV's on-demand rediscoveries keep adding distinct relays for the whole
    // run (seed 1 at 300 s touches 46 of 48 candidate nodes), so the
    // cumulative count is protocol-churn-bound, not spreading-bound.  Kept
    // ignored with the measurement recorded; the assertion itself is
    // unchanged so the original claim stays visible.
    let seeds = [1u64, 2, 3];
    let avg = |protocol: Protocol| -> f64 {
        let runs: Vec<RunMetrics> = seeds
            .iter()
            .map(|&s| short_run(protocol, 10.0, s, 300.0))
            .collect();
        RunMetrics::average(&runs).participating_nodes as f64
    };
    let mts = avg(Protocol::Mts);
    let aodv = avg(Protocol::Aodv);
    assert!(
        mts + 1e-9 >= aodv,
        "MTS participating nodes ({mts}) should not be fewer than AODV ({aodv})"
    );
}

#[test]
fn windowed_participation_revisits_the_fig5_spreading_claim() {
    // ISSUE 3 satellite: the ROADMAP proposed a *windowed* participant count
    // (distinct relays per 10 s interval) as the faithful Fig. 5 metric,
    // because the cumulative count rewards AODV's route churn (each break
    // recruits a fresh relay chain forever).
    //
    // MEASURED OUTCOME (60 s x seeds {1,2,3}, speed 10, 10 s windows):
    //   DSR  3.10   AODV 5.49   MTS 4.91   (mean windowed participants)
    // and at 120 s x 5 seeds: DSR 2.09, AODV 3.86, MTS 2.86.  The windowed
    // count narrows the cumulative gap (MTS beats AODV on 2 of 3 seeds
    // here) but does NOT reverse it on average: AODV's flapping recruits
    // several distinct relays *within* a 10 s window too, so even the
    // windowed metric partly measures churn.  The Fig. 5 ordering therefore
    // remains unreproduced under both countings; MTS's spreading advantage
    // stays visible in the relay-share std-dev (Fig. 6) and the k-coalition
    // coverage curves (tests/attacks.rs).  The cumulative-count test above
    // stays #[ignore]d, with this measurement recorded here and in
    // ROADMAP.md.
    let stats = |protocol: Protocol| -> (f64, f64) {
        let runs: Vec<RunMetrics> = [1u64, 2, 3]
            .iter()
            .map(|&s| short_run(protocol, 10.0, s, 60.0))
            .collect();
        let avg = RunMetrics::average(&runs);
        (
            avg.mean_windowed_participants,
            avg.participating_nodes as f64,
        )
    };
    let (dsr_w, dsr_c) = stats(Protocol::Dsr);
    let (aodv_w, aodv_c) = stats(Protocol::Aodv);
    let (mts_w, mts_c) = stats(Protocol::Mts);
    // Structural sanity: every protocol relays in windows, and no window can
    // hold more distinct relays than the whole run did.
    for (w, c) in [(dsr_w, dsr_c), (aodv_w, aodv_c), (mts_w, mts_c)] {
        assert!(w > 0.0, "windowed participation must be observed");
        assert!(w <= c, "a window cannot exceed the cumulative count");
    }
    // The robust part of the paper's claim: MTS keeps more relays busy per
    // interval than single-path DSR (multipath spreading is instantaneous,
    // not churn).  The AODV comparison is the measured outcome documented
    // above — asserted only as "the windowed gap is smaller than 2x", since
    // the direction varies by seed.
    assert!(
        mts_w > dsr_w,
        "MTS windowed participants ({mts_w:.2}) must exceed DSR's ({dsr_w:.2})"
    );
    assert!(
        aodv_w < 2.0 * mts_w,
        "windowed counting keeps AODV's churn advantage bounded \
         (AODV {aodv_w:.2} vs MTS {mts_w:.2})"
    );
}

#[test]
fn mts_control_overhead_exceeds_aodv() {
    let seeds = [1u64, 2];
    let total = |protocol: Protocol| -> u64 {
        seeds
            .iter()
            .map(|&s| short_run(protocol, 10.0, s, 25.0).control_overhead)
            .sum()
    };
    let mts = total(Protocol::Mts);
    let aodv = total(Protocol::Aodv);
    assert!(
        mts > aodv,
        "MTS ({mts}) should pay more control overhead than AODV ({aodv}) — it keeps checking routes"
    );
}

#[test]
fn figure_generators_cover_every_speed_and_protocol() {
    let spec = SweepSpec {
        duration: 10.0,
        seeds: vec![1],
        ..SweepSpec::paper()
    };
    let outcome = sweep(&spec);
    assert_eq!(outcome.points.len(), 15, "3 protocols x 5 speeds");
    for figure in FigureId::ALL {
        if figure == FigureId::Table1RelayTable {
            continue;
        }
        let series = figure_series(figure, &outcome);
        assert_eq!(
            series.len(),
            3,
            "{figure:?} must have one series per protocol"
        );
        for s in &series {
            assert_eq!(s.points.len(), 5, "{figure:?} must cover every speed");
            assert!(s.points.iter().all(|p| p.value.is_finite()));
        }
        let text = render_figure(figure, &outcome);
        assert!(text.contains("MTS") && text.contains("DSR") && text.contains("AODV"));
    }
}

#[test]
fn table1_regeneration_produces_a_consistent_relay_table() {
    let table = table1_relay_table(10.0, 1, 20.0);
    // A 50-node DSR run with traffic has at least one relay, the shares sum to
    // one and the standard deviation is a valid fraction.
    assert!(table.participants() >= 1);
    let share_sum: f64 = table.rows.iter().map(|r| r.gamma).sum();
    assert!((share_sum - 1.0).abs() < 1e-9);
    assert!(table.std_dev >= 0.0 && table.std_dev <= 1.0);
    assert_eq!(table.alpha, table.rows.iter().map(|r| r.beta).sum::<u64>());
}

/// The run that exposed the per-copy `SeenTable` sweep: the paper's real
/// 200 sim-s reproduction, DSR at 5 m/s and seed 11.  Its cut-off source
/// floods so often that one table holds 60 000 live entries: a sweep on every
/// call costs ~35 s of wall clock where the lazy table costs under a second
/// (docs/PERFORMANCE.md, "The DSR outlier"), so a reintroduced per-call sweep
/// is felt by whoever runs the release suite.  The assertion pins the
/// outcome, which a change of data structure must not move.
#[test]
#[cfg_attr(debug_assertions, ignore = "200 sim-s run: release builds only")]
fn dsr_seed_11_at_200_seconds_keeps_its_counts() {
    let m = short_run(Protocol::Dsr, 5.0, 11, 200.0);
    assert_eq!(m.throughput_packets, 13_707);
    assert_eq!(m.control_overhead, 212_334);
}
