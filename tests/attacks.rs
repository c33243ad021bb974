//! End-to-end attack tests on the paper's 50-node scenario (ISSUE 2
//! acceptance criteria): hostile relays measurably degrade delivery against
//! the clean run at the same seed, k-colluder coalitions cover MTS's traffic
//! no better than single-path DSR's, and the attack matrix is deterministic
//! per seed.
//!
//! The properties themselves live in `manet_experiments::invariants`, shared
//! with the bounded model-checking explorer (`manet_mck`): these tests sample
//! them over seeds at paper scale, the explorer proves them exhaustively over
//! adversarial schedules at small scale.

use mts_repro::experiments::invariants;
use mts_repro::prelude::*;

/// One paper-environment run under an attack, at reduced duration.
fn attack_run(protocol: Protocol, attack: AttackConfig, seed: u64, secs: f64) -> RunMetrics {
    attack_run_at(protocol, attack, 10.0, seed, secs)
}

/// Same, at an explicit maximum node speed.
fn attack_run_at(
    protocol: Protocol,
    attack: AttackConfig,
    speed: f64,
    seed: u64,
    secs: f64,
) -> RunMetrics {
    let mut scenario = Scenario::paper(protocol, speed, seed);
    scenario.sim.duration = Duration::from_secs(secs);
    run_scenario(&scenario.with_attack(attack))
}

/// Seed-averaged metrics of a (protocol, attack, speed) cell.
fn averaged(protocol: Protocol, attack: AttackConfig, speed: f64, secs: f64) -> RunMetrics {
    let runs: Vec<RunMetrics> = [1u64, 2]
        .iter()
        .map(|&seed| attack_run_at(protocol, attack, speed, seed, secs))
        .collect();
    RunMetrics::average(&runs)
}

#[test]
fn grayhole_degrades_delivery_against_the_clean_run_at_the_same_seed() {
    for protocol in Protocol::ALL {
        let clean = attack_run(protocol, AttackConfig::none(), 1, 30.0);
        let gray = attack_run(protocol, AttackConfig::grayhole(2, 0.5), 1, 30.0);
        invariants::attack_degrades_delivery(&clean, &gray)
            .unwrap_or_else(|e| panic!("{} gray hole: {e}", protocol.name()));
        invariants::clean_run_sees_no_adversary(&clean)
            .unwrap_or_else(|e| panic!("{}: {e}", protocol.name()));
    }
}

#[test]
fn blackhole_hits_harder_than_grayhole() {
    // Full drop is at least as damaging as a 50 % gray hole, and the hostile
    // relays actually discard traffic (the route attraction works).
    let gray = attack_run(Protocol::Aodv, AttackConfig::grayhole(2, 0.5), 1, 30.0);
    let black = attack_run(Protocol::Aodv, AttackConfig::blackhole(2), 1, 30.0);
    invariants::blackhole_at_least_as_damaging(&gray, &black).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn mts_coalition_coverage_not_worse_than_dsr() {
    // Acceptance criterion (b): for k-colluder coalitions under greedy
    // worst-case placement, MTS's coalition interception ratio is <= DSR's at
    // equal k, averaged over seeds, on the paper's 50-node scenario.  The
    // union coverage is over packets *received to relay* (the Fig. 7 basis) —
    // MTS keeps moving the traffic across disjoint paths, so the best k
    // relays of an MTS run see no more of the session than the best k relays
    // of a single-path DSR run.
    let seeds = [1u64, 2, 3];
    let curve_avg = |protocol: Protocol| -> Vec<f64> {
        let mut avg = vec![0.0f64; 5];
        for &seed in &seeds {
            let mut scenario = Scenario::paper(protocol, 10.0, seed);
            scenario.sim.duration = Duration::from_secs(60.0);
            let (_, recorder) = run_scenario_with_recorder(&scenario);
            let endpoints = scenario.endpoints();
            let curve = coalition_curve(
                &recorder,
                scenario.sim.num_nodes,
                &endpoints,
                5,
                CoalitionPlacement::Greedy,
                CoverageBasis::Relayed,
                seed,
            );
            for (k, report) in curve.iter().enumerate() {
                avg[k] += report.ratio() / seeds.len() as f64;
            }
        }
        avg
    };
    let dsr = curve_avg(Protocol::Dsr);
    let mts = curve_avg(Protocol::Mts);
    for k in 0..5 {
        assert!(
            mts[k] <= dsr[k] + 0.02,
            "k={}: MTS coalition coverage {:.4} must not exceed DSR's {:.4}",
            k + 1,
            mts[k],
            dsr[k]
        );
    }
    // The curves are monotone in k (coalitions only ever gain members).
    invariants::monotone_nondecreasing(&mts).unwrap_or_else(|e| panic!("MTS coalition {e}"));
}

#[test]
fn coalition_attack_surfaces_in_run_metrics() {
    let m = attack_run(
        Protocol::Dsr,
        AttackConfig::coalition(3, CoalitionPlacement::Greedy),
        1,
        20.0,
    );
    invariants::capture_ratio_meaningful(m.coalition_interception_ratio, 0.0)
        .unwrap_or_else(|e| panic!("coalition {e}"));
    // A bigger coalition can only see more.
    let bigger = attack_run(
        Protocol::Dsr,
        AttackConfig::coalition(5, CoalitionPlacement::Greedy),
        1,
        20.0,
    );
    invariants::monotone_nondecreasing(&[
        m.coalition_interception_ratio,
        bigger.coalition_interception_ratio,
    ])
    .unwrap_or_else(|e| panic!("coalition size axis: {e}"));
}

#[test]
fn control_jamming_disturbs_routing_and_data_jamming_disturbs_data() {
    let ctrl = attack_run(
        Protocol::Aodv,
        AttackConfig::jamming(2, JamTarget::Control, 0.8),
        1,
        20.0,
    );
    assert!(
        ctrl.jammed_frames > 0,
        "control jammers must corrupt frames"
    );
    let data = attack_run(
        Protocol::Aodv,
        AttackConfig::jamming(2, JamTarget::Data, 0.8),
        1,
        20.0,
    );
    assert!(data.jammed_frames > 0, "data jammers must corrupt frames");
    let clean = attack_run(Protocol::Aodv, AttackConfig::none(), 1, 20.0);
    invariants::clean_run_sees_no_adversary(&clean).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        data.throughput_packets < clean.throughput_packets,
        "data jamming must cost throughput (clean {}, jammed {})",
        clean.throughput_packets,
        data.throughput_packets
    );
}

#[test]
fn mobile_eavesdropper_changes_the_run_but_stays_deterministic() {
    let clean = attack_run(Protocol::Mts, AttackConfig::none(), 1, 20.0);
    let eve_a = attack_run(Protocol::Mts, AttackConfig::mobile_eavesdropper(), 1, 20.0);
    let eve_b = attack_run(Protocol::Mts, AttackConfig::mobile_eavesdropper(), 1, 20.0);
    assert_eq!(
        eve_a, eve_b,
        "mobile-eavesdropper runs are seed-deterministic"
    );
    // Steering one node alters the mobility trace, so the run differs from
    // the clean baseline.
    assert_ne!(clean, eve_a);
}

#[test]
fn mobile_eavesdropper_runs_alike_with_and_without_the_neighbourhood_cache() {
    use mts_repro::experiments::runner::{run_with, RunOptions};
    // The hunter re-aims at the corridor in short hops at the model's top
    // speed, the one mobility model that lives outside the engine crate.
    // Most transmissions are answered from the per-node neighbourhood cache;
    // debug builds check each hit against a fresh scan and each scan against
    // the brute-force answer, the companion of
    // `crates/netsim/tests/grid_equivalence.rs`.
    for seed in [2u64, 101] {
        let mut scenario = Scenario::paper(Protocol::Mts, 20.0, seed)
            .with_attack(AttackConfig::mobile_eavesdropper());
        scenario.sim.duration = Duration::from_secs(8.0);
        let (metrics, rec) = run_with(&scenario, RunOptions::default());
        assert!(
            metrics.throughput_packets > 0,
            "seed {seed}: nothing delivered"
        );
        let perf = rec.engine_perf();
        assert!(perf.neighbor_cache_hits > 0, "seed {seed}: never hit");
        assert!(
            perf.neighbor_cache_hits < perf.neighbor_queries,
            "seed {seed}: the hunter's hops must force rescans"
        );
        assert_eq!(perf.stale_tx_ends, 0, "seed {seed}");
    }
}

#[test]
fn hardened_mts_strictly_improves_delivery_under_black_holes_at_every_speed() {
    // ISSUE 3 acceptance criterion: under 2 black holes the hardened MTS
    // (suspicious-RREP cross-validation + relay suspicion) must strictly beat
    // the unhardened protocol at every canonical speed, seed-averaged.  The
    // margins are large — unhardened MTS keeps ~0.5 thanks to route checking,
    // hardened MTS recovers to ~0.97+ because the forged replies never poison
    // a table (measured at 30 s x 2 seeds: 0.50 vs 0.99 at 1 m/s, 0.50 vs
    // 0.97 at 10 m/s, 0.50 vs 0.99 at 20 m/s).
    for speed in [1.0, 10.0, 20.0] {
        let plain = averaged(Protocol::Mts, AttackConfig::blackhole(2), speed, 30.0);
        let hard = averaged(
            Protocol::MtsHardened,
            AttackConfig::blackhole(2),
            speed,
            30.0,
        );
        invariants::hardening_recovers_delivery(&plain, &hard, 0.9)
            .unwrap_or_else(|e| panic!("speed {speed}: {e}"));
    }
}

#[test]
fn hardened_mts_is_metric_identical_to_plain_mts_on_clean_runs() {
    // Hardening only reacts to implausible route replies; a clean run never
    // produces one, so arming the defense must not change a single metric.
    let plain = attack_run(Protocol::Mts, AttackConfig::none(), 1, 20.0);
    let hard = attack_run(Protocol::MtsHardened, AttackConfig::none(), 1, 20.0);
    assert_eq!(plain, hard);
}

#[test]
fn wormhole_captures_traffic_for_every_protocol() {
    // The tunnel shortcuts route discovery, so a meaningful share of the
    // session's delivered data crosses the colluding pair — for every
    // protocol (measured at 30 s x 2 seeds: DSR 0.48, AODV 0.44, MTS 0.18).
    // Delivery is NOT destroyed: a wormhole is an attraction attack; the
    // shortcut often even helps end-to-end delivery while it eavesdrops.
    for protocol in Protocol::ALL {
        let m = averaged(protocol, AttackConfig::wormhole(), 10.0, 30.0);
        invariants::capture_ratio_meaningful(m.attacker_capture_ratio, 0.05)
            .unwrap_or_else(|e| panic!("{} wormhole: {e}", protocol.name()));
        assert!(
            m.delivery_rate > 0.8,
            "{}: the wormhole attracts, it does not drop (delivery {:.4})",
            protocol.name(),
            m.delivery_rate
        );
    }
}

#[test]
fn rushing_attracts_routes_and_stays_deterministic() {
    // Zero-backoff relays win the duplicate-suppression race; at the paper's
    // moderate speed their capture of MTS traffic is small but real
    // (measured ~0.06 at 30 s x 2 seeds), and clean runs capture nothing.
    let rushed = averaged(Protocol::Mts, AttackConfig::rushing(2), 10.0, 30.0);
    invariants::capture_ratio_meaningful(rushed.attacker_capture_ratio, 0.0)
        .unwrap_or_else(|e| panic!("rushing: {e}"));
    let clean = averaged(Protocol::Mts, AttackConfig::none(), 10.0, 30.0);
    invariants::clean_run_sees_no_adversary(&clean).unwrap_or_else(|e| panic!("{e}"));
    // Determinism: same seed, same run.
    let a = attack_run(Protocol::Aodv, AttackConfig::rushing(2), 5, 15.0);
    let b = attack_run(Protocol::Aodv, AttackConfig::rushing(2), 5, 15.0);
    assert_eq!(a, b);
}

#[test]
fn attack_matrix_is_deterministic_per_seed_and_covers_the_axis() {
    let spec = AttackSweepSpec {
        protocols: vec![Protocol::Dsr, Protocol::Mts],
        attacks: vec![
            AttackConfig::none(),
            AttackConfig::grayhole(2, 0.5),
            AttackConfig::jamming(1, JamTarget::Data, 0.9),
        ],
        speeds: vec![10.0],
        seeds: vec![1, 2],
        duration: 12.0,
    };
    let a = attack_matrix(&spec);
    let b = attack_matrix(&spec);
    assert_eq!(a, b, "the matrix must be reproducible byte-for-byte");
    assert_eq!(a.cells.len(), 6);
    let text = render_attack_matrix(&a);
    for label in ["clean", "grayhole(x2,p=0.5)", "jam-data(x1,p=0.9)"] {
        assert!(text.contains(label), "matrix must render row {label}");
    }
}

#[test]
fn the_highest_interception_ratio_counts_each_delivered_packet_once() {
    use mts_repro::experiments::runner::run_scenario_with_recorder;
    // Data jamming makes relays send the same few packets again and again:
    // AODV at 10 m/s, seed 1, 20 s delivers 8 packets while its busiest
    // relay logs 11 relay events.  Eq. 1's Pe counts delivered packets, so
    // the worst-case ratio stays within [0, 1] where relay events / Pr
    // would read 1.375.
    let mut scenario = Scenario::paper(Protocol::Aodv, 10.0, 1).with_attack(AttackConfig::jamming(
        2,
        JamTarget::Data,
        0.8,
    ));
    scenario.sim.duration = Duration::from_secs(20.0);
    let (m, recorder) = run_scenario_with_recorder(&scenario);
    let endpoints = scenario.endpoints();
    let busiest_relay_events = (0..scenario.sim.num_nodes)
        .map(NodeId)
        .filter(|n| !endpoints.contains(n))
        .map(|n| recorder.relay_count(n))
        .max()
        .unwrap();
    let delivered = recorder.delivered_data_packets();
    assert!(
        busiest_relay_events > delivered,
        "the cell must relay more events ({busiest_relay_events}) than it delivers ({delivered})"
    );
    invariants::interception_ratios_at_most_one(&m).unwrap_or_else(|e| panic!("{e}"));
    assert!(m.highest_interception_ratio > 0.0);
}
