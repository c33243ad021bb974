//! Quickstart: run one paper-environment simulation of each protocol and
//! print the security and TCP metrics side by side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mts_repro::prelude::*;

fn main() {
    // A single seed and a shortened run keep the example quick; the full
    // reproduction (200 s, five seeds) is `cargo run --release --bin reproduce
    // -- figures`.
    let max_speed = 10.0;
    let seed = 1;
    let duration = 30.0;

    println!("MTS reproduction quickstart");
    println!("  50 nodes, 1000 m x 1000 m, 250 m range, random waypoint (max {max_speed} m/s)");
    println!("  one bulk TCP-Reno flow, one random eavesdropper, {duration} simulated seconds\n");

    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "proto", "participants", "highest Ri", "delay (s)", "delivered", "delivery", "overhead"
    );
    for protocol in Protocol::ALL {
        let mut scenario = Scenario::paper(protocol, max_speed, seed);
        scenario.sim.duration = Duration::from_secs(duration);
        let m = run_scenario(&scenario);
        println!(
            "{:>8} {:>14} {:>12.4} {:>12.4} {:>12} {:>12.3} {:>12}",
            protocol.name(),
            m.participating_nodes,
            m.highest_interception_ratio,
            m.mean_delay,
            m.throughput_packets,
            m.delivery_rate,
            m.control_overhead
        );
    }

    println!("\nExpected shape (paper): MTS has the most participating nodes, the lowest");
    println!("highest-interception ratio and the highest control overhead; DSR degrades");
    println!("fastest as the maximum speed grows.");
}
