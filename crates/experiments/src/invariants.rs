//! Shared attack-resilience invariants.
//!
//! One vocabulary of checkable properties used from both directions:
//!
//! * the Monte Carlo attack tests (`tests/attacks.rs`, the attack matrix)
//!   assert them over seed-sampled paper-scale runs;
//! * the bounded model-checking explorer (`crates/mck`) evaluates them at
//!   **every** explored state of a small topology, turning the same
//!   predicates into exhaustively proved invariants or minimal
//!   counterexample traces.
//!
//! Every predicate returns `Result<(), String>` — `Err` carries a
//! human-readable description of the violation, which the attack tests turn
//! into an assertion message and the explorer attaches to its
//! counterexample.

use crate::metrics::RunMetrics;
use manet_netsim::Recorder;

/// A clean (attack-free) run must not record any adversarial activity.
pub fn clean_run_sees_no_adversary(m: &RunMetrics) -> Result<(), String> {
    if m.adversary_drops != 0 {
        return Err(format!(
            "clean run recorded {} adversary drops",
            m.adversary_drops
        ));
    }
    if m.jammed_frames != 0 {
        return Err(format!(
            "clean run recorded {} jammed frames",
            m.jammed_frames
        ));
    }
    if m.attacker_capture_ratio != 0.0 {
        return Err(format!(
            "clean run recorded attacker capture ratio {:.4}",
            m.attacker_capture_ratio
        ));
    }
    Ok(())
}

/// An in-path dropping attack must cost both raw throughput and the delivery
/// rate relative to the clean run at the same seed.
pub fn attack_degrades_delivery(clean: &RunMetrics, attacked: &RunMetrics) -> Result<(), String> {
    if attacked.throughput_packets >= clean.throughput_packets {
        return Err(format!(
            "attack must deliver fewer packets (clean {}, attacked {})",
            clean.throughput_packets, attacked.throughput_packets
        ));
    }
    if attacked.delivery_rate >= clean.delivery_rate {
        return Err(format!(
            "attack must lower the delivery rate (clean {:.3}, attacked {:.3})",
            clean.delivery_rate, attacked.delivery_rate
        ));
    }
    Ok(())
}

/// A full black hole is at least as damaging as a partial gray hole, and its
/// route attraction actually works (it discards traffic).
pub fn blackhole_at_least_as_damaging(gray: &RunMetrics, black: &RunMetrics) -> Result<(), String> {
    if black.throughput_packets > gray.throughput_packets {
        return Err(format!(
            "black hole must not out-deliver the gray hole (gray {}, black {})",
            gray.throughput_packets, black.throughput_packets
        ));
    }
    if black.adversary_drops == 0 {
        return Err("black holes must attract and drop traffic".to_string());
    }
    Ok(())
}

/// Hardened MTS must strictly beat the plain protocol under the same attack
/// and clear an absolute delivery-rate floor.
pub fn hardening_recovers_delivery(
    plain: &RunMetrics,
    hardened: &RunMetrics,
    floor: f64,
) -> Result<(), String> {
    if hardened.delivery_rate <= plain.delivery_rate {
        return Err(format!(
            "hardening must strictly improve delivery (plain {:.4}, hardened {:.4})",
            plain.delivery_rate, hardened.delivery_rate
        ));
    }
    if hardened.delivery_rate <= floor {
        return Err(format!(
            "hardened delivery {:.4} must clear the floor {:.2}",
            hardened.delivery_rate, floor
        ));
    }
    Ok(())
}

/// An interception/capture ratio is meaningful: above `min`, within [0, 1].
pub fn capture_ratio_meaningful(ratio: f64, min: f64) -> Result<(), String> {
    if ratio <= min {
        return Err(format!("capture ratio {ratio:.4} should exceed {min:.2}"));
    }
    if ratio > 1.0 {
        return Err(format!("capture ratio {ratio:.4} out of range"));
    }
    Ok(())
}

/// Every interception ratio of a run is a share of its delivered packets
/// (Eq. 1 counts each delivered packet at most once), so it lies in [0, 1]:
/// the designated eavesdropper's, the worst-case relay's (Fig. 7), the
/// coalition's and the attackers' capture.
pub fn interception_ratios_at_most_one(m: &RunMetrics) -> Result<(), String> {
    for (name, ratio) in [
        ("designated interception", m.interception_ratio),
        ("highest interception", m.highest_interception_ratio),
        ("coalition interception", m.coalition_interception_ratio),
        ("attacker capture", m.attacker_capture_ratio),
    ] {
        if !(0.0..=1.0).contains(&ratio) {
            return Err(format!("{name} ratio {ratio:.4} is outside [0, 1]"));
        }
    }
    Ok(())
}

/// A coalition-coverage curve is monotone non-decreasing in the coalition
/// size (coalitions only ever gain members).
pub fn monotone_nondecreasing(curve: &[f64]) -> Result<(), String> {
    for (k, w) in curve.windows(2).enumerate() {
        if w[1] < w[0] - 1e-12 {
            return Err(format!(
                "curve must be monotone in k (k={} gives {:.4}, k={} gives {:.4})",
                k + 1,
                w[0],
                k + 2,
                w[1]
            ));
        }
    }
    Ok(())
}

/// No data traffic is ever absorbed by a hostile relay: a forged route never
/// captures a single packet.  Exhaustively provable on hardened MTS at small
/// `n`; its minimal counterexamples on the un-hardened protocol are the
/// worst-case forged-RREP schedules.
pub fn no_adversary_capture(rec: &Recorder) -> Result<(), String> {
    let drops = rec.adversary_drops();
    if drops > 0 {
        return Err(format!(
            "adversarial relays absorbed {drops} packet(s) (forged route captured traffic)"
        ));
    }
    Ok(())
}

/// The hostile relays absorb at most `max_fraction` of the originated data
/// packets (the paper's multipath dispersion bounds single-black-hole
/// capture).  Runs that originate nothing satisfy the bound vacuously.
pub fn adversary_absorbs_at_most(rec: &Recorder, max_fraction: f64) -> Result<(), String> {
    let originated = rec.originated_data_packets();
    let drops = rec.adversary_drops();
    if originated == 0 {
        return Ok(());
    }
    let fraction = drops as f64 / originated as f64;
    if fraction > max_fraction {
        return Err(format!(
            "black hole absorbed {drops}/{originated} = {fraction:.3} of originated data \
             (bound {max_fraction:.3})"
        ));
    }
    Ok(())
}

/// Liveness: at least one data packet reaches its destination within the
/// horizon.  The schedules that violate it are total-denial schedules.
pub fn delivers_data(rec: &Recorder) -> Result<(), String> {
    if rec.delivered_data_packets() == 0 {
        return Err("no data packet was delivered within the horizon".to_string());
    }
    Ok(())
}
