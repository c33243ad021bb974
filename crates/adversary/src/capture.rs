//! Attacker capture metrics.
//!
//! Wormhole pairs and rushing relays do not (in this model) destroy traffic —
//! they *attract* it: routes collapse through the attacker, which then sees
//! the session's data.  The capture ratio quantifies that attraction the same
//! way the coalition metrics quantify eavesdropping:
//!
//! ```text
//! capture = | (U_i relayed_i  ∪  tunneled)  ∩  delivered |  /  Pr
//! ```
//!
//! where the union runs over the hostile nodes, `tunneled` is the set of data
//! packets that crossed a wormhole's out-of-band tunnel, and `Pr` is the
//! number of unique data packets delivered end-to-end.  Restricting to
//! delivered packets keeps the ratio a true coverage in `[0, 1]` and
//! comparable across protocols (a protocol that delivers nothing captures
//! nothing *of the session*).

use manet_netsim::{PacketSet, Recorder};
use manet_wire::NodeId;

/// What the hostile nodes captured during one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureReport {
    /// The hostile nodes, in placement order.
    pub attackers: Vec<NodeId>,
    /// Unique *delivered* data packets that crossed an attacker (relayed by
    /// one, or tunneled through the wormhole).
    pub captured_packets: u64,
    /// Unique data packets delivered to the destination (`Pr`).
    pub packets_delivered: u64,
}

impl CaptureReport {
    /// The capture ratio (0 when nothing was delivered).  Always in `[0, 1]`.
    pub fn capture_ratio(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.captured_packets as f64 / self.packets_delivered as f64
        }
    }
}

/// Evaluate what `attackers` captured in a finished run.  The recorder's
/// wormhole tunnel set is always unioned in (it is empty unless the run had
/// a wormhole).
pub fn capture_report(recorder: &Recorder, attackers: &[NodeId]) -> CaptureReport {
    let mut captured = PacketSet::default();
    for &a in attackers {
        if let Some(set) = recorder.relayed_set(a) {
            captured.extend(set.iter().filter(|&p| recorder.was_delivered(p)));
        }
    }
    captured.extend(
        recorder
            .tunneled_data_set()
            .iter()
            .filter(|&p| recorder.was_delivered(p)),
    );
    CaptureReport {
        attackers: attackers.to_vec(),
        captured_packets: captured.len() as u64,
        packets_delivered: recorder.delivered_data_packets(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_netsim::{Observation, SimTime};
    use manet_wire::{ConnectionId, DataPacket, NetPacket, PacketId, TcpSegment};

    /// A 1000-byte data segment of connection 0 with id `id`, for node 9.
    fn data(id: u64) -> DataPacket {
        let segment = TcpSegment::data(ConnectionId(0), 0, 0, 1000);
        DataPacket::new(PacketId(id), NodeId(0), NodeId(9), segment)
    }

    fn recorder() -> Recorder {
        let mut rec = Recorder::new();
        for id in 0..4u64 {
            let packet = &data(id);
            rec.observe(
                SimTime::ZERO,
                Observation::Originate {
                    node: NodeId(0),
                    packet,
                },
            );
            let at = SimTime::from_secs(1.0);
            rec.observe(
                at,
                Observation::Deliver {
                    node: NodeId(9),
                    from: NodeId(0),
                    packet,
                },
            );
        }
        rec
    }

    #[test]
    fn capture_unions_relays_and_tunnel_over_delivered_packets() {
        let mut rec = recorder();
        // Attacker 3 relayed packets 0 and 1; packet 77 was never delivered.
        for id in [0u64, 1, 77] {
            let packet = &data(id);
            rec.observe(
                SimTime::ZERO,
                Observation::Relay {
                    node: NodeId(3),
                    packet,
                },
            );
        }
        // Packet 2 crossed the wormhole tunnel.
        let packet = &NetPacket::Data(data(2));
        rec.observe(SimTime::ZERO, Observation::Tunnel { packet });
        let report = capture_report(&rec, &[NodeId(3), NodeId(4)]);
        assert_eq!(report.captured_packets, 3); // 0, 1 relayed + 2 tunneled
        assert_eq!(report.packets_delivered, 4);
        assert!((report.capture_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_runs_and_honest_nodes_capture_nothing() {
        let rec = Recorder::new();
        assert_eq!(capture_report(&rec, &[NodeId(1)]).capture_ratio(), 0.0);
        let rec = recorder();
        let report = capture_report(&rec, &[NodeId(5)]);
        assert_eq!(report.captured_packets, 0);
        assert_eq!(report.capture_ratio(), 0.0);
    }
}
