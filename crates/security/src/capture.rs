//! Attacker capture metrics.
//!
//! Wormhole pairs and rushing relays do not (in this model) destroy traffic —
//! they *attract* it: routes collapse through the attacker, which then sees
//! the session's data.  The capture ratio quantifies that attraction as the
//! [`exposure()`] of what the hostile nodes relayed and what crossed the
//! wormhole's tunnel:
//!
//! ```text
//! capture = | (U_i relayed_i  ∪  tunneled)  ∩  delivered |  /  Pr
//! ```
//!
//! where the union runs over the hostile nodes, `tunneled` is the set of data
//! packets that crossed a wormhole's out-of-band tunnel, and `Pr` is the
//! number of unique data packets delivered end-to-end.

use crate::exposure::{exposure, Exposure};
use manet_netsim::Recorder;
use manet_wire::NodeId;

/// What `attackers` captured in a finished run.  The recorder's wormhole
/// tunnel set is always unioned in (it is empty unless the run had a
/// wormhole).
pub fn capture_report(recorder: &Recorder, attackers: &[NodeId]) -> Exposure {
    let relayed = attackers.iter().filter_map(|&a| recorder.relayed_set(a));
    exposure(recorder, relayed.chain([recorder.tunneled_data_set()]))
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
        assert_eq!(report.covered, 3); // 0, 1 relayed + 2 tunneled
        assert_eq!(report.delivered, 4);
        assert!((report.ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_runs_and_honest_nodes_capture_nothing() {
        let rec = Recorder::new();
        assert_eq!(capture_report(&rec, &[NodeId(1)]).ratio(), 0.0);
        let rec = recorder();
        let report = capture_report(&rec, &[NodeId(5)]);
        assert_eq!(report.covered, 0);
        assert_eq!(report.ratio(), 0.0);
    }
}
