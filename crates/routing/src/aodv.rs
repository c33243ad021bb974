//! AODV baseline: Ad hoc On-demand Distance Vector routing.
//!
//! The implementation follows the on-demand behaviour the paper compares
//! against (Perkins/Royer/Das draft semantics): RREQ flooding with duplicate
//! suppression, reverse-path construction, destination sequence numbers for
//! loop freedom, replies from the destination or from intermediate nodes with
//! fresh-enough routes, hop-by-hop forwarding, and route errors driven by
//! MAC-layer link-failure feedback.

use crate::agent::{RoutingAgent, RoutingStats};
use crate::common::{record_data_drop, Discovery, Retry, SeenTable};
use crate::table::RoutingTable;
use manet_netsim::{Ctx, DropReason, TimerToken};
use manet_wire::{
    BroadcastId, DataPacket, NetPacket, NodeId, RouteError, RouteReply, RouteRequest, SeqNo,
    SharedPacket,
};

/// One node's AODV agent.
pub struct Aodv {
    me: NodeId,
    table: RoutingTable,
    seen: SeenTable,
    discovery: Discovery,
    own_seqno: SeqNo,
    next_broadcast_id: BroadcastId,
    stats: RoutingStats,
}

impl Aodv {
    /// Create the agent for node `me`.
    pub fn new(me: NodeId) -> Self {
        Aodv {
            me,
            table: RoutingTable::new(),
            seen: SeenTable::default(),
            discovery: Discovery::default(),
            own_seqno: SeqNo(0),
            next_broadcast_id: BroadcastId(0),
            stats: RoutingStats::default(),
        }
    }

    /// Read access to the routing table (tests, diagnostics).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The node this agent runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        if self.discovery.start(ctx, dest) {
            self.emit_rreq(ctx, dest);
        }
    }

    fn emit_rreq(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        self.own_seqno.bump();
        let bid = self.next_broadcast_id;
        self.next_broadcast_id = bid.next();
        let known_dest_seqno = self
            .table
            .entry(dest)
            .map(|e| e.dest_seqno)
            .unwrap_or(SeqNo(0));
        let rreq = RouteRequest {
            source: self.me,
            destination: dest,
            broadcast_id: bid,
            hop_count: 0,
            route: Vec::new(),
            dest_seqno: known_dest_seqno,
            source_seqno: self.own_seqno,
        };
        // Remember our own flood so we do not re-process it when neighbours
        // broadcast it back.
        let now = ctx.now();
        self.seen.first_time(self.me, dest, bid, now);
        self.stats.discoveries += 1;
        self.stats.rreq_tx += 1;
        ctx.send_broadcast(NetPacket::Rreq(rreq));
    }

    /// Handle a data packet we originate or must forward: send it along a
    /// known route, buffer it (originator only) while a discovery runs, or
    /// drop it and report the missing route.
    fn route_or_buffer(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        let now = ctx.now();
        let dst = packet.dst;
        if self.table.lookup(dst, now).is_some() {
            self.forward_data_known(ctx, packet);
        } else if packet.src == self.me {
            self.discovery.hold(ctx, self.me, packet);
            self.start_discovery(ctx, dst);
        } else {
            self.stats.data_dropped_no_route += 1;
            record_data_drop(ctx, self.me, DropReason::NoRoute, &packet);
            self.send_rerr_for(ctx, dst);
        }
    }

    fn forward_data_known(&mut self, ctx: &mut Ctx<'_>, mut packet: DataPacket) {
        let now = ctx.now();
        let entry = self
            .table
            .lookup(packet.dst, now)
            .expect("caller checked a route exists");
        let next = entry.next_hop;
        self.table.refresh(packet.dst, now);
        packet.hop_count += 1;
        if packet.src != self.me {
            self.stats.data_forwarded += 1;
        }
        ctx.send_unicast(next, NetPacket::Data(packet));
    }

    fn send_rerr_for(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        let seqno = self
            .table
            .entry(dest)
            .map(|e| e.dest_seqno)
            .unwrap_or(SeqNo(0));
        let rerr = RouteError {
            reporter: self.me,
            broken_next_hop: dest,
            unreachable: vec![dest],
            dest_seqnos: vec![seqno],
        };
        self.stats.rerr_tx += 1;
        ctx.send_broadcast(NetPacket::Rerr(rerr));
    }

    /// Handle a route request.
    ///
    /// Takes the request by reference: RREQs arrive as link-layer broadcasts
    /// whose payload is shared across every receiver, and the dominant case —
    /// a duplicate copy of an already-seen flood — is dropped here without
    /// copying anything.  Only replying and forwarding clone the route.
    fn handle_rreq(&mut self, ctx: &mut Ctx<'_>, from: NodeId, rreq: &RouteRequest) {
        let now = ctx.now();
        // Duplicate suppression on (source, destination, broadcast id).
        if !self
            .seen
            .first_time(rreq.source, rreq.destination, rreq.broadcast_id, now)
        {
            return;
        }
        // Build / refresh the reverse route to the originator through `from`.
        self.table.update(
            rreq.source,
            from,
            rreq.hop_count + 1,
            rreq.source_seqno,
            now,
        );
        if rreq.destination == self.me {
            // Destination replies immediately.
            if rreq.dest_seqno.fresher_than(self.own_seqno) {
                self.own_seqno = rreq.dest_seqno;
            }
            self.own_seqno.bump();
            let rrep = RouteReply {
                source: rreq.source,
                destination: self.me,
                reply_id: rreq.broadcast_id,
                hop_count: 0,
                route: rreq.route.clone(),
                dest_seqno: self.own_seqno,
            };
            self.stats.rrep_tx += 1;
            ctx.send_unicast(from, NetPacket::Rrep(rrep));
            return;
        }
        // Intermediate node with a fresh-enough route may reply on the
        // destination's behalf.
        if let Some(entry) = self.table.lookup(rreq.destination, now) {
            if entry.dest_seqno.fresher_than(rreq.dest_seqno) || entry.dest_seqno == rreq.dest_seqno
            {
                let rrep = RouteReply {
                    source: rreq.source,
                    destination: rreq.destination,
                    reply_id: rreq.broadcast_id,
                    hop_count: entry.hop_count,
                    route: rreq.route.clone(),
                    dest_seqno: entry.dest_seqno,
                };
                self.stats.rrep_tx += 1;
                ctx.send_unicast(from, NetPacket::Rrep(rrep));
                return;
            }
        }
        // Otherwise forward the flood (the one genuine copy).
        let mut fwd = rreq.clone();
        fwd.hop_count += 1;
        fwd.route.push(self.me);
        self.stats.rreq_tx += 1;
        ctx.send_broadcast(NetPacket::Rreq(fwd));
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx<'_>, from: NodeId, mut rrep: RouteReply) {
        let now = ctx.now();
        // Install / refresh the forward route to the destination through `from`.
        self.table.update(
            rrep.destination,
            from,
            rrep.hop_count + 1,
            rrep.dest_seqno,
            now,
        );
        if rrep.source == self.me {
            // Discovery complete: flush buffered packets.
            self.discovery.resolved(rrep.destination);
            self.stats.route_switches += 1;
            for p in self.discovery.release(ctx, self.me, rrep.destination) {
                self.route_or_buffer(ctx, p);
            }
            return;
        }
        // Forward the RREP towards the originator along the reverse route.
        if let Some(entry) = self.table.lookup(rrep.source, now) {
            let next = entry.next_hop;
            self.table.add_precursor(rrep.destination, next);
            rrep.hop_count += 1;
            self.stats.rrep_tx += 1;
            ctx.send_unicast(next, NetPacket::Rrep(rrep));
        }
        // Without a reverse route the RREP is dropped (the reverse entry
        // expired); the originator's retry timer will rediscover.
    }

    /// Handle a route error (by reference — RERRs are broadcast).
    fn handle_rerr(&mut self, ctx: &mut Ctx<'_>, from: NodeId, rerr: &RouteError) {
        let mut invalidated = Vec::new();
        for (dest, seqno) in rerr.unreachable.iter().zip(rerr.dest_seqnos.iter()) {
            if self.table.invalidate_dest_via(*dest, from, *seqno) {
                invalidated.push((*dest, *seqno));
            }
        }
        if !invalidated.is_empty() {
            // Propagate only if we actually lost routes (damps RERR storms).
            let rerr = RouteError {
                reporter: self.me,
                broken_next_hop: from,
                unreachable: invalidated.iter().map(|(d, _)| *d).collect(),
                dest_seqnos: invalidated.iter().map(|(_, s)| *s).collect(),
            };
            self.stats.rerr_tx += 1;
            ctx.send_broadcast(NetPacket::Rerr(rerr));
        }
    }
}

impl RoutingAgent for Aodv {
    fn name(&self) -> &'static str {
        "AODV"
    }

    fn start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn send_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        self.route_or_buffer(ctx, packet);
    }

    fn on_packet(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        packet: SharedPacket,
    ) -> Option<DataPacket> {
        // Broadcast-carried control (RREQ floods, RERRs) is handled by
        // reference so duplicate flood copies never touch the shared payload
        // allocation; everything else arrives unicast, where claiming the
        // packet takes over the sole reference for free.
        match &*packet {
            NetPacket::Rreq(r) => {
                self.handle_rreq(ctx, from, r);
                return None;
            }
            NetPacket::Rerr(r) => {
                self.handle_rerr(ctx, from, r);
                return None;
            }
            // AODV ignores MTS-specific packets.
            NetPacket::Check(_) | NetPacket::CheckErr(_) => return None,
            NetPacket::Rrep(_) | NetPacket::Data(_) => {}
        }
        match ctx.claim_packet(packet) {
            NetPacket::Rrep(r) => {
                self.handle_rrep(ctx, from, r);
                None
            }
            NetPacket::Data(d) => {
                if d.dst == self.me {
                    Some(d)
                } else {
                    self.route_or_buffer(ctx, d);
                    None
                }
            }
            _ => unreachable!("filtered above"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let now = ctx.now();
        let has_route = |dest| self.table.lookup(dest, now).is_some();
        match self.discovery.on_timer(ctx, self.me, token, has_route) {
            Retry::Flood(dest) => self.emit_rreq(ctx, dest),
            Retry::GaveUp(dropped) => self.stats.data_dropped_no_route += dropped,
            Retry::Stale | Retry::Resolved(_) => {}
        }
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        let broken = self.table.invalidate_via(next_hop);
        if !broken.is_empty() {
            let rerr = RouteError {
                reporter: self.me,
                broken_next_hop: next_hop,
                unreachable: broken.iter().map(|(d, _)| *d).collect(),
                dest_seqnos: broken.iter().map(|(_, s)| *s).collect(),
            };
            self.stats.rerr_tx += 1;
            ctx.send_broadcast(NetPacket::Rerr(rerr));
        }
        // Salvage the undelivered data packet if we originated it: buffer it
        // and start a fresh discovery (existing discoveries keep their timers).
        if let NetPacket::Data(d) = packet {
            if d.src == self.me {
                let dst = d.dst;
                self.discovery.hold(ctx, self.me, d);
                self.start_discovery(ctx, dst);
            } else {
                // Intermediate: nothing to salvage with — the packet dies
                // with the broken link.
                record_data_drop(ctx, self.me, DropReason::SalvageFailed, &d);
            }
        }
    }

    fn stats(&self) -> RoutingStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_reports_name_and_initial_stats() {
        let a = Aodv::new(NodeId(3));
        assert_eq!(a.name(), "AODV");
        assert_eq!(a.me(), NodeId(3));
        assert_eq!(a.stats(), RoutingStats::default());
    }
}
