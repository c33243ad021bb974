//! AODV baseline: Ad hoc On-demand Distance Vector routing.
//!
//! The implementation follows the on-demand behaviour the paper compares
//! against (Perkins/Royer/Das draft semantics): RREQ flooding with duplicate
//! suppression, reverse-path construction, destination sequence numbers for
//! loop freedom, replies from the destination or from intermediate nodes with
//! fresh-enough routes, hop-by-hop forwarding, and route errors driven by
//! MAC-layer link-failure feedback.

use crate::agent::{RoutingAgent, RoutingStats, TimerClass};
use crate::common::{record_data_drop, PacketBuffer, SeenTable};
use crate::table::RoutingTable;
use manet_netsim::FxHashMap;
use manet_netsim::{Ctx, DropReason, Duration, TimerToken};
use manet_wire::{
    BroadcastId, DataPacket, NetPacket, NodeId, RouteError, RouteReply, RouteRequest, SeqNo,
    SharedPacket,
};
use serde::{Deserialize, Serialize};

/// AODV tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AodvConfig {
    /// Lifetime of an installed route, seconds (ACTIVE_ROUTE_TIMEOUT).
    pub active_route_lifetime: f64,
    /// How long the source waits for a RREP before retrying the discovery.
    pub discovery_timeout: f64,
    /// Maximum number of discovery attempts per destination.
    pub discovery_retries: u32,
    /// Allow intermediate nodes with fresh-enough routes to answer RREQs.
    pub intermediate_reply: bool,
    /// Capacity of the awaiting-route packet buffer (per destination).
    pub buffer_capacity: usize,
    /// Maximum age of a buffered packet, seconds.
    pub buffer_max_age: f64,
}

impl Default for AodvConfig {
    fn default() -> Self {
        AodvConfig {
            active_route_lifetime: 10.0,
            discovery_timeout: 1.0,
            discovery_retries: 3,
            intermediate_reply: true,
            buffer_capacity: 64,
            buffer_max_age: 8.0,
        }
    }
}

/// State of an in-flight route discovery at the originator.
#[derive(Debug, Clone)]
struct PendingDiscovery {
    attempts: u32,
    /// Generation guard for the retry timer.
    generation: u64,
}

/// One node's AODV agent.
pub struct Aodv {
    me: NodeId,
    config: AodvConfig,
    table: RoutingTable,
    seen: SeenTable,
    buffer: PacketBuffer,
    own_seqno: SeqNo,
    next_broadcast_id: BroadcastId,
    pending: FxHashMap<NodeId, PendingDiscovery>,
    /// Per-destination hold-down after a failed discovery (exponential-backoff
    /// style damping, as real DSR/AODV implementations apply): no new flood is
    /// started for the destination before this time.
    holddown: FxHashMap<NodeId, manet_netsim::SimTime>,
    timer_generation: u64,
    stats: RoutingStats,
}

impl Aodv {
    /// Create the agent for node `me`.
    pub fn new(me: NodeId, config: AodvConfig) -> Self {
        Aodv {
            me,
            buffer: PacketBuffer::new(config.buffer_capacity, config.buffer_max_age),
            config,
            table: RoutingTable::new(),
            seen: SeenTable::default(),
            own_seqno: SeqNo(0),
            next_broadcast_id: BroadcastId(0),
            pending: FxHashMap::default(),
            holddown: FxHashMap::default(),
            timer_generation: 0,
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
        if self.pending.contains_key(&dest) {
            return;
        }
        if let Some(&until) = self.holddown.get(&dest) {
            if ctx.now() < until {
                return; // recent discovery failed; damp the flood rate
            }
        }
        self.timer_generation += 1;
        let generation = self.timer_generation;
        self.pending.insert(
            dest,
            PendingDiscovery {
                attempts: 1,
                generation,
            },
        );
        self.emit_rreq(ctx, dest);
        ctx.schedule_timer(
            Duration::from_secs(self.config.discovery_timeout),
            TimerClass::Routing.token(generation),
        );
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
            if let Some(evicted) = self.buffer.push(dst, packet, now) {
                record_data_drop(ctx, self.me, DropReason::NoRoute, &evicted);
            }
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
        self.table
            .refresh(packet.dst, self.config.active_route_lifetime, now);
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
            self.config.active_route_lifetime,
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
        if self.config.intermediate_reply {
            if let Some(entry) = self.table.lookup(rreq.destination, now) {
                if entry.dest_seqno.fresher_than(rreq.dest_seqno)
                    || entry.dest_seqno == rreq.dest_seqno
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
            self.config.active_route_lifetime,
            now,
        );
        if rrep.source == self.me {
            // Discovery complete: flush buffered packets.
            self.pending.remove(&rrep.destination);
            self.holddown.remove(&rrep.destination);
            self.stats.route_switches += 1;
            let (packets, expired) = self.buffer.drain(rrep.destination, now);
            for p in &expired {
                record_data_drop(ctx, self.me, DropReason::DiscoveryFailed, p);
            }
            for p in packets {
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
        if !TimerClass::Routing.owns(token) {
            return;
        }
        let generation = token.payload();
        let now = ctx.now();
        // Find the discovery this retry timer belongs to.
        let dest = self
            .pending
            .iter()
            .find(|(_, p)| p.generation == generation)
            .map(|(d, _)| *d);
        let Some(dest) = dest else { return };
        if self.table.lookup(dest, now).is_some() {
            self.pending.remove(&dest);
            return;
        }
        let attempts = self.pending.get(&dest).map(|p| p.attempts).unwrap_or(0);
        if attempts >= self.config.discovery_retries {
            // Give up: drop buffered packets and hold further discoveries for
            // this destination down for a while.
            self.pending.remove(&dest);
            self.holddown.insert(dest, now + Duration::from_secs(5.0));
            let dropped = self.buffer.discard(dest);
            self.stats.data_dropped_no_route += dropped.len() as u64;
            for p in &dropped {
                record_data_drop(ctx, self.me, DropReason::DiscoveryFailed, p);
            }
            return;
        }
        // Retry the flood.
        self.timer_generation += 1;
        let generation = self.timer_generation;
        if let Some(p) = self.pending.get_mut(&dest) {
            p.attempts += 1;
            p.generation = generation;
        }
        self.emit_rreq(ctx, dest);
        ctx.schedule_timer(
            Duration::from_secs(self.config.discovery_timeout),
            TimerClass::Routing.token(generation),
        );
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        let now = ctx.now();
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
                if let Some(evicted) = self.buffer.push(dst, d, now) {
                    record_data_drop(ctx, self.me, DropReason::NoRoute, &evicted);
                }
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
    fn default_config_is_reasonable() {
        let c = AodvConfig::default();
        assert!(c.active_route_lifetime > 0.0);
        assert!(c.discovery_retries >= 1);
        assert!(c.intermediate_reply);
    }

    #[test]
    fn agent_reports_name_and_initial_stats() {
        let a = Aodv::new(NodeId(3), AodvConfig::default());
        assert_eq!(a.name(), "AODV");
        assert_eq!(a.me(), NodeId(3));
        assert_eq!(a.stats(), RoutingStats::default());
    }
}
