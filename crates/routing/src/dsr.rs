//! DSR baseline: Dynamic Source Routing.
//!
//! Key behaviours of the baseline the paper compares against:
//!
//! * on-demand discovery where the RREQ accumulates the traversed node list,
//! * a route cache at the source (and at intermediate nodes) holding whole
//!   source routes, from which intermediate nodes also answer RREQs,
//! * source-routed data: every data packet carries its full route,
//! * route errors that name the broken link so caches can purge every route
//!   using it.
//!
//! The cache is exactly what makes DSR fast at low speed and fragile at high
//! speed (stale routes), which is the behaviour behind Figs. 8–10.

use crate::agent::RoutingAgent;
use crate::cache::RouteCache;
use crate::common::{record_data_drop, Discovery, Retry, SeenTable};
use manet_netsim::{Ctx, DropReason, TimerToken};
use manet_wire::{
    BroadcastId, DataPacket, NetPacket, NodeId, RouteError, RouteReply, RouteRequest, SeqNo,
    SharedPacket,
};

/// Routes cached per destination.
const CACHE_ROUTES_PER_DEST: usize = 4;
/// Seconds a cached route stays usable.
const CACHE_MAX_AGE_SECS: f64 = 30.0;

/// One node's DSR agent.
pub struct Dsr {
    me: NodeId,
    cache: RouteCache,
    seen: SeenTable,
    discovery: Discovery,
    next_broadcast_id: BroadcastId,
    /// Times this node installed or replaced its active route as a source.
    route_switches: u64,
}

impl Dsr {
    /// Create the agent for node `me`.
    pub fn new(me: NodeId) -> Self {
        Dsr {
            me,
            cache: RouteCache::new(CACHE_ROUTES_PER_DEST, CACHE_MAX_AGE_SECS),
            seen: SeenTable::default(),
            discovery: Discovery::default(),
            next_broadcast_id: BroadcastId(0),
            route_switches: 0,
        }
    }

    /// Read access to the route cache (tests, diagnostics).
    pub fn cache(&self) -> &RouteCache {
        &self.cache
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

    /// Route every packet buffered for `dest` again.
    fn release(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        for p in self.discovery.release(ctx, self.me, dest) {
            self.originate_data(ctx, p);
        }
    }

    fn emit_rreq(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        let bid = self.next_broadcast_id;
        self.next_broadcast_id = bid.next();
        let rreq = RouteRequest {
            source: self.me,
            destination: dest,
            broadcast_id: bid,
            hop_count: 0,
            route: Vec::new(),
            dest_seqno: SeqNo(0),
            source_seqno: SeqNo(0),
        };
        let now = ctx.now();
        self.seen.first_time(self.me, dest, bid, now);
        ctx.send_broadcast(NetPacket::Rreq(rreq));
    }

    /// Route a data packet we originate: attach the best cached source route
    /// or buffer the packet and start a discovery.
    fn originate_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        let now = ctx.now();
        let dst = packet.dst;
        if let Some(route) = self.cache.best_route(dst, now).cloned() {
            let mut routed = DataPacket::with_source_route(
                packet.id,
                packet.src,
                packet.dst,
                packet.segment,
                route.path.clone(),
            );
            routed.hop_count = packet.hop_count;
            self.forward_source_routed(ctx, routed);
        } else {
            self.discovery.hold(ctx, self.me, packet);
            self.start_discovery(ctx, dst);
        }
    }

    /// Forward a source-routed data packet one hop along its embedded route.
    fn forward_source_routed(&mut self, ctx: &mut Ctx<'_>, mut packet: DataPacket) {
        // Missing source route: a DSR node received a foreign-protocol packet.
        // Malformed route: we are listed last but are not the destination.
        // Either way there is no next hop and the packet dies here.
        let next = packet.source_route.as_mut().and_then(|sr| {
            // Position the cursor at this node (robust to duplicate receptions).
            if let Some(pos) = sr.route.iter().position(|&n| n == self.me) {
                sr.cursor = pos;
            }
            sr.next_hop()
        });
        match next {
            Some(next) => {
                packet.hop_count += 1;
                ctx.send_unicast(next, NetPacket::Data(packet));
            }
            None => {
                record_data_drop(ctx, self.me, DropReason::NoRoute, &packet);
            }
        }
    }

    /// Handle a route request.
    ///
    /// Takes the request by reference: RREQs arrive as link-layer broadcasts
    /// whose payload is shared across every receiver, and the dominant case —
    /// a duplicate copy of an already-seen flood — is dropped here without
    /// copying anything.  Only the forwarding path below clones the
    /// accumulated route (the genuine copy-to-extend).
    fn handle_rreq(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, rreq: &RouteRequest) {
        let now = ctx.now();
        if !self
            .seen
            .first_time(rreq.source, rreq.destination, rreq.broadcast_id, now)
        {
            return;
        }
        // Learn the backward route to the originator from the accumulated list.
        let mut back_path: Vec<NodeId> = rreq.route.clone();
        back_path.reverse();
        back_path.insert(0, self.me);
        back_path.push(rreq.source);
        // `back_path` = me, ...reversed intermediates..., source
        self.cache.insert(rreq.source, back_path, now);

        if rreq.destination == self.me {
            // Reply with the full discovered route.
            let rrep = RouteReply {
                source: rreq.source,
                destination: self.me,
                reply_id: rreq.broadcast_id,
                hop_count: rreq.hop_count,
                route: rreq.route.clone(),
                dest_seqno: SeqNo(0),
            };
            self.send_rrep(ctx, rrep);
            return;
        }
        if let Some(cached) = self.cache.best_route(rreq.destination, now) {
            // Splice: source -> ...rreq.route... -> me -> ...cached tail... -> dest.
            // Only use the cached tail if it does not revisit nodes already
            // on the request path (avoids loops).
            let tail: Vec<NodeId> = cached.path.iter().copied().skip(1).collect();
            let no_overlap = tail
                .iter()
                .all(|n| *n != rreq.source && !rreq.route.contains(n) && *n != self.me);
            if no_overlap {
                let mut full_route = rreq.route.clone();
                full_route.push(self.me);
                // tail ends at the destination; route field excludes endpoints.
                let mut spliced = full_route;
                spliced.extend(tail.iter().copied().take(tail.len().saturating_sub(1)));
                let rrep = RouteReply {
                    source: rreq.source,
                    destination: rreq.destination,
                    reply_id: rreq.broadcast_id,
                    hop_count: spliced.len() as u32 + 1,
                    route: spliced,
                    dest_seqno: SeqNo(0),
                };
                self.send_rrep(ctx, rrep);
                return;
            }
        }
        // Forward the flood with ourselves appended (the one genuine copy).
        ctx.send_broadcast(NetPacket::Rreq(rreq.relayed_by(self.me)));
    }

    /// Send (or forward) a RREP back towards the request originator along the
    /// reverse of the discovered route.
    fn send_rrep(&mut self, ctx: &mut Ctx<'_>, rrep: RouteReply) {
        let full = rrep.full_path();
        // Find our own position on the path; the next hop towards the source
        // is the previous node on the path.
        let Some(pos) = full.iter().position(|&n| n == self.me) else {
            return;
        };
        if pos == 0 {
            return; // we are the source; nothing to send
        }
        let next = full[pos - 1];
        ctx.send_unicast(next, NetPacket::Rrep(rrep));
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, rrep: RouteReply) {
        let now = ctx.now();
        let full = rrep.full_path();
        if rrep.source == self.me {
            // Cache the forward route source..=destination and flush traffic.
            self.cache.insert(rrep.destination, full, now);
            self.discovery.resolved(rrep.destination);
            self.route_switches += 1;
            self.release(ctx, rrep.destination);
            return;
        }
        // Intermediate node: learn the sub-route from us to the destination,
        // then keep forwarding the RREP towards the source.
        if let Some(pos) = full.iter().position(|&n| n == self.me) {
            let sub: Vec<NodeId> = full[pos..].to_vec();
            if sub.len() >= 2 {
                self.cache.insert(rrep.destination, sub, now);
            }
        }
        self.send_rrep(ctx, rrep);
    }

    /// Handle a route error (by reference — RERRs can arrive broadcast).
    fn handle_rerr(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, rerr: &RouteError) {
        let removed = self.cache.remove_link(rerr.reporter, rerr.broken_next_hop);
        if removed > 0 {
            self.route_switches += 1;
        }
        // If we have traffic buffered (we were mid-discovery or the error
        // raced a send), try again with whatever routes remain.
        for &dest in &rerr.unreachable {
            self.release(ctx, dest);
        }
    }

    /// Propagate a route error for the broken link back to the source of the
    /// packet that failed, using the reversed prefix of its source route.
    fn report_broken_link(&mut self, ctx: &mut Ctx<'_>, broken_next: NodeId, packet: &DataPacket) {
        let rerr = RouteError::new(self.me, broken_next, &[(packet.dst, SeqNo(0))]);
        // Route the error back towards the packet source along the reverse of
        // the packet's source route, if we are on it; otherwise broadcast so
        // nearby caches still learn about the broken link.
        if let Some(sr) = &packet.source_route {
            if let Some(pos) = sr.route.iter().position(|&n| n == self.me) {
                if pos > 0 {
                    let next = sr.route[pos - 1];
                    ctx.send_unicast(next, NetPacket::Rerr(rerr));
                    return;
                }
            }
        }
        ctx.send_broadcast(NetPacket::Rerr(rerr));
    }
}

impl RoutingAgent for Dsr {
    fn name(&self) -> &'static str {
        "DSR"
    }

    fn start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn send_data(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        self.originate_data(ctx, packet);
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
                    self.forward_source_routed(ctx, d);
                    None
                }
            }
            _ => unreachable!("filtered above"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        let now = ctx.now();
        let has_route = |dest| self.cache.best_route(dest, now).is_some();
        match self.discovery.on_timer(ctx, self.me, token, has_route) {
            Retry::Flood(dest) => self.emit_rreq(ctx, dest),
            Retry::GaveUp | Retry::Stale | Retry::Resolved(_) => {}
        }
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        let now = ctx.now();
        // Purge every cached route using the broken link.
        self.cache.remove_link(self.me, next_hop);
        if let NetPacket::Data(d) = packet {
            // Tell the packet's source about the broken link.
            self.report_broken_link(ctx, next_hop, &d);
            if d.src == self.me {
                // Salvage locally: strip the stale source route and retry
                // (possibly triggering a fresh discovery).
                let dst = d.dst;
                let plain = DataPacket::new(d.id, d.src, d.dst, d.segment);
                self.discovery.hold(ctx, self.me, plain);
                if self.cache.best_route(dst, now).is_some() {
                    self.release(ctx, dst);
                } else {
                    self.start_discovery(ctx, dst);
                }
            } else {
                // Intermediate: nothing to salvage with — the packet dies
                // with the broken link.
                record_data_drop(ctx, self.me, DropReason::SalvageFailed, &d);
            }
        }
    }

    fn route_switches(&self) -> u64 {
        self.route_switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_reports_name() {
        let d = Dsr::new(NodeId(1));
        assert_eq!(d.name(), "DSR");
        assert_eq!(d.me(), NodeId(1));
        assert!(d.cache().is_empty());
    }
}
