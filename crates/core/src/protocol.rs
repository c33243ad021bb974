//! The MTS routing agent.
//!
//! Implements the protocol of Section III of the paper as a
//! [`manet_routing::RoutingAgent`], so it is interchangeable with the DSR and
//! AODV baselines in the experiment harness.
//!
//! Roles a node can play simultaneously:
//!
//! * **source** of a session — buffers data until a route exists, floods
//!   RREQs on demand, switches its current route to whichever stored path's
//!   checking packet arrives first in each round;
//! * **destination** of a session — replies to the first RREQ immediately,
//!   stores up to five disjoint paths from later copies, emits periodic
//!   checking packets along each, deletes paths that produce checking errors,
//!   and flushes the set when a newer RREQ arrives;
//! * **intermediate** node — relays only the first copy of each RREQ, builds
//!   reverse routes from RREQs and forward routes from RREPs and checking
//!   packets, forwards data hop-by-hop, and reports broken links upstream.
//!
//! # Hardening mode
//!
//! With [`MtsConfig::hardening`] set (see [`MtsConfig::hardened`]), every
//! MTS node additionally defends the route-checking machinery against
//! insiders:
//!
//! * **Suspicious-reply cross-validation** — a route reply whose destination
//!   sequence number jumps implausibly far beyond the best credibly learned
//!   value (the black-hole attraction forgery) is never cached or installed.
//!   Intermediates drop it outright, so the poison stops at the first honest
//!   hop; the source quarantines the claim and leaves its pending discovery
//!   armed, so the retry flood doubles as a second, disjoint probe.  If that
//!   probe answers through a different relay, the quarantined claim stays
//!   unconfirmed and the relay that delivered it earns a forgery penalty.
//! * **Per-relay suspicion scores** — failed route checks distribute blame
//!   across the failed path's intermediates; the destination refuses to store
//!   candidate paths through relays whose score crossed the threshold, which
//!   biases the disjoint path set away from repeat offenders.  Scores decay
//!   every checking round, so relays that behave recover.
//!
//! With hardening disabled (the default) none of these code paths are
//! entered, no extra state is touched and no randomness is drawn — runs are
//! byte-identical to the unhardened protocol.

use crate::config::MtsConfig;
use crate::path_set::PathSet;
use crate::source_state::{CheckArrival, SourceRouteState};
use manet_netsim::FxHashMap;
use manet_netsim::{Ctx, DropReason, Duration, Observation, TimerToken};
use manet_routing::agent::{RoutingAgent, TimerClass};
use manet_routing::common::{record_data_drop, Discovery, Retry, SeenTable};
use manet_routing::suspicion::{
    seqno_is_suspicious, SuspicionTable, CHECK_FAILURE_PENALTY, FORGERY_PENALTY, SUSPICION_DECAY,
    SUSPICION_THRESHOLD,
};
use manet_routing::table::RoutingTable;
use manet_wire::{
    BroadcastId, CheckError, CheckId, DataPacket, NetPacket, NodeId, RouteCheck, RouteError,
    RouteReply, RouteRequest, SeqNo, SharedPacket,
};
use rand::Rng;

/// Upper bound of the random delay added to each checking round, s (avoids
/// synchronising the checking packets of several sessions).
const CHECK_JITTER_SECS: f64 = 0.2;

/// Destination-side session state (per source that talks to this node).
#[derive(Debug)]
struct DestinationSession {
    paths: PathSet,
    next_check_id: CheckId,
    /// Generation guard for the periodic checking timer.
    timer_generation: u64,
    /// Checking is running for this session.
    checking_active: bool,
}

/// The suspicious route replies held for cross-validation towards one
/// destination (hardened mode).  Every distinct delivering relay is kept:
/// two colluders answering the same discovery must both be penalized when
/// the disjoint probe exposes them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct QuarantinedReplies {
    /// Relays that delivered suspicious replies, in arrival order.
    relays: Vec<NodeId>,
}

/// One node's MTS agent.
pub struct Mts {
    me: NodeId,
    config: MtsConfig,
    /// Hop-by-hop routes: forward entries towards destinations (from RREPs and
    /// checking packets) and reverse entries towards sources (from RREQs).
    table: RoutingTable,
    seen: SeenTable,
    discovery: Discovery,
    own_seqno: SeqNo,
    next_broadcast_id: BroadcastId,
    /// Source-side adaptive route state, per destination.
    sources: FxHashMap<NodeId, SourceRouteState>,
    /// Destination-side sessions, per talking source.
    sessions: FxHashMap<NodeId, DestinationSession>,
    /// Payload of the last checking timer armed, for any session.
    timer_generation: u64,
    /// Times this node installed or replaced its active route as a source.
    route_switches: u64,
    // ---- hardened mode only (empty and untouched when disabled) ----
    /// Per-relay suspicion scores from failed route checks.
    suspicion: SuspicionTable,
    /// Best credibly learned destination sequence number, per destination.
    credible_seqno: FxHashMap<NodeId, SeqNo>,
    /// Quarantined suspicious replies awaiting cross-validation, per
    /// destination (source role only).
    quarantine: FxHashMap<NodeId, QuarantinedReplies>,
    /// Suspicion penalties `(suspect, score after)` applied since the last
    /// flush.  Some penalties land in helpers without an engine context, so
    /// they queue here and the nearest ctx-bearing caller observes them (the
    /// queue is drained each time and stays tiny).
    penalty_log: Vec<(NodeId, f64)>,
}

impl Mts {
    /// Create the agent for node `me`.
    pub fn new(me: NodeId, config: MtsConfig) -> Self {
        config.validate().expect("invalid MTS configuration");
        Mts {
            me,
            config,
            table: RoutingTable::new(),
            seen: SeenTable::default(),
            discovery: Discovery::default(),
            own_seqno: SeqNo(0),
            next_broadcast_id: BroadcastId(0),
            sources: FxHashMap::default(),
            sessions: FxHashMap::default(),
            timer_generation: 0,
            route_switches: 0,
            suspicion: SuspicionTable::new(),
            credible_seqno: FxHashMap::default(),
            quarantine: FxHashMap::default(),
            penalty_log: Vec::new(),
        }
    }

    /// The node this agent runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The protocol configuration.
    pub fn config(&self) -> &MtsConfig {
        &self.config
    }

    /// Source-side route state towards `dest` (tests / diagnostics).
    pub fn source_state(&self, dest: NodeId) -> Option<&SourceRouteState> {
        self.sources.get(&dest)
    }

    /// Number of disjoint paths currently stored for traffic coming from
    /// `source` (only meaningful at a destination node).
    pub fn stored_paths_for(&self, source: NodeId) -> usize {
        self.sessions.get(&source).map_or(0, |s| s.paths.len())
    }

    /// Per-relay suspicion scores (hardened mode; empty otherwise).
    pub fn suspicion(&self) -> &SuspicionTable {
        &self.suspicion
    }

    /// Relays whose suspicious replies for `dest` are quarantined (hardened
    /// mode; tests / diagnostics).  Empty when nothing is quarantined.
    pub fn quarantined_relays(&self, dest: NodeId) -> &[NodeId] {
        self.quarantine
            .get(&dest)
            .map_or(&[], |q| q.relays.as_slice())
    }

    /// Classify a route reply under the hardening rules and update the
    /// cross-validation state.  Returns `true` when the reply must be
    /// discarded (suspicious); only called in hardened mode.
    fn hardened_rrep_is_suspicious(&mut self, from: NodeId, rrep: &RouteReply) -> bool {
        let credible = self.credible_seqno.get(&rrep.destination).copied();
        if seqno_is_suspicious(rrep.dest_seqno, credible)
            || self.suspicion.is_suspect(from, SUSPICION_THRESHOLD)
        {
            // Cross-validation (AODVSEC-style): never cache or install the
            // claim.  At the source the pending discovery stays armed, so
            // its retry flood doubles as the second, disjoint probe that
            // either confirms the destination independently or exposes the
            // forgery; intermediates drop the reply outright, stopping the
            // table poison at the first honest hop.
            if rrep.source == self.me {
                let q = self.quarantine.entry(rrep.destination).or_default();
                if !q.relays.contains(&from) {
                    q.relays.push(from);
                }
            }
            return true;
        }
        // Credible reply: advance the per-destination baseline ...
        let entry = self
            .credible_seqno
            .entry(rrep.destination)
            .or_insert(rrep.dest_seqno);
        if rrep.dest_seqno.fresher_than(*entry) {
            *entry = rrep.dest_seqno;
        }
        // ... and resolve the quarantined claims: every claim that was
        // answered through a different relay stays unconfirmed and costs its
        // relay the forgery penalty.
        if rrep.source == self.me {
            if let Some(q) = self.quarantine.remove(&rrep.destination) {
                for relay in q.relays {
                    if relay != from {
                        self.suspicion.penalize(relay, FORGERY_PENALTY);
                        self.penalty_log.push((relay, self.suspicion.score(relay)));
                    }
                }
            }
        }
        false
    }

    /// Observe the queued suspicion-score changes (hardened mode) and clear
    /// the queue.
    fn flush_suspicion_events(&mut self, ctx: &mut Ctx<'_>) {
        let table = self.suspicion.tracked() as u32;
        for (suspect, score) in self.penalty_log.drain(..) {
            ctx.observe(Observation::Suspicion {
                node: self.me,
                suspect,
                score,
                table,
            });
        }
    }

    // ---- source side -----------------------------------------------------------

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        if self.discovery.start(ctx, dest) {
            self.emit_rreq(ctx, dest);
        }
    }

    fn emit_rreq(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        self.own_seqno.bump();
        let bid = self.next_broadcast_id;
        self.next_broadcast_id = bid.next();
        let rreq = RouteRequest {
            source: self.me,
            destination: dest,
            broadcast_id: bid,
            hop_count: 0,
            route: Vec::new(),
            dest_seqno: self
                .table
                .entry(dest)
                .map(|e| e.dest_seqno)
                .unwrap_or(SeqNo(0)),
            source_seqno: self.own_seqno,
        };
        let now = ctx.now();
        self.seen.first_time(self.me, dest, bid, now);
        ctx.send_broadcast(NetPacket::Rreq(rreq));
    }

    /// Route a data packet we originate: current best route, striped route
    /// (ablation), fall back to the routing table, or buffer + discover.
    fn originate_data(&mut self, ctx: &mut Ctx<'_>, mut packet: DataPacket) {
        let now = ctx.now();
        let dst = packet.dst;
        let path_hop = {
            let state = self.sources.entry(dst).or_default();
            if self.config.concurrent_striping {
                state.striped_next_hop()
            } else {
                state.next_hop()
            }
        };
        // Either way the table route to `dst` carries the packet and is
        // refreshed: a table hop in the same probe that finds it.
        let next = match path_hop {
            Some(hop) => {
                self.table.refresh(dst, now);
                Some(hop)
            }
            None => self.table.forward(dst, now),
        };
        match next {
            Some(next_hop) => {
                packet.hop_count += 1;
                ctx.send_unicast(next_hop, NetPacket::Data(packet));
            }
            None => {
                self.discovery.hold(ctx, self.me, packet);
                self.start_discovery(ctx, dst);
            }
        }
    }

    fn flush_buffered(&mut self, ctx: &mut Ctx<'_>, dest: NodeId) {
        for p in self.discovery.release(ctx, self.me, dest) {
            self.originate_data(ctx, p);
        }
    }

    // ---- intermediate forwarding -------------------------------------------------

    fn forward_data(&mut self, ctx: &mut Ctx<'_>, mut packet: DataPacket, _from: NodeId) {
        match self.table.forward(packet.dst, ctx.now()) {
            Some(next) => {
                packet.hop_count += 1;
                ctx.send_unicast(next, NetPacket::Data(packet));
            }
            None => {
                // No forward route: report towards the source so it can
                // rediscover (paper §III-E).
                record_data_drop(ctx, self.me, DropReason::NoRoute, &packet);
                self.send_rerr_towards_source(ctx, packet.src, packet.dst);
            }
        }
    }

    fn send_rerr_towards_source(&mut self, ctx: &mut Ctx<'_>, source: NodeId, dest: NodeId) {
        if source == self.me {
            return;
        }
        let seqno = self.table.entry(dest).map_or(SeqNo(0), |e| e.dest_seqno);
        let rerr = RouteError::new(self.me, dest, &[(dest, seqno)]);
        if let Some(entry) = self.table.lookup(source, ctx.now()) {
            ctx.send_unicast(entry.next_hop, NetPacket::Rerr(rerr));
        } else {
            ctx.send_broadcast(NetPacket::Rerr(rerr));
        }
    }

    // ---- RREQ / RREP handling ------------------------------------------------------

    /// Handle a route request.
    ///
    /// Takes the request by reference: RREQs arrive as link-layer broadcasts
    /// whose payload is shared across every receiver.  MTS inspects *every*
    /// copy (reverse routes and the destination's disjoint-set construction
    /// use them all), but only the first-copy relay below needs to clone the
    /// accumulated route — every other copy is processed without touching
    /// the shared allocation.
    fn handle_rreq(&mut self, ctx: &mut Ctx<'_>, from: NodeId, rreq: &RouteRequest) {
        let now = ctx.now();
        if rreq.source == self.me {
            return; // our own flood echoed back
        }
        let first_copy =
            self.seen
                .first_time(rreq.source, rreq.destination, rreq.broadcast_id, now);

        // Reverse route to the source through `from` (built from every copy —
        // the paper stresses that copies are not simply discarded, so the
        // destination and the intermediates can construct reverse paths).
        self.table.update(
            rreq.source,
            from,
            rreq.hop_count + 1,
            rreq.source_seqno,
            now,
        );

        if rreq.destination == self.me {
            // Destination role: every copy is considered for the disjoint set.
            self.handle_rreq_as_destination(ctx, from, rreq, first_copy);
            return;
        }
        if !first_copy {
            return; // intermediate nodes relay only the first copy
        }
        // Intermediate: never reply from cache (paper §II: intermediate nodes
        // are not allowed to send RREPs) — just relay (the one genuine copy).
        ctx.send_broadcast(NetPacket::Rreq(rreq.relayed_by(self.me)));
    }

    fn handle_rreq_as_destination(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        rreq: &RouteRequest,
        first_copy: bool,
    ) {
        let now = ctx.now();
        let source = rreq.source;
        let full_path = {
            let mut p = rreq.path_from_source();
            p.push(self.me);
            p
        };
        // Hardened path-set bias: refuse to store candidate paths through
        // relays whose suspicion score crossed the threshold — repeat
        // offenders are selected away from, not checked forever.
        let path_tainted = self.config.hardening
            && full_path.len() > 2
            && self
                .suspicion
                .any_suspect(&full_path[1..full_path.len() - 1], SUSPICION_THRESHOLD);
        let max_paths = self.config.max_paths;
        let session = self
            .sessions
            .entry(source)
            .or_insert_with(|| DestinationSession {
                paths: PathSet::new(max_paths),
                next_check_id: CheckId(0),
                timer_generation: 0,
                checking_active: false,
            });
        // Newer floods flush the stored set inside `offer`; every copy is a
        // candidate for the disjoint set (unless its relays are suspects).
        if !path_tainted {
            session.paths.offer(rreq.broadcast_id, full_path, now);
        }

        if first_copy {
            // Reply immediately to the first copy (paper §III-B).
            self.own_seqno.bump();
            let rrep = RouteReply {
                source,
                destination: self.me,
                reply_id: rreq.broadcast_id,
                hop_count: 0,
                route: rreq.route.clone(),
                dest_seqno: self.own_seqno,
            };
            ctx.send_unicast(from, NetPacket::Rrep(rrep));
            // Make sure periodic route checking runs for this session.
            self.ensure_checking_timer(ctx, source);
        }
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx<'_>, from: NodeId, mut rrep: RouteReply) {
        let now = ctx.now();
        if self.config.hardening {
            if self.hardened_rrep_is_suspicious(from, &rrep) {
                ctx.observe(Observation::ForgedRrep {
                    node: self.me,
                    from,
                });
                return;
            }
            // A credible reply may have resolved quarantined claims.
            self.flush_suspicion_events(ctx);
        }
        // Forward route to the destination through `from`.
        self.table.update(
            rrep.destination,
            from,
            rrep.hop_count + 1,
            rrep.dest_seqno,
            now,
        );
        if rrep.source == self.me {
            // Initial route for this session.
            self.discovery.resolved(rrep.destination);
            let state = self.sources.entry(rrep.destination).or_default();
            state.install_initial(from, rrep.full_path());
            self.route_switches += 1;
            self.flush_buffered(ctx, rrep.destination);
            return;
        }
        // Forward towards the source along the reverse route.
        if let Some(entry) = self.table.lookup(rrep.source, now) {
            let next = entry.next_hop;
            rrep.hop_count += 1;
            ctx.send_unicast(next, NetPacket::Rrep(rrep));
        }
    }

    // ---- route checking (destination -> source) -------------------------------------

    fn ensure_checking_timer(&mut self, ctx: &mut Ctx<'_>, source: NodeId) {
        let Some(session) = self.sessions.get_mut(&source) else {
            return;
        };
        if session.checking_active {
            return;
        }
        session.checking_active = true;
        self.arm_check_timer(ctx, source);
    }

    /// Schedule the next checking round of the session with `source`.
    fn arm_check_timer(&mut self, ctx: &mut Ctx<'_>, source: NodeId) {
        let Some(session) = self.sessions.get_mut(&source) else {
            return;
        };
        self.timer_generation += 1;
        session.timer_generation = self.timer_generation;
        let jitter = ctx.rng().gen_range(0.0..CHECK_JITTER_SECS);
        ctx.schedule_timer(
            Duration::from_secs(self.config.check_period + jitter),
            TimerClass::RoutingAux.token(session.timer_generation),
        );
    }

    /// Emit one round of checking packets for the session with `source`.
    fn run_check_round(&mut self, ctx: &mut Ctx<'_>, source: NodeId) {
        if self.config.hardening {
            // Suspicion is evidence with a half-life: relays that keep
            // behaving recover one checking round at a time.
            self.suspicion.decay_all(SUSPICION_DECAY);
            // Periodic sampler feed: table size after the decay sweep.
            ctx.observe(Observation::SuspicionTable {
                size: self.suspicion.tracked() as u32,
            });
        }
        let Some(session) = self.sessions.get_mut(&source) else {
            return;
        };
        let check_id = session.next_check_id;
        session.next_check_id = check_id.next();
        // Collect (path_index, neighbour, intermediates) for each stored path.
        let mut to_send = Vec::new();
        for (idx, stored) in session.paths.paths().iter().enumerate() {
            let full = &stored.full_path;
            // The neighbour of the destination on this path (previous node).
            let neighbour = if full.len() >= 2 {
                full[full.len() - 2]
            } else {
                continue;
            };
            let intermediates: Vec<NodeId> = stored.intermediates().to_vec();
            to_send.push((idx as u8, neighbour, intermediates));
        }
        for (path_index, neighbour, intermediates) in to_send {
            let check = RouteCheck {
                source,
                destination: self.me,
                check_id,
                hop_count: 0,
                path: intermediates,
                path_index,
            };
            if neighbour == source {
                // Single-hop path: the checking packet goes straight to the source.
                ctx.send_unicast(source, NetPacket::Check(check));
            } else {
                ctx.send_unicast(neighbour, NetPacket::Check(check));
            }
        }
        // Re-arm the periodic timer.
        self.arm_check_timer(ctx, source);
    }

    fn handle_check(&mut self, ctx: &mut Ctx<'_>, from: NodeId, mut check: RouteCheck) {
        let now = ctx.now();
        // Cache the checking id as the entry id of the forward route towards
        // the destination (paper §III-D): `from` is one hop closer to the
        // destination, so it becomes our next hop for data.
        self.table.update(
            check.destination,
            from,
            check.hop_count + 1,
            SeqNo(check.check_id.0),
            now,
        );
        if check.source == self.me {
            // We are the session source: first arrival of a round wins.
            let state = self.sources.entry(check.destination).or_default();
            let mut full_path = vec![check.source];
            full_path.extend_from_slice(&check.path);
            full_path.push(check.destination);
            let switched = state.on_check_arrival(CheckArrival {
                round: check.check_id,
                next_hop: from,
                path: full_path,
                at: now,
            });
            if switched {
                self.route_switches += 1;
            }
            // Any traffic waiting for a route can go now.
            self.flush_buffered(ctx, check.destination);
            return;
        }
        // Intermediate node on the checked path: forward towards the source.
        // The node list excludes the endpoints and is ordered source -> dest;
        // the next hop towards the source is the previous entry (or the source
        // itself if we are the first intermediate).
        let next_towards_source = match check.path.iter().position(|&n| n == self.me) {
            Some(0) => Some(check.source),
            Some(i) => Some(check.path[i - 1]),
            None => None,
        };
        match next_towards_source {
            Some(next) => {
                check.hop_count += 1;
                ctx.send_unicast(next, NetPacket::Check(check));
            }
            None => {
                // We are not on the listed path (stale list); report the path
                // as broken so the destination can drop it.
                self.send_check_error(ctx, &check);
            }
        }
    }

    fn send_check_error(&mut self, ctx: &mut Ctx<'_>, check: &RouteCheck) {
        let now = ctx.now();
        let err = CheckError {
            reporter: self.me,
            destination: check.destination,
            source: check.source,
            check_id: check.check_id,
            path_index: check.path_index,
        };
        if let Some(entry) = self.table.lookup(check.destination, now) {
            ctx.send_unicast(entry.next_hop, NetPacket::CheckErr(err));
        } else {
            ctx.send_broadcast(NetPacket::CheckErr(err));
        }
    }

    fn handle_check_error(&mut self, ctx: &mut Ctx<'_>, err: CheckError) {
        let now = ctx.now();
        if err.destination == self.me {
            // Delete the failed path (paper §III-D) and, if any path remains,
            // keep checking; otherwise the next RREQ will rebuild the set.
            if let Some(session) = self.sessions.get_mut(&err.source) {
                let idx = err.path_index as usize;
                match session.paths.remove(idx) {
                    Some(removed) if self.config.hardening => {
                        // Hardened: a failed check is evidence against every
                        // intermediate of the failed path — the blame is
                        // shared, repeat offenders accumulate it.
                        let inters = removed.intermediates();
                        if !inters.is_empty() {
                            let share = CHECK_FAILURE_PENALTY / inters.len() as f64;
                            let inters = inters.to_vec();
                            for n in inters {
                                self.suspicion.penalize(n, share);
                                self.penalty_log.push((n, self.suspicion.score(n)));
                            }
                            self.flush_suspicion_events(ctx);
                        }
                    }
                    _ => {
                        // Index no longer valid (set already changed) or
                        // unhardened; nothing more to do.
                    }
                }
            }
            return;
        }
        // Forward towards the destination.
        if let Some(entry) = self.table.lookup(err.destination, now) {
            ctx.send_unicast(entry.next_hop, NetPacket::CheckErr(err));
        }
    }

    // ---- errors / link failures -------------------------------------------------------

    /// Handle a route error (by reference — RERRs are broadcast).
    fn handle_rerr(&mut self, ctx: &mut Ctx<'_>, from: NodeId, rerr: &RouteError) {
        let lost = self.table.invalidate_listed(from, rerr);
        // A source whose current route to any listed destination went
        // through `from` must rediscover.  Most RERR copies reach nodes that
        // source nothing.
        if !self.sources.is_empty() {
            for dest in &rerr.unreachable {
                if let Some(state) = self.sources.get_mut(dest) {
                    if state.invalidate_via(from) {
                        self.route_switches += 1;
                        self.start_discovery(ctx, *dest);
                    }
                }
            }
        }
        if !lost.is_empty() {
            // Pass on only the routes lost here, towards the sources we
            // route for, under AODV's rule.
            let rerr = RouteError::new(self.me, from, &lost);
            ctx.send_broadcast(NetPacket::Rerr(rerr));
        }
    }
}

impl RoutingAgent for Mts {
    fn name(&self) -> &'static str {
        "MTS"
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
        // reference so flood copies never touch the shared payload
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
            NetPacket::Rrep(_)
            | NetPacket::Check(_)
            | NetPacket::CheckErr(_)
            | NetPacket::Data(_) => {}
        }
        match ctx.claim_packet(packet) {
            NetPacket::Rrep(r) => {
                self.handle_rrep(ctx, from, r);
                None
            }
            NetPacket::Check(c) => {
                self.handle_check(ctx, from, c);
                None
            }
            NetPacket::CheckErr(e) => {
                self.handle_check_error(ctx, e);
                None
            }
            NetPacket::Data(d) => {
                if d.dst == self.me {
                    Some(d)
                } else if d.src == self.me {
                    // Our own packet bounced back (rare, stale routes): re-route.
                    self.originate_data(ctx, d);
                    None
                } else {
                    self.forward_data(ctx, d, from);
                    None
                }
            }
            _ => unreachable!("filtered above"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if TimerClass::RoutingAux.owns(token) {
            // Periodic checking timer: find the session it belongs to.
            let generation = token.payload();
            let source = self
                .sessions
                .iter()
                .find(|(_, s)| s.timer_generation == generation && s.checking_active)
                .map(|(src, _)| *src);
            if let Some(source) = source {
                self.run_check_round(ctx, source);
            }
            return;
        }
        let now = ctx.now();
        let has_route = |dest| {
            self.sources.get(&dest).and_then(|s| s.next_hop()).is_some()
                || self.table.lookup(dest, now).is_some()
        };
        match self.discovery.on_timer(ctx, self.me, token, has_route) {
            Retry::Resolved(dest) => self.flush_buffered(ctx, dest),
            Retry::Flood(dest) => self.emit_rreq(ctx, dest),
            Retry::GaveUp | Retry::Stale => {}
        }
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        // MAC feedback: the downstream node is gone (paper §III-E).
        let broken = self.table.invalidate_via(next_hop);
        match packet {
            NetPacket::Data(d) => {
                if d.src == self.me {
                    // We are the session source: forget the broken route,
                    // buffer the packet and rediscover.
                    if let Some(state) = self.sources.get_mut(&d.dst) {
                        state.invalidate_via(next_hop);
                    }
                    let dst = d.dst;
                    self.discovery.hold(ctx, self.me, d);
                    self.start_discovery(ctx, dst);
                } else {
                    // Intermediate: notify upstream towards the source; the
                    // packet itself cannot be salvaged here and dies with
                    // the broken link.
                    self.send_rerr_towards_source(ctx, d.src, d.dst);
                    record_data_drop(ctx, self.me, DropReason::SalvageFailed, &d);
                }
            }
            NetPacket::Check(c) => {
                // A checking packet could not be forwarded: tell the
                // destination so it deletes the path (paper §III-D).
                self.send_check_error(ctx, &c);
            }
            NetPacket::Rrep(_)
            | NetPacket::Rerr(_)
            | NetPacket::CheckErr(_)
            | NetPacket::Rreq(_) => {
                // Control packet lost; rely on retries / the next round.
            }
        }
        if !broken.is_empty() {
            let rerr = RouteError::new(self.me, next_hop, &broken);
            ctx.send_broadcast(NetPacket::Rerr(rerr));
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
    fn constructor_validates_config() {
        let m = Mts::new(NodeId(1), MtsConfig::default());
        assert_eq!(m.name(), "MTS");
        assert_eq!(m.me(), NodeId(1));
        assert_eq!(m.config().max_paths, 5);
        assert_eq!(m.route_switches(), 0);
        assert_eq!(m.stored_paths_for(NodeId(0)), 0);
        assert!(m.source_state(NodeId(9)).is_none());
    }

    fn rrep(source: u16, dest: u16, via: u16, seqno: u32) -> RouteReply {
        RouteReply {
            source: NodeId(source),
            destination: NodeId(dest),
            reply_id: BroadcastId(1),
            hop_count: 1,
            route: vec![NodeId(via)],
            dest_seqno: SeqNo(seqno),
        }
    }

    #[test]
    fn hardened_source_quarantines_forged_replies_and_penalizes_on_probe() {
        let mut m = Mts::new(NodeId(0), MtsConfig::default().hardened());
        // Two colluding black holes' forgeries, delivered by relays 4 and 6:
        // both claims are quarantined (neither displaces the other).
        assert!(m.hardened_rrep_is_suspicious(NodeId(4), &rrep(0, 9, 4, 0x00FF_FFFF)));
        assert!(m.hardened_rrep_is_suspicious(NodeId(6), &rrep(0, 9, 6, 0x00FF_FFFE)));
        assert_eq!(m.quarantined_relays(NodeId(9)), &[NodeId(4), NodeId(6)]);
        // The disjoint probe answers credibly through relay 5: the quarantine
        // resolves and BOTH unconfirmed forgers earn the penalty.
        let genuine = rrep(0, 9, 5, 3);
        assert!(!m.hardened_rrep_is_suspicious(NodeId(5), &genuine));
        assert!(m.quarantined_relays(NodeId(9)).is_empty());
        assert!(m.suspicion().score(NodeId(4)) > 0.0);
        assert!(m.suspicion().score(NodeId(6)) > 0.0);
        assert_eq!(m.suspicion().score(NodeId(5)), 0.0);
        // Genuine progress over the learned baseline stays credible.
        assert!(!m.hardened_rrep_is_suspicious(NodeId(5), &rrep(0, 9, 5, 40)));
    }

    #[test]
    fn hardened_intermediate_discards_suspicious_replies_without_quarantine() {
        // Node 2 forwards replies of a session it does not source: a forged
        // reply is classified suspicious (dropped by handle_rrep) but no
        // quarantine entry is created.
        let mut m = Mts::new(NodeId(2), MtsConfig::default().hardened());
        let forged = rrep(0, 9, 4, 0x00FF_FFFF);
        assert!(m.hardened_rrep_is_suspicious(NodeId(4), &forged));
        assert!(m.quarantined_relays(NodeId(9)).is_empty());
    }

    #[test]
    fn suspect_relays_are_distrusted_even_with_credible_seqnos() {
        let config = MtsConfig::default().hardened();
        let mut m = Mts::new(NodeId(0), config);
        m.suspicion.penalize(NodeId(4), SUSPICION_THRESHOLD);
        // Same credible sequence number: trusted relay passes, suspect fails.
        assert!(!m.hardened_rrep_is_suspicious(NodeId(5), &rrep(0, 9, 5, 2)));
        assert!(m.hardened_rrep_is_suspicious(NodeId(4), &rrep(0, 9, 4, 2)));
    }

    #[test]
    fn unhardened_agent_keeps_no_hardening_state() {
        let m = Mts::new(NodeId(1), MtsConfig::default());
        assert_eq!(m.suspicion().tracked(), 0);
        assert!(m.quarantined_relays(NodeId(9)).is_empty());
        assert!(!m.config().hardening);
    }

    #[test]
    #[should_panic(expected = "invalid MTS configuration")]
    fn invalid_config_panics() {
        let _ = Mts::new(
            NodeId(0),
            MtsConfig {
                max_paths: 0,
                ..Default::default()
            },
        );
    }
}
