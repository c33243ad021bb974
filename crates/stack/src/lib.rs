//! # manet-stack
//!
//! The per-node protocol stack used by the experiment runs.
//!
//! A [`ManetStack`] glues together, for one node:
//!
//! * a routing agent (DSR, AODV or MTS) that moves network packets,
//! * a **connection table**: any number of TCP Reno endpoints (senders and/or
//!   receivers), keyed by [`ConnectionId`] — inbound segments are demultiplexed
//!   to the owning endpoint by the connection id their data packet carries,
//! * the per-run recorder (data-packet originations are registered here so
//!   the delivery-rate metric sees packets even if routing drops them).
//!
//! Historically (through PR 4) a node held at most one `TcpRole` — sender
//! *xor* receiver *xor* pure router — which capped every scenario at one flow
//! endpoint per node.  The connection table makes the paper's single bulk
//! flow the degenerate one-entry case (asserted byte-identical by the golden
//! trace tests) while letting traffic-matrix scenarios terminate dozens of
//! concurrent flows on one node.
//!
//! Timer multiplexing uses the [`TimerClass`] namespaces; transport timers
//! and flow start timers are additionally *connection-scoped* through
//! [`TimerClass::scoped_token`], so two flows' retransmission timers on the
//! same node can never be confused.

use manet_netsim::fasthash::FxHashMap;
use manet_netsim::telemetry;
use manet_netsim::{Ctx, Duration, NodeStack, Observation, SimTime, TimerToken};
use manet_routing::agent::{RoutingAgent, TimerClass};
use manet_tcp::{FlowProfile, TcpConfig, TcpOutcome, TcpReceiver, TcpSender};
use manet_wire::{
    ConnectionId, DataPacket, Frame, NetPacket, NodeId, PacketId, SharedPacket, TcpSegment,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregate TCP statistics of one run, summed over every flow by the stacks
/// at run end.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TcpRunStats {
    /// Bytes acknowledged end-to-end (sender side).
    pub bytes_acked: u64,
    /// Data segments transmitted by the senders (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
    /// Data segments received at the sinks (including out-of-order duplicates).
    pub segments_received: u64,
    /// Distinct in-order bytes delivered to the receiving applications.
    pub bytes_delivered: u64,
    /// Out-of-order arrivals at the sinks.
    pub out_of_order: u64,
    /// Route switches performed by the routing layer at sender nodes.
    pub route_switches: u64,
}

/// End-of-run TCP statistics of one flow (one connection-table entry pair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowTcpStats {
    /// TCP sender node.
    pub src: NodeId,
    /// TCP receiver node.
    pub dst: NodeId,
    /// Bytes acknowledged end-to-end (sender side).
    pub bytes_acked: u64,
    /// Distinct in-order bytes delivered to the receiving application.
    pub bytes_delivered: u64,
    /// Data segments received at the sink (incl. duplicates / out-of-order).
    pub segments_received: u64,
    /// Out-of-order arrivals at the sink.
    pub out_of_order: u64,
    /// Seconds from run start until the flow's whole byte budget was
    /// acknowledged (`None` while incomplete or for unbounded flows).
    pub completion_secs: Option<f64>,
}

impl Default for FlowTcpStats {
    fn default() -> Self {
        FlowTcpStats {
            src: NodeId(0),
            dst: NodeId(0),
            bytes_acked: 0,
            bytes_delivered: 0,
            segments_received: 0,
            out_of_order: 0,
            completion_secs: None,
        }
    }
}

/// Everything the stacks report about a run's TCP traffic: the aggregate
/// counters plus one row per connection.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TcpRunReport {
    /// Counters summed over every flow.
    pub aggregate: TcpRunStats,
    /// Per-flow statistics, keyed by the raw connection id (a `BTreeMap` so
    /// iteration order is deterministic for reports).
    pub flows: BTreeMap<u32, FlowTcpStats>,
}

impl TcpRunReport {
    /// The per-flow row of `conn`, created default if absent.
    fn flow_mut(&mut self, conn: ConnectionId) -> &mut FlowTcpStats {
        self.flows.entry(conn.0).or_default()
    }
}

/// Shared, thread-safe handle to the run's TCP report.
pub type SharedTcpStats = Arc<Mutex<TcpRunReport>>;

/// One TCP endpoint terminated at this node.
enum TcpEndpoint {
    /// Sender towards `peer`.
    Sender {
        peer: NodeId,
        sender: Box<TcpSender>,
    },
    /// Receiving sink; ACKs go back to `peer`.
    Receiver {
        peer: NodeId,
        receiver: Box<TcpReceiver>,
    },
    /// Analytic background flow towards `peer` (hybrid engine): no segments,
    /// no timers, no per-packet state — the flow's bytes move through the
    /// engine's fluid model and the endpoint only copies the fluid ledger
    /// into the run report at run end.
    Fluid { peer: NodeId },
}

/// The full protocol stack of one node.
pub struct ManetStack {
    me: NodeId,
    agent: Box<dyn RoutingAgent>,
    /// Connection table: inbound segments demux here by [`ConnectionId`].
    conns: FxHashMap<ConnectionId, TcpEndpoint>,
    /// Insertion order of the table, for deterministic start-up pumping.
    order: Vec<ConnectionId>,
    /// Monotonic counter for globally unique data-packet ids.
    next_packet: u64,
    stats: SharedTcpStats,
}

impl ManetStack {
    /// Build the stack for node `me` with an empty connection table; add
    /// endpoints with [`ManetStack::add_sender`] / [`ManetStack::add_receiver`].
    /// `stats` is the shared sink for end-of-run TCP statistics.
    pub fn new(me: NodeId, agent: Box<dyn RoutingAgent>, stats: SharedTcpStats) -> Self {
        ManetStack {
            me,
            agent,
            conns: FxHashMap::default(),
            order: Vec::new(),
            next_packet: 0,
            stats,
        }
    }

    fn insert(&mut self, conn: ConnectionId, endpoint: TcpEndpoint) {
        assert!(
            conn.0 <= u16::MAX.into(),
            "connection ids must fit the 16-bit timer scope (got {})",
            conn.0
        );
        let prev = self.conns.insert(conn, endpoint);
        assert!(
            prev.is_none(),
            "connection {} already terminates at node {}",
            conn.0,
            self.me
        );
        self.order.push(conn);
    }

    /// Terminate the sending side of `conn` at this node: a TCP Reno sender
    /// towards `peer`, opened and capped by `profile`.
    pub fn add_sender(
        &mut self,
        conn: ConnectionId,
        peer: NodeId,
        tcp: TcpConfig,
        profile: FlowProfile,
    ) {
        self.insert(
            conn,
            TcpEndpoint::Sender {
                peer,
                sender: Box::new(TcpSender::with_profile(conn, tcp, profile)),
            },
        );
    }

    /// Terminate the receiving side of `conn` at this node; ACKs go back to
    /// `peer`.
    pub fn add_receiver(&mut self, conn: ConnectionId, peer: NodeId) {
        self.insert(
            conn,
            TcpEndpoint::Receiver {
                peer,
                receiver: Box::new(TcpReceiver::new(conn)),
            },
        );
    }

    /// Terminate the sending side of a *fluid* (analytic background) flow of
    /// `conn` at this node.  The flow itself runs inside the engine's fluid
    /// model ([`manet_netsim::FluidConfig::explicit`]); this lightweight
    /// endpoint only surfaces its ledger row in the TCP run report.
    pub fn add_fluid(&mut self, conn: ConnectionId, peer: NodeId) {
        self.insert(conn, TcpEndpoint::Fluid { peer });
    }

    /// Number of TCP endpoints terminated at this node.
    pub fn endpoint_count(&self) -> usize {
        self.conns.len()
    }

    fn fresh_packet_id(&mut self) -> PacketId {
        let id = PacketId((u64::from(self.me.0) << 40) | self.next_packet);
        self.next_packet += 1;
        id
    }

    /// Wrap a TCP segment into a data packet and hand it to the routing agent.
    fn send_segment(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, segment: TcpSegment) {
        let id = self.fresh_packet_id();
        let packet = DataPacket::new(id, self.me, dst, segment);
        ctx.observe(Observation::Originate {
            node: self.me,
            packet: &packet,
        });
        self.agent.send_data(ctx, packet);
    }

    /// A protocol timer of `class` fired on this node.
    fn note_timer(&self, ctx: &mut Ctx<'_>, class: telemetry::TimerClass, scope: u16) {
        ctx.observe(Observation::Timer {
            node: self.me,
            class,
            scope,
        });
    }

    /// Apply a [`TcpOutcome`] of connection `conn`: transmit segments and
    /// schedule the (connection-scoped) retransmission timer event at its
    /// instant.
    fn apply_outcome(
        &mut self,
        ctx: &mut Ctx<'_>,
        conn: ConnectionId,
        dst: NodeId,
        outcome: TcpOutcome,
    ) {
        for seg in outcome.segments {
            self.send_segment(ctx, dst, seg);
        }
        if let Some(timer) = outcome.timer {
            ctx.schedule_timer_at(
                timer.at,
                TimerClass::Transport.scoped_token(conn.0 as u16, timer.generation),
            );
        }
    }

    /// Drive the sender of `conn` with `drive`, then apply the outcome.
    fn drive_sender<F>(&mut self, ctx: &mut Ctx<'_>, conn: ConnectionId, drive: F)
    where
        F: FnOnce(&mut TcpSender, SimTime) -> TcpOutcome,
    {
        let now = ctx.now();
        if let Some(TcpEndpoint::Sender { peer, sender }) = self.conns.get_mut(&conn) {
            let peer = *peer;
            let was_complete = sender.completion_time().is_some();
            let outcome = drive(sender, now);
            let just_completed = !was_complete && sender.completion_time().is_some();
            let bytes = sender.bytes_acked();
            self.apply_outcome(ctx, conn, peer, outcome);
            if just_completed {
                ctx.observe(Observation::FlowComplete {
                    node: self.me,
                    conn: conn.0,
                    bytes,
                });
            }
        }
    }

    /// Process a data packet the routing layer says terminates at this node,
    /// demultiplexing the carried segment to its connection's endpoint.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, packet: DataPacket) {
        let conn = packet.segment.conn;
        match self.conns.get_mut(&conn) {
            Some(TcpEndpoint::Receiver { peer, receiver }) if packet.segment.carries_data() => {
                let ack = receiver.on_segment(&packet.segment);
                let peer = *peer;
                self.send_segment(ctx, peer, ack);
            }
            Some(TcpEndpoint::Sender { .. })
                if packet.segment.flags.ack && !packet.segment.carries_data() =>
            {
                let segment = packet.segment;
                self.drive_sender(ctx, conn, |s, now| s.on_ack(&segment, now));
            }
            // A pure ACK reflected to a receiver, data arriving at a sender,
            // or a packet terminating at a node with no endpoint for its
            // connection: nothing to do (it still counted as delivered in
            // the recorder).
            _ => {}
        }
    }
}

impl NodeStack for ManetStack {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.agent.start(ctx);
        for i in 0..self.order.len() {
            let conn = self.order[i];
            let start = match self.conns.get(&conn) {
                Some(TcpEndpoint::Sender { sender, .. }) => sender.profile().start,
                _ => continue,
            };
            if start > 0.0 {
                // Staggered flow: open it with an application timer.
                ctx.schedule_timer(
                    Duration::from_secs(start),
                    TimerClass::Application.scoped_token(conn.0 as u16, 0),
                );
            } else {
                self.drive_sender(ctx, conn, |s, now| s.pump(now));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        if TimerClass::Transport.owns(token) {
            self.note_timer(ctx, telemetry::TimerClass::Transport, token.scope());
            let conn = ConnectionId(u32::from(token.scope()));
            let generation = token.seq();
            self.drive_sender(ctx, conn, |s, now| s.on_timer(generation, now));
            return;
        }
        if TimerClass::Application.owns(token) {
            self.note_timer(ctx, telemetry::TimerClass::Application, token.scope());
            // A staggered flow opens.
            let conn = ConnectionId(u32::from(token.scope()));
            self.drive_sender(ctx, conn, |s, now| s.pump(now));
            return;
        }
        // Routing (and RoutingAux) timers go to the agent; unknown classes are
        // ignored.
        if TimerClass::Routing.owns(token) {
            self.note_timer(ctx, telemetry::TimerClass::Routing, token.scope());
        } else if TimerClass::RoutingAux.owns(token) {
            self.note_timer(ctx, telemetry::TimerClass::RoutingAux, token.scope());
        }
        self.agent.on_timer(ctx, token);
    }

    fn on_receive(&mut self, ctx: &mut Ctx<'_>, from: NodeId, packet: SharedPacket) {
        if let Some(delivered) = self.agent.on_packet(ctx, from, packet) {
            self.deliver(ctx, delivered);
        }
    }

    fn on_promiscuous(&mut self, _ctx: &mut Ctx<'_>, _frame: &Frame) {
        // Promiscuous captures are accounted by the engine's recorder; the
        // eavesdropper needs no protocol behaviour of its own.
    }

    fn on_link_failure(&mut self, ctx: &mut Ctx<'_>, next_hop: NodeId, packet: NetPacket) {
        self.agent.on_link_failure(ctx, next_hop, packet);
    }

    fn on_run_end(&mut self, ctx: &mut Ctx<'_>) {
        let mut report = self.stats.lock();
        let mut any_sender = false;
        for conn in &self.order {
            match &self.conns[conn] {
                TcpEndpoint::Sender { peer, sender } => {
                    any_sender = true;
                    let agg = &mut report.aggregate;
                    agg.bytes_acked += sender.bytes_acked();
                    agg.segments_sent += sender.segments_sent();
                    agg.retransmissions += sender.retransmissions();
                    agg.timeouts += sender.timeouts();
                    agg.fast_retransmits += sender.fast_retransmits();
                    let flow = report.flow_mut(*conn);
                    flow.src = self.me;
                    flow.dst = *peer;
                    flow.bytes_acked = sender.bytes_acked();
                    flow.completion_secs = sender.completion_time().map(|t| t.as_secs());
                }
                TcpEndpoint::Receiver { peer, receiver } => {
                    let r = receiver.stats();
                    let agg = &mut report.aggregate;
                    agg.segments_received += r.segments_received;
                    agg.bytes_delivered += r.bytes_delivered;
                    agg.out_of_order += r.out_of_order;
                    let flow = report.flow_mut(*conn);
                    flow.src = *peer;
                    flow.dst = self.me;
                    flow.bytes_delivered = r.bytes_delivered;
                    flow.segments_received = r.segments_received;
                    flow.out_of_order = r.out_of_order;
                }
                TcpEndpoint::Fluid { peer } => {
                    // Copy the engine's fluid ledger row (the engine flushes
                    // it before run end).  Fluid bytes deliberately stay out
                    // of the aggregate TCP counters: they never crossed the
                    // packet pipeline, so folding them in would break the
                    // per-segment conservation invariants.
                    let peer = *peer;
                    let totals = ctx.recorder().fluid_flow(conn.0);
                    let flow = report.flow_mut(*conn);
                    flow.src = self.me;
                    flow.dst = peer;
                    if let Some(t) = totals {
                        flow.bytes_acked = t.delivered_bytes;
                        flow.bytes_delivered = t.delivered_bytes;
                        flow.completion_secs = t.completion_secs;
                    }
                }
            }
        }
        if any_sender {
            report.aggregate.route_switches += self.agent.route_switches();
        }
    }
}

#[cfg(test)]
mod tests;
