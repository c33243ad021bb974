//! Scenario construction.
//!
//! A [`Scenario`] bundles everything one simulation run needs: the simulator
//! configuration (field, mobility, MAC), the routing protocol, the TCP
//! parameters, the traffic flows, the eavesdropper choice and the node
//! [`Placement`].  The [`Scenario::paper`] constructor reproduces the
//! environment of Section IV-A, and [`Scenario::from_key`] one grid run.

use crate::protocol::Protocol;
use manet_adversary::{AttackConfig, AttackKind};
use manet_netsim::rng::RngStreams;
use manet_netsim::{Duration, FluidConfig, FluidFlowSpec, Position, SimConfig};
use manet_security::select_eavesdropper;
use manet_tcp::{FlowProfile, TcpConfig};
use manet_wire::NodeId;
use mts_core::MtsConfig;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// One flow of a scenario: the endpoint pair plus its start time and byte
/// budget.
///
/// Every packet-level flow is a bulk TCP transfer, the paper's traffic model;
/// [`TrafficFlow::bulk`] — unbounded, from time 0 — is the default
/// everywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficFlow {
    /// TCP sender node.
    pub src: NodeId,
    /// TCP receiver node.
    pub dst: NodeId,
    /// Simulated seconds after run start at which the flow opens.
    pub start: f64,
    /// Total byte budget (`None` sends for the whole run).
    pub bytes: Option<u64>,
    /// Run this flow through the engine's analytic fluid model instead of
    /// the packet-level TCP pipeline (hybrid traffic engine).  Fluid flows
    /// cost O(epochs), not O(packets); use them for background load whose
    /// per-segment dynamics the experiment does not study.
    pub fluid: bool,
}

impl TrafficFlow {
    /// The paper's flow: unbounded bulk transfer from time 0.
    pub fn bulk(src: NodeId, dst: NodeId) -> Self {
        TrafficFlow {
            src,
            dst,
            start: 0.0,
            bytes: None,
            fluid: false,
        }
    }

    /// An analytic fluid flow (unbounded, from time 0): modelled by the
    /// engine's background fluid layer rather than packet-level TCP.  Its
    /// demand rate comes from the scenario's [`FluidConfig`] (see
    /// [`Scenario::with_background`]); defaults apply when none is set.
    pub fn fluid(src: NodeId, dst: NodeId) -> Self {
        TrafficFlow {
            fluid: true,
            ..TrafficFlow::bulk(src, dst)
        }
    }

    /// The transport-layer profile of this flow.
    pub fn profile(&self) -> FlowProfile {
        FlowProfile {
            start: self.start,
            bytes: self.bytes,
        }
    }
}

/// Where a scenario's nodes are and how they move.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Placement {
    /// Random waypoint over the field with `sim.mobility`'s speeds and
    /// pause (the paper's model; a mobile-eavesdropper attack steers the
    /// eavesdropper's legs).
    #[default]
    Waypoint,
    /// Node `i` stays at position `i` for the whole run (the hand-placed
    /// topologies of the paper's Figs. 1–4).  Positions may lie outside the
    /// field.
    Static(Vec<Position>),
}

/// One run of the experiment grid, built by [`Scenario::from_key`]: the
/// paper's environment at one protocol, attack, speed, seed and duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunKey {
    /// Routing protocol under test.
    pub protocol: Protocol,
    /// Adversary of the run ([`AttackConfig::none`] for the clean grid).
    pub attack: AttackConfig,
    /// Maximum node speed, m/s.
    pub max_speed: f64,
    /// Run seed.
    pub seed: u64,
    /// Simulated duration, seconds.
    pub duration: f64,
}

/// `PROTOCOL/ATTACK/SPEED/SEED/SECS`, e.g. `MTS-H/blackhole(x2)/10/1/30`:
/// the protocol's name, the attack's row label in the attack matrix, the
/// speed in m/s, the seed and the simulated seconds.
impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let RunKey {
            protocol,
            attack,
            max_speed,
            seed,
            duration,
        } = self;
        write!(f, "{protocol}/{attack}/{max_speed}/{seed}/{duration}")
    }
}

/// Reads what [`RunKey`]'s `Display` writes, the `/SECS` optional (the
/// paper's 200 s): a protocol of [`Protocol::WITH_HARDENED`], an attack of
/// [`AttackConfig::canonical_matrix`], a finite speed >= 0, a whole-number
/// seed and a finite duration > 0.  The error names the field at fault.
///
/// ```
/// use manet_experiments::{Protocol, RunKey};
///
/// let key: RunKey = "MTS-H/blackhole(x2)/10/1/30".parse().unwrap();
/// assert_eq!((key.protocol, key.seed, key.duration), (Protocol::MtsHardened, 1, 30.0));
/// assert_eq!(key.to_string().parse::<RunKey>(), Ok(key));
/// assert!("MTS/blackhole(x9)/10/1".parse::<RunKey>().is_err());
/// ```
impl FromStr for RunKey {
    type Err = String;

    fn from_str(key: &str) -> Result<Self, String> {
        let (name, label, speed, seed, secs) = match key.split('/').collect::<Vec<_>>()[..] {
            [p, a, v, s] => (p, a, v, s, "200"),
            [p, a, v, s, d] => (p, a, v, s, d),
            _ => return Err(format!("{key:?} is not PROTOCOL/ATTACK/SPEED/SEED[/SECS]")),
        };
        let Some(protocol) = Protocol::WITH_HARDENED
            .into_iter()
            .find(|p| p.name() == name)
        else {
            return Err(format!("unknown protocol {name:?}"));
        };
        let mut attacks = AttackConfig::canonical_matrix().into_iter();
        let Some(attack) = attacks.find(|a| a.to_string() == label) else {
            return Err(format!("unknown attack {label:?}"));
        };
        let number = |what: &str, v: &str, ok: fn(&f64) -> bool| {
            let x = v.parse().ok().filter(ok);
            x.ok_or(format!("{what} {v:?} is out of range"))
        };
        Ok(RunKey {
            protocol,
            attack,
            max_speed: number("speed", speed, |v| v.is_finite() && *v >= 0.0)?,
            seed: seed
                .parse()
                .map_err(|_| format!("seed {seed:?} is not a whole number"))?,
            duration: number("duration", secs, |d| d.is_finite() && *d > 0.0)?,
        })
    }
}

/// A complete experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulator configuration (nodes, field, MAC, mobility, duration, seed).
    pub sim: SimConfig,
    /// Routing protocol under test.
    pub protocol: Protocol,
    /// MTS parameters (ignored by the baselines).
    pub mts: MtsConfig,
    /// TCP Reno parameters.
    pub tcp: TcpConfig,
    /// Flows (the paper uses a single bulk flow; [`Scenario::scaled`] and
    /// [`Scenario::random_pairs`] build many, and a flow may start late,
    /// carry a byte budget or run as fluid background).  Flow `i` runs as
    /// connection `i`.
    pub flows: Vec<TrafficFlow>,
    /// The designated eavesdropping node (never a traffic endpoint).
    pub eavesdropper: Option<NodeId>,
    /// The adversary model active in this run (clean by default).
    pub attack: AttackConfig,
    /// Hostile nodes (black holes / jammers), drawn deterministically from
    /// the scenario seed by [`Scenario::with_attack`]; empty for passive or
    /// clean runs.
    pub attackers: Vec<NodeId>,
    /// Node placement and movement.
    pub placement: Placement,
}

impl Scenario {
    /// The paper's environment: 50 nodes, 1000 m × 1000 m, 250 m range,
    /// random waypoint (0..max_speed, 1 s pause), one bulk TCP-Reno flow
    /// between a random source/destination pair, one random intermediate node
    /// acting as the eavesdropper, 200 s of simulated time.
    ///
    /// The traffic endpoints and the eavesdropper are drawn from the
    /// scenario's own random stream, so two protocols run with the same
    /// `seed` see the same endpoints and eavesdropper — the paired comparison
    /// the paper's figures rely on.
    ///
    /// # Examples
    ///
    /// ```
    /// use manet_experiments::{Protocol, Scenario};
    /// use manet_adversary::AttackConfig;
    ///
    /// // The clean paper environment at 10 m/s ...
    /// let clean = Scenario::paper(Protocol::Mts, 10.0, 1);
    /// clean.validate().unwrap();
    /// assert_eq!(clean.sim.num_nodes, 50);
    /// assert!(clean.attackers.is_empty());
    ///
    /// // ... and the same seed armed with two black-hole relays: the
    /// // endpoints and eavesdropper draw is unchanged, the attackers are
    /// // placed deterministically away from them.
    /// let hostile = Scenario::paper(Protocol::Mts, 10.0, 1)
    ///     .with_attack(AttackConfig::blackhole(2));
    /// hostile.validate().unwrap();
    /// assert_eq!(hostile.flows, clean.flows);
    /// assert_eq!(hostile.attackers.len(), 2);
    /// ```
    pub fn paper(protocol: Protocol, max_speed: f64, seed: u64) -> Self {
        let sim = SimConfig::paper_environment(max_speed, seed);
        Self::from_sim(protocol, sim)
    }

    /// [`Scenario::paper`] at the key's protocol, speed and seed, run for the
    /// key's duration with its attack armed ([`Scenario::with_attack`]).
    pub fn from_key(key: &RunKey) -> Self {
        let mut scenario = Self::paper(key.protocol, key.max_speed, key.seed);
        scenario.sim.duration = Duration::from_secs(key.duration);
        scenario.with_attack(key.attack)
    }

    /// Build a scenario from an explicit simulator configuration, drawing the
    /// endpoints and the eavesdropper from the configuration's seed.
    ///
    /// # Panics
    /// Panics when `sim` has fewer than two nodes: the flow needs two
    /// distinct endpoints.
    pub fn from_sim(protocol: Protocol, sim: SimConfig) -> Self {
        assert!(
            sim.num_nodes >= 2,
            "a scenario needs at least 2 nodes for its flow's endpoints, got {}",
            sim.num_nodes
        );
        let mut rngs = RngStreams::new(sim.seed);
        let scen_rng = rngs.scenario();
        let n = sim.num_nodes;
        let src = NodeId(scen_rng.gen_range(0..n));
        let dst = loop {
            let d = NodeId(scen_rng.gen_range(0..n));
            if d != src {
                break d;
            }
        };
        let eavesdropper = select_eavesdropper(n, &[src, dst], scen_rng);
        Scenario {
            sim,
            protocol,
            mts: MtsConfig::default(),
            tcp: TcpConfig::default(),
            flows: vec![TrafficFlow::bulk(src, dst)],
            eavesdropper,
            attack: AttackConfig::none(),
            attackers: Vec::new(),
            placement: Placement::Waypoint,
        }
    }

    /// The paper's environment scaled to `num_nodes` (field grown to keep the
    /// 50-nodes-per-km² density), with one flow per started 100 nodes so the
    /// traffic load grows with the network.  This is the scenario family of
    /// `reproduce trace`, the benchmark's `scale_flood` workload and the
    /// release-scale equivalence tests; `num_nodes` of 100 / 200 / 500 / 1000
    /// / 2000 are the canonical points.
    pub fn scaled(protocol: Protocol, num_nodes: u16, max_speed: f64, seed: u64) -> Self {
        let sim = SimConfig::scaled_environment(num_nodes, max_speed, seed);
        let mut scenario = Self::from_sim(protocol, sim);
        let extra_flows = (usize::from(num_nodes).div_ceil(100)).saturating_sub(1);
        if extra_flows > 0 {
            // Extra endpoints come from a salted stream so the first flow and
            // the eavesdropper stay identical to the unscaled draw for the
            // same seed (paired protocol comparisons rely on that).
            let mut rngs = RngStreams::new(scenario.sim.seed ^ 0x5ca1_ab1e);
            let scen_rng = rngs.scenario();
            let mut taken: Vec<NodeId> = scenario.endpoints();
            taken.extend(scenario.eavesdropper);
            for _ in 0..extra_flows {
                let mut draw = |taken: &[NodeId]| loop {
                    let d = NodeId(scen_rng.gen_range(0..num_nodes));
                    if !taken.contains(&d) {
                        break d;
                    }
                };
                let src = draw(&taken);
                taken.push(src);
                let dst = draw(&taken);
                taken.push(dst);
                scenario.flows.push(TrafficFlow::bulk(src, dst));
            }
        }
        scenario
    }

    /// Random-pairs traffic matrix: `num_flows` flows between uniformly drawn
    /// endpoint pairs.  Endpoints may repeat across flows (a node can
    /// terminate several senders and receivers concurrently); only the
    /// designated eavesdropper is excluded from the draws.
    ///
    /// The first flow and the eavesdropper match [`Scenario::scaled`] at the
    /// same seed.  This is the scenario family behind the benchmark's
    /// `flows_congested` workload and the hybrid collapse curve
    /// (`tests/hybrid.rs`).
    pub fn random_pairs(
        protocol: Protocol,
        num_nodes: u16,
        num_flows: u16,
        max_speed: f64,
        seed: u64,
    ) -> Self {
        let sim = SimConfig::scaled_environment(num_nodes, max_speed, seed);
        let mut scenario = Self::from_sim(protocol, sim);
        let mut rngs = RngStreams::new(scenario.sim.seed ^ 0x9a1b_5eed);
        let rng = rngs.scenario();
        let eve = scenario.eavesdropper;
        let mut draw = |avoid: Option<NodeId>| loop {
            let c = NodeId(rng.gen_range(0..num_nodes));
            if Some(c) != eve && Some(c) != avoid {
                break c;
            }
        };
        for _ in 1..num_flows {
            let src = draw(None);
            let dst = draw(Some(src));
            scenario.flows.push(TrafficFlow::bulk(src, dst));
        }
        scenario
    }

    /// Stagger the flows' start times: flow `i` opens at `i * gap_secs`.
    /// Flow 0 keeps starting at 0, so single-flow scenarios are unchanged.
    pub fn with_flow_stagger(mut self, gap_secs: f64) -> Self {
        for (i, flow) in self.flows.iter_mut().enumerate() {
            flow.start = i as f64 * gap_secs;
        }
        self
    }

    /// Scenario with explicit flows and no designated eavesdropper (examples,
    /// tests).
    pub fn custom(protocol: Protocol, sim: SimConfig, flows: Vec<TrafficFlow>) -> Self {
        Scenario {
            sim,
            protocol,
            mts: MtsConfig::default(),
            tcp: TcpConfig::default(),
            flows,
            eavesdropper: None,
            attack: AttackConfig::none(),
            attackers: Vec::new(),
            placement: Placement::Waypoint,
        }
    }

    /// Every node that terminates a TCP flow (excluded from eavesdropping
    /// and from hostile placement).
    ///
    /// Node ids are deduplicated: flows sharing an endpoint — random pairs
    /// that drew the same node, a node with both a sender and a receiver —
    /// contribute it once.  Callers (eavesdropper selection, attacker placement,
    /// coalition exclusion lists) rely on this list being duplicate-free.
    pub fn endpoints(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.flows.len() * 2);
        for f in &self.flows {
            if !v.contains(&f.src) {
                v.push(f.src);
            }
            if !v.contains(&f.dst) {
                v.push(f.dst);
            }
        }
        v
    }

    /// Override the MTS configuration (ablation studies).
    pub fn with_mts_config(mut self, mts: MtsConfig) -> Self {
        self.mts = mts;
        self
    }

    /// Arm an adversary for this run.
    ///
    /// Hostile nodes (black holes, jammers, wormhole endpoints, rushers) are
    /// drawn from a salted stream of the scenario seed, excluding the traffic
    /// endpoints and the designated eavesdropper — so two protocols at the
    /// same seed face the *same* attackers, preserving the paired comparisons
    /// the figures rely on.  Jamming, wormhole and rushing attacks
    /// additionally install their engine-level hooks
    /// ([`manet_netsim::JamConfig`], [`manet_netsim::WormholeConfig`],
    /// [`manet_netsim::RushConfig`]); re-arming replaces any previous attack.
    pub fn with_attack(mut self, attack: AttackConfig) -> Self {
        self.attack = attack;
        self.attackers.clear();
        self.sim.jamming = None;
        self.sim.wormhole = None;
        self.sim.rush = None;
        let needed = attack.attackers_needed();
        if needed > 0 {
            let mut rngs = RngStreams::new(self.sim.seed ^ 0xad5e_7a11);
            let rng = rngs.scenario();
            let n = self.sim.num_nodes;
            let mut taken: Vec<NodeId> = self.endpoints();
            taken.extend(self.eavesdropper);
            for _ in 0..needed {
                if taken.len() >= n as usize {
                    break; // network too small; validate() reports it
                }
                let attacker = loop {
                    let c = NodeId(rng.gen_range(0..n));
                    if !taken.contains(&c) {
                        break c;
                    }
                };
                taken.push(attacker);
                self.attackers.push(attacker);
            }
        }
        self.sim.jamming = self.attack.jam_config(&self.attackers);
        self.sim.wormhole = self.attack.wormhole_config(&self.attackers);
        self.sim.rush = self.attack.rush_config(&self.attackers);
        self
    }

    /// Enable structured telemetry for this run.  The collected events ride
    /// on the recorder returned by
    /// [`run_scenario_with_recorder`](crate::runner::run_scenario_with_recorder)
    /// (`recorder.telemetry.events()`); telemetry observes the run without
    /// perturbing it, so enabling it leaves every metric and trace digest
    /// unchanged.
    pub fn with_telemetry(mut self, telemetry: manet_netsim::TelemetryConfig) -> Self {
        self.sim.telemetry = telemetry;
        self
    }

    /// Enable the background fluid-traffic layer for this run (hybrid
    /// engine; see [`manet_netsim::fluid`]).  Generated background flows
    /// come from `background.flows`; scenario flows marked
    /// [`TrafficFlow::fluid`] additionally run through the same model (they
    /// are injected as explicit fluid specs by [`Scenario::effective_sim`]).
    pub fn with_background(mut self, background: FluidConfig) -> Self {
        self.sim.background = Some(background);
        self
    }

    /// The simulator configuration the run actually executes: `sim` with
    /// every fluid-marked scenario flow injected into the background layer's
    /// explicit flow list (connection id = flow index, matching the
    /// packet-flow convention).  Without fluid flows this is a plain clone —
    /// scenarios that never touch the hybrid engine are unaffected.
    pub fn effective_sim(&self) -> SimConfig {
        let mut sim = self.sim.clone();
        if self.flows.iter().any(|f| f.fluid) {
            let bg = sim.background.get_or_insert_with(|| FluidConfig {
                flows: 0,
                ..FluidConfig::default()
            });
            for (idx, flow) in self.flows.iter().enumerate().filter(|(_, f)| f.fluid) {
                bg.explicit.push(FluidFlowSpec {
                    conn: idx as u32,
                    src: flow.src,
                    dst: flow.dst,
                    start: Duration::from_secs(flow.start),
                    bytes: flow.bytes.unwrap_or(0),
                    demand_bytes_per_sec: bg.demand_bytes_per_sec,
                });
            }
        }
        sim
    }

    /// Validate the scenario.
    pub fn validate(&self) -> Result<(), String> {
        // Validate the *effective* configuration so fluid-marked flows are
        // checked as the explicit fluid specs they become.
        self.effective_sim().validate()?;
        self.mts.validate()?;
        self.tcp.validate()?;
        if self.flows.is_empty() {
            return Err("scenario needs at least one traffic flow".into());
        }
        for f in &self.flows {
            if f.src == f.dst {
                return Err(format!(
                    "flow endpoints must differ (got {} -> {})",
                    f.src, f.dst
                ));
            }
            if f.src.0 >= self.sim.num_nodes || f.dst.0 >= self.sim.num_nodes {
                return Err("flow endpoints must be valid node ids".into());
            }
            f.profile().validate()?;
        }
        if self.flows.len() > usize::from(u16::MAX) {
            return Err("at most 65535 flows per scenario (16-bit timer scope)".into());
        }
        if let Some(e) = self.eavesdropper {
            if e.0 >= self.sim.num_nodes {
                return Err("eavesdropper must be a valid node id".into());
            }
            if self.endpoints().contains(&e) {
                return Err("eavesdropper must not be a traffic endpoint".into());
            }
        }
        self.attack.validate()?;
        let needed = self.attack.attackers_needed() as usize;
        if self.attackers.len() != needed {
            return Err(format!(
                "attack '{}' needs {} hostile nodes but {} are placed \
                 (use Scenario::with_attack; the network may be too small)",
                self.attack,
                needed,
                self.attackers.len()
            ));
        }
        let endpoints = self.endpoints();
        for (i, a) in self.attackers.iter().enumerate() {
            if a.0 >= self.sim.num_nodes {
                return Err(format!("attacker {a} is not a valid node id"));
            }
            if endpoints.contains(a) {
                return Err(format!("attacker {a} must not be a traffic endpoint"));
            }
            if self.attackers[..i].contains(a) {
                return Err(format!("attacker {a} is placed twice"));
            }
        }
        if matches!(self.attack.kind, AttackKind::MobileEavesdropper { .. })
            && self.eavesdropper.is_none()
        {
            return Err("mobile-eavesdropper attack needs a designated eavesdropper".into());
        }
        if let Placement::Static(positions) = &self.placement {
            if positions.len() != usize::from(self.sim.num_nodes) {
                return Err(format!(
                    "static placement has {} positions for {} nodes",
                    positions.len(),
                    self.sim.num_nodes
                ));
            }
            if let Some(p) = positions
                .iter()
                .find(|p| !p.x.is_finite() || !p.y.is_finite())
            {
                return Err(format!("static position ({}, {}) is not finite", p.x, p.y));
            }
            if matches!(self.attack.kind, AttackKind::MobileEavesdropper { .. }) {
                return Err("mobile-eavesdropper attack steers a random-waypoint node; \
                     it cannot run on a static placement"
                    .into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An analysis-only attack changes nothing in the run: over the
    /// canonical attack axis, its scenario equals the clean one in
    /// everything but `attack`, which is what lets the experiment grid
    /// evaluate it on the clean run of its seed.
    #[test]
    fn analysis_only_attacks_leave_the_scenario_clean() {
        let analysis_only: Vec<AttackConfig> = AttackConfig::canonical_matrix()
            .into_iter()
            .filter(AttackConfig::is_analysis_only)
            .collect();
        assert!(!analysis_only.is_empty(), "the coalition is analysis-only");
        for protocol in Protocol::WITH_HARDENED {
            for &attack in &analysis_only {
                let key = RunKey {
                    protocol,
                    attack,
                    max_speed: 10.0,
                    seed: 3,
                    duration: 20.0,
                };
                let clean = Scenario::from_key(&RunKey {
                    attack: AttackConfig::none(),
                    ..key
                });
                let mut armed = Scenario::from_key(&key);
                assert_eq!(armed.attack, attack);
                armed.attack = AttackConfig::none();
                assert_eq!(armed, clean, "{attack} changed the scenario");
            }
        }
    }

    /// Every key of the attack grid prints as a key that reads back equal,
    /// and a key naming no protocol, no matrix attack or a bad number reads
    /// as an error that names it.
    #[test]
    fn run_keys_round_trip_through_their_labels() {
        for protocol in Protocol::WITH_HARDENED {
            for attack in AttackConfig::canonical_matrix() {
                for (max_speed, duration) in [(0.0, 200.0), (2.5, 30.0), (20.0, 0.5)] {
                    let key = RunKey {
                        protocol,
                        attack,
                        max_speed,
                        seed: 7,
                        duration,
                    };
                    assert_eq!(key.to_string().parse(), Ok(key), "{key}");
                }
            }
        }
        let key: RunKey = "MTS-H/blackhole(x2)/10/1".parse().unwrap();
        assert_eq!(key.to_string(), "MTS-H/blackhole(x2)/10/1/200");
        for (bad, named) in [
            ("MTS/clean/10", "PROTOCOL/ATTACK"),
            ("MTS/clean/10/1/30/2", "PROTOCOL/ATTACK"),
            ("mts/clean/10/1", "protocol \"mts\""),
            ("MTS/blackhole(x3)/10/1", "attack \"blackhole(x3)\""),
            ("MTS/clean/-1/1", "speed \"-1\""),
            ("MTS/clean/inf/1", "speed \"inf\""),
            ("MTS/clean/10/1.5", "seed \"1.5\""),
            ("MTS/clean/10/1/0", "duration \"0\""),
            ("MTS/clean/10/1/NaN", "duration \"NaN\""),
        ] {
            let err = bad.parse::<RunKey>().expect_err(bad);
            assert!(err.contains(named), "{bad}: {err}");
        }
    }

    #[test]
    fn paper_scenario_matches_section_iv() {
        let s = Scenario::paper(Protocol::Mts, 10.0, 1);
        s.validate().unwrap();
        assert_eq!(s.sim.num_nodes, 50);
        assert_eq!(s.sim.field_width, 1000.0);
        assert_eq!(s.sim.radio.range_m, 250.0);
        assert_eq!(s.sim.mobility.max_speed, 10.0);
        assert_eq!(s.flows.len(), 1);
        assert!(s.eavesdropper.is_some());
        // The eavesdropper is never a traffic endpoint.
        assert!(!s.endpoints().contains(&s.eavesdropper.unwrap()));
    }

    #[test]
    #[should_panic(expected = "a scenario needs at least 2 nodes for its flow's endpoints, got 1")]
    fn a_one_node_scenario_is_refused_instead_of_spinning() {
        Scenario::scaled(Protocol::Mts, 1, 10.0, 1);
    }

    #[test]
    fn same_seed_gives_same_endpoints_across_protocols() {
        let a = Scenario::paper(Protocol::Dsr, 5.0, 42);
        let b = Scenario::paper(Protocol::Mts, 5.0, 42);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.eavesdropper, b.eavesdropper);
        // Different seed changes the draw (with overwhelming probability).
        let c = Scenario::paper(Protocol::Mts, 5.0, 43);
        assert!(c.flows != a.flows || c.eavesdropper != a.eavesdropper);
    }

    #[test]
    fn scaled_scenarios_are_valid_and_keep_density() {
        for n in [100u16, 200, 500, 1000, 2000] {
            let s = Scenario::scaled(Protocol::Mts, n, 10.0, 1);
            s.validate().unwrap();
            assert_eq!(s.sim.num_nodes, n);
            let density = f64::from(n) / (s.sim.field_width * s.sim.field_height);
            let paper_density = 50.0 / (1000.0 * 1000.0);
            assert!((density - paper_density).abs() / paper_density < 1e-9);
            // One flow per started 100 nodes, all endpoints distinct.
            assert_eq!(s.flows.len(), usize::from(n).div_ceil(100));
            let endpoints = s.endpoints();
            assert_eq!(
                endpoints.len(),
                s.flows.len() * 2,
                "endpoints must not repeat"
            );
        }
    }

    #[test]
    fn scaled_first_flow_matches_unscaled_draw() {
        // Paired comparisons: the scaled scenario keeps the seed's original
        // flow and eavesdropper, protocols only differ in the agent.
        let scaled = Scenario::scaled(Protocol::Mts, 200, 10.0, 7);
        let scaled_other = Scenario::scaled(Protocol::Dsr, 200, 10.0, 7);
        assert_eq!(scaled.flows, scaled_other.flows);
        assert_eq!(scaled.eavesdropper, scaled_other.eavesdropper);
    }

    #[test]
    fn random_pairs_allows_shared_endpoints_but_never_the_eavesdropper() {
        let s = Scenario::random_pairs(Protocol::Mts, 100, 50, 10.0, 7);
        s.validate().unwrap();
        assert_eq!(s.flows.len(), 50);
        let eve = s.eavesdropper.unwrap();
        for f in &s.flows {
            assert_ne!(f.src, f.dst);
            assert_ne!(f.src, eve);
            assert_ne!(f.dst, eve);
        }
        // With 50 flows over 100 nodes, endpoint reuse is effectively
        // certain — the deduplicated list is shorter than 2 * flows.
        assert!(s.endpoints().len() < 100);
        // The endpoint list is duplicate-free even with heavy sharing.
        let endpoints = s.endpoints();
        let mut deduped = endpoints.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), endpoints.len());
        // Deterministic per seed, paired across protocols.
        let t = Scenario::random_pairs(Protocol::Aodv, 100, 50, 10.0, 7);
        assert_eq!(s.flows, t.flows);
    }

    #[test]
    fn flow_stagger_spaces_start_times() {
        let s = Scenario::random_pairs(Protocol::Mts, 100, 4, 10.0, 1).with_flow_stagger(2.5);
        s.validate().unwrap();
        let starts: Vec<f64> = s.flows.iter().map(|f| f.start).collect();
        assert_eq!(starts, vec![0.0, 2.5, 5.0, 7.5]);
        // Single-flow scenarios are unchanged by a stagger.
        let single = Scenario::paper(Protocol::Mts, 10.0, 1).with_flow_stagger(9.0);
        assert_eq!(single.flows[0].start, 0.0);
    }

    #[test]
    fn validation_checks_flow_profiles() {
        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.flows[0].bytes = Some(0);
        assert!(s.validate().is_err(), "zero byte budget rejected");
        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.flows[0].start = -1.0;
        assert!(s.validate().is_err(), "negative start rejected");
    }

    #[test]
    fn validation_rejects_non_finite_protocol_knobs() {
        // Each of these used to pass validation and then panic mid-run.
        let mut s = Scenario::paper(Protocol::Mts, 5.0, 1);
        s.mts.check_period = f64::INFINITY;
        assert!(s.validate().is_err(), "infinite check period rejected");
        let mut s = Scenario::paper(Protocol::Mts, 5.0, 1);
        s.mts.check_period = f64::NAN;
        assert!(s.validate().is_err(), "NaN check period rejected");
        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.tcp.min_rto = f64::NAN;
        assert!(s.validate().is_err(), "NaN min_rto rejected");
    }

    #[test]
    fn validation_catches_bad_flows() {
        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.flows = vec![];
        assert!(s.validate().is_err());

        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.flows = vec![TrafficFlow::bulk(NodeId(1), NodeId(1))];
        assert!(s.validate().is_err());

        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.flows = vec![TrafficFlow::bulk(NodeId(0), NodeId(200))];
        assert!(s.validate().is_err());

        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.eavesdropper = Some(s.flows[0].src);
        assert!(s.validate().is_err());

        // A static placement needs one finite position per node; it may
        // leave the field.
        let line = |n: u16| (0..n).map(|i| Position::new(f64::from(i) * 100.0, -130.0));
        let mut s = Scenario::paper(Protocol::Aodv, 5.0, 1);
        s.placement = Placement::Static(line(50).collect());
        s.validate().unwrap();
        s.placement = Placement::Static(line(49).collect());
        assert!(s.validate().is_err(), "one position short rejected");
        s.placement = Placement::Static(line(49).chain([Position::new(f64::NAN, 0.0)]).collect());
        assert!(s.validate().is_err(), "NaN coordinate rejected");
        s.placement = Placement::Static(
            line(49)
                .chain([Position::new(0.0, f64::INFINITY)])
                .collect(),
        );
        assert!(s.validate().is_err(), "infinite coordinate rejected");
    }

    #[test]
    fn attack_arming_places_deterministic_disjoint_attackers() {
        let armed = |protocol: Protocol| {
            Scenario::paper(protocol, 10.0, 5).with_attack(AttackConfig::blackhole(3))
        };
        let a = armed(Protocol::Mts);
        a.validate().unwrap();
        assert_eq!(a.attackers.len(), 3);
        // Attackers never collide with endpoints or the designated eavesdropper.
        for attacker in &a.attackers {
            assert!(!a.endpoints().contains(attacker));
            assert_ne!(Some(*attacker), a.eavesdropper);
        }
        // Same seed, different protocol: identical hostile placement (paired
        // comparisons), and re-arming is idempotent.
        let b = armed(Protocol::Dsr);
        assert_eq!(a.attackers, b.attackers);
        let rearmed = a.clone().with_attack(AttackConfig::blackhole(3));
        assert_eq!(rearmed.attackers, a.attackers);
        // A different seed moves the attackers (with overwhelming probability).
        let c = Scenario::paper(Protocol::Mts, 10.0, 6).with_attack(AttackConfig::blackhole(3));
        assert_ne!(a.attackers, c.attackers);
    }

    #[test]
    fn jamming_attack_installs_the_engine_config() {
        use manet_netsim::JamTarget;
        let s = Scenario::paper(Protocol::Aodv, 10.0, 2).with_attack(AttackConfig::jamming(
            2,
            JamTarget::Control,
            0.8,
        ));
        s.validate().unwrap();
        let jam = s.sim.jamming.as_ref().expect("jam config installed");
        assert_eq!(jam.jammers, s.attackers);
        assert_eq!(jam.loss_prob, 0.8);
        // Disarming removes it again.
        let clean = s.with_attack(AttackConfig::none());
        assert!(clean.sim.jamming.is_none());
        assert!(clean.attackers.is_empty());
        clean.validate().unwrap();
    }

    #[test]
    fn wormhole_attack_installs_the_engine_tunnel() {
        let s = Scenario::paper(Protocol::Mts, 10.0, 3).with_attack(AttackConfig::wormhole());
        s.validate().unwrap();
        assert_eq!(s.attackers.len(), 2);
        let w = s.sim.wormhole.as_ref().expect("tunnel installed");
        assert_eq!((w.a, w.b), (s.attackers[0], s.attackers[1]));
        assert!(s.sim.rush.is_none() && s.sim.jamming.is_none());
        // Same seed, same endpoints across protocols (paired comparisons).
        let t = Scenario::paper(Protocol::Aodv, 10.0, 3).with_attack(AttackConfig::wormhole());
        assert_eq!(s.attackers, t.attackers);
        // Disarming removes the hook again.
        let clean = s.with_attack(AttackConfig::none());
        assert!(clean.sim.wormhole.is_none());
        clean.validate().unwrap();
    }

    #[test]
    fn rushing_attack_installs_the_engine_rush_config() {
        let s = Scenario::paper(Protocol::Dsr, 10.0, 4).with_attack(AttackConfig::rushing(2));
        s.validate().unwrap();
        assert_eq!(s.attackers.len(), 2);
        let rush = s.sim.rush.as_ref().expect("rush config installed");
        assert_eq!(rush.rushers, s.attackers);
        assert!(s.sim.wormhole.is_none());
        let clean = s.with_attack(AttackConfig::none());
        assert!(clean.sim.rush.is_none());
    }

    #[test]
    fn attack_validation_catches_inconsistencies() {
        // Hand-rolled attacker lists must satisfy the invariants.
        let mut s = Scenario::paper(Protocol::Mts, 5.0, 1).with_attack(AttackConfig::blackhole(2));
        s.attackers[1] = s.attackers[0];
        assert!(s.validate().is_err(), "duplicate attackers rejected");

        let mut s = Scenario::paper(Protocol::Mts, 5.0, 1).with_attack(AttackConfig::blackhole(1));
        s.attackers[0] = s.flows[0].src;
        assert!(s.validate().is_err(), "endpoint attacker rejected");

        let mut s = Scenario::paper(Protocol::Mts, 5.0, 1);
        s.attack = AttackConfig::blackhole(2); // bypassing with_attack
        assert!(s.validate().is_err(), "missing placement rejected");

        let mut s =
            Scenario::paper(Protocol::Mts, 5.0, 1).with_attack(AttackConfig::mobile_eavesdropper());
        s.eavesdropper = None;
        assert!(s.validate().is_err(), "mobile eve needs an eavesdropper");

        let mut s =
            Scenario::paper(Protocol::Mts, 5.0, 1).with_attack(AttackConfig::mobile_eavesdropper());
        s.placement =
            Placement::Static((0..50).map(|i| Position::new(f64::from(i), 0.0)).collect());
        assert!(
            s.validate().is_err(),
            "mobile eve needs a waypoint placement"
        );
    }

    #[test]
    fn ablation_override_applies() {
        let s =
            Scenario::paper(Protocol::Mts, 5.0, 1).with_mts_config(MtsConfig::with_max_paths(2));
        assert_eq!(s.mts.max_paths, 2);
        s.validate().unwrap();
    }
}
