//! Simulation parameters.
//!
//! The defaults reproduce the paper's environment (Section IV-A): 50 nodes on
//! a 1000 m × 1000 m field, 250 m radio range, IEEE 802.11b MAC, random
//! waypoint mobility with a 1 s pause, 200 s per run.

use crate::fluid::FluidConfig;
use crate::radio::RadioConfig;
use crate::time::Duration;
use manet_wire::NodeId;

pub use manet_telemetry::TelemetryConfig;

/// MAC-layer timing and behaviour parameters (simplified 802.11 DCF).
#[derive(Debug, Clone, PartialEq)]
pub struct MacConfig {
    /// Link rate for unicast data frames, bits per second (802.11b: 11 Mbit/s).
    pub data_rate_bps: f64,
    /// Basic rate used for broadcast frames, bits per second (2 Mbit/s).
    pub basic_rate_bps: f64,
    /// Fixed per-frame physical-layer overhead (preamble + PLCP header), seconds.
    pub phy_overhead: Duration,
    /// Slot time for the contention backoff, seconds (20 µs for 802.11b).
    pub slot_time: Duration,
    /// DIFS inter-frame space, seconds (50 µs for 802.11b).
    pub difs: Duration,
    /// SIFS inter-frame space plus ACK airtime charged to successful unicast
    /// frames, seconds.
    pub ack_overhead: Duration,
    /// Minimum contention window, in slots.
    pub cw_min: u32,
    /// Maximum contention window, in slots.
    pub cw_max: u32,
    /// Number of transmission attempts for a unicast frame before the MAC
    /// reports a link failure to the network layer.
    pub retry_limit: u32,
    /// Capacity of the per-node interface queue, in frames (drop-tail).
    pub queue_capacity: usize,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            data_rate_bps: 11.0e6,
            basic_rate_bps: 2.0e6,
            phy_overhead: Duration::from_micros(192.0),
            slot_time: Duration::from_micros(20.0),
            difs: Duration::from_micros(50.0),
            ack_overhead: Duration::from_micros(10.0 + 112.0),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 5,
            queue_capacity: 64,
        }
    }
}

/// Mobility parameters for the random waypoint model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// Minimum node speed, m/s.
    pub min_speed: f64,
    /// Maximum node speed, m/s (the paper sweeps 2, 5, 10, 15, 20).
    pub max_speed: f64,
    /// Pause time at each waypoint, seconds (paper: 1 s).
    pub pause: Duration,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            min_speed: 0.0,
            max_speed: 10.0,
            pause: Duration::from_secs(1.0),
        }
    }
}

/// Which frame class a selective jammer targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JamTarget {
    /// Only routing control frames (RREQ/RREP/RERR/CHECK...).
    Control,
    /// Only data frames (TCP segments and ACKs).
    Data,
}

impl JamTarget {
    /// True if a frame of the given control/data class is targeted.
    pub fn matches(self, is_control: bool) -> bool {
        match self {
            JamTarget::Control => is_control,
            JamTarget::Data => !is_control,
        }
    }
}

/// Selective jamming: designated nodes corrupt receptions of the targeted
/// frame class in their vicinity.
///
/// The jammer is modelled statistically instead of by explicit noise frames:
/// a reception at node `r` is destroyed with probability `loss_prob` whenever
/// some jammer is within the radio range of `r` and the frame class matches
/// `target`.  Jammers move like ordinary nodes, so the jammed region follows
/// them.  With `jamming: None` or a `loss_prob` of 0 the engine draws no
/// extra randomness and runs are byte-identical to pre-adversary traces.
#[derive(Debug, Clone, PartialEq)]
pub struct JamConfig {
    /// Nodes acting as jammers.
    pub jammers: Vec<NodeId>,
    /// Frame class the jammer keys on.
    pub target: JamTarget,
    /// Probability a targeted reception near a jammer is corrupted.
    pub loss_prob: f64,
}

/// One-way latency of a wormhole's out-of-band tunnel, seconds: out-of-band
/// links are typically much faster than the multi-hop radio path they
/// shortcut.  The same value as `Duration::from_secs(1e-6)`.
pub const WORMHOLE_DELAY: Duration = Duration(1e-6);

/// A wormhole: two colluding nodes joined by an out-of-band tunnel the radio
/// model cannot see.
///
/// The tunnel makes the endpoints behave like direct neighbours no matter how
/// far apart they are:
///
/// * a **unicast** from one endpoint to the other bypasses the MAC entirely
///   (no airtime, no carrier sense, no retries) and is delivered after
///   [`WORMHOLE_DELAY`];
/// * a **broadcast** transmitted *by* an endpoint is additionally replayed to
///   the far endpoint after [`WORMHOLE_DELAY`] (unless it already heard it by radio), so
///   route-discovery floods cross the tunnel and discovered routes collapse
///   through the pair.
///
/// Everything crossing the tunnel is counted by the recorder (the wormhole
/// *capture* metrics).  With `wormhole: None` the engine takes no extra
/// branches and draws no extra randomness, so clean runs stay byte-identical
/// to pre-adversary traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WormholeConfig {
    /// One tunnel endpoint.
    pub a: NodeId,
    /// The other tunnel endpoint.
    pub b: NodeId,
}

impl WormholeConfig {
    /// The far endpoint of the tunnel, if `node` is an endpoint.
    pub fn peer_of(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Rushing attackers: nodes that transmit with zero processing delay.
///
/// The classical rushing attack (Hu–Perrig–Johnson) wins route discovery by
/// forwarding RREQs faster than honest nodes, whose forwarding is randomly
/// delayed; duplicate suppression then discards the honest copies arriving
/// later, so discovered routes run through the attacker.  In this MAC the
/// randomized forwarding delay *is* the DIFS + contention backoff, so a
/// rushing node simply skips both (it still defers while the medium is
/// sensed busy — it cheats the protocol, not physics).  With `rush: None`
/// the backoff path is untouched and clean runs stay byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RushConfig {
    /// Nodes transmitting without DIFS or backoff.
    pub rushers: Vec<NodeId>,
}

/// Full simulation configuration.
///
/// # Examples
///
/// The defaults reproduce the paper's Section IV-A environment; individual
/// fields can be overridden before the configuration is validated:
///
/// ```
/// use manet_netsim::{Duration, SimConfig};
///
/// let mut config = SimConfig::paper_environment(10.0, 42);
/// config.duration = Duration::from_secs(30.0);
/// config.validate().expect("a tweaked paper environment is still valid");
/// assert_eq!(config.num_nodes, 50);
/// assert_eq!(config.radio.range_m, 250.0);
/// assert_eq!(config.mobility.max_speed, 10.0);
/// assert!(config.jamming.is_none() && config.wormhole.is_none() && config.rush.is_none());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of nodes (paper: 50).
    pub num_nodes: u16,
    /// Field width, metres (paper: 1000).
    pub field_width: f64,
    /// Field height, metres (paper: 1000).
    pub field_height: f64,
    /// Radio / channel parameters (paper: 250 m transmission range).
    pub radio: RadioConfig,
    /// MAC parameters.
    pub mac: MacConfig,
    /// Mobility parameters.
    pub mobility: MobilityConfig,
    /// Simulated duration of the run, seconds (paper: 200 s).
    pub duration: Duration,
    /// Run seed; together with the configuration it fully determines the run.
    pub seed: u64,
    /// Maximum anchor drift, metres, the spatial grid tolerates before a
    /// node is rebinned (larger values mean fewer rebinds but bigger
    /// candidate sets).
    pub grid_slack_m: f64,
    /// Selective jamming adversary, if any (see [`JamConfig`]).
    pub jamming: Option<JamConfig>,
    /// Wormhole adversary, if any (see [`WormholeConfig`]).
    pub wormhole: Option<WormholeConfig>,
    /// Rushing adversary, if any (see [`RushConfig`]).
    pub rush: Option<RushConfig>,
    /// Structured telemetry (event stream / sampler / provenance tracing).
    /// Off by default, and purely observational when on: telemetry never
    /// draws randomness or schedules events, so it cannot change a run (the
    /// golden-trace suite asserts this).
    pub telemetry: TelemetryConfig,
    /// Analytic background traffic (the hybrid fluid/packet engine; see
    /// [`crate::fluid`]).  `None` — the default — takes no branches, draws
    /// no randomness and schedules no events, so runs stay byte-identical
    /// to pre-hybrid traces (golden-trace suite asserts this).
    pub background: Option<FluidConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_nodes: 50,
            field_width: 1000.0,
            field_height: 1000.0,
            radio: RadioConfig::default(),
            mac: MacConfig::default(),
            mobility: MobilityConfig::default(),
            duration: Duration::from_secs(200.0),
            seed: 1,
            grid_slack_m: 25.0,
            jamming: None,
            wormhole: None,
            rush: None,
            telemetry: TelemetryConfig::default(),
            background: None,
        }
    }
}

impl SimConfig {
    /// Validate invariants that the engine relies on.
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_nodes == 0 {
            return Err("num_nodes must be at least 1".into());
        }
        // Written so that NaN fails every check: a NaN compares false.
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if !(positive(self.field_width) && positive(self.field_height)) {
            return Err("field dimensions must be positive and finite".into());
        }
        if !positive(self.radio.range_m) {
            return Err("radio range must be positive and finite".into());
        }
        if !(self.mobility.min_speed >= 0.0 && self.mobility.max_speed.is_finite()) {
            return Err("speeds must be non-negative and finite".into());
        }
        if self.mobility.max_speed < self.mobility.min_speed {
            return Err("max_speed must be >= min_speed".into());
        }
        if !(positive(self.mac.data_rate_bps) && positive(self.mac.basic_rate_bps)) {
            return Err("MAC rates must be positive and finite".into());
        }
        if self.mac.cw_min == 0 || self.mac.cw_max < self.mac.cw_min {
            return Err("contention window must satisfy 0 < cw_min <= cw_max".into());
        }
        if self.mac.retry_limit == 0 {
            return Err("retry_limit must be at least 1".into());
        }
        if self.mac.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.duration.as_secs() <= 0.0 {
            return Err("duration must be positive".into());
        }
        if !(self.grid_slack_m > 0.0 && self.grid_slack_m.is_finite()) {
            return Err("grid_slack_m must be positive and finite".into());
        }
        if let Some(jam) = &self.jamming {
            if !(0.0..=1.0).contains(&jam.loss_prob) {
                return Err("jamming loss_prob must be in [0, 1]".into());
            }
            if jam.jammers.is_empty() {
                return Err("jamming needs at least one jammer node".into());
            }
            if let Some(bad) = jam.jammers.iter().find(|j| j.0 >= self.num_nodes) {
                return Err(format!("jammer {bad} is not a valid node id"));
            }
        }
        if let Some(w) = &self.wormhole {
            if w.a == w.b {
                return Err("wormhole endpoints must be two distinct nodes".into());
            }
            if w.a.0 >= self.num_nodes || w.b.0 >= self.num_nodes {
                return Err("wormhole endpoints must be valid node ids".into());
            }
        }
        if let Some(rush) = &self.rush {
            if rush.rushers.is_empty() {
                return Err("rushing needs at least one rusher node".into());
            }
            if let Some(bad) = rush.rushers.iter().find(|r| r.0 >= self.num_nodes) {
                return Err(format!("rusher {bad} is not a valid node id"));
            }
            for (i, r) in rush.rushers.iter().enumerate() {
                if rush.rushers[..i].contains(r) {
                    return Err(format!("rusher {r} is listed twice"));
                }
            }
        }
        if let Some(background) = &self.background {
            background.validate(self.num_nodes)?;
        }
        self.telemetry.validate()?;
        Ok(())
    }

    /// Convenience: the paper's environment at a given maximum speed and seed.
    pub fn paper_environment(max_speed: f64, seed: u64) -> Self {
        SimConfig {
            mobility: MobilityConfig {
                min_speed: 0.0,
                max_speed,
                pause: Duration::from_secs(1.0),
            },
            seed,
            ..SimConfig::default()
        }
    }

    /// The paper's environment scaled to `num_nodes`, with the field grown so
    /// node density (nodes per square metre) matches the 50-node / 1 km²
    /// original.  Used by the 100/200/500/1000/2000-node scaling scenarios
    /// (`Scenario::scaled`).
    ///
    /// # Panics
    /// Panics if `num_nodes` is zero.
    pub fn scaled_environment(num_nodes: u16, max_speed: f64, seed: u64) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        let mut config = Self::paper_environment(max_speed, seed);
        let side = 1000.0 * (f64::from(num_nodes) / 50.0).sqrt();
        config.num_nodes = num_nodes;
        config.field_width = side;
        config.field_height = side;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = SimConfig::default();
        c.validate().expect("default config must be valid");
        assert_eq!(c.num_nodes, 50);
        assert_eq!(c.field_width, 1000.0);
        assert_eq!(c.field_height, 1000.0);
        assert_eq!(c.radio.range_m, 250.0);
        assert_eq!(c.duration, Duration::from_secs(200.0));
    }

    #[test]
    fn background_fluid_config_is_validated() {
        let mut c = SimConfig::default();
        let mut fluid = FluidConfig::default();
        fluid.flows = 100;
        c.background = Some(fluid);
        c.validate().expect("a sane fluid config must validate");
        c.background.as_mut().unwrap().capacity_share = 1.5;
        assert!(c.validate().is_err(), "capacity_share > 1 must be rejected");
        c.background.as_mut().unwrap().capacity_share = 0.25;
        c.background.as_mut().unwrap().max_epoch_gap = Duration::ZERO;
        assert!(c.validate().is_err(), "zero epoch gap must be rejected");
    }

    #[test]
    fn paper_environment_sets_speed_and_seed() {
        let c = SimConfig::paper_environment(15.0, 3);
        assert_eq!(c.mobility.max_speed, 15.0);
        assert_eq!(c.seed, 3);
        c.validate().unwrap();
    }

    #[test]
    fn scaled_environment_keeps_density_constant() {
        let base = SimConfig::paper_environment(10.0, 1);
        let base_density = f64::from(base.num_nodes) / (base.field_width * base.field_height);
        for n in [100u16, 200, 500, 1000, 2000] {
            let c = SimConfig::scaled_environment(n, 10.0, 1);
            c.validate().unwrap();
            assert_eq!(c.num_nodes, n);
            let density = f64::from(n) / (c.field_width * c.field_height);
            assert!(
                (density - base_density).abs() / base_density < 1e-9,
                "density drifted at n={n}: {density} vs {base_density}"
            );
        }
    }

    #[test]
    fn jamming_config_is_validated() {
        let jam = |jammers: Vec<u16>, loss: f64| {
            let mut c = SimConfig::default();
            c.jamming = Some(JamConfig {
                jammers: jammers.into_iter().map(NodeId).collect(),
                target: JamTarget::Control,
                loss_prob: loss,
            });
            c
        };
        jam(vec![3], 0.8).validate().unwrap();
        assert!(jam(vec![3], 1.5).validate().is_err());
        assert!(jam(vec![], 0.5).validate().is_err());
        assert!(jam(vec![200], 0.5).validate().is_err());
        assert!(JamTarget::Control.matches(true) && !JamTarget::Control.matches(false));
        assert!(!JamTarget::Data.matches(true) && JamTarget::Data.matches(false));
    }

    #[test]
    fn wormhole_config_is_validated() {
        let worm = |a: u16, b: u16| {
            let mut c = SimConfig::default();
            c.wormhole = Some(WormholeConfig {
                a: NodeId(a),
                b: NodeId(b),
            });
            c
        };
        worm(3, 7).validate().unwrap();
        assert!(worm(3, 3).validate().is_err(), "distinct endpoints");
        assert!(worm(3, 200).validate().is_err(), "valid ids");
        assert_eq!(WORMHOLE_DELAY, Duration::from_secs(1e-6));
        let w = WormholeConfig {
            a: NodeId(3),
            b: NodeId(7),
        };
        assert_eq!(w.peer_of(NodeId(3)), Some(NodeId(7)));
        assert_eq!(w.peer_of(NodeId(7)), Some(NodeId(3)));
        assert_eq!(w.peer_of(NodeId(4)), None);
    }

    #[test]
    fn rush_config_is_validated() {
        let rush = |nodes: Vec<u16>| {
            let mut c = SimConfig::default();
            c.rush = Some(RushConfig {
                rushers: nodes.into_iter().map(NodeId).collect(),
            });
            c
        };
        rush(vec![3, 7]).validate().unwrap();
        assert!(rush(vec![]).validate().is_err(), "non-empty");
        assert!(rush(vec![200]).validate().is_err(), "valid ids");
        assert!(rush(vec![3, 3]).validate().is_err(), "no duplicates");
    }

    #[test]
    fn grid_slack_is_always_validated() {
        for slack in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = SimConfig::default();
            c.grid_slack_m = slack;
            assert!(
                c.validate().is_err(),
                "grid_slack_m = {slack} must be rejected"
            );
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::default();
        c.num_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.mobility.max_speed = -1.0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.mac.cw_max = 1;
        c.mac.cw_min = 8;
        assert!(c.validate().is_err());

        let mut c = SimConfig::default();
        c.duration = Duration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_and_impossible_values() {
        type Edit = fn(&mut SimConfig);
        let cases: [(&str, Edit); 8] = [
            ("range_m = NaN", |c| c.radio.range_m = f64::NAN),
            ("range_m = inf", |c| c.radio.range_m = f64::INFINITY),
            ("data_rate_bps = NaN", |c| c.mac.data_rate_bps = f64::NAN),
            ("basic_rate_bps = inf", |c| {
                c.mac.basic_rate_bps = f64::INFINITY
            }),
            ("max_speed = NaN", |c| c.mobility.max_speed = f64::NAN),
            ("max_speed = inf", |c| c.mobility.max_speed = f64::INFINITY),
            ("min_speed = NaN", |c| c.mobility.min_speed = f64::NAN),
            ("field_width = inf", |c| c.field_width = f64::INFINITY),
        ];
        for (what, edit) in cases {
            let mut c = SimConfig::default();
            edit(&mut c);
            assert!(c.validate().is_err(), "{what} must be rejected");
        }
    }
}
