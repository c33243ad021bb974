//! Deterministic random-number streams.
//!
//! Each stochastic subsystem (mobility, MAC backoff, jamming, traffic,
//! scenario placement) draws from its own seeded stream so that changing one
//! subsystem's consumption pattern does not perturb the others.  This keeps
//! paired comparisons between protocols meaningful: DSR, AODV and MTS runs
//! with the same seed see the same node placements and waypoint sequences.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Purposes a random stream can be dedicated to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Initial node placement and waypoint selection.
    Mobility,
    /// MAC backoff slots and jitter.
    Mac,
    /// Channel losses (the selective jammer's draws).
    Channel,
    /// Traffic endpoints and eavesdropper selection.
    Scenario,
    /// Protocol-internal randomness (e.g. jittered broadcasts).
    Protocol,
}

impl StreamKind {
    fn salt(self) -> u64 {
        match self {
            StreamKind::Mobility => 0x6d6f_6269,
            StreamKind::Mac => 0x6d61_6300,
            StreamKind::Channel => 0x6368_616e,
            StreamKind::Scenario => 0x7363_656e,
            StreamKind::Protocol => 0x7072_6f74,
        }
    }
}

/// A bundle of independent deterministic random streams derived from one seed.
#[derive(Debug)]
pub struct RngStreams {
    seed: u64,
    mobility: SmallRng,
    mac: SmallRng,
    channel: SmallRng,
    scenario: SmallRng,
    protocol: SmallRng,
}

fn derive(seed: u64, salt: u64) -> SmallRng {
    // SplitMix64-style mixing so nearby seeds produce unrelated streams.
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    SmallRng::seed_from_u64(z)
}

impl RngStreams {
    /// Create the stream bundle for a run seed.
    pub fn new(seed: u64) -> Self {
        RngStreams {
            seed,
            mobility: derive(seed, StreamKind::Mobility.salt()),
            mac: derive(seed, StreamKind::Mac.salt()),
            channel: derive(seed, StreamKind::Channel.salt()),
            scenario: derive(seed, StreamKind::Scenario.salt()),
            protocol: derive(seed, StreamKind::Protocol.salt()),
        }
    }

    /// The seed this bundle was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mutable access to the stream for a given purpose.
    pub fn stream(&mut self, kind: StreamKind) -> &mut SmallRng {
        match kind {
            StreamKind::Mobility => &mut self.mobility,
            StreamKind::Mac => &mut self.mac,
            StreamKind::Channel => &mut self.channel,
            StreamKind::Scenario => &mut self.scenario,
            StreamKind::Protocol => &mut self.protocol,
        }
    }

    /// Mobility stream (placement, waypoints, speeds, pauses).
    pub fn mobility(&mut self) -> &mut SmallRng {
        &mut self.mobility
    }

    /// MAC stream (backoff slots, jitter).
    pub fn mac(&mut self) -> &mut SmallRng {
        &mut self.mac
    }

    /// Channel stream (the selective jammer's draws).
    pub fn channel(&mut self) -> &mut SmallRng {
        &mut self.channel
    }

    /// Scenario stream (traffic endpoints, eavesdropper choice).
    pub fn scenario(&mut self) -> &mut SmallRng {
        &mut self.scenario
    }

    /// Protocol stream (protocol-internal randomness).
    pub fn protocol(&mut self) -> &mut SmallRng {
        &mut self.protocol
    }

    /// A uniformly random f64 in `[0, 1)` from the protocol stream.
    pub fn unit(&mut self) -> f64 {
        self.protocol.gen::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_reproduces_streams() {
        let mut a = RngStreams::new(42);
        let mut b = RngStreams::new(42);
        let xa: Vec<u64> = (0..16).map(|_| a.mobility().gen()).collect();
        let xb: Vec<u64> = (0..16).map(|_| b.mobility().gen()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_purposes_are_decorrelated() {
        let mut s = RngStreams::new(7);
        let a: u64 = s.mobility().gen();
        let b: u64 = s.mac().gen();
        let c: u64 = s.channel().gen();
        // Not a statistical test, just a sanity check the salts differ.
        assert!(!(a == b && b == c));
    }

    #[test]
    fn consuming_one_stream_leaves_others_untouched() {
        let mut a = RngStreams::new(99);
        let mut b = RngStreams::new(99);
        // Drain the MAC stream of `a` only.
        for _ in 0..100 {
            let _: u64 = a.mac().gen();
        }
        let xa: u64 = a.mobility().gen();
        let xb: u64 = b.mobility().gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn nearby_seeds_give_different_sequences() {
        let mut a = RngStreams::new(1);
        let mut b = RngStreams::new(2);
        let xa: Vec<u64> = (0..8).map(|_| a.scenario().gen()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.scenario().gen()).collect();
        assert_ne!(xa, xb);
    }
}
