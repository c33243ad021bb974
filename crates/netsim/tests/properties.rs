//! Property-based tests for the simulator substrate: event ordering, mobility
//! bounds and the relay-distribution arithmetic feeding the security metrics.

use manet_netsim::config::MobilityConfig;
use manet_netsim::event::{Event, EventQueue};
use manet_netsim::mobility::{MobilityModel, RandomWaypoint, Waypoint};
use manet_netsim::{wire, Duration, Observation, Recorder, SimTime, TimerToken};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order, and ties preserve insertion (FIFO) order.
    #[test]
    fn event_queue_orders_by_time_then_fifo(times in proptest::collection::vec(0u32..1000, 1..100)) {
        let mut q = EventQueue::default();
        for (i, t) in times.iter().enumerate() {
            // Encode the insertion index in the timer token to check FIFO ties.
            q.schedule(
                SimTime::from_secs(f64::from(*t)),
                Event::Timer { node: wire::NodeId(0), token: TimerToken(i as u64) },
            );
        }
        let mut last_time = SimTime::ZERO;
        let mut last_seq_at_time: Option<u64> = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last_time);
            if ev.time > last_time {
                last_seq_at_time = None;
            }
            if let Event::Timer { token, .. } = ev.event {
                if let Some(prev) = last_seq_at_time {
                    // Same timestamp: insertion order must be preserved.
                    prop_assert!(token.0 > prev);
                }
                last_seq_at_time = Some(token.0);
            }
            last_time = ev.time;
        }
        prop_assert!(q.is_empty());
    }

    /// Random-waypoint legs always stay inside the field, never exceed the
    /// configured maximum speed, and arrival times are consistent with the
    /// distance and speed.
    #[test]
    fn random_waypoint_legs_are_well_formed(seed in any::<u64>(), max_speed in 1.0f64..25.0) {
        let cfg = MobilityConfig { min_speed: 0.0, max_speed, pause: Duration::from_secs(1.0) };
        let mut model = RandomWaypoint::new(1000.0, 800.0, cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pos = model.initial_position(0, &mut rng);
        let mut now = SimTime::ZERO;
        for epoch in 0..20u64 {
            let leg: Waypoint = model.next_leg(0, pos, now, epoch, &mut rng);
            prop_assert!((0.0..=1000.0).contains(&leg.to.x));
            prop_assert!((0.0..=800.0).contains(&leg.to.y));
            prop_assert!(leg.speed > 0.0 && leg.speed <= max_speed + 1e-9);
            let arrival = leg.arrival_time();
            prop_assert!(arrival >= leg.start);
            // Position at arrival equals the target (within numeric noise).
            let end_pos = leg.position_at(arrival);
            prop_assert!(end_pos.distance_to(leg.to) < 1e-6);
            // Mid-leg positions stay on the segment (never beyond the target).
            let mid = leg.position_at(leg.start + Duration::from_secs(
                (arrival.since(leg.start).as_secs()) / 2.0,
            ));
            prop_assert!(mid.distance_to(leg.from) <= leg.from.distance_to(leg.to) + 1e-6);
            pos = leg.to;
            now = arrival;
        }
    }

    /// The recorder's relay bookkeeping: heard sets count unique packets, so
    /// replaying the same packet id any number of times never increases the
    /// unique count beyond the number of distinct ids.
    #[test]
    fn recorder_heard_counts_are_unique(ids in proptest::collection::vec(0u64..50, 1..300)) {
        let mut rec = Recorder::new();
        for &id in &ids {
            let segment = wire::TcpSegment::data(wire::ConnectionId(0), 0, 0, 512);
            let packet = &wire::DataPacket::new(wire::PacketId(id), wire::NodeId(0), wire::NodeId(9), segment);
            rec.observe(SimTime::ZERO, Observation::Overheard { node: wire::NodeId(3), packet });
        }
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        prop_assert_eq!(rec.heard_count(wire::NodeId(3)), distinct.len() as u64);
    }
}
