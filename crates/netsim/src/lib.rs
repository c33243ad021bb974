//! # manet-netsim
//!
//! A deterministic discrete-event simulator for mobile ad hoc wireless
//! networks.  It replaces the ns-2 + CMU Monarch substrate the paper used:
//!
//! * [`time`] — simulation clock ([`SimTime`]) and durations.
//! * [`event`] — the pending-event queue with stable FIFO tie-breaking.
//! * [`calendar`] — the calendar/bucket queue behind the event queue
//!   (amortised O(1); pops in ascending `(time, seq)`, which debug builds
//!   assert on every pop).
//! * [`fasthash`] — the FxHash-style hasher behind the hot-path maps.
//! * [`fluid`] — the analytic fluid model for background traffic: max-min
//!   fair bandwidth sharing over carrier-sense-sized regions, recomputed
//!   lazily on epoch events and coupled into the MAC as a deterministic
//!   busy fraction (selected via [`config::SimConfig::background`]).
//! * [`choice`] — adversarial delivery-choice injection for the bounded
//!   model-checking explorer (`crates/mck`): a hook the engine consults on
//!   every addressed reception (deliver / drop / delay).
//! * [`geometry`] — 2-D positions and vectors.
//! * [`mobility`] — the random-waypoint mobility model (and fixed placements).
//! * [`grid`] — the uniform spatial grid indexing node positions; the
//!   engine's broadcast hot path answers range queries through it instead of
//!   scanning all nodes (see `crates/netsim/README.md` for the design).
//! * [`radio`] — radio parameters (unit-disk range, carrier-sense range).
//! * [`mac`] — a simplified IEEE 802.11 DCF MAC: carrier sense, slotted
//!   binary-exponential backoff, receiver-side collisions, airtime accounting,
//!   unicast retry limit with link-failure feedback.
//! * [`node`] — the [`NodeStack`] trait implemented by protocol stacks and the
//!   [`Ctx`] handle they use to talk to the simulator.
//! * [`engine`] — the [`Simulator`] that owns the world and runs the event loop.
//! * [`recorder`] — per-run transmission/delivery trace used by the metrics.
//! * [`rng`] — deterministic, purpose-split random number streams.
//! * [`config`] — simulation parameters (field size, ranges, MAC timing).
//!
//! The engine is single-threaded and fully deterministic for a given
//! [`config::SimConfig`] and seed.  Parallelism lives one level up:
//! experiment sweeps run independent runs on every core (see
//! `manet-experiments`).

pub mod calendar;
pub mod choice;
pub mod config;
pub mod engine;
pub mod event;
pub mod fasthash;
pub mod fluid;
pub mod geometry;
pub mod grid;
pub mod mac;
pub mod mobility;
mod neighborhood;
pub mod node;
pub mod radio;
pub mod recorder;
pub mod rng;
pub mod time;
pub mod topology;

pub use calendar::CalendarQueue;
pub use choice::{ChoiceDecision, ChoicePoint, DeliveryChoiceHook};
pub use config::{JamConfig, JamTarget, RushConfig, SimConfig, TelemetryConfig, WormholeConfig};
pub use engine::Simulator;
pub use event::{Event, EventQueue, QueuePerf, ScheduledEvent};
pub use fasthash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use fluid::{max_min_allocate, FluidConfig, FluidFlowSpec, FLUID_CONN_BASE};
pub use geometry::{Position, Vector2};
pub use grid::SpatialGrid;
pub use mobility::{MobilityModel, RandomWaypoint, Waypoint};
pub use node::{Ctx, NodeStack, TimerToken};
pub use radio::RadioConfig;
pub use recorder::EnginePerf;
pub use recorder::{
    FluidFlowTotals, Observation, PacketRef, PacketSet, Recorder, TraceEvent, TraceMode,
};
pub use rng::RngStreams;
pub use time::{Duration, SimTime};

pub use manet_wire as wire;

pub use manet_telemetry as telemetry;
pub use recorder::DropReason;
