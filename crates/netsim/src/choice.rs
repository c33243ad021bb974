//! Adversarial delivery-choice injection (bounded model checking).
//!
//! The engine is fully deterministic: seed + configuration fix every
//! transmission, backoff and delivery.  A [`DeliveryChoiceHook`] turns the one
//! remaining free variable — *which addressed receptions actually arrive, and
//! when* — into an explicit decision point.
//!
//! The hook sits at the last of the medium's stages (see the
//! [engine docs](crate::engine)).  At a frame's `TxEnd` the outcome stage
//! first settles, per receiver, collision and then jamming; a reception that
//! survives both and is addressed — the unicast destination, or any
//! broadcast receiver — is then offered to the hook before its stack sees
//! it.  The hook may answer:
//!
//! * [`ChoiceDecision::Deliver`] — proceed exactly as without a hook (the
//!   all-`Deliver` hook is byte-identical to a hook-free run);
//! * [`ChoiceDecision::Drop`] — omit the frame at this receiver.  The
//!   sender's MAC still sees a successful transmission (no retry, no link
//!   failure), so the omission is only visible end-to-end — the classical
//!   message-omission fault model, and exactly how a colluding channel
//!   adversary would behave.  Recorded as a
//!   [`DropReason::ScheduleDrop`](crate::DropReason) drop;
//! * [`ChoiceDecision::Delay`] — deliver the frame later, after the given
//!   delay, reordering it against other in-flight traffic.  The receiving
//!   stack sees an ordinary `on_receive`.
//!
//! One frame's receptions are offered in receiver order, all of them before
//! the first is handed over; a unicast is offered after third parties
//! overheard it.  Promiscuous overhearing is radio physics, not a scheduling
//! choice, and the wormhole's out-of-band tunnel is already an adversarial
//! channel of its own; neither consults the hook.
//!
//! The bounded model-checking explorer in `crates/mck` drives tiny topologies
//! through this interface, enumerating decision sequences to find minimal
//! attack schedules and to prove small-`n` invariants.  See
//! `docs/VERIFICATION.md` for the state-space model.

use crate::time::{Duration, SimTime};
use manet_wire::{NetPacket, NodeId};

/// One addressed reception offered to the hook, just before the receiving
/// stack would see it.
#[derive(Debug)]
pub struct ChoicePoint<'a> {
    /// Simulation time of the reception (the transmission's end time).
    pub at: SimTime,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node (the MAC destination, or one broadcast receiver).
    pub to: NodeId,
    /// True for a broadcast reception, false for a unicast delivery.
    pub broadcast: bool,
    /// The network packet carried by the frame.
    pub payload: &'a NetPacket,
}

/// What the hook decided to do with one reception.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChoiceDecision {
    /// Deliver normally (the default; never perturbs the run).
    Deliver,
    /// Omit the frame at this receiver; the sender still sees MAC success.
    Drop,
    /// Deliver after the given extra delay, reordering it against other
    /// in-flight traffic.
    Delay(Duration),
}

/// The choice-injection interface the bounded model-checking explorer
/// implements (see the [module docs](self)).
///
/// Decisions must be a pure function of the observed choice-point sequence
/// for replay to be byte-identical: the engine consults the hook in a
/// deterministic order, so a scripted hook that replays a recorded decision
/// sequence reproduces the run exactly.
pub trait DeliveryChoiceHook {
    /// Decide the fate of one addressed reception.
    fn decide(&mut self, point: &ChoicePoint<'_>) -> ChoiceDecision;
}
