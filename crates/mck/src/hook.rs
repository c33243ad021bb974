//! The scripted delivery-choice hook and the replayable choice-trace format.
//!
//! A [`ChoiceTrace`] is a complete decision script for one run: intervene
//! (drop or delay) at the listed eligible choice-point slots, deliver
//! everywhere else.  Because the engine is deterministic and consults the
//! hook in a deterministic order, feeding the same trace to
//! [`ScheduleHook`] twice reproduces the run byte-identically — that is the
//! replay contract the counterexample tests pin.

use manet_netsim::{ChoiceDecision, ChoicePoint, DeliveryChoiceHook, Duration, SimTime};
use manet_wire::NodeId;
use std::cell::RefCell;
use std::rc::Rc;

/// One adversarial intervention kind the explorer branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleAction {
    /// Omit the reception (sender still sees MAC success).
    Drop,
    /// Deliver after the trace's extra delay, reordering the frame.
    Delay,
}

impl ScheduleAction {
    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ScheduleAction::Drop => "drop",
            ScheduleAction::Delay => "delay",
        }
    }
}

/// A replayable counterexample: the complete decision script of one run.
///
/// Eligible choice points (addressed receptions whose frame kind is in
/// `kinds`) are numbered 0, 1, 2, … in the engine's consultation order;
/// `actions` lists the slots at which the schedule intervenes.  Slots at or
/// beyond `horizon` always deliver.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceTrace {
    /// `(slot, action)` pairs, strictly increasing by slot.
    pub actions: Vec<(u32, ScheduleAction)>,
    /// Number of leading eligible choice points subject to intervention.
    pub horizon: u32,
    /// Extra delivery delay applied by [`ScheduleAction::Delay`].
    pub delay: Duration,
    /// Frame kinds eligible for intervention (`FrameKind` labels of `NetPacket::frame_kind()`).
    pub kinds: Vec<&'static str>,
}

impl ChoiceTrace {
    /// The unforced schedule: zero interventions, every reception delivers.
    pub fn unforced(horizon: u32, delay: Duration, kinds: Vec<&'static str>) -> Self {
        ChoiceTrace {
            actions: Vec::new(),
            horizon,
            delay,
            kinds,
        }
    }

    /// Number of adversarial interventions in the script.
    pub fn choice_count(&self) -> u32 {
        self.actions.len() as u32
    }
}

/// One eligible choice point observed during a run (slots below the
/// horizon), in consultation order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceRecord {
    /// Eligible-point index (the slot the trace's actions refer to).
    pub slot: u32,
    /// Simulation time of the reception.
    pub at: SimTime,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Frame kind (the `FrameKind` label of `NetPacket::frame_kind()`).
    pub kind: &'static str,
    /// Broadcast reception (false: unicast delivery).
    pub broadcast: bool,
    /// The scripted intervention, `None` when the slot delivered normally.
    pub action: Option<ScheduleAction>,
}

/// What one scripted run observed: the choice points it was offered.
#[derive(Debug, Clone, Default)]
pub struct RunLog {
    /// Eligible points with slot < horizon, in consultation order.
    pub points: Vec<ChoiceRecord>,
    /// Total eligible points seen, including beyond the horizon.
    pub eligible_seen: u64,
}

/// The scripted [`DeliveryChoiceHook`] that drives the engine through one
/// [`ChoiceTrace`], logging every eligible choice point it is offered.
pub struct ScheduleHook {
    /// Scripted action per slot, indexed 0..horizon.
    plan: Vec<Option<ScheduleAction>>,
    delay: Duration,
    kinds: Vec<&'static str>,
    log: Rc<RefCell<RunLog>>,
}

impl ScheduleHook {
    /// Build the hook for `trace`; the returned handle reads the run log
    /// back out after the simulation consumed the hook.
    ///
    /// # Panics
    /// Panics if an action slot lies at or beyond the trace's horizon.
    pub fn new(trace: &ChoiceTrace) -> (Self, Rc<RefCell<RunLog>>) {
        let mut plan = vec![None; trace.horizon as usize];
        for &(slot, action) in &trace.actions {
            assert!(
                (slot as usize) < plan.len(),
                "action slot {slot} beyond horizon {}",
                trace.horizon
            );
            plan[slot as usize] = Some(action);
        }
        let log = Rc::new(RefCell::new(RunLog::default()));
        let hook = ScheduleHook {
            plan,
            delay: trace.delay,
            kinds: trace.kinds.clone(),
            log: Rc::clone(&log),
        };
        (hook, log)
    }
}

impl DeliveryChoiceHook for ScheduleHook {
    fn decide(&mut self, point: &ChoicePoint<'_>) -> ChoiceDecision {
        let kind = point.payload.frame_kind().label();
        if !self.kinds.contains(&kind) {
            // Ineligible frame kinds deliver without consuming a slot, so
            // the branching factor stays bounded by the horizon.
            return ChoiceDecision::Deliver;
        }
        let mut log = self.log.borrow_mut();
        let slot = log.eligible_seen;
        log.eligible_seen += 1;
        if slot >= self.plan.len() as u64 {
            return ChoiceDecision::Deliver;
        }
        let action = self.plan[slot as usize];
        log.points.push(ChoiceRecord {
            slot: slot as u32,
            at: point.at,
            from: point.from,
            to: point.to,
            kind,
            broadcast: point.broadcast,
            action,
        });
        match action {
            None => ChoiceDecision::Deliver,
            Some(ScheduleAction::Drop) => ChoiceDecision::Drop,
            Some(ScheduleAction::Delay) => ChoiceDecision::Delay(self.delay),
        }
    }
}
