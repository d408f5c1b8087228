//! The scheduler hook: where idle-cycle injection plugs in.
//!
//! The paper modifies the kernel so that "when the scheduler selects the
//! next thread to run, we decide whether to run the thread or whether to
//! run the idle thread" (§3.1). [`SchedHook::on_schedule`] is that decision
//! point: it sees the thread about to be dispatched, the core, the time,
//! and the machine (for temperature-driven policies), and returns a
//! [`Decision`].
//!
//! The `dimetrodon` crate provides the paper's policies; [`NullHook`] is
//! the unmodified kernel (never injects), used for baselines.

use std::fmt;

use dimetrodon_machine::{CoreId, Machine};
use dimetrodon_sim_core::{SimDuration, SimTime};

use crate::thread::{ThreadId, ThreadKind};

/// What the hook decides at a scheduling point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Dispatch the selected thread normally.
    Run,
    /// Pin the selected thread and run the idle thread for the given
    /// quantum instead (the paper's `L`).
    InjectIdle(SimDuration),
}

/// Context handed to the hook at each scheduling decision.
#[derive(Debug)]
pub struct ScheduleContext<'a> {
    /// The core making the decision.
    pub core: CoreId,
    /// The thread the scheduler selected.
    pub thread: ThreadId,
    /// Whether the selected thread is a kernel thread.
    pub kind: ThreadKind,
    /// Current simulated time.
    pub now: SimTime,
    /// The machine, for temperature- or power-aware policies.
    pub machine: &'a Machine,
}

/// A scheduler-decision hook (the Dimetrodon mechanism's attachment
/// point).
pub trait SchedHook: fmt::Debug {
    /// Called each time the scheduler is about to dispatch `ctx.thread`
    /// on `ctx.core`.
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision;

    /// Called about once per simulated second, after the machine has been
    /// advanced; closed-loop policies adapt here.
    fn on_tick(&mut self, _now: SimTime, _machine: &Machine) {}

    /// Downcasting escape hatch so experiment harnesses can read
    /// hook-specific counters back out of a running
    /// [`System`](crate::System). Hooks that expose post-run state
    /// override this to return `Some(self)`; the default opts out.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The unmodified kernel: never injects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullHook;

impl SchedHook for NullHook {
    fn on_schedule(&mut self, _ctx: &ScheduleContext<'_>) -> Decision {
        Decision::Run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_machine::MachineConfig;

    #[test]
    fn null_hook_always_runs() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let ctx = ScheduleContext {
            core: CoreId(0),
            thread: ThreadId(1),
            kind: ThreadKind::User,
            now: SimTime::ZERO,
            machine: &machine,
        };
        assert_eq!(NullHook.on_schedule(&ctx), Decision::Run);
    }
}
