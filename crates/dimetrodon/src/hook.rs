//! The Dimetrodon scheduler hook: idle cycle injection.

use std::collections::BTreeMap;

use dimetrodon_sched::{Decision, SchedHook, ScheduleContext, ThreadId};
use dimetrodon_sim_core::SimRng;

use crate::policy::{InjectionModel, PolicyHandle};

/// The Dimetrodon mechanism as a [`SchedHook`]: each time the scheduler is
/// about to dispatch a thread, resolve the thread's injection parameters
/// and, with probability `p` (or deterministically at rate `p`), run the
/// idle thread for quantum `L` instead.
///
/// # Examples
///
/// ```
/// use dimetrodon::{DimetrodonHook, InjectionParams, PolicyHandle};
/// use dimetrodon_machine::{Machine, MachineConfig};
/// use dimetrodon_sched::{Spin, System, ThreadKind};
/// use dimetrodon_sim_core::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), dimetrodon_machine::MachineError> {
/// let policy = PolicyHandle::new();
/// policy.set_global(Some(InjectionParams::new(0.5, SimDuration::from_millis(100))));
///
/// let mut system = System::new(Machine::new(MachineConfig::xeon_e5520())?);
/// system.set_hook(Box::new(DimetrodonHook::new(policy.clone(), 42)));
/// let id = system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
/// system.run_until(SimTime::from_secs(10));
/// // Roughly half the decisions injected idle time.
/// assert!(system.thread_stats(id).injected_idles > 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DimetrodonHook {
    policy: PolicyHandle,
    model: InjectionModel,
    rng: SimRng,
    /// Error-diffusion accumulators for the deterministic model, one per
    /// thread.
    stride_acc: BTreeMap<ThreadId, f64>,
    decisions: u64,
    injections: u64,
}

impl DimetrodonHook {
    /// Creates the hook with the paper's probabilistic injection model.
    pub fn new(policy: PolicyHandle, seed: u64) -> Self {
        Self::with_model(policy, InjectionModel::Probabilistic, seed)
    }

    /// Creates the hook with an explicit injection model (the
    /// deterministic variant is the §3.4 smoothness conjecture).
    pub fn with_model(policy: PolicyHandle, model: InjectionModel, seed: u64) -> Self {
        DimetrodonHook {
            policy,
            model,
            rng: SimRng::new(seed),
            stride_acc: BTreeMap::new(),
            decisions: 0,
            injections: 0,
        }
    }

    /// The policy handle this hook consults.
    pub fn policy(&self) -> &PolicyHandle {
        &self.policy
    }

    /// Scheduling decisions seen so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions that injected idle time.
    pub fn injections(&self) -> u64 {
        self.injections
    }
}

impl SchedHook for DimetrodonHook {
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
        self.decisions += 1;
        let Some(params) = self.policy.resolve(ctx.thread, ctx.kind) else {
            return Decision::Run;
        };
        let inject = match self.model {
            InjectionModel::Probabilistic => self.rng.bernoulli(params.p()),
            InjectionModel::Deterministic => {
                let acc = self.stride_acc.entry(ctx.thread).or_insert(0.0);
                *acc += params.p();
                if *acc >= 1.0 {
                    *acc -= 1.0;
                    true
                } else {
                    false
                }
            }
        };
        if inject {
            self.injections += 1;
            Decision::InjectIdle(params.quantum())
        } else {
            Decision::Run
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InjectionParams;
    use dimetrodon_machine::{CoreId, Machine, MachineConfig};
    use dimetrodon_sched::ThreadKind;
    use dimetrodon_sim_core::{SimDuration, SimTime};

    fn ctx(machine: &Machine, thread: ThreadId, kind: ThreadKind) -> ScheduleContext<'_> {
        ScheduleContext {
            core: CoreId(0),
            thread,
            kind,
            now: SimTime::ZERO,
            machine,
        }
    }

    fn quantum() -> SimDuration {
        SimDuration::from_millis(100)
    }

    #[test]
    fn no_policy_never_injects() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let mut hook = DimetrodonHook::new(PolicyHandle::new(), 1);
        for _ in 0..100 {
            assert_eq!(
                hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::User)),
                Decision::Run
            );
        }
        assert_eq!(hook.injections(), 0);
        assert_eq!(hook.decisions(), 100);
    }

    #[test]
    fn probabilistic_rate_approximates_p() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(0.25, quantum())));
        let mut hook = DimetrodonHook::new(policy, 2);
        let n = 20_000;
        for _ in 0..n {
            hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::User));
        }
        let rate = hook.injections() as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn deterministic_rate_is_exact_and_evenly_spaced() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(0.25, quantum())));
        let mut hook = DimetrodonHook::with_model(policy, InjectionModel::Deterministic, 3);
        let mut pattern = Vec::new();
        for _ in 0..16 {
            let d = hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::User));
            pattern.push(matches!(d, Decision::InjectIdle(_)));
        }
        // Exactly one injection per four decisions, evenly spaced.
        assert_eq!(pattern.iter().filter(|&&x| x).count(), 4);
        let gaps: Vec<usize> = pattern
            .iter()
            .enumerate()
            .filter(|(_, &x)| x)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(gaps, vec![3, 7, 11, 15]);
    }

    #[test]
    fn deterministic_accumulators_are_per_thread() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(0.5, quantum())));
        let mut hook = DimetrodonHook::with_model(policy, InjectionModel::Deterministic, 4);
        // Alternate two threads; each should still see exactly rate 1/2.
        let mut per_thread = [0u32; 2];
        for i in 0..40 {
            let tid = ThreadId(i % 2);
            if matches!(
                hook.on_schedule(&ctx(&machine, tid, ThreadKind::User)),
                Decision::InjectIdle(_)
            ) {
                per_thread[(i % 2) as usize] += 1;
            }
        }
        assert_eq!(per_thread, [10, 10]);
    }

    #[test]
    fn kernel_threads_never_injected_by_default() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(0.9, quantum())));
        let mut hook = DimetrodonHook::new(policy, 5);
        for _ in 0..200 {
            assert_eq!(
                hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::Kernel)),
                Decision::Run
            );
        }
    }

    #[test]
    fn injection_uses_thread_specific_quantum() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_thread(
            ThreadId(1),
            Some(InjectionParams::new(0.99, SimDuration::from_millis(25))),
        );
        let mut hook = DimetrodonHook::new(policy, 6);
        let mut seen = None;
        for _ in 0..100 {
            if let Decision::InjectIdle(q) =
                hook.on_schedule(&ctx(&machine, ThreadId(1), ThreadKind::User))
            {
                seen = Some(q);
                break;
            }
        }
        assert_eq!(seen, Some(SimDuration::from_millis(25)));
    }

    #[test]
    fn policy_changes_take_effect_live() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        let mut hook = DimetrodonHook::new(policy.clone(), 7);
        assert_eq!(
            hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::User)),
            Decision::Run
        );
        policy.set_global(Some(InjectionParams::new(0.999, quantum())));
        let injected = (0..50)
            .filter(|_| {
                matches!(
                    hook.on_schedule(&ctx(&machine, ThreadId(0), ThreadKind::User)),
                    Decision::InjectIdle(_)
                )
            })
            .count();
        assert!(injected >= 45, "live policy should apply: {injected}");
    }
}
