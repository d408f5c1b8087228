//! Integration test of the SMT extension: §3.2 says C1E needs every
//! hardware-thread context halted, which is why the paper disabled SMT;
//! with the [`SmtCoScheduler`] the idle quanta are co-scheduled across
//! siblings and deep-idle cooling survives SMT.

#![allow(
    clippy::expect_used,
    reason = "test code: a failed expect is a failed test"
)]

use dimetrodon_repro::machine::{Machine, MachineConfig};
use dimetrodon_repro::policy::{
    DimetrodonHook, InjectionParams, PolicyHandle, SmtCoScheduler,
};
use dimetrodon_repro::sched::{SchedHook, System, ThreadKind};
use dimetrodon_repro::sim::{SimDuration, SimTime};
use dimetrodon_repro::workload::CpuBurn;

fn smt_run(co_schedule: bool, p: Option<f64>, seed: u64) -> f64 {
    let mut machine = Machine::new(MachineConfig::xeon_e5520_smt()).expect("preset");
    machine.settle_idle();
    let mut system = System::new(machine);
    if let Some(p) = p {
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(p, SimDuration::from_millis(50))));
        let hook = DimetrodonHook::new(policy, seed);
        let boxed: Box<dyn SchedHook> = if co_schedule {
            Box::new(SmtCoScheduler::new(hook))
        } else {
            Box::new(hook)
        };
        system.set_hook(boxed);
    }
    // One cpuburn per logical CPU: both contexts of every core busy.
    for _ in 0..system.machine().num_cores() {
        system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
    }
    system.run_until(SimTime::from_secs(100));
    system
        .observed_temp_over(SimTime::from_secs(80))
        .expect("samples")
}

#[test]
fn smt_machine_runs_eight_threads() {
    let machine = Machine::new(MachineConfig::xeon_e5520_smt()).expect("preset");
    assert_eq!(machine.num_cores(), 8);
    let mut system = System::new(machine);
    let ids: Vec<_> = (0..8)
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
        .collect();
    system.run_until(SimTime::from_secs(10));
    for id in ids {
        let done = system.thread_stats(id).cpu_executed.as_secs_f64();
        assert!(done > 9.5, "each context should run nearly continuously: {done}");
    }
}

#[test]
fn co_scheduling_recovers_deep_idle_cooling() {
    let unconstrained = smt_run(false, None, 0);
    let naive = smt_run(false, Some(0.5), 1);
    let co = smt_run(true, Some(0.5), 2);

    // Naive injection cools a little (activity drops during lone-context
    // idles) but the core rarely reaches C1E because sibling idle windows
    // only overlap by chance.
    assert!(naive < unconstrained, "{naive} vs {unconstrained}");
    // Co-scheduling aligns the windows: materially cooler than naive.
    assert!(
        co < naive - 1.0,
        "co-scheduled idles should reach C1E and cool more: co {co} vs naive {naive}"
    );
}
