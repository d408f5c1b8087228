//! Quickstart: inject idle cycles into a hot workload and watch the
//! trade-off.
//!
//! Builds the simulated test platform, runs four cpuburn instances with
//! and without Dimetrodon, and prints the resulting temperature and
//! throughput — the paper's core mechanism in ~50 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::expect_used,
    reason = "example code: a broken invariant should stop it loudly"
)]

use dimetrodon_repro::machine::{Machine, MachineConfig};
use dimetrodon_repro::policy::{DimetrodonHook, InjectionParams, PolicyHandle};
use dimetrodon_repro::sched::{System, ThreadKind};
use dimetrodon_repro::sim::{SimDuration, SimTime};
use dimetrodon_repro::workload::CpuBurn;

fn run(p: Option<f64>) -> Result<(f64, f64), Box<dyn std::error::Error>> {
    let mut machine = Machine::new(MachineConfig::xeon_e5520())?;
    machine.settle_idle();
    let mut system = System::new(machine);

    // Install a Dimetrodon policy: with probability p, the scheduler runs
    // the idle thread for 25 ms instead of the selected thread.
    if let Some(p) = p {
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(p, SimDuration::from_millis(25))));
        system.set_hook(Box::new(DimetrodonHook::new(policy, 42)));
    }

    // The paper's worst-case load: one cpuburn instance per core.
    let ids: Vec<_> = (0..4)
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
        .collect();

    let duration = SimTime::from_secs(150);
    system.run_until(duration);

    let temp = system
        .observed_temp_over(SimTime::from_secs(120))
        .expect("temperature was sampled");
    let executed: f64 = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();
    let throughput = executed / (4.0 * 150.0);
    Ok((temp, throughput))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let idle = Machine::new(MachineConfig::xeon_e5520())?.idle_temperature();
    println!("idle temperature: {idle:.1} C\n");

    let (hot_temp, hot_thr) = run(None)?;
    println!("unconstrained:  {hot_temp:.1} C at {:.1}% throughput", hot_thr * 100.0);

    for p in [0.25, 0.5, 0.75] {
        let (temp, thr) = run(Some(p))?;
        let temp_reduction = (hot_temp - temp) / (hot_temp - idle) * 100.0;
        let thr_reduction = (1.0 - thr / hot_thr) * 100.0;
        println!(
            "p = {p:.2}:       {temp:.1} C at {:.1}% throughput \
             ({temp_reduction:.0}% cooler for {thr_reduction:.0}% slower)",
            thr * 100.0,
        );
    }
    Ok(())
}
