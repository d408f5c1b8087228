//! Closed-loop preventive thermal control (beyond-the-paper extension).
//!
//! The paper evaluates static `(p, L)` policies and notes the policy "can
//! be adjusted online" (S2). This example deploys the
//! [`SetpointController`](dimetrodon_repro::policy::SetpointController):
//! an integral controller that adapts the global injection probability to
//! hold the mean core temperature at a setpoint while the load changes
//! underneath it.
//!
//! ```text
//! cargo run --release --example closed_loop
//! ```

#![allow(
    clippy::expect_used,
    reason = "example code: a broken invariant should stop it loudly"
)]

use dimetrodon_repro::machine::{Machine, MachineConfig};
use dimetrodon_repro::policy::{DimetrodonHook, PolicyHandle, SetpointController};
use dimetrodon_repro::sched::{System, ThreadKind};
use dimetrodon_repro::sim::{SimDuration, SimTime};
use dimetrodon_repro::workload::{CpuBurn, SpecBenchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let setpoint = 45.0;
    let mut machine = Machine::new(MachineConfig::xeon_e5520())?;
    machine.settle_idle();
    let idle = machine.idle_temperature();

    let policy = PolicyHandle::new();
    let hook = DimetrodonHook::new(policy.clone(), 99);
    let controller = SetpointController::new(hook, setpoint, SimDuration::from_millis(25));

    let mut system = System::new(machine);
    system.set_hook(Box::new(controller));

    println!("idle temperature {idle:.1} C, setpoint {setpoint:.1} C\n");
    println!("phase 1 (0-120 s): two moderate SPEC-like threads");
    for _ in 0..2 {
        system.spawn(ThreadKind::User, Box::new(SpecBenchmark::Gcc.body()));
    }
    system.run_until(SimTime::from_secs(120));
    report(&system, &policy, 120);

    println!("\nphase 2 (120-300 s): four cpuburn threads pile on");
    for _ in 0..4 {
        system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
    }
    system.run_until(SimTime::from_secs(300));
    report(&system, &policy, 300);

    println!(
        "\nThe controller leaves the light load alone and ramps injection\n\
         only when the heavy load arrives, holding the machine near the\n\
         setpoint without a statically chosen (p, L)."
    );
    Ok(())
}

fn report(system: &System, policy: &PolicyHandle, at_secs: u64) {
    let tail = SimTime::from_secs(at_secs.saturating_sub(30));
    let temp = system
        .mean_temp_series()
        .mean_over(tail)
        .expect("temperature sampled");
    match policy.global() {
        Some(params) => println!(
            "  t = {at_secs:>3} s: mean core temp {temp:.1} C, controller at {params}"
        ),
        None => println!("  t = {at_secs:>3} s: mean core temp {temp:.1} C, injection off"),
    }
}
