//! Umbrella crate for the Dimetrodon reproduction workspace.
//!
//! Re-exports every workspace crate under one roof so that examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`policy`] (`dimetrodon`) — the paper's contribution: idle-cycle
//!   injection policies, per-thread control, analytic models, and the
//!   closed-loop controller;
//! * [`sim`] — the discrete-event substrate (time, events, RNG, series);
//! * [`thermal`] — the lumped RC thermal network;
//! * [`power`] — P-states, C-states, leakage, and the power meter;
//! * [`machine`] — the simulated Xeon E5520 test platform;
//! * [`sched`] — threads, the 4.4BSD/ULE schedulers, and the full-system
//!   simulation;
//! * [`faults`] — deterministic fault injection: degraded sensor models,
//!   scheduler-side fault wrappers, and the fault schedule DSL;
//! * [`workload`] — cpuburn, SPEC-like profiles, and the web workload;
//! * [`analysis`] — pareto frontiers, power-law fits, statistics, tables;
//! * [`harness`] — one runnable experiment per table and figure.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_repro::machine::{Machine, MachineConfig};
//! use dimetrodon_repro::policy::{DimetrodonHook, InjectionParams, PolicyHandle};
//! use dimetrodon_repro::sched::{Spin, System, ThreadKind};
//! use dimetrodon_repro::sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), dimetrodon_repro::machine::MachineError> {
//! let policy = PolicyHandle::new();
//! policy.set_global(Some(InjectionParams::new(0.25, SimDuration::from_millis(25))));
//!
//! let mut system = System::new(Machine::new(MachineConfig::xeon_e5520())?);
//! system.set_hook(Box::new(DimetrodonHook::new(policy, 7)));
//! system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
//! system.run_until(SimTime::from_secs(5));
//! # Ok(())
//! # }
//! ```

pub use dimetrodon as policy;
pub use dimetrodon_analysis as analysis;
pub use dimetrodon_faults as faults;
pub use dimetrodon_fleet as fleet;
pub use dimetrodon_harness as harness;
pub use dimetrodon_machine as machine;
pub use dimetrodon_power as power;
pub use dimetrodon_sched as sched;
pub use dimetrodon_sim_core as sim;
pub use dimetrodon_thermal as thermal;
pub use dimetrodon_workload as workload;
