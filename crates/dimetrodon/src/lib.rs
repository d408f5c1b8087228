//! **Dimetrodon**: processor-level preventive thermal management via idle
//! cycle injection — a full reproduction of the DAC 2011 paper by Bailis,
//! Reddi, Gandhi, Brooks, and Seltzer.
//!
//! Dimetrodon lowers *average-case* operating temperature by trading
//! application performance for heat: each time the scheduler is about to
//! dispatch a thread, with probability `p` it instead pins the thread and
//! runs the kernel idle thread for a quantum `L`, letting the core drop
//! into a low-power state and cool. Because silicon cools exponentially
//! fast over short windows, small `L` values buy disproportionate
//! temperature reductions (up to 16:1 temperature:throughput in the
//! paper's measurements).
//!
//! This crate is the policy layer of the reproduction:
//!
//! * [`DimetrodonHook`] — the injection mechanism as a scheduler hook,
//!   with the paper's probabilistic model and the §3.4 deterministic
//!   (error-diffusion) variant;
//! * [`PolicyHandle`] / [`InjectionParams`] — the per-thread policy
//!   control interface (the paper's control system calls): global
//!   defaults, per-thread overrides, kernel-thread exemption;
//! * [`model`] — the §2.2 analytic throughput and energy models;
//! * [`SetpointController`] — a beyond-the-paper closed-loop mode that
//!   adapts `p` online to hold a temperature setpoint or a package power
//!   cap (§4's power capping by forced idleness), reading through a
//!   pluggable telemetry source and a degradation-aware
//!   [`TelemetryFilter`] (median filtering, outlier rejection,
//!   anti-windup freeze, fallback to the reactive trip);
//! * [`SmtCoScheduler`] — §3.2's sketched SMT support: co-schedules idle
//!   quanta across sibling hardware threads so the physical core reaches
//!   C1E.
//!
//! # Examples
//!
//! Inject with the paper's parameters on a simulated machine:
//!
//! ```
//! use dimetrodon::{DimetrodonHook, InjectionParams, PolicyHandle};
//! use dimetrodon_machine::{Machine, MachineConfig};
//! use dimetrodon_sched::{Spin, System, ThreadKind};
//! use dimetrodon_sim_core::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), dimetrodon_machine::MachineError> {
//! let policy = PolicyHandle::new();
//! policy.set_global(Some(InjectionParams::new(0.25, SimDuration::from_millis(50))));
//!
//! let mut system = System::new(Machine::new(MachineConfig::xeon_e5520())?);
//! system.machine_mut().settle_idle();
//! system.set_hook(Box::new(DimetrodonHook::new(policy, 42)));
//! for _ in 0..4 {
//!     system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
//! }
//! system.run_until(SimTime::from_secs(60));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod controller;
mod harden;
mod hook;
/// The paper's analytic delay model `D(t) = R + S·p/(1−p)·L` and its
/// calibration helpers.
pub mod model;
mod planner;
mod policy;
mod smt;

pub use controller::SetpointController;
pub use harden::{Signal, TelemetryFilter};
pub use hook::DimetrodonHook;
pub use policy::{InjectionModel, InjectionParams, PolicyHandle, PolicyTable};
pub use planner::{PlanError, PolicyPlanner, PowerLawTradeoff};
pub use smt::SmtCoScheduler;
