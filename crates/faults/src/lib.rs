//! Deterministic, seeded fault injection for the Dimetrodon simulator.
//!
//! The paper's preventive mechanism is meant to coexist with reactive
//! hardware failsafes, and its closed-loop extensions consume telemetry
//! that on real silicon is noisy, quantized, stale, or intermittently
//! missing. This crate wraps the two boundaries where that reality
//! bites:
//!
//! * **Telemetry** ([`Telemetry`], [`SensorModel`], [`FaultyTelemetry`])
//!   — every controller-visible temperature and power read flows through
//!   a sensor model that can add Gaussian noise, quantize to the DTS
//!   grid, hold stale samples, drop reads, or latch stuck-at values.
//! * **The scheduler hook path** ([`FaultyHook`]) — `on_schedule`
//!   consultations can be dropped, controller ticks suppressed, and
//!   idle-wakeup quanta jittered.
//!
//! Faults are scheduled by a [`FaultPlan`] ("at t=X inject Y on core Z,
//! transient or permanent"), built programmatically or parsed from a
//! small text DSL. All randomness comes from the workspace's seeded
//! [`SimRng`](dimetrodon_sim_core::SimRng); identical seeds and plans
//! reproduce identical fault streams at any worker count.
//!
//! The load-bearing guarantee: **an empty plan with an ideal sensor spec
//! is bit-identical to not having the fault layer at all.** The ideal
//! paths draw zero random numbers and perform no arithmetic on the
//! values they pass through, so baselines stay byte-for-byte stable.

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod ckpt_torture;
mod fleet_plan;
mod hook;
mod plan;
mod sensor;
mod telemetry;

pub use ckpt_torture::{
    corruptions, torture_checkpoint, torture_journal, Corruption, TortureReport,
};
pub use fleet_plan::{
    CrashBacklog, FleetFaultEvent, FleetFaultKind, FleetFaultPlan, FleetTarget,
};
pub use hook::FaultyHook;
pub use plan::{FaultEvent, FaultKind, FaultPlan, FaultTarget, PlanError};
pub use sensor::{SensorModel, SensorSpec};
pub use telemetry::{FaultyTelemetry, IdealTelemetry, Telemetry};
