//! Workload generators for the Dimetrodon reproduction.
//!
//! The paper evaluates Dimetrodon against four workload families; this
//! crate supplies simulated equivalents of each:
//!
//! * [`CpuBurn`] — the worst-case thermal stressor (`burnP6`), infinite
//!   for characterisation and finite for model validation (§3.3–3.4);
//! * [`SpecBenchmark`] / [`SpecProfile`] — six SPEC CPU2006-like
//!   CPU-bound profiles whose activity factors are calibrated to Table 1's
//!   per-benchmark temperature rises (§3.5);
//! * [`PeriodicBurn`] — the §3.6 "cool process" (6 s of cpuburn, 60 s of
//!   sleep) for the per-thread control demonstration;
//! * [`Connection`] / [`WebConfig`] — the §3.7 SPECWeb-like workload:
//!   440 open-loop connections scored against "good" (3 s) and
//!   "tolerable" (5 s) QoS thresholds.
//!
//! # Examples
//!
//! Spawning the paper's standard four-instance cpuburn load:
//!
//! ```
//! use dimetrodon_machine::{Machine, MachineConfig};
//! use dimetrodon_sched::{System, ThreadKind};
//! use dimetrodon_workload::CpuBurn;
//! use dimetrodon_sim_core::SimTime;
//!
//! # fn main() -> Result<(), dimetrodon_machine::MachineError> {
//! let mut system = System::new(Machine::new(MachineConfig::xeon_e5520())?);
//! for _ in 0..4 {
//!     system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
//! }
//! system.run_until(SimTime::from_secs(5));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod cpuburn;
mod periodic;
mod replay;
mod spec;
mod web;

pub use cpuburn::CpuBurn;
pub use periodic::{CycleCounter, PeriodicBurn};
pub use replay::{ParseProfileError, Phase, ReplayBody, WorkloadProfile};
pub use spec::{SpecBenchmark, SpecProfile};
pub use web::{Connection, QosHandle, QosStats, QosTail, WebConfig};

use dimetrodon_sched::{System, ThreadId, ThreadKind};
use dimetrodon_sim_core::SimRng;

/// Spawns a full web workload (one connection thread per configured
/// connection) onto a system, returning the thread ids and the shared QoS
/// statistics handle.
pub fn spawn_web_workload(
    system: &mut System,
    config: WebConfig,
    rng: &mut SimRng,
) -> (Vec<ThreadId>, QosHandle) {
    config.validate();
    let stats = QosHandle::new();
    let ids = (0..config.connections)
        .map(|i| {
            let conn = Connection::new(config, stats.clone(), rng.fork(i as u64));
            system.spawn(ThreadKind::User, Box::new(conn))
        })
        .collect();
    (ids, stats)
}
