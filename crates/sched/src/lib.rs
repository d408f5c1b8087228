//! Discrete-event CPU scheduling for the Dimetrodon reproduction.
//!
//! This crate stands in for the paper's modified FreeBSD 7.2 kernel
//! (§3.1): threads with pluggable behaviours ([`ThreadBody`]), runqueue
//! policies (the 4.4BSD multi-level feedback queue the paper modified —
//! [`BsdScheduler`] — and a ULE-lite variant, [`UleScheduler`], for
//! footnote 2's generalisation claim), and the full-system simulation
//! [`System`] that couples scheduling decisions to the
//! [`Machine`](dimetrodon_machine::Machine) power/thermal model.
//!
//! The Dimetrodon mechanism itself attaches through [`SchedHook`]: at
//! every scheduling decision the hook may replace the selected thread
//! with an injected idle quantum, pinning the thread for the duration
//! exactly as the paper's kernel does. The policies (probabilistic
//! injection, per-thread control, the closed-loop controller) live in the
//! `dimetrodon` crate.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_machine::{Machine, MachineConfig};
//! use dimetrodon_sched::{FixedWork, System, ThreadKind};
//! use dimetrodon_sim_core::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), dimetrodon_machine::MachineError> {
//! let mut system = System::new(Machine::new(MachineConfig::xeon_e5520())?);
//! let id = system.spawn(
//!     ThreadKind::User,
//!     Box::new(FixedWork::new(SimDuration::from_secs(1), 1.0)),
//! );
//! assert!(system.run_until_exited(&[id], SimTime::from_secs(10)));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod body;
mod calendar;
mod hook;
mod scheduler;
mod system;
mod thread;
mod trace;

pub use body::{FixedWork, Spin};
pub use hook::{Decision, NullHook, SchedHook, ScheduleContext};
pub use scheduler::{BsdScheduler, Scheduler, UleScheduler};
pub use system::{SchedConfig, System};
pub use thread::{Action, Burst, ThreadBody, ThreadId, ThreadKind, ThreadStats};
pub use trace::{DecisionTrace, TraceEvent, TraceRecord};
