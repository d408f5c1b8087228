//! Experiment harness for the Dimetrodon reproduction.
//!
//! This crate turns the workspace's substrates — machine, scheduler,
//! policies, workloads — into the paper's evaluation: a common
//! characterisation runner implementing §3.2–3.4's measurement
//! conventions, and one [`experiments`] module per table and figure. The
//! `dimetrodon-bench` crate's binaries print each experiment as a table;
//! integration tests assert the qualitative *shapes* the paper reports
//! (who wins where, crossovers, convexity) rather than absolute watts or
//! degrees.
//!
//! # Examples
//!
//! Reproduce one point of Figure 3's sweep:
//!
//! ```no_run
//! use dimetrodon::{InjectionModel, InjectionParams};
//! use dimetrodon_harness::{characterize, Actuation, RunConfig, SaturatingWorkload};
//! use dimetrodon_sim_core::SimDuration;
//!
//! let config = RunConfig::paper(42);
//! let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, config);
//! let run = characterize(
//!     SaturatingWorkload::CpuBurn,
//!     Actuation::Injection {
//!         params: InjectionParams::new(0.5, SimDuration::from_millis(10)),
//!         model: InjectionModel::Probabilistic,
//!     },
//!     config,
//! );
//! println!(
//!     "temp reduction {:.1}% for throughput reduction {:.1}%",
//!     run.temp_reduction_vs(&base) * 100.0,
//!     run.throughput_reduction_vs(&base) * 100.0,
//! );
//! ```

pub mod args;
pub mod experiments;
mod runner;
pub mod supervise;
pub mod sweep;

pub use runner::{
    build_system, build_system_on, characterize, characterize_on, Actuation, RunConfig, RunOutcome,
    SaturatingWorkload,
};
