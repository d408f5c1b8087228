//! Analysis utilities for the Dimetrodon reproduction's evaluation.
//!
//! The paper's methodology reduces parameter sweeps to three artefacts,
//! all reproduced here dependency-free:
//!
//! * **pareto boundaries** ([`pareto_frontier`]) — every trade-off figure
//!   darkens the non-dominated configurations;
//! * **power-law fits** ([`fit_power_law`]) — §3.4's
//!   `T(r) = α·r^β` quantification of the throughput/temperature
//!   trade-off, reported per workload in Table 1;
//! * **trial statistics** ([`Summary`]) — means and (absolute) deviations
//!   over repeated trials, as in the §3.3 validations.
//!
//! [`Table`] renders results as aligned text or CSV for the harness
//! binaries.

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod availability;
mod histogram;
mod pareto;
mod powerlaw;
mod stats;
mod table;

pub use availability::Availability;
pub use histogram::Histogram;
pub use pareto::{frontier_cost_at, pareto_frontier, TradeoffPoint};
pub use powerlaw::{fit_power_law, FitError, PowerLawFit};
pub use stats::Summary;
pub use table::Table;
