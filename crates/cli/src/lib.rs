//! Library behind the `dimetrodon-sim` CLI: argument parsing
//! ([`Options`]) and scenario execution ([`run_scenario`] → [`Report`]).
//!
//! Split from the binary so the parsing and the scenario runner are unit-
//! and property-testable.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_cli::Options;
//!
//! let options = Options::parse(["--workload", "astar", "--p", "0.25"])?;
//! assert_eq!(options.p, Some(0.25));
//! # Ok::<(), dimetrodon_cli::ArgsError>(())
//! ```

mod args;
mod report;

pub use args::{Options, SchedulerChoice, WorkloadChoice, USAGE};
pub use dimetrodon_harness::args::ArgsError;
pub use report::{run_scenario, Report, ScenarioError};
