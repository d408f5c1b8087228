//! Simulation primitives for the Dimetrodon reproduction.
//!
//! This crate is the substrate under every other crate in the workspace: a
//! nanosecond-resolution simulation clock ([`SimTime`], [`SimDuration`]),
//! seeded randomness with the distributions the experiments need
//! ([`SimRng`]), and time-series recording with the paper's measurement
//! reductions ([`TimeSeries`]). The event calendar lives with its one
//! user, the scheduler's `System` in `dimetrodon-sched`.
//!
//! Determinism is the design center. The original paper measured real
//! hardware, where run-to-run variance is controlled by averaging many
//! trials; in this reproduction every source of nondeterminism is a seeded
//! PRNG stream and the scheduler breaks every same-instant event tie by
//! insertion order, so a given `(scenario, seed)` pair always produces the
//! same result and "trials" are simply different seeds.
//!
//! # Examples
//!
//! A noisy reading sampled every 100 ms, then averaged over its last
//! five seconds:
//!
//! ```
//! use dimetrodon_sim_core::{SimDuration, SimRng, SimTime, TimeSeries};
//!
//! let mut rng = SimRng::new(7);
//! let mut series = TimeSeries::new("temp_c");
//! let mut t = SimTime::ZERO;
//! while t < SimTime::from_secs(10) {
//!     series.push(t, 40.0 + rng.uniform_range(-0.5, 0.5));
//!     t += SimDuration::from_millis(100);
//! }
//! assert_eq!(series.len(), 100);
//! let tail = series.mean_over(SimTime::from_secs(5)).unwrap();
//! assert!((39.5..40.5).contains(&tail));
//! // The same seed draws the same stream.
//! assert_eq!(SimRng::new(7).uniform(), SimRng::new(7).uniform());
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod rng;
mod series;
mod time;

pub use rng::{derive_seed, SimRng};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
