//! Discrete-event simulation primitives for the Dimetrodon reproduction.
//!
//! This crate is the substrate under every other crate in the workspace: a
//! nanosecond-resolution simulation clock ([`SimTime`], [`SimDuration`]), a
//! deterministic event calendar ([`EventQueue`]), seeded randomness with the
//! distributions the experiments need ([`SimRng`]), and time-series
//! recording with the paper's measurement reductions ([`TimeSeries`]).
//!
//! Determinism is the design center. The original paper measured real
//! hardware, where run-to-run variance is controlled by averaging many
//! trials; in this reproduction every source of nondeterminism is a seeded
//! PRNG stream and every same-instant event tie is broken by insertion
//! order, so a given `(scenario, seed)` pair always produces the same
//! result and "trials" are simply different seeds.
//!
//! # Examples
//!
//! A minimal event loop:
//!
//! ```
//! use dimetrodon_sim_core::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event {
//!     Tick,
//!     Stop,
//! }
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO, Event::Tick);
//! queue.push(SimTime::from_secs(1), Event::Stop);
//!
//! let mut ticks = 0;
//! while let Some(scheduled) = queue.pop() {
//!     match scheduled.event {
//!         Event::Tick => {
//!             ticks += 1;
//!             if ticks < 5 {
//!                 queue.push(scheduled.at + SimDuration::from_millis(100), Event::Tick);
//!             }
//!         }
//!         Event::Stop => break,
//!     }
//! }
//! assert_eq!(ticks, 5);
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

pub mod invariant;
mod queue;
mod rng;
mod series;
mod time;

pub use queue::{EventQueue, Scheduled};
pub use rng::{derive_seed, SimRng};
pub use series::TimeSeries;
pub use time::{SimDuration, SimTime};
