//! Lumped RC thermal modelling for the Dimetrodon reproduction.
//!
//! The original paper measured die temperatures on a physical Xeon E5520
//! with FreeBSD's `coretemp`. This crate supplies the substitute: a lumped
//! resistance–capacitance thermal network in the HotSpot tradition, small
//! enough to integrate inside a discrete-event scheduler simulation but
//! structured enough to reproduce the paper's central thermal phenomenon —
//! *silicon cools exponentially fast over short windows, while the package
//! and heatsink respond over seconds to minutes*, which is why short
//! injected idle quanta are so much more efficient than long ones
//! (paper §3.4, Figure 3).
//!
//! A network is built with [`ThermalNetworkBuilder`]: nodes carry heat
//! capacities (J/K), edges carry conductances (W/K), and one distinguished
//! ambient node holds a fixed temperature (the paper's 25.2 °C thermostat
//! setpoint). Heat is injected at nodes in watts and the network is
//! advanced through time with an unconditionally stable exponential-Euler
//! integrator, so the event-driven caller may use arbitrary step sizes.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_sim_core::SimDuration;
//! use dimetrodon_thermal::ThermalNetworkBuilder;
//!
//! # fn main() -> Result<(), dimetrodon_thermal::ThermalError> {
//! // A die with a fast time constant behind a slow package.
//! let mut builder = ThermalNetworkBuilder::new(25.2);
//! let die = builder.add_node("die", 0.5);
//! let pkg = builder.add_node("package", 120.0);
//! builder.connect(die, pkg, 2.0);
//! builder.connect_ambient(pkg, 1.2);
//! let mut network = builder.build()?;
//!
//! network.set_power(die, 20.0);
//! network.advance(SimDuration::from_secs(2));
//! assert!(network.temperature(die) > network.temperature(pkg));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod linalg;
mod network;
mod rk4;

pub use network::{NodeId, ThermalError, ThermalNetwork, ThermalNetworkBuilder};
pub use rk4::rk4_reference;
