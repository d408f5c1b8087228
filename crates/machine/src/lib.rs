//! The simulated test platform for the Dimetrodon reproduction.
//!
//! This crate stands in for the paper's physical 1U server (§3.2): an
//! Intel Xeon E5520 quad-core behind a die→package→heatsink thermal stack
//! in a thermostatted room with fans fixed at full speed. A [`Machine`]
//! couples per-core execution state to power draw (including
//! temperature-dependent leakage) and to die temperatures through the RC
//! network of [`dimetrodon_thermal`], and exposes the observables and
//! actuators the paper used:
//!
//! * `coretemp`-style per-core temperature sensors
//!   ([`Machine::coretemp`]);
//! * chip-wide DVFS ([`Machine::set_pstate`]) — the VFS baseline;
//! * TCC clock duty cycling ([`Machine::set_tcc_duty`]) — the `p4tcc`
//!   baseline;
//! * per-core idle entry into C1E, the state Dimetrodon's injected idle
//!   quanta reach ([`Machine::set_core_idle`]).
//!
//! # Examples
//!
//! ```
//! use dimetrodon_machine::{CoreId, Machine, MachineConfig};
//! use dimetrodon_power::CoreState;
//! use dimetrodon_sim_core::SimDuration;
//!
//! # fn main() -> Result<(), dimetrodon_machine::MachineError> {
//! let mut machine = Machine::new(MachineConfig::xeon_e5520())?;
//! machine.settle_idle();
//! machine.set_core_state(CoreId(0), CoreState::active(1.0));
//! machine.advance(SimDuration::from_secs(30));
//! assert!(machine.coretemp(CoreId(0)) > machine.coretemp(CoreId(3)));
//! # Ok(())
//! # }
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod config;
mod machine;

pub use config::{
    encode_machine_config, machine_config_bytes, DeepIdleConfig, IdleMode, MachineConfig,
    ThermalSpec, ThermalThrottle, ThermalTrip,
};
pub use machine::{CoreId, Machine, MachineError, MIN_TCC_DUTY};
