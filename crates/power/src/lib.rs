//! Processor power modelling for the Dimetrodon reproduction.
//!
//! The paper's experiments depend on four power mechanisms behaving with
//! the right *relative* shapes:
//!
//! * the **C1E** idle state that injected idle quanta reach (deep: clocks
//!   stopped, voltage dropped) — [`CoreState::IdleC1e`];
//! * **DVFS/VFS** operating points whose power falls superlinearly with
//!   frequency (`V²f`) — [`PStateTable`];
//! * **TCC clock duty cycling** (`p4tcc`) that trims dynamic power only,
//!   leaving leakage and uncore untouched — the `tcc_duty` argument of
//!   [`CorePowerParams::core_power`];
//! * temperature-dependent **leakage**, which couples the thermal model
//!   back into power.
//!
//! The crate also provides exact energy accounting ([`EnergyMeter`]) and a
//! simulated current-clamp instrument ([`PowerMeter`]) with the paper's
//! sampling rate and accuracy so the §3.3 energy validation can be
//! reproduced measurement noise included.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_power::{CorePowerParams, CoreState, PStateTable};
//!
//! let params = CorePowerParams::xeon_e5520();
//! let table = PStateTable::xeon_e5520();
//! let busy = params.core_power(CoreState::active(1.0), table.fastest(), 1.0, 60.0);
//! let idle = params.core_power(CoreState::IdleC1e, table.fastest(), 1.0, 45.0);
//! assert!(busy > 10.0 * idle);
//! ```

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod cstate;
mod meter;
mod model;
mod pstate;

pub use cstate::{Activity, CoreState};
pub use meter::{EnergyMeter, PowerMeter};
pub use model::{CorePowerParams, PackagePowerParams};
pub use pstate::{PState, PStateId, PStateTable};
