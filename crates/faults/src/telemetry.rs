//! The telemetry boundary: every controller-visible temperature or power
//! reading flows through a [`Telemetry`] implementation.
//!
//! [`IdealTelemetry`] is a zero-cost passthrough to the machine's exact
//! state — the pre-fault-layer behaviour, bit for bit. [`FaultyTelemetry`]
//! routes each read through a [`SensorModel`] and a [`FaultPlan`], so
//! controllers see noisy, quantized, stale, stuck, or missing data.

use std::fmt;

use dimetrodon_machine::{CoreId, Machine};
use dimetrodon_sim_core::SimTime;

use crate::plan::FaultPlan;
use crate::sensor::{SensorModel, SensorSpec};

/// A source of controller-visible machine readings.
///
/// Implementations may be stateful (sample-and-hold, RNG streams), hence
/// `&mut self`. A reading of NaN means "no data"; consumers must treat
/// non-finite values as sensor loss, never as temperatures.
pub trait Telemetry: fmt::Debug + Send {
    /// Mean core temperature visible to a controller at `now`, in °C.
    fn mean_core_temperature(&mut self, machine: &Machine, now: SimTime) -> f64;

    /// Package power visible to a controller at `now`, in watts.
    fn package_power(&mut self, machine: &Machine, now: SimTime) -> f64;

    /// Reads lost so far (always zero for ideal sources).
    fn dropped_reads(&self) -> u64 {
        0
    }
}

/// Perfect telemetry: exact passthrough of the machine's state, with no
/// RNG draws and no arithmetic on the values. This is the default source
/// for both controllers and keeps the zero-fault configuration
/// bit-identical to the pre-fault-layer code path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealTelemetry;

impl Telemetry for IdealTelemetry {
    fn mean_core_temperature(&mut self, machine: &Machine, _now: SimTime) -> f64 {
        machine.mean_core_temperature()
    }

    fn package_power(&mut self, machine: &Machine, _now: SimTime) -> f64 {
        machine.package_power()
    }
}

/// Degraded telemetry: per-core sensor reads through a [`SensorModel`]
/// plus a [`FaultPlan`], averaged over the cores that still answer.
///
/// The mean-temperature read samples every core's hotspot sensor (the
/// DTS a real controller would read) and averages the finite readings;
/// when every core is lost the mean itself is NaN and the consumer must
/// fall back (the hardened controllers fall back to the reactive
/// thermal trip).
#[derive(Clone)]
pub struct FaultyTelemetry {
    sensors: SensorModel,
    plan: FaultPlan,
}

impl fmt::Debug for FaultyTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTelemetry")
            .field("spec", &self.sensors.spec())
            .field("plan_events", &self.plan.events().len())
            .field("dropped", &self.sensors.dropped())
            .finish()
    }
}

impl FaultyTelemetry {
    /// Builds a degraded telemetry source.
    ///
    /// # Panics
    ///
    /// Panics if the spec's parameters are non-finite or out of range.
    pub fn new(spec: SensorSpec, plan: FaultPlan, seed: u64) -> Self {
        FaultyTelemetry { sensors: SensorModel::new(spec, seed), plan }
    }

    /// The fault plan driving scheduled sensor faults.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The underlying sensor model (for counters).
    pub fn sensors(&self) -> &SensorModel {
        &self.sensors
    }
}

impl Telemetry for FaultyTelemetry {
    fn mean_core_temperature(&mut self, machine: &Machine, now: SimTime) -> f64 {
        let mut sum = 0.0;
        let mut valid = 0usize;
        for i in 0..machine.num_cores() {
            let r = self.sensors.read_temperature(machine, &self.plan, CoreId(i), now);
            if r.is_finite() {
                sum += r;
                valid += 1;
            }
        }
        if valid == 0 {
            f64::NAN
        } else {
            sum / valid as f64
        }
    }

    fn package_power(&mut self, machine: &Machine, now: SimTime) -> f64 {
        self.sensors.read_package_power(machine, &self.plan, now)
    }

    fn dropped_reads(&self) -> u64 {
        self.sensors.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultTarget};
    use dimetrodon_machine::MachineConfig;
    use dimetrodon_sim_core::SimDuration;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        m.settle_idle();
        m
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn ideal_telemetry_is_exact() {
        let m = machine();
        let mut t = IdealTelemetry;
        assert_eq!(
            t.mean_core_temperature(&m, secs(1)).to_bits(),
            m.mean_core_temperature().to_bits()
        );
        assert_eq!(t.package_power(&m, secs(1)).to_bits(), m.package_power().to_bits());
        assert_eq!(t.dropped_reads(), 0);
    }

    #[test]
    fn partial_dropout_averages_the_surviving_cores() {
        let m = machine();
        let plan = FaultPlan::new().with(secs(0), FaultTarget::Core(0), FaultKind::Dropout, None);
        let mut t = FaultyTelemetry::new(SensorSpec::ideal(), plan, 5);
        let mean = t.mean_core_temperature(&m, secs(1));
        assert!(mean.is_finite(), "three cores still answer");
        assert!(t.dropped_reads() >= 1);
    }

    #[test]
    fn total_dropout_yields_nan_not_a_number_dressed_as_a_temperature() {
        let m = machine();
        let plan = FaultPlan::new().with(secs(0), FaultTarget::All, FaultKind::Dropout, None);
        let mut t = FaultyTelemetry::new(SensorSpec::ideal(), plan, 5);
        assert!(t.mean_core_temperature(&m, secs(1)).is_nan());
        assert!(t.package_power(&m, secs(1)).is_nan(), "all-target dropout covers power too");
    }

    #[test]
    fn stuck_sensor_skews_the_mean() {
        let m = machine();
        let honest = m.mean_sensor_temperature();
        let plan =
            FaultPlan::new().with(secs(0), FaultTarget::Core(0), FaultKind::StuckAt(100.0), None);
        let mut t = FaultyTelemetry::new(SensorSpec::ideal(), plan, 5);
        let mean = t.mean_core_temperature(&m, secs(1));
        assert!(mean > honest + 5.0, "one stuck-high sensor must pull the mean up: {mean}");
    }
}
