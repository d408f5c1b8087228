//! Per-core sensor degradation: Gaussian noise, quantization, sampling
//! staleness, ambient dropout, and plan-driven stuck-at / dropout /
//! noise-burst faults.
//!
//! The model is written so that the *ideal* configuration with an empty
//! [`FaultPlan`] draws **zero** random numbers and returns the machine's
//! exact reading — that is what lets the zero-fault configuration stay
//! bit-identical to a run without the fault layer at all.

use dimetrodon_machine::{CoreId, Machine};
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};

use crate::plan::FaultPlan;

/// Static sensor characteristics, shared by every core.
///
/// The defaults ([`SensorSpec::ideal`]) are all-off; [`SensorSpec::dts`]
/// approximates a Nehalem-class digital thermal sensor (about half a
/// degree of noise, 1 °C quantization, millisecond staleness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSpec {
    /// Zero-mean Gaussian noise sigma applied to every temperature read,
    /// in °C. Zero disables (and skips the RNG draw).
    pub noise_sigma: f64,
    /// Reading resolution in °C (readings are rounded to the nearest
    /// multiple). Zero disables.
    pub quantum_celsius: f64,
    /// Minimum interval between fresh samples; reads inside the window
    /// return the previously sampled value. Zero disables.
    pub staleness: SimDuration,
    /// Ambient probability that any single read is lost (returns NaN),
    /// independent of the fault plan. Zero disables.
    pub dropout_p: f64,
    /// Gaussian noise sigma on package power reads, in watts. Zero
    /// disables.
    pub power_noise_sigma: f64,
}

impl SensorSpec {
    /// A perfect sensor: exact, instantaneous, lossless. Reads through
    /// this spec perform no RNG draws and no arithmetic on the value.
    pub fn ideal() -> Self {
        SensorSpec {
            noise_sigma: 0.0,
            quantum_celsius: 0.0,
            staleness: SimDuration::ZERO,
            dropout_p: 0.0,
            power_noise_sigma: 0.0,
        }
    }

    /// A Nehalem-class digital thermal sensor: ±0.5 °C Gaussian noise,
    /// 1 °C quantization, 1 ms sample-and-hold (Rotem et al. report the
    /// Core Duo DTS in this class).
    pub fn dts() -> Self {
        SensorSpec {
            noise_sigma: 0.5,
            quantum_celsius: 1.0,
            staleness: SimDuration::from_millis(1),
            dropout_p: 0.0,
            power_noise_sigma: 0.0,
        }
    }

    /// Whether every degradation in the spec is disabled.
    pub fn is_ideal(&self) -> bool {
        self.noise_sigma <= 0.0
            && self.quantum_celsius <= 0.0
            && self.staleness.is_zero()
            && self.dropout_p <= 0.0
            && self.power_noise_sigma <= 0.0
    }

    fn validate(&self) {
        assert!(
            self.noise_sigma.is_finite() && self.noise_sigma >= 0.0,
            "sensor noise sigma must be finite and >= 0, got {}",
            self.noise_sigma
        );
        assert!(
            self.quantum_celsius.is_finite() && self.quantum_celsius >= 0.0,
            "sensor quantum must be finite and >= 0, got {}",
            self.quantum_celsius
        );
        assert!(
            self.dropout_p.is_finite() && (0.0..=1.0).contains(&self.dropout_p),
            "sensor dropout probability must be in [0, 1], got {}",
            self.dropout_p
        );
        assert!(
            self.power_noise_sigma.is_finite() && self.power_noise_sigma >= 0.0,
            "power noise sigma must be finite and >= 0, got {}",
            self.power_noise_sigma
        );
    }
}

impl Default for SensorSpec {
    fn default() -> Self {
        SensorSpec::ideal()
    }
}

/// Stateful per-core sensor front-end: applies the [`SensorSpec`] and an
/// optional [`FaultPlan`] to raw machine readings.
#[derive(Debug, Clone)]
pub struct SensorModel {
    spec: SensorSpec,
    rng: SimRng,
    /// Per-core sample-and-hold state for the staleness window.
    held: Vec<(SimTime, f64)>,
    reads: u64,
    dropped: u64,
}

impl SensorModel {
    /// Builds a sensor model.
    ///
    /// # Panics
    ///
    /// Panics if the spec's parameters are non-finite or out of range.
    pub fn new(spec: SensorSpec, seed: u64) -> Self {
        spec.validate();
        SensorModel { spec, rng: SimRng::new(seed), held: Vec::new(), reads: 0, dropped: 0 }
    }

    /// The spec this model was built with.
    pub fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// Total temperature reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Reads lost to dropout (scheduled or ambient).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// One degraded temperature read for `core` at `now`.
    ///
    /// Returns NaN when the read is lost to dropout; callers are
    /// expected to treat non-finite readings as "no data" (the hardened
    /// controllers do exactly that).
    pub fn read_temperature(
        &mut self,
        machine: &Machine,
        plan: &FaultPlan,
        core: CoreId,
        now: SimTime,
    ) -> f64 {
        self.reads += 1;
        let idx = core.index();

        // Stuck-at wins over everything: a latched sensor register keeps
        // answering, it just answers wrong.
        if let Some(v) = plan.stuck_value(idx, now) {
            return v;
        }
        if plan.dropout_active(idx, now) {
            self.dropped += 1;
            return f64::NAN;
        }
        if self.spec.dropout_p > 0.0 && self.rng.bernoulli(self.spec.dropout_p) {
            self.dropped += 1;
            return f64::NAN;
        }

        // Sample-and-hold: inside the staleness window, re-serve the
        // previous sample without touching the machine or the RNG.
        if !self.spec.staleness.is_zero() {
            if let Some(&(sampled_at, value)) = self.held.get(idx) {
                if !value.is_nan() && now.saturating_since(sampled_at) < self.spec.staleness {
                    return value;
                }
            }
        }

        let mut value = machine.core_sensor_temperature(core);
        let sigma = self.spec.noise_sigma + plan.noise_sigma(idx, now).unwrap_or(0.0);
        if sigma > 0.0 {
            value += self.rng.normal(0.0, sigma);
        }
        if self.spec.quantum_celsius > 0.0 {
            value = (value / self.spec.quantum_celsius).round() * self.spec.quantum_celsius;
        }
        debug_assert!(
            value.is_finite(),
            "degraded sensor reading must stay finite, got {value}"
        );

        if !self.spec.staleness.is_zero() {
            if self.held.len() <= idx {
                self.held.resize(idx + 1, (SimTime::ZERO, f64::NAN));
            }
            self.held[idx] = (now, value);
        }
        value
    }

    /// One degraded package-power read at `now`.
    ///
    /// Subject to all-core dropout faults and the spec's power noise;
    /// per-core faults do not affect it. Returns NaN when lost.
    pub fn read_package_power(&mut self, machine: &Machine, plan: &FaultPlan, now: SimTime) -> f64 {
        self.reads += 1;
        if plan.dropout_active(usize::MAX, now) {
            // Only an `all`-target dropout covers the fictitious
            // usize::MAX core index, i.e. package-level loss.
            self.dropped += 1;
            return f64::NAN;
        }
        if self.spec.dropout_p > 0.0 && self.rng.bernoulli(self.spec.dropout_p) {
            self.dropped += 1;
            return f64::NAN;
        }
        let mut value = machine.package_power();
        if self.spec.power_noise_sigma > 0.0 {
            value += self.rng.normal(0.0, self.spec.power_noise_sigma);
        }
        debug_assert!(
            value.is_finite(),
            "degraded power reading must stay finite, got {value}"
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultTarget};
    use dimetrodon_machine::MachineConfig;

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        m.settle_idle();
        m
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn ideal_spec_with_empty_plan_is_exact_passthrough() {
        let m = machine();
        let plan = FaultPlan::new();
        let mut a = SensorModel::new(SensorSpec::ideal(), 1);
        let mut b = SensorModel::new(SensorSpec::ideal(), 2);
        for i in 0..m.num_cores() {
            let truth = m.core_sensor_temperature(CoreId(i));
            let ra = a.read_temperature(&m, &plan, CoreId(i), secs(1));
            let rb = b.read_temperature(&m, &plan, CoreId(i), secs(1));
            assert_eq!(truth.to_bits(), ra.to_bits(), "ideal read must be exact");
            assert_eq!(ra.to_bits(), rb.to_bits(), "seed must be irrelevant when ideal");
        }
        assert_eq!(
            a.read_package_power(&m, &plan, secs(1)).to_bits(),
            m.package_power().to_bits()
        );
        assert_eq!(a.dropped(), 0);
    }

    #[test]
    fn stuck_and_dropout_faults_apply_per_core() {
        let m = machine();
        let plan = FaultPlan::new()
            .with(secs(5), FaultTarget::Core(0), FaultKind::StuckAt(99.0), None)
            .with(secs(5), FaultTarget::Core(1), FaultKind::Dropout, None);
        let mut s = SensorModel::new(SensorSpec::ideal(), 7);
        assert_eq!(s.read_temperature(&m, &plan, CoreId(0), secs(6)), 99.0);
        assert!(s.read_temperature(&m, &plan, CoreId(1), secs(6)).is_nan());
        assert!(s.read_temperature(&m, &plan, CoreId(2), secs(6)).is_finite());
        assert_eq!(s.dropped(), 1);
        // Before the fault starts, core 0 reads the truth.
        let truth = m.core_sensor_temperature(CoreId(0));
        assert_eq!(s.read_temperature(&m, &plan, CoreId(0), secs(1)).to_bits(), truth.to_bits());
    }

    #[test]
    fn noise_and_quantization_are_deterministic_per_seed() {
        let m = machine();
        let plan = FaultPlan::new();
        let spec = SensorSpec { noise_sigma: 0.5, quantum_celsius: 1.0, ..SensorSpec::ideal() };
        let mut a = SensorModel::new(spec, 42);
        let mut b = SensorModel::new(spec, 42);
        for i in 0..m.num_cores() {
            let ra = a.read_temperature(&m, &plan, CoreId(i), secs(1));
            let rb = b.read_temperature(&m, &plan, CoreId(i), secs(1));
            assert_eq!(ra.to_bits(), rb.to_bits(), "same seed, same stream");
            assert!(
                (ra / 1.0 - (ra / 1.0).round()).abs() < 1e-9,
                "reading {ra} must sit on the 1 °C grid"
            );
        }
    }

    #[test]
    fn staleness_holds_the_previous_sample() {
        let m = machine();
        let plan = FaultPlan::new();
        let spec = SensorSpec { staleness: SimDuration::from_millis(10), ..SensorSpec::ideal() };
        let mut s = SensorModel::new(spec, 3);
        let t0 = secs(1);
        let first = s.read_temperature(&m, &plan, CoreId(0), t0);
        let held = s.read_temperature(&m, &plan, CoreId(0), t0 + SimDuration::from_millis(5));
        let fresh = s.read_temperature(&m, &plan, CoreId(0), t0 + SimDuration::from_millis(15));
        assert_eq!(first.to_bits(), held.to_bits(), "read inside window re-serves the sample");
        assert_eq!(first.to_bits(), fresh.to_bits(), "machine state unchanged, so same value");
    }

    #[test]
    fn ambient_dropout_rate_is_roughly_honoured() {
        let m = machine();
        let plan = FaultPlan::new();
        let spec = SensorSpec { dropout_p: 0.5, ..SensorSpec::ideal() };
        let mut s = SensorModel::new(spec, 11);
        let mut lost = 0;
        for i in 0..1000 {
            let t = secs(1) + SimDuration::from_millis(i);
            if s.read_temperature(&m, &plan, CoreId(0), t).is_nan() {
                lost += 1;
            }
        }
        assert!((350..=650).contains(&lost), "expected ~500 dropouts, got {lost}");
        assert_eq!(s.dropped(), lost);
    }

    #[test]
    fn bad_spec_panics() {
        let result = std::panic::catch_unwind(|| {
            SensorModel::new(SensorSpec { noise_sigma: f64::NAN, ..SensorSpec::ideal() }, 1)
        });
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| {
            SensorModel::new(SensorSpec { dropout_p: 1.5, ..SensorSpec::ideal() }, 1)
        });
        assert!(result.is_err());
    }
}
