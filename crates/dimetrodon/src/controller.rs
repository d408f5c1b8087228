//! Closed-loop preventive thermal control (beyond-the-paper extension).
//!
//! The paper evaluates *static* `(p, L)` policies and notes that idle
//! cycle injection "can be adjusted online according to the thermal
//! profile and performance constraints of the application" (§2). This
//! module supplies that deployment mode: a [`SetpointController`] wraps
//! the [`DimetrodonHook`] and adapts the global injection probability once
//! per tick so the mean core temperature tracks a setpoint.
//!
//! The controller is a clamped integral controller on `p`: steady-state
//! error-free for constant loads, and intrinsically bounded because `p`
//! lives in `[0, p_max]`.
//!
//! # Degradation awareness
//!
//! Temperature flows in through a [`Telemetry`] source (exact passthrough
//! by default) and a [`TelemetryFilter`] (transparent by default). Under
//! the default configuration the behaviour is bit-identical to the
//! original raw-reading controller; a hardened configuration
//! ([`TelemetryFilter::hardened`] plus a
//! [`FaultyTelemetry`](dimetrodon_faults::FaultyTelemetry) source)
//! median-filters readings, freezes the integrator on non-finite or
//! outlier samples, and on sustained telemetry loss falls back from
//! preventive injection to the machine's reactive thermal trip by
//! commanding `p = 0`.

use dimetrodon_faults::{IdealTelemetry, Telemetry};
use dimetrodon_machine::Machine;
use dimetrodon_sched::{Decision, SchedHook, ScheduleContext};
use dimetrodon_sim_core::{sim_invariant, SimDuration, SimTime};

use crate::harden::{Signal, TelemetryFilter};
use crate::hook::DimetrodonHook;
use crate::policy::InjectionParams;

/// An integral controller that adapts the global injection probability to
/// hold the mean core temperature at a setpoint.
///
/// # Examples
///
/// ```
/// use dimetrodon::{DimetrodonHook, PolicyHandle, SetpointController};
/// use dimetrodon_sim_core::SimDuration;
///
/// let policy = PolicyHandle::new();
/// let hook = DimetrodonHook::new(policy, 42);
/// let controller = SetpointController::new(
///     hook,
///     45.0,                            // °C setpoint
///     SimDuration::from_millis(25),    // idle quantum L
/// );
/// assert_eq!(controller.setpoint(), 45.0);
/// ```
#[derive(Debug)]
pub struct SetpointController {
    inner: DimetrodonHook,
    setpoint_celsius: f64,
    quantum: SimDuration,
    /// Integral gain: Δp per °C of error per tick.
    gain: f64,
    p_max: f64,
    p: f64,
    telemetry: Box<dyn Telemetry>,
    filter: TelemetryFilter,
    /// Ticks spent in the lost-telemetry fallback.
    fallback_ticks: u64,
}

impl SetpointController {
    /// Default integral gain (Δp per °C error per tick).
    pub const DEFAULT_GAIN: f64 = 0.02;
    /// Default upper bound on the controlled probability.
    pub const DEFAULT_P_MAX: f64 = 0.9;

    /// Creates a controller around a hook, targeting `setpoint_celsius`
    /// with idle quanta of length `quantum`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `setpoint_celsius` is not finite.
    pub fn new(inner: DimetrodonHook, setpoint_celsius: f64, quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "idle quantum must be positive");
        assert!(setpoint_celsius.is_finite(), "setpoint must be finite");
        SetpointController {
            inner,
            setpoint_celsius,
            quantum,
            gain: Self::DEFAULT_GAIN,
            p_max: Self::DEFAULT_P_MAX,
            p: 0.0,
            telemetry: Box::new(IdealTelemetry),
            filter: TelemetryFilter::passthrough(),
            fallback_ticks: 0,
        }
    }

    /// Overrides the integral gain.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not positive and finite.
    pub fn with_gain(mut self, gain: f64) -> Self {
        assert!(gain > 0.0 && gain.is_finite(), "gain must be positive");
        self.gain = gain;
        self
    }

    /// Overrides the upper bound on the controlled probability.
    ///
    /// # Panics
    ///
    /// Panics if `p_max` is outside `(0, 1)`.
    pub fn with_p_max(mut self, p_max: f64) -> Self {
        assert!(
            p_max.is_finite() && p_max > 0.0 && p_max < 1.0,
            "p_max must be in (0, 1), got {p_max}"
        );
        self.p_max = p_max;
        self
    }

    /// Replaces the telemetry source the controller reads temperature
    /// through (default: exact passthrough).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Box<dyn Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the telemetry conditioning filter (default: transparent).
    #[must_use]
    pub fn with_filter(mut self, filter: TelemetryFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The temperature setpoint, °C.
    pub fn setpoint(&self) -> f64 {
        self.setpoint_celsius
    }

    /// The currently commanded injection probability.
    pub fn current_p(&self) -> f64 {
        self.p
    }

    /// The wrapped hook (for its counters).
    pub fn hook(&self) -> &DimetrodonHook {
        &self.inner
    }

    /// The telemetry conditioning filter (for its counters).
    pub fn filter(&self) -> &TelemetryFilter {
        &self.filter
    }

    /// Ticks spent with telemetry lost, preventive injection ceded to
    /// the reactive trip.
    pub fn fallback_ticks(&self) -> u64 {
        self.fallback_ticks
    }

    /// The telemetry source (for its loss counters).
    pub fn telemetry(&self) -> &dyn Telemetry {
        self.telemetry.as_ref()
    }
}

impl SchedHook for SetpointController {
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
        self.inner.on_schedule(ctx)
    }

    fn on_tick(&mut self, now: SimTime, machine: &Machine) {
        let raw = self.telemetry.mean_core_temperature(machine, now);
        match self.filter.ingest(raw) {
            Signal::Reading(temperature) => {
                let error = temperature - self.setpoint_celsius;
                // The integrator *is* `p`; the clamp is its anti-windup
                // bound — without it an unreachable setpoint would
                // integrate without limit.
                self.p = (self.p + self.gain * error).clamp(0.0, self.p_max);
            }
            // Anti-windup freeze: a bad sample moves nothing.
            Signal::Hold => {}
            Signal::Lost => {
                // Telemetry is gone: stop flying blind. Cease preventive
                // injection and leave thermal protection to the machine's
                // reactive trip.
                self.p = 0.0;
                self.fallback_ticks += 1;
            }
        }
        sim_invariant!(
            self.p.is_finite() && (0.0..=self.p_max).contains(&self.p),
            "injection probability left [0, p_max]: {}",
            self.p
        );
        let params = if self.p > 0.0 {
            Some(InjectionParams::new(self.p, self.quantum))
        } else {
            None
        };
        self.inner.policy().set_global(params);
        self.inner.on_tick(now, machine);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyHandle;
    use dimetrodon_machine::{Machine, MachineConfig};
    use dimetrodon_sched::{Spin, System, ThreadKind};

    fn controlled_system(setpoint: f64) -> (System, PolicyHandle) {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let policy = PolicyHandle::new();
        let hook = DimetrodonHook::new(policy.clone(), 11);
        let controller =
            SetpointController::new(hook, setpoint, SimDuration::from_millis(25));
        let mut system = System::new(machine);
        system.machine_mut().settle_idle();
        system.set_hook(Box::new(controller));
        for _ in 0..4 {
            system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        }
        (system, policy)
    }

    #[test]
    fn tracks_setpoint_under_full_load() {
        // Unconstrained full load settles well above 45 C; the controller
        // should hold the mean near the setpoint.
        let (mut system, _policy) = controlled_system(45.0);
        system.run_until(SimTime::from_secs(240));
        let tail = system
            .mean_temp_series()
            .mean_over(SimTime::from_secs(180))
            .unwrap();
        assert!((43.0..47.0).contains(&tail), "tail mean {tail}");
    }

    #[test]
    fn stays_off_when_already_cool() {
        // Setpoint far above anything the load can reach: p must stay 0
        // and throughput must be unimpaired.
        let (mut system, policy) = controlled_system(90.0);
        system.run_until(SimTime::from_secs(60));
        assert_eq!(policy.global(), None);
        let id = system.thread_ids().next().unwrap();
        let share = system.thread_stats(id).cpu_executed.as_secs_f64() / 60.0;
        assert!(share > 0.98, "share {share}");
    }

    #[test]
    fn p_saturates_at_p_max() {
        // Unreachable setpoint below idle temperature: p climbs to the cap
        // and no further.
        let (mut system, policy) = controlled_system(10.0);
        system.run_until(SimTime::from_secs(120));
        let p = policy.global().expect("policy active").p();
        assert!((SetpointController::DEFAULT_P_MAX - p).abs() < 1e-9, "p {p}");
    }

    /// Telemetry stub that reports `hot` for the first `flip_at` ticks
    /// and `cold` after — lets the wind-up test flip the error sign
    /// without waiting on thermal physics.
    #[derive(Debug, Clone)]
    struct ScriptedTelemetry {
        hot: f64,
        cold: f64,
        flip_at: u64,
        ticks: u64,
    }

    impl dimetrodon_faults::Telemetry for ScriptedTelemetry {
        fn mean_core_temperature(&mut self, _machine: &Machine, _now: SimTime) -> f64 {
            self.ticks += 1;
            if self.ticks <= self.flip_at {
                self.hot
            } else {
                self.cold
            }
        }

        fn package_power(&mut self, machine: &Machine, _now: SimTime) -> f64 {
            machine.package_power()
        }
    }

    #[test]
    fn integrator_does_not_wind_up_past_the_clamp() {
        // Regression: with the setpoint unreachable for a long stretch,
        // the integral term must saturate at p_max (not accumulate
        // beyond it), so recovery starts the moment the error flips.
        let mut m = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        m.settle_idle();
        let policy = PolicyHandle::new();
        let hook = DimetrodonHook::new(policy.clone(), 3);
        // 90 °C reported against a 45 °C setpoint for 500 ticks, then a
        // sudden drop to 40 °C.
        let mut controller = SetpointController::new(hook, 45.0, SimDuration::from_millis(25))
            .with_telemetry(Box::new(ScriptedTelemetry {
                hot: 90.0,
                cold: 40.0,
                flip_at: 500,
                ticks: 0,
            }));
        for s in 0..500u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
        }
        let p_after_windup = controller.current_p();
        assert!(
            (p_after_windup - SetpointController::DEFAULT_P_MAX).abs() < 1e-12,
            "p must sit exactly at the clamp, got {p_after_windup}"
        );
        // Error is now -5 °C; gain 0.02 → Δp = -0.1 per tick. A clamped
        // integrator recovers from 0.9 to 0 in 9 ticks; a wound-up one
        // would take hundreds.
        let mut ticks_to_release = 0;
        for s in 500..600u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
            ticks_to_release += 1;
            if controller.current_p() == 0.0 {
                break;
            }
        }
        assert!(
            ticks_to_release <= 12,
            "recovery took {ticks_to_release} ticks — integral wind-up"
        );
        assert_eq!(policy.global(), None);
    }

    #[test]
    fn holds_integrator_during_dropout_and_falls_back_when_lost() {
        use crate::harden::TelemetryFilter;
        use dimetrodon_faults::{FaultKind, FaultPlan, FaultTarget, FaultyTelemetry, SensorSpec};

        let mut m = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        m.settle_idle();
        // Plan: all sensors drop out permanently from t = 50 s.
        let plan = FaultPlan::new().with(
            SimTime::from_secs(50),
            FaultTarget::All,
            FaultKind::Dropout,
            None,
        );
        let telemetry = FaultyTelemetry::new(SensorSpec::ideal(), plan, 99);
        let policy = PolicyHandle::new();
        let hook = DimetrodonHook::new(policy.clone(), 3);
        let mut controller = SetpointController::new(hook, 10.0, SimDuration::from_millis(25))
            .with_telemetry(Box::new(telemetry))
            .with_filter(TelemetryFilter::hardened());
        // Unreachable setpoint saturates p before the fault hits.
        for s in 0..50u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
        }
        assert!(controller.current_p() > 0.8);
        // First bad samples: anti-windup freeze (p unchanged)...
        let frozen = controller.current_p();
        for s in 50..54u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
            assert_eq!(controller.current_p(), frozen, "freeze during short dropout");
        }
        // ...then, past the dropout limit, fallback: p = 0, policy off.
        for s in 54..60u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
        }
        assert_eq!(controller.current_p(), 0.0, "lost telemetry must cede to the trip");
        assert_eq!(policy.global(), None);
        assert!(controller.fallback_ticks() > 0);
        assert!(controller.filter().dropped_samples() > 0);
    }

    #[test]
    fn default_hardening_is_bit_identical_to_the_raw_path() {
        // The zero-fault guarantee at controller granularity: a default
        // (passthrough) controller must command exactly the same p
        // sequence as the pre-fault-layer arithmetic.
        let mut m = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        m.settle_idle();
        let policy = PolicyHandle::new();
        let hook = DimetrodonHook::new(policy.clone(), 3);
        let mut controller =
            SetpointController::new(hook, 28.0, SimDuration::from_millis(25));
        let mut expected_p: f64 = 0.0;
        for s in 0..40u64 {
            controller.on_tick(SimTime::from_secs(s), &m);
            let error = m.mean_core_temperature() - 28.0;
            expected_p = (expected_p + SetpointController::DEFAULT_GAIN * error)
                .clamp(0.0, SetpointController::DEFAULT_P_MAX);
            assert_eq!(
                controller.current_p().to_bits(),
                expected_p.to_bits(),
                "tick {s} diverged from the raw arithmetic"
            );
        }
    }

    #[test]
    #[should_panic(expected = "p_max must be in (0, 1)")]
    fn bad_p_max_panics() {
        let hook = DimetrodonHook::new(PolicyHandle::new(), 0);
        let _ = SetpointController::new(hook, 45.0, SimDuration::from_millis(25))
            .with_p_max(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "gain must be positive")]
    fn bad_gain_panics() {
        let hook = DimetrodonHook::new(PolicyHandle::new(), 0);
        let _ = SetpointController::new(hook, 45.0, SimDuration::from_millis(25)).with_gain(0.0);
    }

    #[test]
    fn accessors() {
        let hook = DimetrodonHook::new(PolicyHandle::new(), 0);
        let c = SetpointController::new(hook, 45.0, SimDuration::from_millis(25));
        assert_eq!(c.setpoint(), 45.0);
        assert_eq!(c.current_p(), 0.0);
        assert_eq!(c.hook().decisions(), 0);
    }
}
