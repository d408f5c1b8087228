//! Machine configuration and the calibrated test-platform preset.

use dimetrodon_ckpt::Enc;
use dimetrodon_power::{CorePowerParams, CoreState, PStateTable, PackagePowerParams};
use dimetrodon_sim_core::SimDuration;

/// How an "idle" core idles — the hardware capability Dimetrodon exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdleMode {
    /// Enter the C1E low-power state (the paper's machine).
    #[default]
    C1e,
    /// Spin in a nop loop: §2.1's fallback for processors without usable
    /// low-power idle states. Cooling still occurs (functional units
    /// quiesce) but far less power is saved.
    NopLoop,
}

impl IdleMode {
    /// The [`CoreState`] an idle core occupies under this mode.
    pub fn core_state(self) -> CoreState {
        match self {
            IdleMode::C1e => CoreState::IdleC1e,
            IdleMode::NopLoop => CoreState::IdleNop,
        }
    }
}

/// Deep (C6-class) idle support: the §2.2 extension the paper's platform
/// lacked. Deep states are nearly free to hold but flush caches, so the
/// idle governor only enters them when the expected residency clears a
/// threshold, and waking from them costs extra.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepIdleConfig {
    /// Minimum expected idle duration before C6 is worth entering.
    pub min_residency: SimDuration,
    /// Extra resume cost after C6 (cache refill), on top of the ordinary
    /// cold-resume penalty.
    pub extra_resume_penalty: SimDuration,
}

impl DeepIdleConfig {
    /// Nehalem-class numbers: C6 target residency a couple of
    /// milliseconds, cache refill a few hundred microseconds.
    pub fn nehalem_class() -> Self {
        DeepIdleConfig {
            min_residency: SimDuration::from_millis(2),
            extra_resume_penalty: SimDuration::from_micros(400),
        }
    }
}

/// A reactive worst-case DTM throttle: the thermal-control-circuit trip
/// the paper's introduction contrasts preventive management against
/// ("traditional dynamic thermal management techniques focus on reducing
/// worst-case thermal emergencies but do not contribute to lowering
/// overall temperatures"). When any core sensor crosses `trigger_celsius`
/// the chip engages TCC duty cycling at `throttle_duty`; it releases once
/// the hottest sensor falls below `trigger_celsius − hysteresis`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalThrottle {
    /// Sensor temperature that trips the throttle, °C.
    pub trigger_celsius: f64,
    /// Hysteresis below the trigger before releasing, °C.
    pub hysteresis: f64,
    /// TCC duty engaged while tripped, in `(0, 1)`.
    pub throttle_duty: f64,
}

impl ThermalThrottle {
    /// A PROCHOT-style trip: throttle to half duty at the trigger with a
    /// 2 °C release band.
    ///
    /// # Panics
    ///
    /// Panics if `trigger_celsius` is not finite.
    pub fn prochot_at(trigger_celsius: f64) -> Self {
        assert!(trigger_celsius.is_finite(), "trigger must be finite");
        ThermalThrottle {
            trigger_celsius,
            hysteresis: 2.0,
            throttle_duty: 0.5,
        }
    }

    /// Checks the parameters, returning a human-readable reason when they
    /// are inconsistent. Called by `Machine::new`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.trigger_celsius.is_finite() {
            return Err(format!("throttle trigger must be finite, got {}", self.trigger_celsius));
        }
        if !(self.hysteresis.is_finite() && self.hysteresis >= 0.0) {
            return Err(format!(
                "throttle hysteresis must be finite and >= 0, got {}",
                self.hysteresis
            ));
        }
        if !(self.throttle_duty.is_finite()
            && self.throttle_duty > 0.0
            && self.throttle_duty < 1.0)
        {
            return Err(format!("throttle duty must be in (0, 1), got {}", self.throttle_duty));
        }
        Ok(())
    }
}

/// A latched PROCHOT-style thermal trip: the last-resort safety net
/// behind both the preventive mechanism and the ordinary reactive
/// throttle. Where [`ThermalThrottle`] engages and releases freely on
/// its hysteresis band, the trip *latches*: once any core sensor crosses
/// `critical_celsius` the chip is forced to `trip_duty` TCC duty cycling
/// and stays there for at least `min_hold`, releasing only when the
/// hottest sensor has fallen to `release_celsius`. The latch-and-hold
/// shape is what makes the trip a safety guarantee rather than a
/// regulator: even if a faulty controller keeps commanding full duty,
/// temperature is bounded near the critical threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalTrip {
    /// Sensor temperature that latches the trip, °C.
    pub critical_celsius: f64,
    /// Sensor temperature the hottest core must fall to before the latch
    /// releases, °C (strictly below `critical_celsius`).
    pub release_celsius: f64,
    /// TCC duty forced while latched, in `(0, 1]`.
    pub trip_duty: f64,
    /// Minimum time the latch holds once engaged, regardless of
    /// temperature.
    pub min_hold: SimDuration,
}

impl ThermalTrip {
    /// A PROCHOT-style trip: duty-cycle to 30 % at the critical
    /// threshold, hold at least a second, release 3 °C below.
    ///
    /// # Panics
    ///
    /// Panics if `critical_celsius` is not finite.
    pub fn prochot_at(critical_celsius: f64) -> Self {
        assert!(critical_celsius.is_finite(), "critical threshold must be finite");
        ThermalTrip {
            critical_celsius,
            release_celsius: critical_celsius - 3.0,
            trip_duty: 0.3,
            min_hold: SimDuration::from_secs(1),
        }
    }

    /// Checks the parameters, returning a human-readable reason when they
    /// are inconsistent. Called by `Machine::new`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.critical_celsius.is_finite() || !self.release_celsius.is_finite() {
            return Err(format!(
                "thermal trip thresholds must be finite, got critical {} / release {}",
                self.critical_celsius, self.release_celsius
            ));
        }
        if self.release_celsius >= self.critical_celsius {
            return Err(format!(
                "thermal trip release ({}) must sit below critical ({})",
                self.release_celsius, self.critical_celsius
            ));
        }
        if !(self.trip_duty.is_finite() && self.trip_duty > 0.0 && self.trip_duty <= 1.0) {
            return Err(format!("thermal trip duty must be in (0, 1], got {}", self.trip_duty));
        }
        Ok(())
    }
}

/// Geometry and material parameters of the die→package→heatsink→ambient
/// thermal stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Room temperature held by the thermostat, °C (the paper: 25.2 °C).
    pub ambient_celsius: f64,
    /// Heat capacity of each core's slice of the die, J/K.
    pub die_capacitance: f64,
    /// Conductance from each die node to the package, W/K.
    pub die_to_package: f64,
    /// Heat capacity of each core's hotspot (the power-dense functional-
    /// unit cluster the digital thermal sensor sits next to), J/K.
    pub hotspot_capacitance: f64,
    /// Conductance from each hotspot to its die node, W/K.
    pub hotspot_to_die: f64,
    /// Fraction of a core's power dissipated in the hotspot region (the
    /// rest is injected at the die-bulk node).
    pub hotspot_power_fraction: f64,
    /// Lateral conductance between adjacent die nodes, W/K (0 disables).
    pub die_to_die: f64,
    /// Package (integrated heat spreader) capacitance, J/K.
    pub package_capacitance: f64,
    /// Conductance package → heatsink, W/K.
    pub package_to_heatsink: f64,
    /// Heatsink capacitance, J/K.
    pub heatsink_capacitance: f64,
    /// Conductance heatsink → ambient (includes the fixed-max case fans),
    /// W/K.
    pub heatsink_to_ambient: f64,
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of physical cores (the paper disables SMT, §3.2).
    pub num_cores: usize,
    /// Hardware threads per physical core: 1 (the paper's configuration,
    /// SMT disabled) or 2 (Nehalem Hyper-Threading). With 2, the core
    /// only enters C1E when *both* sibling contexts are halted — the
    /// §3.2 complication that makes SMT "require additional care in
    /// co-scheduling idle quanta".
    pub threads_per_core: usize,
    /// Per-core power model parameters.
    pub core_power: CorePowerParams,
    /// Package-level power parameters.
    pub package_power: PackagePowerParams,
    /// Available voltage/frequency operating points.
    pub pstates: PStateTable,
    /// Thermal stack parameters.
    pub thermal: ThermalSpec,
    /// What idle cores do.
    pub idle_mode: IdleMode,
    /// Deep (C6-class) idle support; `None` matches the paper's platform
    /// (C1E only).
    pub deep_idle: Option<DeepIdleConfig>,
    /// Reactive worst-case DTM trip; `None` (the default) models the
    /// paper's observation that such mechanisms "are not activated except
    /// under extreme thermal conditions".
    pub thermal_throttle: Option<ThermalThrottle>,
    /// Latched last-resort thermal trip behind the throttle; `None` (the
    /// default) matches the pre-fault-layer machine exactly.
    pub thermal_trip: Option<ThermalTrip>,
    /// Per-core DVFS support. `false` (the default, and the paper's
    /// platform): the whole chip shares one P-state — §2.1's "DVFS is not
    /// yet available for individual cores on commodity hardware", the
    /// inflexibility Dimetrodon's per-thread control is contrasted
    /// against. `true` enables the what-if: per-physical-core operating
    /// points (the Kim et al. on-chip-regulator future the paper cites).
    pub per_core_dvfs: bool,
}

impl MachineConfig {
    /// The reproduction's stand-in for the paper's test platform: a
    /// quad-core Nehalem-class Xeon E5520 in a Supermicro 1U chassis with
    /// fans fixed at full speed and a 25.2 °C thermostat setpoint (§3.2).
    ///
    /// Calibration targets (shape, not absolute wattage):
    ///
    /// * all-idle package ≈ 12 W; four active cpuburn cores ≈ 72 W
    ///   (Figure 1's floor and top plateau);
    /// * unconstrained 4×cpuburn steady die temperature ≈ 22 °C above the
    ///   idle temperature (Figure 2's full scale);
    /// * die thermal time constant ≈ 20 ms behind package/heatsink
    ///   constants of seconds to tens of seconds (Figure 2's ~300 s
    ///   settling);
    /// * a per-core *hotspot* — the power-dense functional-unit cluster
    ///   the digital thermal sensor reads — with a ~1.5 ms time constant
    ///   and ≈ 6 °C of excess over die bulk under cpuburn. The hotspot's
    ///   fast collapse during short injected idles, observed through
    ///   scheduling-boundary sensor reads, is what makes short idle
    ///   quanta so efficient (Figure 3; §3.4's "optimal idle period
    ///   appears closer to the order of one ms").
    pub fn xeon_e5520() -> Self {
        MachineConfig {
            num_cores: 4,
            threads_per_core: 1,
            core_power: CorePowerParams::xeon_e5520(),
            package_power: PackagePowerParams::xeon_e5520(),
            pstates: PStateTable::xeon_e5520(),
            thermal: ThermalSpec {
                ambient_celsius: 25.2,
                die_capacitance: 0.15,
                die_to_package: 5.0,
                hotspot_capacitance: 0.002,
                hotspot_to_die: 1.3,
                hotspot_power_fraction: 0.5,
                die_to_die: 1.0,
                package_capacitance: 100.0,
                package_to_heatsink: 8.0,
                heatsink_capacitance: 200.0,
                heatsink_to_ambient: 5.0,
            },
            idle_mode: IdleMode::C1e,
            deep_idle: None,
            thermal_throttle: None,
            thermal_trip: None,
            per_core_dvfs: false,
        }
    }

    /// The same platform configured for processors without low-power idle
    /// states (idle threads spin in a nop loop) — used by the §2.1
    /// ablation.
    pub fn xeon_e5520_nop_idle() -> Self {
        MachineConfig {
            idle_mode: IdleMode::NopLoop,
            ..Self::xeon_e5520()
        }
    }

    /// The same platform with SMT (Hyper-Threading) enabled: eight
    /// logical CPUs on four physical cores. The paper disabled SMT
    /// because C1E entry "needs to halt all thread contexts on the
    /// core" (§3.2); this configuration exists to evaluate the
    /// co-scheduled idle quanta the paper sketches as feasible.
    pub fn xeon_e5520_smt() -> Self {
        MachineConfig {
            threads_per_core: 2,
            ..Self::xeon_e5520()
        }
    }

    /// The same platform with a C6-class deep idle state available — the
    /// §2.2 what-if ("if a low power state flushes cache lines") the
    /// paper's C1E-only machine could not explore.
    pub fn xeon_e5520_deep_idle() -> Self {
        MachineConfig {
            deep_idle: Some(DeepIdleConfig::nehalem_class()),
            ..Self::xeon_e5520()
        }
    }

    /// The same platform with per-core DVFS (the Kim et al. what-if the
    /// paper cites as not yet commodity, §2.1).
    pub fn xeon_e5520_per_core_dvfs() -> Self {
        MachineConfig {
            per_core_dvfs: true,
            ..Self::xeon_e5520()
        }
    }

    /// This configuration with the case fans at a fraction of full speed
    /// (the paper fixed them at full with an external controller, §3.2,
    /// and observed that relative results were "approximately equivalent
    /// across fan speed configurations", §3.4). Forced-convection
    /// conductance scales roughly with airflow.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn with_fan_speed(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fan speed fraction must be in (0, 1], got {fraction}"
        );
        self.thermal.heatsink_to_ambient *= fraction;
        self
    }
}

/// Appends every field of a [`MachineConfig`] — if a field is added, this
/// exhaustive walk is where it must join the identity. Every ingredient
/// contributes its exact bit pattern, and every enum or `Option` a tag
/// byte, so adjacent sections never alias. `Debug` renderings are *not* a
/// stable identity: float formatting is lossy about representation, and a
/// `Debug` impl can legally omit fields. Identities that must distinguish
/// any two machine configurations (the fleet journal fingerprint) embed
/// these bytes instead of growing a second, independently-maintained walk.
pub fn encode_machine_config(enc: &mut Enc, m: &MachineConfig) {
    enc.u64(m.num_cores as u64);
    enc.u64(m.threads_per_core as u64);

    enc.f64(m.core_power.c_eff);
    enc.f64(m.core_power.leak_coeff);
    enc.f64(m.core_power.leak_t0);
    enc.f64(m.core_power.leak_tc);
    enc.f64(m.core_power.c1e_residual);
    enc.f64(m.core_power.c6_residual);
    enc.f64(m.core_power.nop_activity);

    enc.f64(m.package_power.uncore);

    enc.u64(m.pstates.len() as u64);
    for (id, pstate) in m.pstates.iter() {
        enc.u64(id.0 as u64);
        enc.u64(pstate.frequency_mhz() as u64);
        enc.f64(pstate.voltage());
    }

    enc.f64(m.thermal.ambient_celsius);
    enc.f64(m.thermal.die_capacitance);
    enc.f64(m.thermal.die_to_package);
    enc.f64(m.thermal.hotspot_capacitance);
    enc.f64(m.thermal.hotspot_to_die);
    enc.f64(m.thermal.hotspot_power_fraction);
    enc.f64(m.thermal.die_to_die);
    enc.f64(m.thermal.package_capacitance);
    enc.f64(m.thermal.package_to_heatsink);
    enc.f64(m.thermal.heatsink_capacitance);
    enc.f64(m.thermal.heatsink_to_ambient);

    enc.u8(match m.idle_mode {
        IdleMode::C1e => 0,
        IdleMode::NopLoop => 1,
    });

    match &m.deep_idle {
        None => enc.u8(0),
        Some(deep) => {
            enc.u8(1);
            enc.u64(deep.min_residency.as_nanos());
            enc.u64(deep.extra_resume_penalty.as_nanos());
        }
    }

    match &m.thermal_throttle {
        None => enc.u8(0),
        Some(throttle) => {
            enc.u8(1);
            enc.f64(throttle.trigger_celsius);
            enc.f64(throttle.hysteresis);
            enc.f64(throttle.throttle_duty);
        }
    }

    match &m.thermal_trip {
        None => enc.u8(0),
        Some(trip) => {
            enc.u8(1);
            enc.f64(trip.critical_celsius);
            enc.f64(trip.release_celsius);
            enc.f64(trip.trip_duty);
            enc.u64(trip.min_hold.as_nanos());
        }
    }

    enc.bool(m.per_core_dvfs);
}

/// The bytes [`encode_machine_config`] writes, on their own.
pub fn machine_config_bytes(machine: &MachineConfig) -> Vec<u8> {
    let mut enc = Enc::new();
    encode_machine_config(&mut enc, machine);
    enc.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_has_four_cores_and_c1e() {
        let c = MachineConfig::xeon_e5520();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.idle_mode, IdleMode::C1e);
        assert_eq!(c.thermal.ambient_celsius, 25.2);
    }

    #[test]
    fn nop_variant_differs_only_in_idle_mode() {
        let a = MachineConfig::xeon_e5520();
        let b = MachineConfig::xeon_e5520_nop_idle();
        assert_eq!(b.idle_mode, IdleMode::NopLoop);
        assert_eq!(a.thermal, b.thermal);
        assert_eq!(a.pstates, b.pstates);
    }

    #[test]
    fn idle_mode_maps_to_core_state() {
        assert_eq!(IdleMode::C1e.core_state(), CoreState::IdleC1e);
        assert_eq!(IdleMode::NopLoop.core_state(), CoreState::IdleNop);
    }

    #[test]
    fn die_time_constant_is_tens_of_ms() {
        let t = MachineConfig::xeon_e5520().thermal;
        let tau = t.die_capacitance / (t.die_to_package + t.die_to_die);
        assert!((0.01..0.1).contains(&tau), "die tau {tau}");
    }

    #[test]
    fn deep_idle_preset() {
        let c = MachineConfig::xeon_e5520_deep_idle();
        let deep = c.deep_idle.expect("enabled");
        assert!(deep.min_residency > SimDuration::from_micros(100));
        assert!(MachineConfig::xeon_e5520().deep_idle.is_none());
    }

    #[test]
    fn trip_preset_is_consistent_and_validators_reject_nonsense() {
        let trip = ThermalTrip::prochot_at(70.0);
        assert!(trip.validate().is_ok());
        assert!(trip.release_celsius < trip.critical_celsius);
        assert!(trip.trip_duty > 0.0 && trip.trip_duty <= 1.0);

        let inverted = ThermalTrip { release_celsius: 71.0, ..trip };
        assert!(inverted.validate().is_err());
        let nan = ThermalTrip { critical_celsius: f64::NAN, ..trip };
        assert!(nan.validate().is_err());
        let dead = ThermalTrip { trip_duty: 0.0, ..trip };
        assert!(dead.validate().is_err());

        let throttle = ThermalThrottle::prochot_at(50.0);
        assert!(throttle.validate().is_ok());
        assert!(ThermalThrottle { hysteresis: -1.0, ..throttle }.validate().is_err());
        assert!(ThermalThrottle { throttle_duty: 1.0, ..throttle }.validate().is_err());
        assert!(ThermalThrottle { trigger_celsius: f64::INFINITY, ..throttle }
            .validate()
            .is_err());
    }

    #[test]
    fn hotspot_time_constant_is_order_one_ms() {
        // §3.4: "the optimal idle period appears closer to the order of
        // one ms" — set by the hotspot pole.
        let t = MachineConfig::xeon_e5520().thermal;
        let tau_ms = t.hotspot_capacitance / t.hotspot_to_die * 1e3;
        assert!((0.5..5.0).contains(&tau_ms), "hotspot tau {tau_ms} ms");
        assert!((0.0..=1.0).contains(&t.hotspot_power_fraction));
    }

    #[test]
    fn config_bytes_are_equal_for_equal_configs_and_separate_idle_modes() {
        let base = machine_config_bytes(&MachineConfig::xeon_e5520());
        assert_eq!(
            base,
            machine_config_bytes(&MachineConfig::xeon_e5520()),
            "equal configs must encode equal"
        );
        assert_ne!(
            base,
            machine_config_bytes(&MachineConfig::xeon_e5520_nop_idle()),
            "the idle mode must separate encodings"
        );
    }

    #[test]
    fn config_bytes_distinguish_sign_zero() {
        // A Debug-formatted identity is at the mercy of float formatting;
        // the bytes must carry the exact bit pattern, so configs differing
        // only in the sign of a zero field encode differently.
        let mut positive = MachineConfig::xeon_e5520();
        let mut negative = positive.clone();
        positive.package_power.uncore = 0.0;
        negative.package_power.uncore = -0.0;
        assert_ne!(
            machine_config_bytes(&positive),
            machine_config_bytes(&negative),
            "-0.0 and 0.0 are distinct configs and must encode distinctly"
        );
    }

    #[test]
    fn config_bytes_distinguish_option_presence_and_payload() {
        // A field that is present-vs-absent (or differs only inside the
        // payload) must always move the bytes.
        let base = MachineConfig::xeon_e5520();
        let mut with_deep = base.clone();
        with_deep.deep_idle = Some(DeepIdleConfig {
            min_residency: SimDuration::from_millis(5),
            extra_resume_penalty: SimDuration::from_micros(10),
        });
        let mut with_longer_residency = with_deep.clone();
        with_longer_residency.deep_idle = Some(DeepIdleConfig {
            min_residency: SimDuration::from_millis(6),
            extra_resume_penalty: SimDuration::from_micros(10),
        });
        let base = machine_config_bytes(&base);
        let deep = machine_config_bytes(&with_deep);
        let longer = machine_config_bytes(&with_longer_residency);
        assert_ne!(base, deep, "Option presence must move the bytes");
        assert_ne!(deep, longer, "Option payload must move the bytes");
    }

    #[test]
    fn config_bytes_distinguish_flag_fields() {
        let base = MachineConfig::xeon_e5520();
        let mut per_core = base.clone();
        per_core.per_core_dvfs = true;
        assert_ne!(machine_config_bytes(&base), machine_config_bytes(&per_core));
    }
}
