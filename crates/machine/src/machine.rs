//! The simulated server: cores, power, and heat in one state machine.

use std::fmt;

use dimetrodon_power::{CoreState, EnergyMeter, PState, PStateId};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_ckpt::CkptError;
use dimetrodon_thermal::{NodeId, ThermalError, ThermalNetwork, ThermalNetworkBuilder};

use crate::config::{IdleMode, MachineConfig};

/// The floor [`Machine::set_tcc_duty_clamped`] clamps to: one TCC gate
/// step out of eight, matching the coarsest p4tcc modulation on the
/// modelled platform.
pub const MIN_TCC_DUTY: f64 = 0.125;

/// Identifies a logical CPU (hardware thread context) of a [`Machine`].
///
/// With SMT disabled (the paper's configuration, `threads_per_core = 1`)
/// logical CPUs and physical cores coincide. With SMT enabled, logical
/// CPUs `i` and `i + num_physical_cores` are siblings sharing physical
/// core `i % num_physical_cores` — the usual OS enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl CoreId {
    /// The dense core index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Errors constructing a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration requested zero cores.
    NoCores,
    /// The configuration requested an unsupported SMT width (only 1 or 2
    /// hardware threads per core are modelled).
    BadSmtWidth {
        /// The requested `threads_per_core`.
        requested: usize,
    },
    /// The thermal stack could not be built.
    Thermal(ThermalError),
    /// A DTM parameter block (throttle or trip) was non-finite or out of
    /// range.
    BadDtmConfig {
        /// Human-readable reason from the validator.
        reason: String,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::NoCores => write!(f, "machine must have at least one core"),
            MachineError::BadSmtWidth { requested } => {
                write!(f, "threads per core must be 1 or 2, got {requested}")
            }
            MachineError::Thermal(e) => write!(f, "invalid thermal stack: {e}"),
            MachineError::BadDtmConfig { reason } => {
                write!(f, "invalid DTM configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for MachineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineError::Thermal(e) => Some(e),
            MachineError::NoCores
            | MachineError::BadSmtWidth { .. }
            | MachineError::BadDtmConfig { .. } => None,
        }
    }
}

impl From<ThermalError> for MachineError {
    fn from(e: ThermalError) -> Self {
        MachineError::Thermal(e)
    }
}

/// Combined execution state of a physical core's hardware threads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CombinedState {
    /// At least one context executing; effective switching activity may
    /// exceed 1.0 under SMT co-residency.
    Active {
        /// Dominant context's activity plus 30 % of the rest.
        effective_activity: f64,
    },
    /// No context executing, at least one spinning in a nop loop.
    NopIdle,
    /// Every context halted: the core reaches C1E.
    C1e,
    /// Every context halted requesting deep idle: the core reaches C6.
    C6,
}

/// A simulated multicore server coupling per-core execution state to power
/// draw and die temperatures.
///
/// The machine is advanced in piecewise-constant intervals by its driver
/// (the scheduler simulation): set core states, then
/// [`advance`](Machine::advance) time. Power is computed from the states and current
/// die temperatures (leakage feedback), injected into the thermal network,
/// and accumulated into the energy meter.
///
/// # Examples
///
/// ```
/// use dimetrodon_machine::{Machine, MachineConfig, CoreId};
/// use dimetrodon_power::CoreState;
/// use dimetrodon_sim_core::SimDuration;
///
/// # fn main() -> Result<(), dimetrodon_machine::MachineError> {
/// let mut machine = Machine::new(MachineConfig::xeon_e5520())?;
/// machine.settle_idle();
/// let idle = machine.core_temperature(CoreId(0));
///
/// for core in machine.core_ids().collect::<Vec<_>>() {
///     machine.set_core_state(core, CoreState::active(1.0));
/// }
/// machine.advance(SimDuration::from_secs(60));
/// assert!(machine.core_temperature(CoreId(0)) > idle + 5.0);
/// # Ok(())
/// # }
/// ```
///
/// A checkpoint holds the mutable state — thermal conditions, core and
/// P-states, DTM latches, clock, energy — through
/// [`State`](dimetrodon_ckpt::State), and loads only into a machine built
/// from the same configuration.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    network: ThermalNetwork,
    /// Node indices derived from the immutable topology.
    die_nodes: Vec<NodeId>,
    hotspot_nodes: Vec<NodeId>,
    package_node: NodeId,
    core_states: Box<[CoreState]>,
    pstate: PStateId,
    /// Per-physical-core P-state overrides (only when the configuration
    /// enables per-core DVFS); `None` follows the chip-wide setting.
    core_pstates: Box<[Option<PStateId>]>,
    tcc_duty: f64,
    /// Whether the reactive thermal throttle is currently tripped.
    throttled: bool,
    /// Whether the latched thermal trip is currently engaged.
    tripped: bool,
    /// Trip activations since construction.
    trip_count: u64,
    /// Machine time advanced since construction; the trip latch's
    /// minimum-hold timer is measured on this clock.
    clock: SimDuration,
    /// Clock value at which the trip last engaged.
    tripped_at: SimDuration,
    energy: EnergyMeter,
    /// Reusable buffer for per-physical-core powers inside `advance`, so
    /// the hot path neither allocates nor evaluates the power model twice;
    /// fully overwritten before every use.
    power_scratch: Vec<f64>,
}

dimetrodon_ckpt::state! {
    Machine {
        persisted: network, core_states, pstate, core_pstates, tcc_duty, throttled, tripped,
            trip_count, clock, tripped_at, energy;
        derived: config, die_nodes, hotspot_nodes, package_node, power_scratch;
        check: Machine::check_restored;
    }
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// All cores start idle, at the fastest P-state, with TCC gating off,
    /// and the thermal stack at ambient.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoCores`] for an empty configuration or a
    /// [`MachineError::Thermal`] if the thermal spec is invalid.
    pub fn new(config: MachineConfig) -> Result<Self, MachineError> {
        if config.num_cores == 0 {
            return Err(MachineError::NoCores);
        }
        if !(1..=2).contains(&config.threads_per_core) {
            return Err(MachineError::BadSmtWidth {
                requested: config.threads_per_core,
            });
        }
        if let Some(throttle) = &config.thermal_throttle {
            throttle
                .validate()
                .map_err(|reason| MachineError::BadDtmConfig { reason })?;
        }
        if let Some(trip) = &config.thermal_trip {
            trip.validate()
                .map_err(|reason| MachineError::BadDtmConfig { reason })?;
        }
        let spec = config.thermal;
        let mut builder = ThermalNetworkBuilder::new(spec.ambient_celsius);
        let die_nodes: Vec<NodeId> = (0..config.num_cores)
            .map(|i| builder.add_node(format!("die{i}"), spec.die_capacitance))
            .collect();
        let hotspot_nodes: Vec<NodeId> = (0..config.num_cores)
            .map(|i| builder.add_node(format!("hotspot{i}"), spec.hotspot_capacitance))
            .collect();
        let package_node = builder.add_node("package", spec.package_capacitance);
        let heatsink_node = builder.add_node("heatsink", spec.heatsink_capacitance);
        for (&die, &hotspot) in die_nodes.iter().zip(&hotspot_nodes) {
            builder.connect(die, package_node, spec.die_to_package);
            builder.connect(hotspot, die, spec.hotspot_to_die);
        }
        if spec.die_to_die > 0.0 {
            for pair in die_nodes.windows(2) {
                builder.connect(pair[0], pair[1], spec.die_to_die);
            }
        }
        builder.connect(package_node, heatsink_node, spec.package_to_heatsink);
        builder.connect_ambient(heatsink_node, spec.heatsink_to_ambient);
        let network = builder.build()?;

        let idle_state = config.idle_mode.core_state();
        let num_physical = config.num_cores;
        Ok(Machine {
            core_states: vec![idle_state; config.num_cores * config.threads_per_core].into(),
            config,
            network,
            die_nodes,
            hotspot_nodes,
            package_node,
            pstate: PStateId(0),
            core_pstates: vec![None; num_physical].into(),
            tcc_duty: 1.0,
            throttled: false,
            tripped: false,
            trip_count: 0,
            clock: SimDuration::ZERO,
            tripped_at: SimDuration::ZERO,
            energy: EnergyMeter::new(),
            power_scratch: Vec::with_capacity(num_physical),
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Number of schedulable logical CPUs (physical cores × hardware
    /// threads per core; equal to the physical core count with SMT off).
    pub fn num_cores(&self) -> usize {
        self.config.num_cores * self.config.threads_per_core
    }

    /// Number of physical cores (each with its own die/hotspot thermal
    /// nodes).
    pub fn num_physical_cores(&self) -> usize {
        self.config.num_cores
    }

    /// Iterates over the logical CPU ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// The physical core a logical CPU lives on.
    fn physical_of(&self, cpu: CoreId) -> usize {
        cpu.0 % self.config.num_cores
    }

    /// The sibling hardware thread sharing `cpu`'s physical core, if SMT
    /// is enabled.
    pub fn sibling_of(&self, cpu: CoreId) -> Option<CoreId> {
        if self.config.threads_per_core < 2 {
            return None;
        }
        let n = self.config.num_cores;
        Some(CoreId((cpu.0 + n) % (2 * n)))
    }

    /// Sets what a logical CPU is doing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_core_state(&mut self, core: CoreId, state: CoreState) {
        self.core_states[core.0] = state;
    }

    /// Puts a logical CPU into the configured idle mode ([`IdleMode`]
    /// (crate::IdleMode)). With SMT, the physical core only reaches C1E
    /// once the sibling is also halted.
    pub fn set_core_idle(&mut self, core: CoreId) {
        self.core_states[core.0] = self.config.idle_mode.core_state();
    }

    /// Puts a logical CPU into the deepest idle state the governor
    /// allows for an idle of `expected` duration: with deep idle
    /// configured, an expected residency at or above
    /// [`DeepIdleConfig::min_residency`](crate::DeepIdleConfig) enters
    /// C6; otherwise (or with `None`, an unknown duration) the ordinary
    /// idle mode applies. Returns the state entered.
    pub fn set_core_idle_for(&mut self, core: CoreId, expected: Option<SimDuration>) -> CoreState {
        let state = match (self.config.deep_idle, expected, self.config.idle_mode) {
            (Some(deep), Some(d), IdleMode::C1e) if d >= deep.min_residency => CoreState::IdleC6,
            _ => self.config.idle_mode.core_state(),
        };
        self.core_states[core.0] = state;
        state
    }

    /// What a logical CPU is currently doing.
    pub fn core_state(&self, core: CoreId) -> CoreState {
        self.core_states[core.0]
    }

    /// The effective execution state of a *physical* core, combining its
    /// hardware-thread contexts: active if any sibling is active (SMT
    /// co-residency adds ~30 % of the secondary context's activity, which
    /// may push the effective switching activity past the single-thread
    /// peak), C1E only when every sibling has halted into C1E — the §3.2
    /// constraint.
    fn physical_combined(&self, phys: usize) -> CombinedState {
        let n = self.config.num_cores;
        let states = (0..self.config.threads_per_core).map(|t| self.core_states[phys + t * n]);
        let mut max_activity: Option<f64> = None;
        let mut extra_activity = 0.0;
        let mut any_nop = false;
        let mut all_c6 = true;
        for state in states {
            match state {
                CoreState::Active { activity } => {
                    let a = activity.value();
                    match max_activity {
                        Some(m) if a <= m => extra_activity += a,
                        Some(m) => {
                            extra_activity += m;
                            max_activity = Some(a);
                        }
                        None => max_activity = Some(a),
                    }
                    all_c6 = false;
                }
                CoreState::IdleNop => {
                    any_nop = true;
                    all_c6 = false;
                }
                CoreState::IdleC1e => all_c6 = false,
                CoreState::IdleC6 => {}
            }
        }
        match max_activity {
            Some(max) => CombinedState::Active {
                effective_activity: max + 0.3 * extra_activity,
            },
            None if any_nop => CombinedState::NopIdle,
            // The core only power-gates when *every* context asked for
            // the deep state; a C1E sibling holds it at C1E.
            None if all_c6 => CombinedState::C6,
            None => CombinedState::C1e,
        }
    }

    /// Sets the chip-wide P-state. (Per-core DVFS "is not yet available
    /// ... on commodity hardware", §2.1 — the whole chip moves together,
    /// which is exactly the inflexibility the paper contrasts against.)
    ///
    /// # Panics
    ///
    /// Panics if `pstate` is out of range for the configured table.
    pub fn set_pstate(&mut self, pstate: PStateId) {
        assert!(
            pstate.0 < self.config.pstates.len(),
            "P-state {} out of range",
            pstate.0
        );
        self.pstate = pstate;
    }

    /// The current chip-wide P-state.
    pub fn pstate(&self) -> PStateId {
        self.pstate
    }

    /// Overrides one physical core's P-state — the §2.1 what-if that is
    /// "not yet available ... on commodity hardware". Pass `None` to
    /// return the core to the chip-wide setting.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not enable
    /// [`per_core_dvfs`](crate::MachineConfig::per_core_dvfs), if
    /// `phys` is out of range, or if the P-state is out of range.
    pub fn set_core_pstate(&mut self, phys: usize, pstate: Option<PStateId>) {
        assert!(
            self.config.per_core_dvfs,
            "this machine has chip-wide DVFS only (per_core_dvfs is off)"
        );
        if let Some(p) = pstate {
            assert!(p.0 < self.config.pstates.len(), "P-state {} out of range", p.0);
        }
        self.core_pstates[phys] = pstate;
    }

    /// The P-state in force on a physical core (its override, or the
    /// chip-wide setting).
    pub fn effective_pstate(&self, phys: usize) -> PStateId {
        self.core_pstates[phys].unwrap_or(self.pstate)
    }

    /// The current chip-wide operating point.
    pub fn operating_point(&self) -> PState {
        self.config.pstates.state(self.pstate)
    }

    /// The operating point in force on a physical core.
    pub fn core_operating_point(&self, phys: usize) -> PState {
        self.config.pstates.state(self.effective_pstate(phys))
    }

    /// Sets the TCC clock-modulation duty cycle in `(0, 1]`; 1.0 disables
    /// gating. This models FreeBSD's `p4tcc` driver (§3.4), which duty
    /// cycles the clock at sub-quantum granularity.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is non-finite (NaN included) or outside `(0, 1]`.
    pub fn set_tcc_duty(&mut self, duty: f64) {
        assert!(
            duty.is_finite() && duty > 0.0 && duty <= 1.0,
            "TCC duty must be finite and in (0, 1], got {duty}"
        );
        self.tcc_duty = duty;
    }

    /// Forgiving variant of [`set_tcc_duty`](Machine::set_tcc_duty) for
    /// closed-loop actuators whose command may be degraded: finite values
    /// are clamped into `[`[`MIN_TCC_DUTY`]`, 1]`, non-finite commands
    /// leave the duty unchanged (a `debug_assert!` in debug and test
    /// builds, where a NaN command is a controller bug worth stopping on).
    /// Returns the duty actually in force.
    pub fn set_tcc_duty_clamped(&mut self, duty: f64) -> f64 {
        debug_assert!(duty.is_finite(), "non-finite TCC duty command: {duty}");
        if duty.is_finite() {
            self.tcc_duty = duty.clamp(MIN_TCC_DUTY, 1.0);
        }
        self.tcc_duty
    }

    /// The current TCC duty cycle (the configured setpoint; see
    /// [`effective_tcc_duty`](Machine::effective_tcc_duty) for the value
    /// in force once the reactive throttle is considered).
    pub fn tcc_duty(&self) -> f64 {
        self.tcc_duty
    }

    /// The TCC duty actually in force: the configured setpoint, further
    /// clamped by the reactive thermal throttle and then by the latched
    /// thermal trip when either is engaged.
    pub fn effective_tcc_duty(&self) -> f64 {
        let mut duty = self.tcc_duty;
        if let Some(throttle) = self.config.thermal_throttle {
            if self.throttled {
                duty = duty.min(throttle.throttle_duty);
            }
        }
        if let Some(trip) = self.config.thermal_trip {
            if self.tripped {
                duty = duty.min(trip.trip_duty);
            }
        }
        duty
    }

    /// Whether the reactive thermal throttle is currently tripped.
    pub fn is_throttled(&self) -> bool {
        self.throttled
    }

    /// Whether the latched thermal trip is currently engaged.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// How many times the thermal trip has engaged since construction.
    pub fn trip_count(&self) -> u64 {
        self.trip_count
    }

    /// How fast CPU-bound work progresses relative to the unconstrained
    /// machine under the chip-wide settings: P-state frequency ratio ×
    /// effective TCC duty.
    pub fn relative_speed(&self) -> f64 {
        self.config.pstates.relative_speed(self.pstate) * self.effective_tcc_duty()
    }

    /// How fast work progresses on a specific logical CPU, honouring any
    /// per-core P-state override.
    pub fn core_relative_speed(&self, cpu: CoreId) -> f64 {
        let phys = self.physical_of(cpu);
        self.config.pstates.relative_speed(self.effective_pstate(phys))
            * self.effective_tcc_duty()
    }

    /// Instantaneous power of one *physical* core (combining its
    /// hardware-thread contexts), in watts.
    pub fn physical_core_power(&self, phys: usize) -> f64 {
        let temp = self.network.temperature(self.die_nodes[phys]);
        let params = &self.config.core_power;
        let op = self.core_operating_point(phys);
        match self.physical_combined(phys) {
            CombinedState::Active { effective_activity } => {
                // Effective activity may exceed 1.0 under SMT
                // co-residency, so compute the dynamic term directly
                // rather than going through the clamped CoreState path.
                params.dynamic(op, effective_activity * self.effective_tcc_duty())
                    + params.leakage(op.voltage(), temp)
            }
            CombinedState::NopIdle => {
                params.core_power(CoreState::IdleNop, op, self.effective_tcc_duty(), temp)
            }
            CombinedState::C1e => {
                params.core_power(CoreState::IdleC1e, op, self.effective_tcc_duty(), temp)
            }
            CombinedState::C6 => {
                params.core_power(CoreState::IdleC6, op, self.effective_tcc_duty(), temp)
            }
        }
    }

    /// Instantaneous power attributed to the physical core under a
    /// logical CPU, in watts.
    pub fn core_power(&self, core: CoreId) -> f64 {
        self.physical_core_power(self.physical_of(core))
    }

    /// Instantaneous package power (uncore + all physical cores), in
    /// watts.
    pub fn package_power(&self) -> f64 {
        let cores = (0..self.config.num_cores).map(|p| self.physical_core_power(p));
        self.config.package_power.package_power(cores)
    }

    /// Advances the machine by `dt` with current core states held
    /// constant, returning the package power in effect over the interval.
    ///
    /// Power is evaluated at the interval start (explicit coupling of the
    /// leakage–temperature feedback), injected into the thermal stack, and
    /// accumulated into the energy meter.
    pub fn advance(&mut self, dt: SimDuration) -> f64 {
        self.update_throttle();
        self.update_trip();
        // Evaluate each physical core's power model exactly once; the
        // package meter and the thermal split below read the same values
        // (previously the model ran twice per core per advance).
        let mut core_powers = std::mem::take(&mut self.power_scratch);
        core_powers.clear();
        core_powers.extend((0..self.config.num_cores).map(|p| self.physical_core_power(p)));
        let package = self.config.package_power.package_power(core_powers.iter().copied());
        if dt.is_zero() {
            self.power_scratch = core_powers;
            return package;
        }
        self.apply_core_powers(&core_powers);
        self.power_scratch = core_powers;
        if cfg!(debug_assertions) {
            // Energy conservation at the thermal boundary: the watts split
            // across hotspot/die/package nodes must sum back to the package
            // power being metered, or heat is silently created/destroyed.
            let injected = self.network.total_power();
            assert!(
                (injected - package).abs() <= 1e-9 * package.max(1.0),
                "power-split invariant violated: injected {injected} W \
                 vs package {package} W"
            );
        }
        self.network.advance(dt);
        self.clock += dt;
        let elapsed_before = self.energy.elapsed();
        self.energy.accumulate(package, dt);
        debug_assert!(
            self.energy.elapsed() == elapsed_before + dt,
            "energy meter clock drifted: {} != {} + {dt}",
            self.energy.elapsed(),
            elapsed_before
        );
        package
    }

    /// Trips or releases the reactive DTM throttle from the hottest
    /// sensor, with hysteresis.
    fn update_throttle(&mut self) {
        let Some(throttle) = self.config.thermal_throttle else {
            return;
        };
        let hottest = (0..self.config.num_cores)
            .map(|p| self.network.temperature(self.hotspot_nodes[p]))
            .fold(f64::MIN, f64::max);
        if self.throttled {
            if hottest < throttle.trigger_celsius - throttle.hysteresis {
                self.throttled = false;
            }
        } else if hottest >= throttle.trigger_celsius {
            self.throttled = true;
        }
    }

    /// Engages or releases the latched thermal trip from the hottest
    /// sensor. Unlike the throttle's free-running hysteresis, the latch
    /// holds for at least `min_hold` and releases only at the (lower)
    /// release threshold — a safety net, not a regulator.
    fn update_trip(&mut self) {
        let Some(trip) = self.config.thermal_trip else {
            return;
        };
        let hottest = (0..self.config.num_cores)
            .map(|p| self.network.temperature(self.hotspot_nodes[p]))
            .fold(f64::MIN, f64::max);
        if self.tripped {
            if self.clock.saturating_sub(self.tripped_at) >= trip.min_hold
                && hottest <= trip.release_celsius
            {
                self.tripped = false;
            }
        } else if hottest >= trip.critical_celsius {
            self.tripped = true;
            self.tripped_at = self.clock;
            self.trip_count += 1;
        }
    }

    /// Writes the current per-core powers into the thermal network,
    /// splitting each core's power between its hotspot and die-bulk nodes.
    fn apply_powers(&mut self) {
        let mut core_powers = std::mem::take(&mut self.power_scratch);
        core_powers.clear();
        core_powers.extend((0..self.config.num_cores).map(|p| self.physical_core_power(p)));
        self.apply_core_powers(&core_powers);
        self.power_scratch = core_powers;
    }

    /// Splits already-evaluated per-physical-core powers between each
    /// core's hotspot and die-bulk nodes.
    fn apply_core_powers(&mut self, core_powers: &[f64]) {
        let fraction = self.config.thermal.hotspot_power_fraction;
        for (phys, &watts) in core_powers.iter().enumerate() {
            self.network
                .set_power(self.hotspot_nodes[phys], watts * fraction);
            self.network
                .set_power(self.die_nodes[phys], watts * (1.0 - fraction));
        }
        self.network
            .set_power(self.package_node, self.config.package_power.uncore);
    }

    /// Exact die-bulk temperature of the physical core under a logical
    /// CPU, in °C. (Sibling hardware threads share a die and therefore a
    /// reading, as on real SMT parts.)
    pub fn core_temperature(&self, core: CoreId) -> f64 {
        self.network.temperature(self.die_nodes[self.physical_of(core)])
    }

    /// Exact hotspot temperature of a core, in °C — what the digital
    /// thermal sensor actually sits next to. Several degrees above
    /// [`core_temperature`](Machine::core_temperature) under dense code,
    /// and collapses toward it within a few milliseconds of idling.
    pub fn core_sensor_temperature(&self, core: CoreId) -> f64 {
        self.network
            .temperature(self.hotspot_nodes[self.physical_of(core)])
    }

    /// The hotspot temperature as the `coretemp` driver reports it:
    /// quantised to whole degrees (the Nehalem digital thermal sensor's
    /// resolution).
    pub fn coretemp(&self, core: CoreId) -> i32 {
        self.core_sensor_temperature(core).round() as i32
    }

    /// Mean exact die-bulk temperature across cores, in °C — the
    /// physically averaged quantity (diagnostics; the paper's measurement
    /// reads the sensors instead).
    pub fn mean_core_temperature(&self) -> f64 {
        let sum: f64 = self
            .die_nodes
            .iter()
            .map(|&n| self.network.temperature(n))
            .sum();
        sum / self.config.num_cores as f64
    }

    /// Mean hotspot (sensor) temperature across physical cores, in °C.
    pub fn mean_sensor_temperature(&self) -> f64 {
        let sum: f64 = self
            .hotspot_nodes
            .iter()
            .map(|&n| self.network.temperature(n))
            .sum();
        sum / self.config.num_cores as f64
    }

    /// Cumulative energy drawn since construction (or the last
    /// [`reset_energy`](Machine::reset_energy)).
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Zeroes the energy meter (e.g. at the start of a measurement
    /// window).
    pub fn reset_energy(&mut self) {
        self.energy.reset();
    }

    /// Puts every core into the configured idle mode and jumps the thermal
    /// stack to its steady state: the machine's *idle temperature*
    /// condition, the baseline of every "temperature rise over idle"
    /// measurement in the paper.
    pub fn settle_idle(&mut self) {
        let idle = self.config.idle_mode.core_state();
        for state in &mut self.core_states {
            *state = idle;
        }
        self.settle();
    }

    /// Jumps the thermal stack to the steady state of the current core
    /// states, iterating the power–temperature feedback to a fixed point.
    pub fn settle(&mut self) {
        // Leakage depends on temperature, so alternate power evaluation
        // and steady-state solves until converged.
        for _ in 0..64 {
            self.apply_powers();
            let before = self.network.temperatures().to_vec();
            self.network.settle();
            let moved = self
                .network
                .temperatures()
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if moved < 1e-9 {
                break;
            }
        }
    }

    /// The machine's idle temperature: mean sensor temperature at the
    /// all-idle steady state — the baseline of every "temperature rise
    /// over idle" measurement. Does not disturb the machine (works on a
    /// clone). At idle the hotspot excess is negligible, so this is also
    /// the die-bulk idle temperature to within a fraction of a degree.
    pub fn idle_temperature(&self) -> f64 {
        let mut probe = self.clone();
        probe.settle_idle();
        probe.mean_sensor_temperature()
    }

    /// Moves the machine's inlet-air (thermal boundary) temperature in °C.
    ///
    /// Defaults to the configured `ThermalSpec::ambient_celsius`; a rack
    /// model moves it between steps to couple machines through their shared
    /// inlet. Takes effect from the next [`advance`](Machine::advance).
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is not finite.
    pub fn set_inlet_celsius(&mut self, celsius: f64) {
        self.network.set_boundary_celsius(celsius);
    }

    /// The current inlet-air (thermal boundary) temperature in °C.
    pub fn inlet_celsius(&self) -> f64 {
        self.network.boundary_celsius()
    }

    /// Net heat the machine is shedding into its inlet air right now, in
    /// watts. The rack model sums this per rack to drive recirculation.
    pub fn heat_to_inlet(&self) -> f64 {
        self.network.heat_to_ambient()
    }

    /// Restored P-state ids, chip-wide and per core, must index this
    /// machine's table.
    fn check_restored(&self) -> Result<(), CkptError> {
        let table = self.config.pstates.len();
        let ids = std::iter::once(self.pstate).chain(self.core_pstates.iter().flatten().copied());
        for id in ids {
            if id.0 >= table {
                return Err(CkptError::Malformed(format!(
                    "P-state {} outside the machine's {table}-entry table",
                    id.0
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ThermalThrottle, ThermalTrip};
    use dimetrodon_ckpt::State;
    use proptest::prelude::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::xeon_e5520()).expect("valid preset")
    }

    /// The machine's checkpoint bytes.
    fn saved(m: &Machine) -> Vec<u8> {
        let mut enc = dimetrodon_ckpt::Enc::new();
        m.save(&mut enc);
        enc.into_bytes()
    }

    /// Loads checkpoint bytes in place, keeping config and caches.
    fn load(m: &mut Machine, bytes: &[u8]) -> Result<(), CkptError> {
        let mut dec = dimetrodon_ckpt::Dec::new(bytes);
        m.load(&mut dec)?;
        dec.finish()
    }

    fn all_active(m: &mut Machine) {
        for core in m.core_ids().collect::<Vec<_>>() {
            m.set_core_state(core, CoreState::active(1.0));
        }
    }

    #[test]
    fn zero_cores_rejected() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.num_cores = 0;
        assert_eq!(Machine::new(cfg).unwrap_err(), MachineError::NoCores);
    }

    #[test]
    fn starts_idle_at_ambient() {
        let m = machine();
        assert!(m.core_ids().all(|c| !m.core_state(c).is_active()));
        assert!((m.core_temperature(CoreId(0)) - 25.2).abs() < 1e-9);
    }

    #[test]
    fn hotter_inlet_raises_the_whole_stack() {
        let mut m = machine();
        assert!((m.inlet_celsius() - 25.2).abs() < 1e-12);
        let idle_at_room = m.idle_temperature();
        m.set_inlet_celsius(35.2);
        let idle_at_hot_aisle = m.idle_temperature();
        // Linear network: a +10 C inlet lifts the settled stack ~+10 C.
        let lift = idle_at_hot_aisle - idle_at_room;
        assert!((9.0..11.0).contains(&lift), "inlet lift {lift} C");
    }

    #[test]
    fn inlet_round_trips_through_a_machine_checkpoint() {
        let mut m = machine();
        m.set_inlet_celsius(31.0);
        all_active(&mut m);
        m.advance(SimDuration::from_secs(5));
        let snap = saved(&m);
        let reference = m.clone();
        m.set_inlet_celsius(22.0);
        m.advance(SimDuration::from_secs(5));
        load(&mut m, &snap).unwrap();
        assert_eq!(m.inlet_celsius(), 31.0);
        let mut replay = reference;
        m.advance(SimDuration::from_secs(5));
        replay.advance(SimDuration::from_secs(5));
        assert_eq!(
            m.mean_core_temperature().to_bits(),
            replay.mean_core_temperature().to_bits()
        );
    }

    #[test]
    fn idle_package_power_near_12w() {
        let mut m = machine();
        m.settle_idle();
        let p = m.package_power();
        assert!((10.0..15.0).contains(&p), "idle package {p} W");
    }

    #[test]
    fn full_load_package_power_near_72w() {
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let p = m.package_power();
        assert!((65.0..82.0).contains(&p), "full package {p} W");
    }

    #[test]
    fn unconstrained_rise_over_idle_near_20c() {
        // Figure 2's y-axis: 4x cpuburn settles ~20 C over idle.
        let mut m = machine();
        let idle = m.idle_temperature();
        all_active(&mut m);
        m.settle();
        let rise = m.mean_core_temperature() - idle;
        assert!((15.0..30.0).contains(&rise), "rise over idle {rise} C");
    }

    #[test]
    fn advance_heats_toward_steady_state() {
        let mut m = machine();
        m.settle_idle();
        all_active(&mut m);
        let mut settled = m.clone();
        settled.settle();
        let target = settled.mean_core_temperature();
        // Well under the heatsink time constant: not yet settled.
        m.advance(SimDuration::from_secs(10));
        let t10 = m.mean_core_temperature();
        assert!(t10 < target - 1.0, "{t10} should undershoot {target}");
        // Figure 2: stabilised by ~300 s.
        m.advance(SimDuration::from_secs(400));
        let t400 = m.mean_core_temperature();
        assert!((t400 - target).abs() < 1.0, "{t400} vs {target}");
    }

    #[test]
    fn idle_core_cools_while_others_burn() {
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let hot = m.core_temperature(CoreId(0));
        m.set_core_idle(CoreId(0));
        m.advance(SimDuration::from_millis(200));
        let after = m.core_temperature(CoreId(0));
        assert!(after < hot - 1.0, "idle core should cool: {hot} -> {after}");
        // Its neighbours stay hot.
        assert!(m.core_temperature(CoreId(2)) > after);
    }

    #[test]
    fn energy_accumulates_power_times_time() {
        let mut m = machine();
        m.settle_idle();
        let p = m.package_power();
        m.advance(SimDuration::from_secs(2));
        // Idle power is nearly constant, so E ~= P * t.
        assert!((m.energy().joules() - p * 2.0).abs() < p * 0.02);
    }

    #[test]
    fn pstate_slows_and_saves() {
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let p_fast = m.package_power();
        assert_eq!(m.relative_speed(), 1.0);
        let slowest = PStateId(m.config().pstates.len() - 1);
        m.set_pstate(slowest);
        let p_slow = m.package_power();
        let speed = m.relative_speed();
        assert!((speed - 1600.0 / 2266.0).abs() < 1e-9);
        // Superlinear power saving: power ratio below speed ratio.
        assert!(p_slow / p_fast < speed, "{} vs {speed}", p_slow / p_fast);
    }

    #[test]
    fn tcc_duty_slows_proportionally() {
        let mut m = machine();
        m.set_tcc_duty(0.5);
        assert_eq!(m.relative_speed(), 0.5);
        all_active(&mut m);
        let gated = m.package_power();
        m.set_tcc_duty(1.0);
        let full = m.package_power();
        // Gating halves dynamic power but not leakage/uncore: power falls
        // by less than half while speed falls by exactly half.
        assert!(gated > full * 0.5, "gated {gated} vs full {full}");
        assert!(gated < full);
    }

    #[test]
    #[should_panic(expected = "P-state")]
    fn bad_pstate_panics() {
        machine().set_pstate(PStateId(99));
    }

    #[test]
    #[should_panic(expected = "TCC duty")]
    fn bad_tcc_duty_panics() {
        machine().set_tcc_duty(0.0);
    }

    #[test]
    fn coretemp_quantises() {
        let mut m = machine();
        m.settle_idle();
        let exact = m.core_sensor_temperature(CoreId(1));
        let reported = m.coretemp(CoreId(1));
        assert!((exact - reported as f64).abs() <= 0.5);
    }

    #[test]
    fn hotspot_sits_above_die_bulk_under_load() {
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let bulk = m.core_temperature(CoreId(0));
        let hotspot = m.core_sensor_temperature(CoreId(0));
        let excess = hotspot - bulk;
        assert!(
            (3.0..10.0).contains(&excess),
            "hotspot excess {excess} outside calibration band"
        );
        // At idle the excess vanishes.
        m.settle_idle();
        let idle_excess =
            m.core_sensor_temperature(CoreId(0)) - m.core_temperature(CoreId(0));
        assert!(idle_excess < 0.5, "idle excess {idle_excess}");
    }

    #[test]
    fn hotspot_collapses_within_milliseconds_of_idling() {
        // The physical basis of Figure 3's short-quantum efficiency: a
        // 5 ms idle already removes most of the hotspot excess, while the
        // die bulk has barely moved.
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let bulk_before = m.core_temperature(CoreId(0));
        let excess_before =
            m.core_sensor_temperature(CoreId(0)) - m.core_temperature(CoreId(0));
        m.set_core_idle(CoreId(0));
        m.advance(SimDuration::from_millis(5));
        let excess_after =
            m.core_sensor_temperature(CoreId(0)) - m.core_temperature(CoreId(0));
        assert!(
            excess_after < excess_before * 0.2,
            "hotspot should collapse: {excess_before} -> {excess_after}"
        );
        assert!(
            (bulk_before - m.core_temperature(CoreId(0))).abs() < 1.0,
            "die bulk barely moves in 5 ms"
        );
    }

    #[test]
    fn nop_idle_is_hotter_than_c1e_idle() {
        // §2.1: without a low-power state, idling still helps but less.
        let mut c1e = machine();
        c1e.settle_idle();
        let mut nop = Machine::new(MachineConfig::xeon_e5520_nop_idle()).unwrap();
        nop.settle_idle();
        assert!(
            nop.mean_core_temperature() > c1e.mean_core_temperature() + 1.0,
            "nop idle {} vs C1E idle {}",
            nop.mean_core_temperature(),
            c1e.mean_core_temperature()
        );
        assert_eq!(nop.config().idle_mode, IdleMode::NopLoop);
    }

    #[test]
    fn idle_temperature_probe_does_not_disturb() {
        let mut m = machine();
        all_active(&mut m);
        m.advance(SimDuration::from_secs(5));
        let temps = (0..4).map(|i| m.core_temperature(CoreId(i))).collect::<Vec<_>>();
        let _ = m.idle_temperature();
        let after = (0..4).map(|i| m.core_temperature(CoreId(i))).collect::<Vec<_>>();
        assert_eq!(temps, after);
    }

    /// Overwrites the 8-byte word at the first byte where two images of
    /// one machine differ with `value`.
    fn rewrite_first_difference(a: &[u8], b: &[u8], value: u64) -> Vec<u8> {
        let word = (0..a.len()).find(|&i| a[i] != b[i]).expect("images differ");
        let mut bad = a.to_vec();
        bad[word..word + 8].copy_from_slice(&value.to_le_bytes());
        bad
    }

    #[test]
    fn restored_pstates_outside_the_table_are_malformed() {
        let mut m = machine();
        let at_p0 = saved(&m);
        m.set_pstate(PStateId(1));
        let bad = rewrite_first_difference(&at_p0, &saved(&m), 99);
        assert!(matches!(load(&mut machine(), &bad), Err(CkptError::Malformed(_))));

        let mut config = MachineConfig::xeon_e5520();
        config.per_core_dvfs = true;
        let mut m = Machine::new(config.clone()).unwrap();
        m.set_core_pstate(0, Some(PStateId(1)));
        let at_p1 = saved(&m);
        m.set_core_pstate(0, Some(PStateId(2)));
        let bad = rewrite_first_difference(&at_p1, &saved(&m), 99);
        let mut fresh = Machine::new(config).unwrap();
        assert!(matches!(load(&mut fresh, &bad), Err(CkptError::Malformed(_))));
    }

    #[test]
    fn checkpoint_load_then_advance_is_bit_exact() {
        let mut m = machine();
        all_active(&mut m);
        m.advance(SimDuration::from_secs(3));
        let snap = saved(&m);

        let mut straight = m.clone();
        for _ in 0..50 {
            straight.advance(SimDuration::from_millis(37));
        }

        // Diverge hard: different P-state, TCC gating, idle cores, and an
        // irregular advance that pollutes the thermal decay cache.
        m.set_pstate(PStateId(1));
        m.set_tcc_duty(0.5);
        for core in m.core_ids().collect::<Vec<_>>() {
            m.set_core_state(core, CoreState::IdleC1e);
        }
        m.advance(SimDuration::from_secs_f64(0.7531));
        load(&mut m, &snap).unwrap();
        for _ in 0..50 {
            m.advance(SimDuration::from_millis(37));
        }

        for core in m.core_ids().collect::<Vec<_>>() {
            assert_eq!(
                m.core_temperature(core).to_bits(),
                straight.core_temperature(core).to_bits()
            );
            assert_eq!(
                m.core_sensor_temperature(core).to_bits(),
                straight.core_sensor_temperature(core).to_bits()
            );
        }
        assert_eq!(
            m.energy().joules().to_bits(),
            straight.energy().joules().to_bits()
        );
    }

    #[test]
    fn settle_is_fixed_point_of_advance() {
        let mut m = machine();
        all_active(&mut m);
        m.settle();
        let before = m.mean_core_temperature();
        m.advance(SimDuration::from_secs(5));
        assert!((m.mean_core_temperature() - before).abs() < 0.05);
    }

    #[test]
    fn error_display() {
        assert!(MachineError::NoCores.to_string().contains("at least one core"));
        assert!(MachineError::BadSmtWidth { requested: 4 }
            .to_string()
            .contains("1 or 2"));
    }

    #[test]
    fn per_core_dvfs_overrides_one_core() {
        let mut m = Machine::new(MachineConfig::xeon_e5520_per_core_dvfs()).unwrap();
        all_active(&mut m);
        let before = m.physical_core_power(0);
        let slowest = PStateId(m.config().pstates.len() - 1);
        m.set_core_pstate(0, Some(slowest));
        // Core 0 slows and saves; core 1 is untouched.
        assert!(m.physical_core_power(0) < before * 0.7);
        assert!((m.physical_core_power(1) - before).abs() < 1e-9);
        assert!(m.core_relative_speed(CoreId(0)) < 0.72);
        assert_eq!(m.core_relative_speed(CoreId(1)), 1.0);
        // Returning to the chip-wide setting restores it.
        m.set_core_pstate(0, None);
        assert!((m.physical_core_power(0) - before).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "chip-wide DVFS only")]
    fn per_core_dvfs_requires_the_capability() {
        // §2.1: not available on the commodity platform.
        let mut m = machine();
        m.set_core_pstate(0, Some(PStateId(1)));
    }

    #[test]
    fn chip_wide_pstate_still_moves_every_core() {
        let mut m = Machine::new(MachineConfig::xeon_e5520_per_core_dvfs()).unwrap();
        m.set_pstate(PStateId(5));
        for cpu in m.core_ids() {
            assert!((m.core_relative_speed(cpu) - 1600.0 / 2266.0).abs() < 1e-9);
        }
    }

    #[test]
    fn reactive_throttle_clips_peaks_with_hysteresis() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_throttle = Some(ThermalThrottle::prochot_at(50.0));
        let mut m = Machine::new(cfg).unwrap();
        m.settle_idle();
        assert!(!m.is_throttled());
        all_active(&mut m);
        // Heat until the trip point.
        let mut tripped_at = None;
        for step in 0..4000 {
            m.advance(SimDuration::from_millis(100));
            if m.is_throttled() {
                tripped_at = Some(step);
                break;
            }
        }
        assert!(tripped_at.is_some(), "full load must trip a 50 C throttle");
        assert!(m.effective_tcc_duty() < 1.0);
        assert!(m.relative_speed() < 1.0, "throttling slows execution");

        // Under the throttle the machine regulates near the trip point.
        for _ in 0..3000 {
            m.advance(SimDuration::from_millis(100));
        }
        let hottest = (0..4)
            .map(|i| m.core_sensor_temperature(CoreId(i)))
            .fold(f64::MIN, f64::max);
        assert!(
            (45.0..53.0).contains(&hottest),
            "throttle should regulate near the trigger: {hottest}"
        );

        // Remove the load: it cools below the hysteresis band and
        // releases.
        for core in m.core_ids().collect::<Vec<_>>() {
            m.set_core_idle(core);
        }
        // The trip state updates at advance boundaries (like a periodic
        // thermal interrupt), so step rather than jump.
        for _ in 0..60 {
            m.advance(SimDuration::from_secs(1));
        }
        assert!(!m.is_throttled(), "idle machine must release the throttle");
        assert_eq!(m.effective_tcc_duty(), 1.0);
    }

    #[test]
    fn throttle_untripped_is_transparent() {
        // §1: reactive DTM "are not activated except under extreme
        // thermal conditions" — with a high trigger, behaviour matches
        // the unthrottled machine exactly.
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_throttle = Some(ThermalThrottle::prochot_at(90.0));
        let mut a = Machine::new(cfg).unwrap();
        let mut b = machine();
        all_active(&mut a);
        all_active(&mut b);
        a.advance(SimDuration::from_secs(60));
        b.advance(SimDuration::from_secs(60));
        assert!(!a.is_throttled());
        assert_eq!(a.mean_core_temperature(), b.mean_core_temperature());
    }

    #[test]
    fn thermal_trip_latches_holds_and_bounds_temperature() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_trip = Some(ThermalTrip::prochot_at(50.0));
        let mut m = Machine::new(cfg).unwrap();
        m.settle_idle();
        assert!(!m.is_tripped());
        assert_eq!(m.trip_count(), 0);
        all_active(&mut m);

        // Heat to the latch point, then keep running under full duty
        // command: the trip (not the controller) must bound temperature.
        let mut peak_after_trip = f64::MIN;
        let mut first_trip_step = None;
        for step in 0..6000 {
            m.advance(SimDuration::from_millis(100));
            let hottest = (0..4)
                .map(|i| m.core_sensor_temperature(CoreId(i)))
                .fold(f64::MIN, f64::max);
            if m.is_tripped() {
                first_trip_step.get_or_insert(step);
                peak_after_trip = peak_after_trip.max(hottest);
            }
        }
        assert!(first_trip_step.is_some(), "full load must latch a 50 C trip");
        assert!(m.trip_count() >= 1);
        assert!(
            peak_after_trip < 52.0,
            "trip must bound the excursion near critical: {peak_after_trip}"
        );

        // While latched, the trip clamps duty below any setpoint command.
        if m.is_tripped() {
            m.set_tcc_duty(1.0);
            assert!(m.effective_tcc_duty() <= 0.3);
        }

        // Idle the machine: the latch must release only below the release
        // threshold, after which full speed returns.
        for core in m.core_ids().collect::<Vec<_>>() {
            m.set_core_idle(core);
        }
        for _ in 0..120 {
            m.advance(SimDuration::from_secs(1));
        }
        assert!(!m.is_tripped(), "cooled machine must release the latch");
        assert_eq!(m.effective_tcc_duty(), 1.0);
    }

    #[test]
    fn trip_latch_respects_min_hold() {
        // Engage the trip, then cool nearly instantly: release must still
        // wait out `min_hold` on the machine clock.
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_trip = Some(ThermalTrip {
            critical_celsius: 35.0,
            release_celsius: 32.0,
            trip_duty: 0.5,
            min_hold: SimDuration::from_secs(5),
        });
        let mut m = Machine::new(cfg).unwrap();
        m.settle_idle();
        all_active(&mut m);
        for _ in 0..600 {
            m.advance(SimDuration::from_millis(100));
            if m.is_tripped() {
                break;
            }
        }
        assert!(m.is_tripped(), "35 C critical must latch quickly");
        for core in m.core_ids().collect::<Vec<_>>() {
            m.set_core_idle(core);
        }
        // 2 s after latching the machine is cool but the hold keeps it
        // latched; past 5 s it releases.
        for _ in 0..20 {
            m.advance(SimDuration::from_millis(100));
        }
        assert!(m.is_tripped(), "min_hold must keep the latch engaged");
        for _ in 0..100 {
            m.advance(SimDuration::from_millis(100));
        }
        assert!(!m.is_tripped(), "latch must release after the hold expires");
    }

    #[test]
    fn trip_unengaged_is_transparent() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_trip = Some(ThermalTrip::prochot_at(90.0));
        let mut a = Machine::new(cfg).unwrap();
        let mut b = machine();
        all_active(&mut a);
        all_active(&mut b);
        a.advance(SimDuration::from_secs(60));
        b.advance(SimDuration::from_secs(60));
        assert!(!a.is_tripped());
        assert_eq!(a.trip_count(), 0);
        assert_eq!(a.mean_core_temperature(), b.mean_core_temperature());
    }

    #[test]
    fn bad_dtm_configs_are_rejected_at_construction() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_trip = Some(ThermalTrip {
            critical_celsius: 50.0,
            release_celsius: 60.0,
            trip_duty: 0.3,
            min_hold: SimDuration::ZERO,
        });
        assert!(matches!(
            Machine::new(cfg),
            Err(MachineError::BadDtmConfig { .. })
        ));
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.thermal_throttle = Some(ThermalThrottle {
            trigger_celsius: f64::NAN,
            hysteresis: 2.0,
            throttle_duty: 0.5,
        });
        assert!(matches!(
            Machine::new(cfg),
            Err(MachineError::BadDtmConfig { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "TCC duty")]
    fn non_finite_tcc_duty_panics() {
        machine().set_tcc_duty(f64::NAN);
    }

    #[test]
    fn clamped_tcc_setter_never_leaves_range() {
        let mut m = machine();
        assert_eq!(m.set_tcc_duty_clamped(0.6), 0.6);
        assert_eq!(m.set_tcc_duty_clamped(1.7), 1.0);
        assert_eq!(m.set_tcc_duty_clamped(-3.0), MIN_TCC_DUTY);
        assert_eq!(m.set_tcc_duty_clamped(0.0), MIN_TCC_DUTY);
        m.set_tcc_duty_clamped(0.5);
        let nan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.set_tcc_duty_clamped(f64::NAN)
        }));
        if cfg!(debug_assertions) {
            // Armed: a NaN command is a controller bug and stops the run.
            assert!(nan.is_err(), "debug builds must reject a NaN command");
        } else {
            // Release: a NaN command is ignored.
            assert_eq!(nan.ok(), Some(0.5));
        }
        assert_eq!(m.tcc_duty(), 0.5);
    }

    #[test]
    fn deep_idle_governor_picks_by_expected_residency() {
        let mut m = Machine::new(MachineConfig::xeon_e5520_deep_idle()).unwrap();
        // Long expected idle: C6.
        let s = m.set_core_idle_for(CoreId(0), Some(SimDuration::from_millis(25)));
        assert_eq!(s, CoreState::IdleC6);
        // Short expected idle: stays at C1E.
        let s = m.set_core_idle_for(CoreId(0), Some(SimDuration::from_micros(500)));
        assert_eq!(s, CoreState::IdleC1e);
        // Unknown duration: conservative C1E.
        let s = m.set_core_idle_for(CoreId(0), None);
        assert_eq!(s, CoreState::IdleC1e);
        // Without deep idle configured, long idles still use C1E.
        let mut plain = machine();
        let s = plain.set_core_idle_for(CoreId(0), Some(SimDuration::from_secs(1)));
        assert_eq!(s, CoreState::IdleC1e);
    }

    #[test]
    fn c6_core_draws_less_than_c1e_core() {
        let mut m = Machine::new(MachineConfig::xeon_e5520_deep_idle()).unwrap();
        m.settle_idle();
        let c1e = m.physical_core_power(0);
        m.set_core_idle_for(CoreId(0), Some(SimDuration::from_millis(100)));
        let c6 = m.physical_core_power(0);
        assert!(c6 < c1e, "{c6} vs {c1e}");
    }

    #[test]
    fn smt_c6_requires_both_siblings_deep() {
        let mut cfg = MachineConfig::xeon_e5520_deep_idle();
        cfg.threads_per_core = 2;
        let mut m = Machine::new(cfg).unwrap();
        m.settle_idle();
        // One sibling deep, one at C1E: the core holds at C1E.
        m.set_core_idle_for(CoreId(0), Some(SimDuration::from_millis(100)));
        let mixed = m.physical_core_power(0);
        m.set_core_idle_for(CoreId(4), Some(SimDuration::from_millis(100)));
        let both_deep = m.physical_core_power(0);
        assert!(both_deep < mixed, "{both_deep} vs {mixed}");
    }

    #[test]
    fn bad_smt_width_rejected() {
        let mut cfg = MachineConfig::xeon_e5520();
        cfg.threads_per_core = 4;
        assert_eq!(
            Machine::new(cfg).unwrap_err(),
            MachineError::BadSmtWidth { requested: 4 }
        );
    }

    #[test]
    fn smt_exposes_eight_logical_cpus_on_four_dies() {
        let m = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        assert_eq!(m.num_cores(), 8);
        assert_eq!(m.num_physical_cores(), 4);
        // Siblings pair i with i+4 and share a die reading.
        assert_eq!(m.sibling_of(CoreId(1)), Some(CoreId(5)));
        assert_eq!(m.sibling_of(CoreId(5)), Some(CoreId(1)));
        assert_eq!(m.core_temperature(CoreId(1)), m.core_temperature(CoreId(5)));
        // Without SMT there is no sibling.
        let single = machine();
        assert_eq!(single.sibling_of(CoreId(0)), None);
    }

    #[test]
    fn smt_c1e_requires_both_siblings_halted() {
        // §3.2: "In order to cause the entire core to enter the C1E low
        // power state we need to halt all thread contexts on the core."
        let mut m = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        m.settle_idle();
        let both_idle = m.physical_core_power(0);

        // One context active, sibling halted: core power is active-class.
        m.set_core_state(CoreId(0), CoreState::active(1.0));
        let one_active = m.physical_core_power(0);
        assert!(one_active > 10.0 * both_idle, "{one_active} vs {both_idle}");

        // Halting only one context saves almost nothing versus both
        // running (the core cannot reach C1E).
        m.set_core_state(CoreId(4), CoreState::active(1.0));
        let both_active = m.physical_core_power(0);
        m.set_core_idle(CoreId(4));
        let one_halted = m.physical_core_power(0);
        assert!(one_halted > both_idle * 10.0);
        assert!(both_active > one_halted, "co-residency adds some power");
    }

    #[test]
    fn smt_co_residency_power_is_sublinear() {
        let mut m = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        m.set_core_state(CoreId(0), CoreState::active(1.0));
        let one = m.physical_core_power(0);
        m.set_core_state(CoreId(4), CoreState::active(1.0));
        let two = m.physical_core_power(0);
        // A second context adds power, but far less than doubling.
        assert!(two > one && two < one * 1.5, "{one} -> {two}");
    }

    #[test]
    fn smt_idle_package_matches_non_smt() {
        // All contexts halted: the SMT machine idles like the non-SMT one.
        let mut smt = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        smt.settle_idle();
        let mut single = machine();
        single.settle_idle();
        assert!((smt.package_power() - single.package_power()).abs() < 0.5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// More active cores never lowers package power or steady
        /// temperature.
        #[test]
        fn prop_monotone_in_active_cores(k in 0usize..=4) {
            let mut fewer = machine();
            let mut more = machine();
            for i in 0..k {
                fewer.set_core_state(CoreId(i), CoreState::active(1.0));
                more.set_core_state(CoreId(i), CoreState::active(1.0));
            }
            if k < 4 {
                more.set_core_state(CoreId(k), CoreState::active(1.0));
            }
            fewer.settle();
            more.settle();
            prop_assert!(more.package_power() >= fewer.package_power() - 1e-9);
            prop_assert!(more.mean_core_temperature() >= fewer.mean_core_temperature() - 1e-9);
        }

        /// Temperatures stay within [ambient, 110 C] across random drive
        /// patterns.
        #[test]
        fn prop_temperature_envelope(pattern in prop::collection::vec(0u8..3, 1..20)) {
            let mut m = machine();
            for (i, &p) in pattern.iter().enumerate() {
                let core = CoreId(i % 4);
                match p {
                    0 => m.set_core_idle(core),
                    1 => m.set_core_state(core, CoreState::active(0.5)),
                    _ => m.set_core_state(core, CoreState::active(1.0)),
                }
                m.advance(SimDuration::from_millis(500));
            }
            for c in m.core_ids() {
                let t = m.core_temperature(c);
                prop_assert!((25.2..110.0).contains(&t), "temp {} out of envelope", t);
            }
        }
    }
}
