//! Fleet configuration and its explicit byte fingerprint.

use dimetrodon_ckpt::{fnv1a64, Enc};
use dimetrodon_faults::FleetFaultPlan;
use dimetrodon_machine::{encode_machine_config, MachineConfig, ThermalTrip};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_workload::WebConfig;

/// Everything a fleet run depends on. One value of this type fully
/// determines the output of [`run_fleet`](crate::run_fleet) for a given
/// policy — the fingerprint below is the journal identity that claim
/// rests on.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-machine platform configuration (every machine is identical).
    pub machine: MachineConfig,
    /// Number of machines in the fleet.
    pub machines: usize,
    /// Machines per rack; the last rack may be partial.
    pub machines_per_rack: usize,
    /// Number of tenants the request stream is attributed to.
    pub tenants: usize,
    /// Simulated run length (whole epochs of it are executed).
    pub duration: SimDuration,
    /// Control epoch: requests are routed, machines advanced, controllers
    /// updated, and rack inlets recomputed once per epoch.
    pub epoch: SimDuration,
    /// Open-loop offered load: requests arriving per epoch, fleet-wide.
    pub requests_per_epoch: usize,
    /// Mean CPU demand of one request before the tenant weight scales it.
    pub mean_service_cpu: SimDuration,
    /// Activity factor of service code while a core works the queue.
    pub service_activity: f64,
    /// The "good" QoS latency threshold.
    pub good_threshold: SimDuration,
    /// The "tolerable" QoS latency threshold.
    pub tolerable_threshold: SimDuration,
    /// Per-machine controller setpoint: sensor temperature above this
    /// grows the machine's idle-injection proportion.
    pub setpoint_celsius: f64,
    /// Integral controller gain: injection proportion added per degree of
    /// error per second of epoch.
    pub gain_per_celsius_second: f64,
    /// Room (CRAC-supplied) air temperature; a rack's inlet sits above
    /// this by its recirculated heat.
    pub room_celsius: f64,
    /// Inlet rise per watt of heat the rack's machines reject.
    pub recirc_celsius_per_watt: f64,
    /// Minimum hottest-to-coolest spread before the pinned-migrate policy
    /// moves a tenant.
    pub migration_hysteresis_celsius: f64,
    /// Seed for the arrival stream and the tenant weight draw.
    pub seed: u64,
    /// Scheduled cluster faults (crashes, CRAC degradation, wedged
    /// controllers). The empty plan is the default and guarantees the
    /// chaos layer is bit-for-bit invisible.
    pub chaos: FleetFaultPlan,
    /// Epochs a machine may miss heartbeats before the health model
    /// advertises it down; the router's detection lag after a crash.
    pub heartbeat_timeout_epochs: u64,
}

impl FleetConfig {
    /// A rack-scale fleet of Xeon E5520 machines with the reactive trip
    /// armed, 16 machines per rack, sized so the per-machine controllers
    /// actually bind: offered load puts each machine around 60 % busy
    /// before injection, and recirculation lifts loaded racks' inlets a
    /// few degrees over the room.
    pub fn rack_scale(machines: usize, seed: u64) -> FleetConfig {
        let mut machine = MachineConfig::xeon_e5520();
        machine.thermal_trip = Some(ThermalTrip::prochot_at(52.0));
        let room_celsius = machine.thermal.ambient_celsius;
        let web = WebConfig::paper_setup();
        FleetConfig {
            machine,
            machines,
            machines_per_rack: 16,
            tenants: machines * 4,
            duration: SimDuration::from_secs(120),
            epoch: SimDuration::from_secs(1),
            requests_per_epoch: machines * 30,
            mean_service_cpu: web.mean_service_cpu,
            service_activity: web.service_activity,
            good_threshold: web.good_threshold,
            tolerable_threshold: web.tolerable_threshold,
            setpoint_celsius: 40.0,
            gain_per_celsius_second: 0.02,
            room_celsius,
            recirc_celsius_per_watt: 0.01,
            migration_hysteresis_celsius: 1.5,
            seed,
            chaos: FleetFaultPlan::new(),
            heartbeat_timeout_epochs: 1,
        }
    }

    /// The shortened smoke configuration: a 32-machine, two-rack fleet
    /// over a quarter of the default duration.
    pub fn quick(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::rack_scale(32, seed);
        config.duration = SimDuration::from_secs(30);
        config
    }

    /// Number of racks (the last may be partial).
    pub fn racks(&self) -> usize {
        self.machines.div_ceil(self.machines_per_rack)
    }

    /// Whole control epochs that fit in `duration`.
    pub fn epochs(&self) -> u64 {
        self.duration.as_nanos() / self.epoch.as_nanos()
    }

    /// The QoS scoring view of this configuration, shaped as the web
    /// workload's config so rack stats reuse the exact same accumulator
    /// the single-machine experiments report.
    pub(crate) fn web(&self) -> WebConfig {
        WebConfig {
            connections: self.tenants.max(1),
            mean_think_time: self.epoch,
            mean_service_cpu: self.mean_service_cpu,
            service_activity: self.service_activity,
            good_threshold: self.good_threshold,
            tolerable_threshold: self.tolerable_threshold,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, the epoch is zero or longer than the
    /// duration, or any of the analogue knobs is non-finite or out of
    /// range.
    pub fn validate(&self) {
        assert!(self.machines > 0, "need at least one machine");
        assert!(self.machines_per_rack > 0, "need at least one machine per rack");
        assert!(self.tenants > 0, "need at least one tenant");
        assert!(!self.epoch.is_zero(), "epoch must be positive");
        assert!(self.duration >= self.epoch, "duration must cover at least one epoch");
        assert!(self.requests_per_epoch > 0, "need offered load");
        assert!(!self.mean_service_cpu.is_zero(), "service demand must be positive");
        assert!(
            (0.0..=1.0).contains(&self.service_activity),
            "activity must be in [0, 1]"
        );
        assert!(
            self.good_threshold <= self.tolerable_threshold,
            "good threshold must not exceed tolerable"
        );
        assert!(self.setpoint_celsius.is_finite(), "setpoint must be finite");
        assert!(
            self.gain_per_celsius_second.is_finite() && self.gain_per_celsius_second >= 0.0,
            "gain must be finite and non-negative"
        );
        assert!(self.room_celsius.is_finite(), "room temperature must be finite");
        assert!(
            self.recirc_celsius_per_watt.is_finite() && self.recirc_celsius_per_watt >= 0.0,
            "recirculation coefficient must be finite and non-negative"
        );
        assert!(
            self.migration_hysteresis_celsius.is_finite()
                && self.migration_hysteresis_celsius >= 0.0,
            "migration hysteresis must be finite and non-negative"
        );
        if let Some(machine) = self.chaos.max_machine() {
            assert!(
                machine < self.machines,
                "chaos plan names machine {machine} of a {}-machine fleet",
                self.machines
            );
        }
        if let Some(rack) = self.chaos.max_rack() {
            assert!(
                rack < self.racks(),
                "chaos plan names rack {rack} of a {}-rack fleet",
                self.racks()
            );
        }
    }

    /// Reads the fleet fault plan at `path` into [`chaos`](Self::chaos),
    /// checking that it names only machines and racks of this fleet.
    ///
    /// # Errors
    ///
    /// A message naming `path` when the file is unreadable, the plan
    /// does not parse, or it names a machine or rack outside the fleet;
    /// the configuration is left unchanged.
    pub fn load_chaos_plan(&mut self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let plan: FleetFaultPlan = text.parse().map_err(|e| format!("{path}: {e}"))?;
        if let Some(m) = plan.max_machine().filter(|&m| m >= self.machines) {
            return Err(format!(
                "{path}: machine {m} is outside the {}-machine fleet",
                self.machines
            ));
        }
        if let Some(r) = plan.max_rack().filter(|&r| r >= self.racks()) {
            return Err(format!(
                "{path}: rack {r} is outside the {}-rack fleet",
                self.racks()
            ));
        }
        self.chaos = plan;
        Ok(())
    }

    /// The journal identity of this configuration: FNV-1a64 over an
    /// explicit field-by-field byte serialization (float bit patterns,
    /// durations as nanoseconds). The machine section is
    /// [`encode_machine_config`], the one exhaustive walk of a
    /// [`MachineConfig`], so any two machine configs hash differently
    /// here too. The seed is included: the arrival stream depends on it.
    pub fn fingerprint(&self) -> u64 {
        let mut enc = Enc::new();
        encode_machine_config(&mut enc, &self.machine);
        enc.u64(self.machines as u64);
        enc.u64(self.machines_per_rack as u64);
        enc.u64(self.tenants as u64);
        enc.u64(self.duration.as_nanos());
        enc.u64(self.epoch.as_nanos());
        enc.u64(self.requests_per_epoch as u64);
        enc.u64(self.mean_service_cpu.as_nanos());
        enc.f64(self.service_activity);
        enc.u64(self.good_threshold.as_nanos());
        enc.u64(self.tolerable_threshold.as_nanos());
        enc.f64(self.setpoint_celsius);
        enc.f64(self.gain_per_celsius_second);
        enc.f64(self.room_celsius);
        enc.f64(self.recirc_celsius_per_watt);
        enc.f64(self.migration_hysteresis_celsius);
        enc.u64(self.seed);
        // The chaos section only exists when a plan is scheduled: an empty
        // plan must hash exactly like a pre-chaos config, so a config
        // without chaos keeps the fingerprint it had before the layer.
        if !self.chaos.is_empty() {
            enc.bytes(&self.chaos.identity_bytes());
            enc.u64(self.heartbeat_timeout_epochs);
        }
        fnv1a64(&enc.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_validates_and_counts_racks() {
        let config = FleetConfig::rack_scale(40, 1);
        config.validate();
        assert_eq!(config.racks(), 3, "40 machines at 16/rack is 2 full + 1 partial");
        assert_eq!(config.epochs(), 120);
    }

    /// The journal identity and its machine section, pinned: journal files
    /// are named by the fingerprint, so any change to these bytes strands
    /// existing journals.
    #[test]
    fn fingerprint_bytes_are_pinned() {
        let config = FleetConfig::rack_scale(256, 211);
        assert_eq!(config.fingerprint(), 0x2577_ae36_7769_d0d1);
        let machine = dimetrodon_machine::machine_config_bytes(&config.machine);
        assert_eq!(fnv1a64(&machine), 0x0de3_d42d_124b_e62a);
    }

    #[test]
    fn fingerprint_distinguishes_every_knob() {
        let base = FleetConfig::rack_scale(8, 1);
        let mut seeded = base.clone();
        seeded.seed = 2;
        assert_ne!(base.fingerprint(), seeded.fingerprint(), "seed must be in the identity");

        let mut tuned = base.clone();
        tuned.recirc_celsius_per_watt = 0.011;
        assert_ne!(base.fingerprint(), tuned.fingerprint());

        let mut machine_changed = base.clone();
        machine_changed.machine.thermal_trip = None;
        assert_ne!(base.fingerprint(), machine_changed.fingerprint());

        assert_eq!(base.fingerprint(), base.clone().fingerprint(), "clone is identity");
    }

    #[test]
    fn chaos_plan_joins_the_fingerprint_only_when_non_empty() {
        use dimetrodon_faults::{FleetFaultKind, FleetTarget};
        use dimetrodon_sim_core::SimTime;

        let base = FleetConfig::rack_scale(8, 1);
        assert!(base.chaos.is_empty(), "presets default to no chaos");

        let mut timeout_tuned = base.clone();
        timeout_tuned.heartbeat_timeout_epochs = 5;
        assert_eq!(
            base.fingerprint(),
            timeout_tuned.fingerprint(),
            "with no plan the chaos knobs are inert and must not split journals"
        );

        let crash = |at| {
            FleetFaultPlan::new().with(
                SimTime::ZERO + SimDuration::from_secs(at),
                FleetTarget::Machine(2),
                FleetFaultKind::Crash,
                None,
            )
        };
        let mut chaotic = base.clone();
        chaotic.chaos = crash(10);
        assert_ne!(base.fingerprint(), chaotic.fingerprint(), "a plan is identity");

        let mut shifted = base.clone();
        shifted.chaos = crash(11);
        assert_ne!(chaotic.fingerprint(), shifted.fingerprint());

        let mut lagged = chaotic.clone();
        lagged.heartbeat_timeout_epochs = 5;
        assert_ne!(
            chaotic.fingerprint(),
            lagged.fingerprint(),
            "with a plan the detection lag shapes results, so it is identity"
        );
    }

    #[test]
    #[should_panic(expected = "chaos plan names machine")]
    fn chaos_plan_out_of_range_machine_is_rejected() {
        use dimetrodon_faults::{FleetFaultKind, FleetTarget};
        use dimetrodon_sim_core::SimTime;

        let mut config = FleetConfig::rack_scale(8, 1);
        config.chaos = FleetFaultPlan::new().with(
            SimTime::ZERO,
            FleetTarget::Machine(8),
            FleetFaultKind::Crash,
            None,
        );
        config.validate();
    }

    #[test]
    fn chaos_plans_load_or_error_cleanly() {
        let dir = std::env::temp_dir().join(format!("fleet-chaos-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let mut config = FleetConfig::rack_scale(32, 1);

        let good = plan("crash.plan", "at 1s machine 31 crash for 2s\n");
        config.load_chaos_plan(&good).unwrap();
        assert_eq!(config.chaos.events().len(), 1);
        config.validate();

        let missing = dir.join("not-here.plan");
        let err = config
            .load_chaos_plan(&missing.to_string_lossy())
            .unwrap_err();
        assert!(err.starts_with("read "), "got: {err}");
        let malformed = plan("bad.plan", "at 1s machine 0 explode\n");
        assert!(config.load_chaos_plan(&malformed).is_err());
        let far_machine = plan("far.plan", "at 1s machine 99 crash\n");
        let err = config.load_chaos_plan(&far_machine).unwrap_err();
        assert!(err.contains("machine 99 is outside the 32-machine fleet"), "got: {err}");
        let far_rack = plan("far-rack.plan", "at 1s rack 2 crash\n");
        let err = config.load_chaos_plan(&far_rack).unwrap_err();
        assert!(err.contains("rack 2 is outside the 2-rack fleet"), "got: {err}");
        assert_eq!(config.chaos.events().len(), 1, "a failed load changes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_sign_zero() {
        let base = FleetConfig::rack_scale(8, 1);
        let mut zero = base.clone();
        zero.recirc_celsius_per_watt = 0.0;
        let mut negative_zero = base;
        negative_zero.recirc_celsius_per_watt = -0.0;
        assert_ne!(zero.fingerprint(), negative_zero.fingerprint());
    }
}
