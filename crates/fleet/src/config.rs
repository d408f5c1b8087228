//! Fleet configuration and its explicit byte fingerprint.

use dimetrodon_ckpt::fnv1a64;
use dimetrodon_faults::FleetFaultPlan;
use dimetrodon_harness::snapshot::machine_config_bytes;
use dimetrodon_machine::{MachineConfig, ThermalTrip};
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

    /// The journal identity of this configuration: FNV-1a64 over an
    /// explicit field-by-field byte serialization (float bit patterns,
    /// durations as nanoseconds). The machine section reuses the warm-key
    /// walk from the harness, so any two configs the snapshot cache would
    /// distinguish hash differently here too. Unlike the warm key, the
    /// seed *is* included: the arrival stream depends on it.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = machine_config_bytes(&self.machine);
        let mut u64_field = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
        u64_field(self.machines as u64);
        u64_field(self.machines_per_rack as u64);
        u64_field(self.tenants as u64);
        u64_field(self.duration.as_nanos());
        u64_field(self.epoch.as_nanos());
        u64_field(self.requests_per_epoch as u64);
        u64_field(self.mean_service_cpu.as_nanos());
        u64_field(self.service_activity.to_bits());
        u64_field(self.good_threshold.as_nanos());
        u64_field(self.tolerable_threshold.as_nanos());
        u64_field(self.setpoint_celsius.to_bits());
        u64_field(self.gain_per_celsius_second.to_bits());
        u64_field(self.room_celsius.to_bits());
        u64_field(self.recirc_celsius_per_watt.to_bits());
        u64_field(self.migration_hysteresis_celsius.to_bits());
        u64_field(self.seed);
        // The chaos section only exists when a plan is scheduled: an empty
        // plan must hash exactly like a pre-chaos config, so a config
        // without chaos keeps the fingerprint it had before the layer.
        if !self.chaos.is_empty() {
            let plan = self.chaos.identity_bytes();
            bytes.extend_from_slice(&(plan.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&plan);
            bytes.extend_from_slice(&self.heartbeat_timeout_epochs.to_le_bytes());
        }
        fnv1a64(&bytes)
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
    fn fingerprint_distinguishes_sign_zero() {
        let base = FleetConfig::rack_scale(8, 1);
        let mut zero = base.clone();
        zero.recirc_celsius_per_watt = 0.0;
        let mut negative_zero = base;
        negative_zero.recirc_celsius_per_watt = -0.0;
        assert_ne!(zero.fingerprint(), negative_zero.fingerprint());
    }
}
