//! The fleet arena: hundreds of machines, one epoch loop.
//!
//! A [`Fleet`] owns every per-machine quantity as a parallel vector
//! (struct-of-arrays beside the machine arena): backlog, injection
//! proportion, last-epoch temperature, rack membership. The epoch loop
//! touches each vector in one linear pass, so a 1 000-machine fleet walks
//! cache lines, not pointer chains.
//!
//! One control epoch, in order:
//!
//! 1. the whole epoch's arrivals are drawn from the fleet RNG *before*
//!    any routing decision, so the offered load is a pure function of
//!    [`FleetConfig::seed`] and every policy faces the same stream;
//! 2. each request is routed through the policy and scored by the fluid
//!    FIFO model: latency = (queued CPU-seconds + own demand) ÷ the
//!    machine's drain rate, recorded into its rack's [`QosTail`];
//! 3. every machine serves as much backlog as its capacity allows, its
//!    cores run at the implied activity, and the full thermal/power
//!    model advances one epoch;
//! 4. each machine's integral controller converts temperature error into
//!    next epoch's idle-injection proportion;
//! 5. racks recirculate: each machine's inlet for the next epoch is the
//!    room temperature plus the rack's rejected heat times the
//!    recirculation coefficient, applied in fixed machine order.
//!
//! Injection couples into the fluid model twice, both times as the paper's
//! mechanism would: it shrinks the drain rate (queued work waits longer)
//! and it caps the busy fraction (cores spend the injected quanta idle, so
//! power and temperature fall).

use dimetrodon_analysis::Availability;
use dimetrodon_ckpt::{check_len, CkptError, Dec, Enc, State};
use dimetrodon_faults::CrashBacklog;
use dimetrodon_machine::{CoreId, Machine};
use dimetrodon_power::CoreState;
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};
use dimetrodon_workload::{QosTail, WebConfig};

use crate::config::FleetConfig;
use crate::health::HealthModel;
use crate::policy::{FleetView, RoutePolicy};

/// Ceiling on the per-machine injection proportion: above this the paper's
/// own data says voltage/frequency scaling dominates, and the fluid queue
/// keeps a guaranteed 25 % drain rate so latencies stay finite.
pub const MAX_INJECT_P: f64 = 0.75;

/// Extra routing attempts after a request lands on a machine that is
/// actually down (crashed this epoch, heartbeat not yet timed out).
/// Exhausting them sheds the request — counted, never silently lost.
pub const ROUTE_RETRIES: usize = 2;

/// Per-tenant demand weights span this log-uniform range, so a few tenants
/// are genuinely hot — the migration policy needs someone worth moving.
const TENANT_WEIGHT_RANGE: (f64, f64) = (0.25, 4.0);

/// Hot-aisle saturation under a failed CRAC, °C. Recirculated air mixes
/// with the room; no amount of re-ingested exhaust lifts an inlet past
/// the aisle's mixed-air ceiling. Without this clamp a scaled
/// recirculation coefficient can push the epoch-to-epoch loop gain
/// (inlet → leakage → rejected heat → inlet) past one, and the linear
/// recirculation model diverges instead of settling hot. Healthy racks
/// never reach it, so it is applied on the degraded-CRAC path only.
pub const MAX_CRAC_FAILURE_INLET_CELSIUS: f64 = 70.0;

/// What one rack experienced over a run; the fleet journal's record is
/// one variant's reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RackReport {
    /// Rack index.
    pub rack: usize,
    /// Machines in this rack (the last rack may be partial).
    pub machines: usize,
    /// Peak per-machine mean sensor temperature seen in the rack, °C.
    pub peak_celsius: f64,
    /// RMS of per-machine mean sensor temperature over machines × epochs,
    /// °C.
    pub rms_celsius: f64,
    /// Reactive thermal-trip latches summed over the rack's machines.
    pub trips: u64,
    /// Requests the router sent to this rack.
    pub requests: u64,
    /// Fraction of the rack's requests meeting the "good" threshold.
    pub good_fraction: f64,
    /// Nearest-rank p99 response latency, seconds; `None` when the rack
    /// served no requests.
    pub p99_latency_s: Option<f64>,
}

dimetrodon_ckpt::state! {
    RackReport {
        persisted: rack, machines, peak_celsius, rms_celsius, trips, requests, good_fraction,
            p99_latency_s;
        derived: ;
    }
}

/// The fleet arena. Cloning a fleet mid-run forks the whole simulation —
/// every machine, queue, QoS accumulator, and the RNG stream — so a clone
/// stepped with an equivalent policy stays bit-identical to the original.
/// A checkpoint saves the persisted fields listed below it; the derived
/// ones (rack topology, the settled prototype, the QoS view) are rebuilt
/// from the configuration, which the checkpoint's fingerprint pins.
#[derive(Debug, Clone)]
pub struct Fleet {
    config: FleetConfig,
    /// QoS scoring view derived from `config`.
    web: WebConfig,
    /// The machine arena; index is machine id everywhere below.
    machines: Box<[Machine]>,
    /// Rack of each machine.
    rack_of: Vec<usize>,
    /// Queued CPU-seconds per machine.
    backlog_cpu_s: Vec<f64>,
    /// Idle-injection proportion each machine's controller holds.
    inject_p: Vec<f64>,
    /// Mean sensor temperature per machine at the end of the last epoch.
    temps_celsius: Vec<f64>,
    /// Per-tenant demand multiplier, drawn once at construction.
    tenant_weight: Vec<f64>,
    /// Cumulative routed CPU-seconds per tenant.
    tenant_demand_cpu_s: Vec<f64>,
    /// Per-rack QoS accumulators, each bounded by the run's request
    /// budget.
    rack_qos: Box<[QosTail]>,
    /// Per-rack peak machine temperature so far.
    rack_peak_celsius: Vec<f64>,
    /// Per-rack running sum of squared machine temperatures.
    rack_temp_sq_sum: Vec<f64>,
    /// Per-rack count of (machine, epoch) temperature samples.
    rack_temp_samples: Vec<u64>,
    /// The fleet RNG: tenant weights, arrivals, demands.
    rng: SimRng,
    /// Epochs executed so far.
    epochs_run: u64,
    /// The settled machine every slot was cloned from; a crash restart
    /// re-clones it, so recovered machines come back thermally cold.
    prototype: Machine,
    /// Advertised per-machine health (heartbeat-lagged) plus the
    /// recovery log the availability metrics consume.
    health: HealthModel,
    /// Ground truth this epoch: machine crashed per the chaos plan.
    down: Vec<bool>,
    /// Ground truth this epoch: controller wedged per the chaos plan.
    wedged: Vec<bool>,
    /// Active CRAC degradation per rack: (recirc scale, inlet delta °C).
    crac: Vec<Option<(f64, f64)>>,
    /// Whether chaos accounting runs. Forced on by a non-empty plan;
    /// switchable on for plan-less baselines so an intensity-0 sweep row
    /// still reports availability. Never on by default with an empty
    /// plan — the zero-cost guarantee rests on that.
    collect_chaos: bool,
    /// Chaos accounting accumulators (zeros unless `collect_chaos`).
    stats: ChaosStats,
}

dimetrodon_ckpt::state! {
    Fleet {
        persisted: machines, backlog_cpu_s, inject_p, temps_celsius, tenant_weight,
            tenant_demand_cpu_s, rack_qos, rack_peak_celsius, rack_temp_sq_sum,
            rack_temp_samples, rng, epochs_run, health, down, wedged, crac, collect_chaos, stats;
        derived: config, web, rack_of, prototype;
        check: Fleet::check_restored;
    }
}

/// Chaos accounting accumulated per epoch while collection is on.
#[derive(Debug, Clone)]
struct ChaosStats {
    arrived_requests: u64,
    routed_requests: u64,
    shed_requests: u64,
    arrived_cpu_s: f64,
    served_cpu_s: f64,
    shed_cpu_s: f64,
    availability: Availability,
    qos_healthy: QosTail,
    qos_degraded: QosTail,
    healthy_epochs: u64,
    degraded_epochs: u64,
    /// Recovery-log entries already forwarded to `availability`.
    recoveries_fed: usize,
}

dimetrodon_ckpt::state! {
    ChaosStats {
        persisted: arrived_requests, routed_requests, shed_requests, arrived_cpu_s,
            served_cpu_s, shed_cpu_s, availability, qos_healthy, qos_degraded, healthy_epochs,
            degraded_epochs, recoveries_fed;
        derived: ;
    }
}

impl ChaosStats {
    /// Zeroed accounting whose QoS splits hold at most `budget` requests.
    fn new(budget: u64) -> ChaosStats {
        ChaosStats {
            arrived_requests: 0,
            routed_requests: 0,
            shed_requests: 0,
            arrived_cpu_s: 0.0,
            served_cpu_s: 0.0,
            shed_cpu_s: 0.0,
            availability: Availability::default(),
            qos_healthy: QosTail::new(budget),
            qos_degraded: QosTail::new(budget),
            healthy_epochs: 0,
            degraded_epochs: 0,
            recoveries_fed: 0,
        }
    }
}

/// Availability-under-failure summary of one fleet run; `None`-valued
/// fields had nothing to measure (no degraded epochs, no recoveries).
/// The chaos journal's record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosMetrics {
    /// Requests offered to the router.
    pub arrived_requests: u64,
    /// Requests shed after exhausting the bounded re-route retries.
    pub shed_requests: u64,
    /// `shed_requests / arrived_requests` (0 when nothing arrived).
    pub shed_fraction: f64,
    /// CPU-seconds of demand offered.
    pub arrived_cpu_s: f64,
    /// CPU-seconds actually served.
    pub served_cpu_s: f64,
    /// CPU-seconds shed: un-routable demand plus backlog dropped by
    /// crashes under the [`CrashBacklog::Drop`] disposition.
    pub shed_cpu_s: f64,
    /// Mean per-epoch fraction of machines up.
    pub capacity_mean: f64,
    /// Worst single-epoch fraction of machines up.
    pub capacity_min: f64,
    /// Epochs where every machine advertised up.
    pub healthy_epochs: u64,
    /// Epochs with at least one machine advertising degraded or down.
    pub degraded_epochs: u64,
    /// Nearest-rank p99 latency over requests routed in healthy epochs.
    pub p99_healthy_s: Option<f64>,
    /// Nearest-rank p99 latency over requests routed in degraded epochs.
    pub p99_degraded_s: Option<f64>,
    /// Completed outages (advertised down, later advertised up).
    pub recoveries: u64,
    /// Mean time from advertised-down to advertised-up, seconds.
    pub recovery_mean_s: Option<f64>,
    /// Longest time from advertised-down to advertised-up, seconds.
    pub recovery_max_s: Option<f64>,
    /// Reactive thermal-trip latches summed over the fleet.
    pub trips: u64,
    /// Peak machine temperature seen anywhere in the fleet, °C.
    pub peak_celsius: f64,
}

dimetrodon_ckpt::state! {
    ChaosMetrics {
        persisted: arrived_requests, shed_requests, shed_fraction, arrived_cpu_s, served_cpu_s,
            shed_cpu_s, capacity_mean, capacity_min, healthy_epochs, degraded_epochs,
            p99_healthy_s, p99_degraded_s, recoveries, recovery_mean_s, recovery_max_s, trips,
            peak_celsius;
        derived: ;
    }
}

impl Fleet {
    /// Builds the fleet: identical machines settled to their idle
    /// equilibrium, empty queues, controllers at zero injection, tenant
    /// weights drawn from the config seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FleetConfig::validate`] or its
    /// machine config is rejected by [`Machine::new`].
    pub fn new(config: FleetConfig) -> Fleet {
        config.validate();
        let mut rng = SimRng::new(config.seed);
        let tenant_weight: Vec<f64> = (0..config.tenants)
            .map(|_| rng.log_uniform(TENANT_WEIGHT_RANGE.0, TENANT_WEIGHT_RANGE.1))
            .collect();
        // One machine is built and settled, then cloned: every machine is
        // identical, and settling is the constructor's dominant cost.
        let prototype = {
            let built = Machine::new(config.machine.clone());
            #[expect(
                clippy::expect_used,
                reason = "a rejected machine config is a caller bug, as in validate()"
            )]
            let mut machine = built.expect("fleet machine config is valid");
            machine.settle_idle();
            machine
        };
        let machines: Box<[Machine]> = (0..config.machines).map(|_| prototype.clone()).collect();
        let temps_celsius: Vec<f64> = machines
            .iter()
            .map(Machine::mean_sensor_temperature)
            .collect();
        let rack_of: Vec<usize> = (0..config.machines)
            .map(|m| m / config.machines_per_rack)
            .collect();
        let racks = config.racks();
        let mut rack_peak_celsius = vec![f64::NEG_INFINITY; racks];
        for (machine, &temp) in temps_celsius.iter().enumerate() {
            let rack = rack_of[machine];
            rack_peak_celsius[rack] = rack_peak_celsius[rack].max(temp);
        }
        let web = config.web();
        let health = HealthModel::new(config.machines, config.heartbeat_timeout_epochs);
        let collect_chaos = !config.chaos.is_empty();
        // Every request of the run lands at most once, so the run's
        // request budget bounds every QoS accumulator's count.
        let budget = config.requests_per_epoch as u64 * config.epochs();
        Fleet {
            rack_of,
            backlog_cpu_s: vec![0.0; config.machines],
            inject_p: vec![0.0; config.machines],
            temps_celsius,
            tenant_weight,
            tenant_demand_cpu_s: vec![0.0; config.tenants],
            rack_qos: (0..racks).map(|_| QosTail::new(budget)).collect(),
            rack_peak_celsius,
            rack_temp_sq_sum: vec![0.0; racks],
            rack_temp_samples: vec![0; racks],
            rng,
            epochs_run: 0,
            health,
            down: vec![false; config.machines],
            wedged: vec![false; config.machines],
            crac: vec![None; racks],
            collect_chaos,
            stats: ChaosStats::new(budget),
            machines,
            prototype,
            web,
            config,
        }
    }

    /// The configuration the fleet was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Epochs executed so far.
    pub fn epochs_run(&self) -> u64 {
        self.epochs_run
    }

    /// Mean sensor temperature per machine at the end of the last epoch.
    pub fn temps_celsius(&self) -> &[f64] {
        &self.temps_celsius
    }

    /// Queued CPU-seconds per machine.
    pub fn backlog_cpu_s(&self) -> &[f64] {
        &self.backlog_cpu_s
    }

    /// Idle-injection proportion per machine.
    pub fn inject_p(&self) -> &[f64] {
        &self.inject_p
    }

    /// The routing view of the current fleet state.
    fn view(&self) -> FleetView<'_> {
        FleetView {
            backlog_cpu_s: &self.backlog_cpu_s,
            temps_celsius: &self.temps_celsius,
            tenant_demand_cpu_s: &self.tenant_demand_cpu_s,
            health: self.health.states(),
        }
    }

    /// Turns chaos accounting on (or off, with an empty plan) for a run
    /// that wants availability metrics without scheduled faults — the
    /// intensity-0 rows of the chaos sweep. With a non-empty plan the
    /// accounting is always on: the shed counters are what keep crashed
    /// work conserved instead of silently lost.
    pub fn set_collect_chaos(&mut self, on: bool) {
        self.collect_chaos = on || !self.config.chaos.is_empty();
    }

    /// CPU-seconds of queue machine `m` drains per second right now:
    /// cores × throttle/trip speed × the controller's non-injected share.
    fn drain_rate(&self, machine: usize) -> f64 {
        let m = &self.machines[machine];
        m.num_cores() as f64 * m.relative_speed() * (1.0 - self.inject_p[machine])
    }

    /// Applies the chaos plan's transitions for the epoch starting at
    /// `now` and feeds the health model one observation. Only called
    /// when a plan is scheduled or chaos accounting is on.
    fn begin_epoch_chaos(&mut self, now: SimTime) {
        if !self.config.chaos.is_empty() {
            let machines = self.machines.len();
            let mut redistributed_cpu_s = 0.0;
            let down_next: Vec<bool> = (0..machines)
                .map(|m| self.config.chaos.machine_down(m, self.rack_of[m], now))
                .collect();
            for (m, &goes_down) in down_next.iter().enumerate() {
                if goes_down && !self.down[m] {
                    // Fresh crash: the queue dies with the machine.
                    let orphaned = std::mem::replace(&mut self.backlog_cpu_s[m], 0.0);
                    match self.config.chaos.on_crash() {
                        CrashBacklog::Drop => self.stats.shed_cpu_s += orphaned,
                        CrashBacklog::Redistribute => redistributed_cpu_s += orphaned,
                    }
                } else if !goes_down && self.down[m] {
                    // Restart after the outage: thermally cold, controller
                    // reset, exactly the state a first boot settles into.
                    self.machines[m] = self.prototype.clone();
                    self.inject_p[m] = 0.0;
                    self.temps_celsius[m] = self.prototype.mean_sensor_temperature();
                }
            }
            self.down = down_next;
            if redistributed_cpu_s > 0.0 {
                let up: Vec<usize> = (0..machines).filter(|&m| !self.down[m]).collect();
                if up.is_empty() {
                    // Nowhere to put it: redistribution degenerates to shed.
                    self.stats.shed_cpu_s += redistributed_cpu_s;
                } else {
                    let share = redistributed_cpu_s / up.len() as f64;
                    for m in up {
                        self.backlog_cpu_s[m] += share;
                    }
                }
            }
            for m in 0..machines {
                self.wedged[m] = self.config.chaos.machine_wedged(m, self.rack_of[m], now);
            }
            for rack in 0..self.crac.len() {
                self.crac[rack] = self.config.chaos.rack_crac(rack, now);
            }
        }
        let alive: Vec<bool> = self.down.iter().map(|&d| !d).collect();
        let impaired: Vec<bool> = (0..self.machines.len())
            .map(|m| self.wedged[m] || self.machines[m].is_tripped())
            .collect();
        self.health.observe(&alive, &impaired);
    }

    /// Runs one control epoch under `policy`.
    ///
    /// # Panics
    ///
    /// Panics past the configured duration: the QoS accumulators are
    /// sized for [`FleetConfig::epochs`] epochs of requests.
    pub fn step(&mut self, policy: &mut dyn RoutePolicy) {
        assert!(
            self.epochs_run < self.config.epochs(),
            "fleet stepped past its {} configured epochs",
            self.config.epochs()
        );
        let epoch_secs = self.config.epoch.as_secs_f64();
        let mean_cpu_s = self.config.mean_service_cpu.as_secs_f64();
        let chaos_on = !self.config.chaos.is_empty();
        if chaos_on || self.collect_chaos {
            let now = SimTime::ZERO + self.config.epoch * self.epochs_run;
            self.begin_epoch_chaos(now);
        }
        let degraded_epoch = self.collect_chaos && self.health.any_not_up();
        if self.collect_chaos {
            let up = self.down.iter().filter(|&&d| !d).count();
            self.stats
                .availability
                .record_capacity(up as f64 / self.machines.len() as f64);
            if degraded_epoch {
                self.stats.degraded_epochs += 1;
            } else {
                self.stats.healthy_epochs += 1;
            }
        }

        // 1. Offered load: drawn in full before the policy sees anything,
        // so the stream is identical across policies and the RNG never
        // observes a routing decision.
        let arrivals: Vec<(usize, f64)> = (0..self.config.requests_per_epoch)
            .map(|_| {
                let tenant = self.rng.index(self.config.tenants);
                let demand = self.rng.exponential(mean_cpu_s * self.tenant_weight[tenant]);
                (tenant, demand)
            })
            .collect();

        // Drain rates are an epoch-start quantity: routing inside the
        // epoch sees a consistent fleet, not one mid-update.
        let rates: Vec<f64> = (0..self.machines.len()).map(|m| self.drain_rate(m)).collect();

        // 2. Route and score each request in arrival order. Backlog grows
        // as requests land, so load-aware policies spread a burst. A
        // request that lands on a machine that actually crashed (health
        // hasn't noticed yet) is re-routed up to ROUTE_RETRIES times,
        // then shed — with no chaos plan the first attempt always sticks
        // and this loop is the old single route call verbatim.
        for (tenant, demand) in arrivals {
            if self.collect_chaos {
                self.stats.arrived_requests += 1;
                self.stats.arrived_cpu_s += demand;
            }
            let mut landed = None;
            for _attempt in 0..=ROUTE_RETRIES {
                let machine = policy.route(tenant, &self.view());
                assert!(
                    machine < self.machines.len(),
                    "policy {} routed to machine {machine} of {}",
                    policy.name(),
                    self.machines.len()
                );
                if !chaos_on || !self.down[machine] {
                    landed = Some(machine);
                    break;
                }
            }
            match landed {
                Some(machine) => {
                    let latency_s = (self.backlog_cpu_s[machine] + demand) / rates[machine];
                    let latency = SimDuration::from_secs_f64(latency_s);
                    self.rack_qos[self.rack_of[machine]].record(latency, &self.web);
                    if self.collect_chaos {
                        self.stats.routed_requests += 1;
                        let split = if degraded_epoch {
                            &mut self.stats.qos_degraded
                        } else {
                            &mut self.stats.qos_healthy
                        };
                        split.record(latency, &self.web);
                    }
                    self.backlog_cpu_s[machine] += demand;
                    self.tenant_demand_cpu_s[tenant] += demand;
                }
                None => {
                    // Conservation over silence: the demand is charged to
                    // the shed counters, never dropped untracked.
                    self.stats.shed_requests += 1;
                    self.stats.shed_cpu_s += demand;
                }
            }
        }

        // 3–4. Serve, heat, control — one linear pass over the arena.
        // Crashed machines are powered off: they serve nothing, reject no
        // heat, and their controller and sensors are frozen until the
        // restart re-clones them from the prototype.
        for (machine, &rate) in rates.iter().enumerate() {
            if chaos_on && self.down[machine] {
                continue;
            }
            let capacity_cpu_s = rate * epoch_secs;
            let served = self.backlog_cpu_s[machine].min(capacity_cpu_s);
            self.backlog_cpu_s[machine] -= served;
            if self.collect_chaos {
                self.stats.served_cpu_s += served;
            }
            debug_assert!(
                self.backlog_cpu_s[machine] >= 0.0 && self.backlog_cpu_s[machine].is_finite(),
                "machine {machine} backlog must stay finite and non-negative, got {}",
                self.backlog_cpu_s[machine]
            );
            let m = &mut self.machines[machine];
            // Busy share of raw core-time: injected quanta are already
            // excluded because capacity carries the (1 − p) factor.
            let busy = served / (m.num_cores() as f64 * epoch_secs);
            let activity = self.config.service_activity * busy;
            for core in 0..m.num_cores() {
                if served > 0.0 {
                    m.set_core_state(CoreId(core), CoreState::active(activity));
                } else {
                    m.set_core_idle(CoreId(core));
                }
            }
            m.advance(self.config.epoch);

            let temp = m.mean_sensor_temperature();
            self.temps_celsius[machine] = temp;
            let rack = self.rack_of[machine];
            self.rack_peak_celsius[rack] = self.rack_peak_celsius[rack].max(temp);
            self.rack_temp_sq_sum[rack] += temp * temp;
            self.rack_temp_samples[rack] += 1;

            // The Dimetrodon-style preventive loop: integrate temperature
            // error into the injection proportion, clamped so the queue
            // never loses its guaranteed drain rate (anti-windup). A
            // wedged controller holds its last commanded proportion.
            if !(chaos_on && self.wedged[machine]) {
                let error = temp - self.config.setpoint_celsius;
                self.inject_p[machine] = (self.inject_p[machine]
                    + self.config.gain_per_celsius_second * error * epoch_secs)
                    .clamp(0.0, MAX_INJECT_P);
            }
        }

        // 5. Rack recirculation, in fixed machine order: next epoch's
        // inlet is the room plus the rack's rejected heat. A degraded
        // CRAC scales the recirculated share and lifts the supply air;
        // crashed machines neither reject heat nor take an inlet update.
        let racks = self.config.racks();
        let mut rack_heat_w = vec![0.0; racks];
        for machine in 0..self.machines.len() {
            if chaos_on && self.down[machine] {
                continue;
            }
            rack_heat_w[self.rack_of[machine]] += self.machines[machine].heat_to_inlet();
        }
        for machine in 0..self.machines.len() {
            if chaos_on && self.down[machine] {
                continue;
            }
            let rack = self.rack_of[machine];
            let inlet = match self.crac[rack] {
                Some((recirc_scale, inlet_delta_celsius)) => (self.config.room_celsius
                    + self.config.recirc_celsius_per_watt * recirc_scale * rack_heat_w[rack]
                    + inlet_delta_celsius)
                    .min(MAX_CRAC_FAILURE_INLET_CELSIUS),
                None => {
                    self.config.room_celsius
                        + self.config.recirc_celsius_per_watt * rack_heat_w[rack]
                }
            };
            self.machines[machine].set_inlet_celsius(inlet);
        }

        if self.collect_chaos {
            // Forward newly completed recoveries to the availability
            // accumulator, converting health-model epochs to seconds.
            let log = self.health.recovery_epochs();
            while self.stats.recoveries_fed < log.len() {
                let epochs = log[self.stats.recoveries_fed];
                self.stats
                    .availability
                    .record_recovery_secs(epochs as f64 * epoch_secs);
                self.stats.recoveries_fed += 1;
            }
            debug_assert!(
                self.stats.arrived_requests
                    == self.stats.routed_requests + self.stats.shed_requests,
                "request conservation: {} arrived != {} routed + {} shed",
                self.stats.arrived_requests,
                self.stats.routed_requests,
                self.stats.shed_requests
            );
            debug_assert!(
                {
                    let queued: f64 = self.backlog_cpu_s.iter().sum();
                    let accounted = self.stats.served_cpu_s + queued + self.stats.shed_cpu_s;
                    (self.stats.arrived_cpu_s - accounted).abs()
                        <= 1e-6 * self.stats.arrived_cpu_s.max(1.0)
                },
                "demand conservation: {} arrived CPU-s != served {} + queued + shed {}",
                self.stats.arrived_cpu_s,
                self.stats.served_cpu_s,
                self.stats.shed_cpu_s
            );
        }

        policy.end_epoch(&self.view());
        self.epochs_run += 1;
    }

    /// Runs every whole epoch of the configured duration.
    pub fn run(&mut self, policy: &mut dyn RoutePolicy) {
        for _ in 0..self.config.epochs() {
            self.step(policy);
        }
    }

    /// Per-rack outcome of the run so far.
    pub fn reports(&self) -> Vec<RackReport> {
        (0..self.config.racks())
            .map(|rack| {
                let machines = self
                    .rack_of
                    .iter()
                    .filter(|&&r| r == rack)
                    .count();
                let qos = &self.rack_qos[rack];
                let samples = self.rack_temp_samples[rack];
                let rms_celsius = if samples > 0 {
                    (self.rack_temp_sq_sum[rack] / samples as f64).sqrt()
                } else {
                    // No epochs yet: report the settled starting point.
                    self.rack_peak_celsius[rack]
                };
                RackReport {
                    rack,
                    machines,
                    peak_celsius: self.rack_peak_celsius[rack],
                    rms_celsius,
                    trips: self
                        .machines
                        .iter()
                        .zip(&self.rack_of)
                        .filter(|(_, &r)| r == rack)
                        .map(|(m, _)| m.trip_count())
                        .sum(),
                    requests: qos.requests(),
                    good_fraction: qos.good_fraction(),
                    p99_latency_s: qos.p99(),
                }
            })
            .collect()
    }
}

impl Fleet {
    /// The advertised health of every machine this epoch.
    pub fn health(&self) -> &HealthModel {
        &self.health
    }

    /// The availability-under-failure summary of the run so far, or
    /// `None` when chaos accounting is off (empty plan and
    /// [`Fleet::set_collect_chaos`] never called).
    pub fn chaos_metrics(&self) -> Option<ChaosMetrics> {
        if !self.collect_chaos {
            return None;
        }
        let s = &self.stats;
        let availability = &s.availability;
        Some(ChaosMetrics {
            arrived_requests: s.arrived_requests,
            shed_requests: s.shed_requests,
            shed_fraction: if s.arrived_requests > 0 {
                s.shed_requests as f64 / s.arrived_requests as f64
            } else {
                0.0
            },
            arrived_cpu_s: s.arrived_cpu_s,
            served_cpu_s: s.served_cpu_s,
            shed_cpu_s: s.shed_cpu_s,
            capacity_mean: availability.capacity_mean().unwrap_or(1.0),
            capacity_min: availability.capacity_min().unwrap_or(1.0),
            healthy_epochs: s.healthy_epochs,
            degraded_epochs: s.degraded_epochs,
            p99_healthy_s: s.qos_healthy.p99(),
            p99_degraded_s: s.qos_degraded.p99(),
            recoveries: availability.recoveries(),
            recovery_mean_s: availability.recovery_mean_s(),
            recovery_max_s: availability.recovery_max_s(),
            trips: self.machines.iter().map(Machine::trip_count).sum(),
            peak_celsius: self
                .rack_peak_celsius
                .iter()
                .fold(f64::NEG_INFINITY, |acc, &t| acc.max(t)),
        })
    }
}

/// Builds a fleet from `config`, runs the full duration under `policy`,
/// and returns the per-rack reports.
pub fn run_fleet(config: &FleetConfig, policy: &mut dyn RoutePolicy) -> Vec<RackReport> {
    let mut fleet = Fleet::new(config.clone());
    fleet.run(policy);
    fleet.reports()
}

impl Fleet {
    /// Serializes every piece of mutable run state — machine images,
    /// queues, controllers, QoS and chaos accumulators, the RNG stream,
    /// and the health model — as one checkpoint frame payload, through
    /// the fleet's declared [`State`].
    pub fn checkpoint_encode(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.save(&mut enc);
        enc.into_bytes()
    }

    /// Rebuilds a mid-run fleet from a [`checkpoint_encode`] payload: a
    /// fresh fleet is constructed from `config` (restoring the derived
    /// state), then every persisted field is loaded in place. The
    /// restored fleet's remaining epochs are bit-identical to the
    /// original having continued uninterrupted.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] when the payload is short, malformed, or
    /// shaped for a different fleet (wrong machine/rack/tenant counts, a
    /// P-state outside the machine's table) — the load path never panics
    /// on corrupt input.
    ///
    /// [`checkpoint_encode`]: Fleet::checkpoint_encode
    pub fn checkpoint_restore(config: &FleetConfig, payload: &[u8]) -> Result<Fleet, CkptError> {
        let mut fleet = Fleet::new(config.clone());
        let mut dec = Dec::new(payload);
        fleet.load(&mut dec)?;
        dec.finish()?;
        Ok(fleet)
    }

    /// Restored per-machine, per-rack and per-tenant vectors must match
    /// the configured fleet; the machines themselves are a boxed slice
    /// whose length is fixed at construction.
    fn check_restored(&self) -> Result<(), CkptError> {
        let machines = self.config.machines;
        let racks = self.config.racks();
        let tenants = self.config.tenants;
        for (what, got, want) in [
            ("backlog", self.backlog_cpu_s.len(), machines),
            ("inject_p", self.inject_p.len(), machines),
            ("temps", self.temps_celsius.len(), machines),
            ("health states", self.health.states().len(), machines),
            ("down flags", self.down.len(), machines),
            ("wedged flags", self.wedged.len(), machines),
            ("tenant weights", self.tenant_weight.len(), tenants),
            ("tenant demand", self.tenant_demand_cpu_s.len(), tenants),
            ("rack peaks", self.rack_peak_celsius.len(), racks),
            ("rack temp squares", self.rack_temp_sq_sum.len(), racks),
            ("rack temp samples", self.rack_temp_samples.len(), racks),
            ("crac entries", self.crac.len(), racks),
        ] {
            check_len(what, got, want)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CoolestFirst, LeastLoaded, PinnedMigrate, RoundRobin};
    use dimetrodon_faults::{FleetFaultKind, FleetFaultPlan, FleetTarget};

    fn small_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::rack_scale(8, seed);
        config.machines_per_rack = 4;
        config.duration = SimDuration::from_secs(20);
        config
    }

    fn report_bits(reports: &[RackReport]) -> Vec<u64> {
        reports
            .iter()
            .flat_map(|r| {
                [
                    r.rack as u64,
                    r.machines as u64,
                    r.peak_celsius.to_bits(),
                    r.rms_celsius.to_bits(),
                    r.trips,
                    r.requests,
                    r.good_fraction.to_bits(),
                    r.p99_latency_s.map_or(u64::MAX, f64::to_bits),
                ]
            })
            .collect()
    }

    #[test]
    fn same_seed_same_policy_is_bit_identical() {
        let config = small_config(7);
        let a = run_fleet(&config, &mut RoundRobin::default());
        let b = run_fleet(&config, &mut RoundRobin::default());
        assert_eq!(report_bits(&a), report_bits(&b));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_fleet(&small_config(1), &mut RoundRobin::default());
        let b = run_fleet(&small_config(2), &mut RoundRobin::default());
        assert_ne!(report_bits(&a), report_bits(&b));
    }

    #[test]
    fn every_policy_faces_the_same_offered_load() {
        // The arrival stream is drawn before routing, so total routed
        // demand is policy-independent bit for bit.
        let config = small_config(5);
        let total = |policy: &mut dyn RoutePolicy| {
            let mut fleet = Fleet::new(config.clone());
            fleet.run(policy);
            fleet
                .tenant_demand_cpu_s
                .iter()
                .fold(0.0f64, |acc, d| acc + d)
                .to_bits()
        };
        let rr = total(&mut RoundRobin::default());
        let ll = total(&mut LeastLoaded);
        let cf = total(&mut CoolestFirst);
        assert_eq!(rr, ll);
        assert_eq!(rr, cf);
    }

    #[test]
    fn a_cloned_fleet_continues_bit_identically() {
        // Clone is the fleet's fork: stepping original and clone with
        // equivalent policies must agree bit for bit.
        let config = small_config(3);
        let mut original = Fleet::new(config);
        let mut policy_a = RoundRobin::default();
        for _ in 0..5 {
            original.step(&mut policy_a);
        }
        let mut forked = original.clone();
        let mut policy_b = policy_a.clone();
        for _ in 0..5 {
            original.step(&mut policy_a);
            forked.step(&mut policy_b);
        }
        assert_eq!(
            report_bits(&original.reports()),
            report_bits(&forked.reports())
        );
        assert_eq!(
            original.temps_celsius[0].to_bits(),
            forked.temps_celsius[0].to_bits()
        );
    }

    #[test]
    fn controllers_engage_under_load_and_stay_off_when_cool() {
        let mut hot = small_config(11);
        hot.setpoint_celsius = 1.0; // every machine is above this
        let mut fleet = Fleet::new(hot);
        let mut policy = RoundRobin::default();
        for _ in 0..10 {
            fleet.step(&mut policy);
        }
        assert!(
            fleet.inject_p.iter().all(|&p| p > 0.0),
            "a 1 °C setpoint must drive injection on every machine"
        );
        assert!(fleet.inject_p.iter().all(|&p| p <= MAX_INJECT_P));

        let mut cool = small_config(11);
        cool.setpoint_celsius = 500.0; // unreachable
        let mut fleet = Fleet::new(cool);
        for _ in 0..10 {
            fleet.step(&mut policy);
        }
        assert!(
            fleet.inject_p.iter().all(|&p| p <= 0.0),
            "an unreachable setpoint must never inject"
        );
    }

    #[test]
    fn loaded_racks_run_their_inlets_above_the_room() {
        let config = small_config(13);
        let room = config.room_celsius;
        let mut fleet = Fleet::new(config);
        let mut policy = RoundRobin::default();
        for _ in 0..5 {
            fleet.step(&mut policy);
        }
        assert!(
            fleet
                .machines
                .iter()
                .all(|m| m.inlet_celsius() > room),
            "recirculated heat must lift every loaded inlet above the room"
        );
    }

    #[test]
    fn reports_cover_every_rack_and_count_partial_ones() {
        let mut config = small_config(17);
        config.machines = 10; // 4 + 4 + 2 at 4 per rack
        config.tenants = 40;
        config.requests_per_epoch = 300;
        let reports = run_fleet(&config, &mut LeastLoaded);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].machines, 2, "last rack is partial");
        let routed: u64 = reports.iter().map(|r| r.requests).sum();
        assert_eq!(routed, 300 * config.epochs(), "every request lands in some rack");
        for report in &reports {
            assert!(report.peak_celsius.is_finite());
            assert!(report.rms_celsius.is_finite());
            assert!(report.p99_latency_s.is_some(), "every rack served traffic");
        }
    }

    #[test]
    fn a_runaway_crac_failure_saturates_at_the_hot_aisle_ceiling() {
        // A heavily scaled recirculation coefficient pushes the
        // epoch-to-epoch loop gain (inlet → leakage → rejected heat →
        // inlet) past one; before the hot-aisle clamp this diverged to
        // non-finite power instead of settling hot. Hold the failure for
        // most of a long run and require every temperature to stay
        // finite and every inlet at or below the ceiling.
        let mut config = small_config(23);
        config.duration = SimDuration::from_secs(120);
        config.chaos = FleetFaultPlan::new().with(
            SimTime::ZERO + SimDuration::from_secs(2),
            FleetTarget::Rack(0),
            FleetFaultKind::Crac {
                recirc_scale: 4.0,
                inlet_delta_celsius: 5.0,
            },
            None, // permanent failure: worst case
        );
        let epochs = config.epochs();
        let mut fleet = Fleet::new(config);
        let mut policy = RoundRobin::default();
        for _ in 0..epochs {
            fleet.step(&mut policy);
            assert!(
                fleet.temps_celsius.iter().all(|t| t.is_finite()),
                "temperatures must stay finite through a CRAC failure"
            );
            assert!(
                fleet
                    .machines
                    .iter()
                    .all(|m| m.inlet_celsius() <= MAX_CRAC_FAILURE_INLET_CELSIUS),
                "no inlet may exceed the hot-aisle ceiling"
            );
        }
        let reports = fleet.reports();
        assert!(reports.iter().all(|r| r.peak_celsius.is_finite()));
    }

    #[test]
    fn each_rack_keeps_only_its_p99_tail_and_the_image_stops_growing() {
        let config = small_config(29);
        let budget = config.requests_per_epoch as u64 * config.epochs();
        let bound = budget / 100 + 1;
        let mut fleet = Fleet::new(config.clone());
        let mut policy = RoundRobin::default();
        // One epoch sends each rack more requests than its tail keeps.
        fleet.step(&mut policy);
        assert!(fleet.rack_qos.iter().all(|qos| qos.tail_len() as u64 == bound));
        fleet.step(&mut policy);
        let early = fleet.checkpoint_encode().len();
        while fleet.epochs_run() < config.epochs() {
            fleet.step(&mut policy);
        }
        assert_eq!(fleet.checkpoint_encode().len(), early, "full tails hold the image's size");
        for qos in fleet.rack_qos.iter() {
            assert_eq!(qos.tail_len() as u64, qos.requests().min(bound));
        }
    }

    #[test]
    #[should_panic(expected = "fleet stepped past its 20 configured epochs")]
    fn stepping_past_the_configured_epochs_panics() {
        let config = small_config(31);
        let mut fleet = Fleet::new(config);
        let mut policy = RoundRobin::default();
        fleet.run(&mut policy);
        fleet.step(&mut policy);
    }

    #[test]
    fn migration_policy_actually_migrates_under_skewed_load() {
        let mut config = small_config(19);
        config.migration_hysteresis_celsius = 0.05;
        let mut policy = PinnedMigrate::new(config.tenants, config.machines, 0.05);
        let _ = run_fleet(&config, &mut policy);
        assert!(
            policy.migrations() > 0,
            "skewed tenant weights plus a tight hysteresis must trigger migration"
        );
    }
}
