//! The `fleet` workload: the 256-machine rack-scale fleet under all four
//! routing policies, checkpointed and journaled as the `fleet` binary
//! runs it. Its traced run adds a chaos pass: the same fleet under the
//! chaos layer's synthetic faults at full intensity, as `fleet --chaos`
//! runs its intensity-1.0 row.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dimetrodon_ckpt::Enc;
use dimetrodon_fleet::{
    chaos_table, fleet_table, run_fleet_checkpointed, ChaosGrid, ChaosJournal, ChaosMetrics,
    ChaosOutcome, CheckpointSpec, FailoverPolicy, Fleet, FleetConfig, FleetJournal, FleetOutcome,
    PolicyKind, RackReport, RoutePolicy,
};
use dimetrodon_sim_core::SimDuration;

use crate::trace::{Lapped, Laps, Timed, Tracer};
use crate::{add, median, Batch, Counts, Workload};

const MACHINES: usize = 256;
/// One-second control epochs per policy variant. Every epoch is one lap
/// of the timed run; ten keep a batch to 1.5–3 s of host time, so each
/// lap repeats about 20 times in a 50 s run.
const EPOCHS: u64 = 10;
/// The `fleet` binary checkpoints every 50 of its 120 epochs; a 10-epoch
/// run would never reach that, so each variant saves once, at the
/// midpoint.
const CHECKPOINT_EVERY: u64 = 5;
const CHAOS_INTENSITY: f64 = 1.0;
/// Relative slack on the chaos demand balance: the served, queued and
/// shed sums accumulate in different orders.
const CONSERVATION_TOLERANCE: f64 = 1e-6;

pub struct FleetWorkload {
    config: FleetConfig,
    /// `Some` for the chaos pass: the one-intensity grid it runs.
    grid: Option<ChaosGrid>,
    work: PathBuf,
}

impl FleetWorkload {
    pub fn plain(seed: u64, work: &Path) -> FleetWorkload {
        FleetWorkload {
            config: config(seed),
            grid: None,
            work: work.to_path_buf(),
        }
    }

    pub fn chaos(seed: u64, work: &Path) -> FleetWorkload {
        let config = config(seed);
        FleetWorkload {
            grid: Some(ChaosGrid::new(config.clone(), vec![CHAOS_INTENSITY])),
            config,
            work: work.to_path_buf(),
        }
    }

    fn spec(&self) -> CheckpointSpec {
        let mut spec = CheckpointSpec::new(&self.work.join("ckpt"));
        spec.every_epochs = CHECKPOINT_EVERY;
        spec
    }

    fn journal_dir(&self) -> PathBuf {
        self.work.join("journal")
    }

    /// The config each policy variant's fleet is built from.
    fn variant_config(&self) -> FleetConfig {
        match &self.grid {
            Some(grid) => grid.point_config(CHAOS_INTENSITY),
            None => self.config.clone(),
        }
    }
}

fn config(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::rack_scale(MACHINES, seed);
    config.duration = SimDuration::from_secs(EPOCHS);
    config
}

/// Every request of every epoch lands in some rack, and every
/// temperature and latency is finite.
fn check_reports(config: &FleetConfig, reports: &[RackReport]) -> Result<(), String> {
    let want = config.requests_per_epoch as u64 * config.epochs();
    let got: u64 = reports.iter().map(|r| r.requests).sum();
    if got != want {
        return Err(format!("racks received {got} requests, expected {want}"));
    }
    let finite = reports.iter().all(|r| {
        r.peak_celsius.is_finite()
            && r.rms_celsius.is_finite()
            && r.good_fraction.is_finite()
            && r.p99_latency_s.is_none_or(f64::is_finite)
    });
    if !finite {
        return Err("a rack reported a non-finite temperature or latency".into());
    }
    Ok(())
}

/// Served plus shed demand never exceeds what arrived.
fn check_chaos(m: &ChaosMetrics) -> Result<(), String> {
    let accounted = m.served_cpu_s + m.shed_cpu_s;
    if accounted > m.arrived_cpu_s * (1.0 + CONSERVATION_TOLERANCE) {
        return Err(format!(
            "served {} + shed {} CPU-s exceed the {} that arrived",
            m.served_cpu_s, m.shed_cpu_s, m.arrived_cpu_s
        ));
    }
    if m.shed_requests > m.arrived_requests || !m.peak_celsius.is_finite() {
        return Err("chaos metrics out of range".into());
    }
    Ok(())
}

fn failures(checks: impl Iterator<Item = Result<(), String>>) -> u64 {
    checks
        .filter_map(Result::err)
        .inspect(|err| eprintln!("output check failed: {err}"))
        .count() as u64
}

fn plain_batch(config: &FleetConfig, outcomes: &[FleetOutcome]) -> Batch {
    Batch {
        failed: failures(outcomes.iter().map(|o| check_reports(config, &o.reports))),
        table: fleet_table(outcomes).render_csv(),
        exact: format!(
            "{:?}",
            outcomes.iter().map(|o| &o.reports).collect::<Vec<_>>()
        ),
    }
}

fn chaos_batch(outcomes: &[ChaosOutcome]) -> Batch {
    Batch {
        failed: failures(outcomes.iter().map(|o| check_chaos(&o.metrics))),
        table: chaos_table(outcomes).render_csv(),
        exact: format!(
            "{:?}",
            outcomes.iter().map(|o| &o.metrics).collect::<Vec<_>>()
        ),
    }
}

fn route_span(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::RoundRobin => "fleet.policy.route.round-robin",
        PolicyKind::LeastLoaded => "fleet.policy.route.least-loaded",
        PolicyKind::CoolestFirst => "fleet.policy.route.coolest-first",
        PolicyKind::PinnedMigrate => "fleet.policy.route.pinned-migrate",
    }
}

/// Steps `fleet` through every epoch inside one span per epoch, with the
/// policy's summed route and end-of-epoch time as that span's children.
/// With `spec`, saves a checkpoint at the `run_fleet_checkpointed`
/// cadence.
fn traced_epochs<P: RoutePolicy>(
    tracer: &mut Tracer,
    fleet: &mut Fleet,
    policy: &mut Timed<P>,
    kind: PolicyKind,
    spec: Option<&CheckpointSpec>,
    counts: &mut Counts,
) {
    let epochs = fleet.config().epochs();
    let store = spec.map(|spec| spec.store(fleet.config(), policy.name()));
    for epoch in 1..=epochs {
        let started = Instant::now();
        let (route, end_epoch) = (policy.route_time, policy.end_epoch_time);
        tracer.enter("fleet.sim.step");
        fleet.step(policy);
        tracer.record_sum(route_span(kind), started, policy.route_time - route);
        tracer.record_sum(
            "fleet.policy.end_epoch",
            started,
            policy.end_epoch_time - end_epoch,
        );
        tracer.exit();
        if let (Some(spec), Some(store)) = (spec, &store) {
            if epoch % spec.every_epochs == 0 && epoch < epochs {
                let frames = tracer.span("ckpt.encode", || {
                    let mut policy_enc = Enc::new();
                    policy.save_state(&mut policy_enc);
                    vec![fleet.checkpoint_encode(), policy_enc.into_bytes()]
                });
                let bytes: usize = frames.iter().map(Vec::len).sum();
                match tracer.span("ckpt.save", || store.save(epoch, &frames)) {
                    Ok(()) => {
                        add(counts, "ckpt.saves", 1);
                        add(counts, "ckpt.bytes", bytes as u64);
                    }
                    Err(err) => eprintln!("warning: checkpoint save failed: {err}"),
                }
            }
        }
    }
    add(
        counts,
        "fleet.sim.machine_epochs",
        epochs * fleet.config().machines as u64,
    );
    add(
        counts,
        &format!("route_calls.{}", kind.name()),
        policy.route_calls,
    );
    add(counts, "fleet.policy.route_calls", policy.route_calls);
    add(counts, "end_epoch_calls", policy.end_epoch_calls);
}

impl FleetWorkload {
    /// `run_fleet_checkpointed` and `fleet_comparison_checkpointed`,
    /// call by call, for each policy variant.
    fn traced_plain(&self, tracer: &mut Tracer) -> (Batch, Counts) {
        let config = &self.config;
        let spec = self.spec();
        let journal = FleetJournal::open(&self.journal_dir(), config.fingerprint(), false);
        let mut counts = Counts::new();
        let mut outcomes = Vec::new();
        for (variant, kind) in PolicyKind::ALL.into_iter().enumerate() {
            tracer.enter("variant");
            let built = config.clone();
            let mut fleet = tracer.span("fleet.sim.new", || Fleet::new(built));
            let mut policy = Timed::new(kind.build(config));
            traced_epochs(
                tracer,
                &mut fleet,
                &mut policy,
                kind,
                Some(&spec),
                &mut counts,
            );
            let reports = fleet.reports();
            add(
                &mut counts,
                "landed",
                reports.iter().map(|r| r.requests).sum(),
            );
            tracer.span("fleet.journal.append", || {
                journal.append(variant, kind.name(), &reports)
            });
            tracer.exit();
            outcomes.push(FleetOutcome {
                policy: kind,
                reports,
                replayed: false,
            });
        }
        (plain_batch(config, &outcomes), counts)
    }

    /// `chaos_comparison_with`, call by call, for each policy variant.
    fn traced_chaos(&self, grid: &ChaosGrid, tracer: &mut Tracer) -> (Batch, Counts) {
        let journal = ChaosJournal::open(&self.journal_dir(), grid, false);
        let mut counts = Counts::new();
        let mut outcomes = Vec::new();
        let mut failed = 0;
        for (index, (intensity, kind)) in grid.points().into_iter().enumerate() {
            tracer.enter("variant");
            let config = grid.point_config(intensity);
            config.validate();
            let mut policy = Timed::new(FailoverPolicy::new(
                kind.build(&config),
                grid.recovery_epochs,
            ));
            let mut fleet = tracer.span("fleet.sim.new", || Fleet::new(config));
            fleet.set_collect_chaos(true);
            traced_epochs(tracer, &mut fleet, &mut policy, kind, None, &mut counts);
            let metrics = tracer
                .span("fleet.chaos.metrics", || fleet.chaos_metrics())
                .expect("chaos accounting was switched on");
            // Only the traced run sees the queue, so only it can close the
            // balance: arrived = served + queued + shed.
            let queued: f64 = fleet.backlog_cpu_s().iter().sum();
            let accounted = metrics.served_cpu_s + queued + metrics.shed_cpu_s;
            if (metrics.arrived_cpu_s - accounted).abs()
                > CONSERVATION_TOLERANCE * metrics.arrived_cpu_s.max(1.0)
            {
                eprintln!(
                    "output check failed: {} arrived CPU-s != {accounted} served + queued + shed",
                    metrics.arrived_cpu_s
                );
                failed += 1;
            }
            add(
                &mut counts,
                "landed",
                metrics.arrived_requests - metrics.shed_requests,
            );
            add(
                &mut counts,
                "fleet.chaos.shed_requests",
                metrics.shed_requests,
            );
            add(&mut counts, "fleet.chaos.recoveries", metrics.recoveries);
            add(
                &mut counts,
                "fleet.chaos.degraded_epochs",
                metrics.degraded_epochs,
            );
            tracer.span("fleet.journal.append", || {
                journal.append(index, &ChaosGrid::label(intensity, kind), &metrics)
            });
            tracer.exit();
            outcomes.push(ChaosOutcome {
                intensity,
                policy: kind,
                metrics,
                replayed: false,
            });
        }
        let mut batch = chaos_batch(&outcomes);
        batch.failed += failed;
        (batch, counts)
    }
}

impl Workload for FleetWorkload {
    fn ops(&self) -> u64 {
        PolicyKind::ALL.len() as u64
    }

    fn sim_seconds(&self) -> f64 {
        (self.ops() * self.config.epochs() * self.config.machines as u64) as f64
            * self.config.epoch.as_secs_f64()
    }

    fn setup(&self) -> Vec<f64> {
        (0..self.ops())
            .map(|_| {
                let config = self.variant_config();
                let started = Instant::now();
                let fleet = Fleet::new(config);
                let elapsed = started.elapsed().as_secs_f64();
                drop(fleet);
                elapsed
            })
            .collect()
    }

    /// What `fleet_comparison_checkpointed` and `chaos_comparison_with`
    /// do at one worker, variant by variant, with a lap at the end of
    /// every epoch and every variant.
    fn run(&self, laps: &mut Laps) -> Batch {
        match &self.grid {
            None => {
                let config = &self.config;
                config.validate();
                let spec = self.spec();
                let journal = FleetJournal::open(&self.journal_dir(), config.fingerprint(), false);
                let mut outcomes = Vec::new();
                for (variant, kind) in PolicyKind::ALL.into_iter().enumerate() {
                    let mut policy = Lapped::new(kind.build(config), laps);
                    let reports = run_fleet_checkpointed(config, &mut policy, &spec)
                        .expect("restore is off, so the run cannot fail");
                    journal.append(variant, kind.name(), &reports);
                    laps.lap();
                    outcomes.push(FleetOutcome {
                        policy: kind,
                        reports,
                        replayed: false,
                    });
                }
                plain_batch(config, &outcomes)
            }
            Some(grid) => {
                let journal = ChaosJournal::open(&self.journal_dir(), grid, false);
                let mut outcomes = Vec::new();
                for (index, (intensity, kind)) in grid.points().into_iter().enumerate() {
                    let config = grid.point_config(intensity);
                    config.validate();
                    let inner = FailoverPolicy::new(kind.build(&config), grid.recovery_epochs);
                    let mut fleet = Fleet::new(config);
                    fleet.set_collect_chaos(true);
                    fleet.run(&mut Lapped::new(inner, laps));
                    let metrics = fleet
                        .chaos_metrics()
                        .expect("chaos accounting was switched on");
                    journal.append(index, &ChaosGrid::label(intensity, kind), &metrics);
                    laps.lap();
                    outcomes.push(ChaosOutcome {
                        intensity,
                        policy: kind,
                        metrics,
                        replayed: false,
                    });
                }
                chaos_batch(&outcomes)
            }
        }
    }

    fn run_traced(&self, tracer: &mut Tracer) -> (Batch, Counts) {
        match &self.grid {
            None => self.traced_plain(tracer),
            Some(grid) => self.traced_chaos(grid, tracer),
        }
    }

    fn layers(&self, tracer: &Tracer, counts: &Counts, batches: usize) -> Vec<(String, f64)> {
        let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
        let per_batch = |total: Duration| total.as_secs_f64() / batches as f64;
        let self_times = tracer.self_times();
        let step_self = self_times
            .get("fleet.sim.step")
            .copied()
            .unwrap_or_default();
        let route_total: Duration = PolicyKind::ALL
            .iter()
            .map(|&k| tracer.total(route_span(k)))
            .sum();
        let mut layers = vec![
            (
                "fleet.sim.new_ms".to_string(),
                1e3 * median(
                    tracer
                        .durations("fleet.sim.new")
                        .iter()
                        .map(Duration::as_secs_f64)
                        .collect(),
                ),
            ),
            (
                "fleet.sim.step_self_us".into(),
                1e6 * per_batch(step_self) / count("fleet.sim.machine_epochs"),
            ),
            (
                "fleet.sim.machine_epochs".into(),
                count("fleet.sim.machine_epochs"),
            ),
            (
                "fleet.policy.route_calls".into(),
                count("fleet.policy.route_calls"),
            ),
            (
                "fleet.policy.route_share".into(),
                route_total.as_secs_f64() / tracer.total("fleet.sim.step").as_secs_f64(),
            ),
            (
                "fleet.policy.useful_frac".into(),
                count("landed") / count("fleet.policy.route_calls"),
            ),
            (
                "fleet.policy.end_epoch_us".into(),
                1e6 * per_batch(tracer.total("fleet.policy.end_epoch")) / count("end_epoch_calls"),
            ),
            (
                "fleet.chaos.shed_requests".into(),
                count("fleet.chaos.shed_requests"),
            ),
            (
                "fleet.chaos.recoveries".into(),
                count("fleet.chaos.recoveries"),
            ),
            (
                "fleet.chaos.degraded_epochs".into(),
                count("fleet.chaos.degraded_epochs"),
            ),
            ("ckpt.saves".into(), count("ckpt.saves")),
            (
                "fleet.journal.append_us".into(),
                1e6 * tracer.mean_secs("fleet.journal.append"),
            ),
        ];
        for kind in PolicyKind::ALL {
            let calls = count(&format!("route_calls.{}", kind.name()));
            layers.push((
                format!("fleet.policy.route_ns.{}", kind.name()),
                1e9 * per_batch(tracer.total(route_span(kind))) / calls,
            ));
        }
        if count("ckpt.saves") > 0.0 {
            layers.push((
                "ckpt.bytes".into(),
                count("ckpt.bytes") / count("ckpt.saves"),
            ));
            layers.push((
                "ckpt.encode_ms".into(),
                1e3 * tracer.mean_secs("ckpt.encode"),
            ));
            layers.push(("ckpt.save_ms".into(), 1e3 * tracer.mean_secs("ckpt.save")));
        }
        layers
    }
}
