//! Scenario execution and the end-of-run report.

use dimetrodon::{
    DimetrodonHook, InjectionModel, InjectionParams, PolicyHandle, SetpointController,
    SmtCoScheduler, TelemetryFilter,
};
use dimetrodon_analysis::Table;
use dimetrodon_faults::{FaultPlan, FaultyHook, FaultyTelemetry, SensorSpec};
use dimetrodon_machine::{Machine, MachineConfig, MachineError, ThermalTrip};
use dimetrodon_sched::{
    BsdScheduler, SchedConfig, SchedHook, Scheduler, System, ThreadId, ThreadKind, UleScheduler,
};
use dimetrodon_sim_core::{SimRng, SimTime};
use dimetrodon_workload::{
    spawn_web_workload, CpuBurn, CycleCounter, PeriodicBurn, QosHandle, SpecBenchmark, WebConfig,
    WorkloadProfile,
};

use crate::args::{Options, SchedulerChoice, WorkloadChoice};

/// What a scenario run produced, ready for printing.
#[derive(Debug)]
pub struct Report {
    /// The options that produced it.
    pub options: Options,
    /// Idle temperature of the configured machine, °C.
    pub idle_temp: f64,
    /// Observed (dispatch-sampled sensor) temperature over the final
    /// fifth of the run, °C.
    pub observed_temp: f64,
    /// Physical mean die temperature over the same window, °C.
    pub physical_temp: f64,
    /// Total CPU time executed across threads, seconds.
    pub cpu_executed: f64,
    /// Total idle quanta injected.
    pub injected_idles: u64,
    /// Final package power, W.
    pub package_power: f64,
    /// Total energy drawn, J.
    pub energy_joules: f64,
    /// Times the reactive thermal trip latched (`--trip` runs).
    pub trips: u64,
    /// Telemetry reads lost to sensor faults (`--faults`/`--sensor-noise`
    /// runs).
    pub dropped_reads: u64,
    /// Web QoS statistics, when the web workload ran.
    pub qos: Option<dimetrodon_workload::QosStats>,
    /// Cool-process completed cycles, when the mix ran.
    pub cool_cycles: Option<u64>,
    /// Rendered decision trace, when `--trace` was requested.
    pub trace_dump: Option<String>,
}

/// Errors running a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The machine configuration was invalid.
    Machine(MachineError),
    /// `--workload profile` was selected without a readable, valid
    /// profile.
    Profile(String),
    /// `--faults` was passed without a readable, valid fault plan.
    Faults(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Machine(e) => write!(f, "{e}"),
            ScenarioError::Profile(reason) => write!(f, "profile: {reason}"),
            ScenarioError::Faults(reason) => write!(f, "faults: {reason}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<MachineError> for ScenarioError {
    fn from(e: MachineError) -> Self {
        ScenarioError::Machine(e)
    }
}

/// Runs the scenario described by `options`.
///
/// # Errors
///
/// Returns a [`ScenarioError`] if the machine configuration is invalid
/// (not reachable through the CLI's own flags), or the profile or fault
/// plan file is missing or malformed.
pub fn run_scenario(options: &Options) -> Result<Report, ScenarioError> {
    let mut machine_config = if options.smt {
        MachineConfig::xeon_e5520_smt()
    } else {
        MachineConfig::xeon_e5520()
    };
    if let Some(critical) = options.trip {
        machine_config.thermal_trip = Some(ThermalTrip::prochot_at(critical));
    }
    let mut machine = Machine::new(machine_config)?;
    machine.settle_idle();
    let idle_temp = machine.idle_temperature();
    let cpus = machine.num_cores();

    let scheduler: Box<dyn Scheduler> = match options.scheduler {
        SchedulerChoice::Bsd => Box::new(BsdScheduler::new()),
        SchedulerChoice::Ule => Box::new(UleScheduler::new(cpus)),
    };
    let sched_config = SchedConfig {
        thermal_aware_placement: options.placement,
        ..SchedConfig::default()
    };

    let policy = PolicyHandle::new();
    if let Some(p) = options.p {
        if p > 0.0 {
            policy.set_global(Some(InjectionParams::new(p, options.quantum)));
        }
    }
    let model = if options.deterministic {
        InjectionModel::Deterministic
    } else {
        InjectionModel::Probabilistic
    };
    let plan = match options.faults_path.as_deref() {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ScenarioError::Faults(format!("read {path}: {e}")))?;
            text.parse::<FaultPlan>()
                .map_err(|e| ScenarioError::Faults(format!("{path}: {e}")))?
        }
        None => FaultPlan::new(),
    };
    let faults_requested = options.faults_path.is_some() || options.sensor_noise.is_some();

    let base_hook = DimetrodonHook::with_model(policy.clone(), model, options.seed);
    let mut hook: Box<dyn SchedHook> = match (options.setpoint, options.smt) {
        (Some(setpoint), _) => {
            let mut controller =
                SetpointController::new(base_hook, setpoint, options.quantum);
            if faults_requested {
                // Degraded telemetry: per-core DTS reads (noisy,
                // droppable) instead of the exact die mean, conditioned
                // by the hardened filter.
                let spec = SensorSpec {
                    noise_sigma: options
                        .sensor_noise
                        .unwrap_or(SensorSpec::dts().noise_sigma),
                    ..SensorSpec::dts()
                };
                controller = controller
                    .with_telemetry(Box::new(FaultyTelemetry::new(
                        spec,
                        plan.clone(),
                        options.seed ^ 0x5E45,
                    )))
                    .with_filter(TelemetryFilter::hardened());
            }
            Box::new(controller)
        }
        (None, true) => Box::new(SmtCoScheduler::new(base_hook)),
        (None, false) => Box::new(base_hook),
    };
    if plan.has_scheduler_faults() {
        hook = Box::new(FaultyHook::new(hook, plan, options.seed ^ 0xFA17));
    }

    let mut system = System::with_parts(machine, scheduler, hook, sched_config);
    if let Some(capacity) = options.trace {
        system.enable_trace(capacity);
    }

    let mut qos: Option<QosHandle> = None;
    let mut cool: Option<CycleCounter> = None;
    let ids: Vec<ThreadId> = match options.workload {
        WorkloadChoice::CpuBurn => (0..cpus)
            .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
            .collect(),
        WorkloadChoice::Spec(bench) => (0..cpus)
            .map(|_| system.spawn(ThreadKind::User, Box::new(bench.body())))
            .collect(),
        WorkloadChoice::Web => {
            let mut rng = SimRng::new(options.seed ^ 0x3EB);
            let (ids, handle) = spawn_web_workload(&mut system, WebConfig::paper_setup(), &mut rng);
            qos = Some(handle);
            ids
        }
        WorkloadChoice::Profile => {
            let path = options
                .profile_path
                .as_deref()
                .ok_or_else(|| ScenarioError::Profile("--profile <file> required".into()))?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| ScenarioError::Profile(format!("read {path}: {e}")))?;
            let profile: WorkloadProfile = text
                .parse()
                .map_err(|e| ScenarioError::Profile(format!("{path}: {e}")))?;
            (0..cpus)
                .map(|_| system.spawn(ThreadKind::User, Box::new(profile.looped())))
                .collect()
        }
        WorkloadChoice::Mix => {
            let mut ids: Vec<ThreadId> = (0..4)
                .map(|_| {
                    system.spawn(
                        ThreadKind::User,
                        Box::new(SpecBenchmark::Calculix.body()),
                    )
                })
                .collect();
            let (body, counter) = PeriodicBurn::paper_cool_process();
            ids.push(system.spawn(ThreadKind::User, Box::new(body)));
            cool = Some(counter);
            ids
        }
    };

    system.run_until(SimTime::ZERO + options.duration);

    let window_start = SimTime::ZERO + options.duration.mul_f64(0.8);
    let observed_temp = system
        .observed_temp_over(window_start)
        .unwrap_or_else(|| system.machine().mean_sensor_temperature());
    #[expect(
        clippy::expect_used,
        reason = "the run covers the window, so samples exist"
    )]
    let physical_temp = system
        .mean_temp_series()
        .mean_over(window_start)
        .expect("temperature sampled");
    let cpu_executed = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();

    let trace_dump = system.trace().map(|t| t.render());
    Ok(Report {
        options: options.clone(),
        trace_dump,
        idle_temp,
        observed_temp,
        physical_temp,
        cpu_executed,
        trips: system.machine().trip_count(),
        dropped_reads: telemetry_losses(system.hook()),
        injected_idles: system.total_injected_idles(),
        package_power: system.machine().package_power(),
        energy_joules: system.machine().energy().joules(),
        qos: qos.map(|h| h.snapshot()),
        cool_cycles: cool.map(|c| c.completed()),
    })
}

/// Telemetry reads lost by the installed controller, if one is present
/// (directly or behind a [`FaultyHook`] wrapper).
fn telemetry_losses(hook: &dyn SchedHook) -> u64 {
    let Some(any) = hook.as_any() else { return 0 };
    if let Some(controller) = any.downcast_ref::<SetpointController>() {
        return controller.telemetry().dropped_reads();
    }
    if let Some(faulty) = any.downcast_ref::<FaultyHook>() {
        return faulty
            .inner()
            .as_any()
            .and_then(|inner| inner.downcast_ref::<SetpointController>())
            .map_or(0, |controller| controller.telemetry().dropped_reads());
    }
    0
}

impl Report {
    /// Renders the report as an aligned table plus workload-specific
    /// lines.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec!["metric", "value"]);
        let secs = self.options.duration.as_secs_f64();
        let mut row = |metric: &str, value: String| {
            table.row(vec![metric.to_string(), value]);
        };
        row("idle temperature", format!("{:.1} C", self.idle_temp));
        row(
            "observed temperature (tail)",
            format!("{:.1} C (+{:.1} over idle)", self.observed_temp, self.observed_temp - self.idle_temp),
        );
        row(
            "physical mean die temperature (tail)",
            format!("{:.1} C", self.physical_temp),
        );
        row(
            "CPU executed",
            format!("{:.1} s over {secs:.0} s", self.cpu_executed),
        );
        row("idle quanta injected", format!("{}", self.injected_idles));
        row("package power (final)", format!("{:.1} W", self.package_power));
        row("energy", format!("{:.0} J", self.energy_joules));
        if self.options.trip.is_some() {
            row("thermal trips", format!("{}", self.trips));
        }
        if self.options.faults_path.is_some() || self.options.sensor_noise.is_some() {
            row("sensor reads dropped", format!("{}", self.dropped_reads));
        }
        let mut out = table.render();
        if let Some(qos) = &self.qos {
            out.push_str(&format!(
                "web: {} requests, {:.1}% good, {:.1}% tolerable, mean latency {:.2} s\n",
                qos.total(),
                qos.good_fraction() * 100.0,
                qos.tolerable_fraction() * 100.0,
                qos.mean_latency().unwrap_or(0.0),
            ));
        }
        if let Some(cycles) = self.cool_cycles {
            out.push_str(&format!("mix: cool process completed {cycles} cycles\n"));
        }
        if let Some(trace) = &self.trace_dump {
            out.push_str("\nlast scheduling decisions:\n");
            out.push_str(trace);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_sim_core::SimDuration;

    fn quick_options(workload: WorkloadChoice) -> Options {
        Options {
            workload,
            duration: SimDuration::from_secs(20),
            ..Options::default()
        }
    }

    #[test]
    fn cpuburn_scenario_runs() {
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.p = Some(0.5);
        let report = run_scenario(&options).unwrap();
        assert!(report.injected_idles > 0);
        assert!(report.observed_temp > report.idle_temp);
        assert!(report.cpu_executed > 10.0);
        let text = report.render();
        assert!(text.contains("idle quanta injected"));
    }

    #[test]
    fn web_scenario_reports_qos() {
        let report = run_scenario(&quick_options(WorkloadChoice::Web)).unwrap();
        let qos = report.qos.as_ref().expect("web stats");
        assert!(qos.total() > 100);
        assert!(report.render().contains("web:"));
    }

    #[test]
    fn mix_scenario_reports_cycles() {
        let mut options = quick_options(WorkloadChoice::Mix);
        options.duration = SimDuration::from_secs(80);
        let report = run_scenario(&options).unwrap();
        assert!(report.cool_cycles.expect("counter") >= 1);
    }

    #[test]
    fn smt_scenario_uses_co_scheduler() {
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.smt = true;
        options.p = Some(0.5);
        let report = run_scenario(&options).unwrap();
        assert!(report.injected_idles > 0);
    }

    #[test]
    fn setpoint_scenario_controls_temperature() {
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.setpoint = Some(40.0);
        options.duration = SimDuration::from_secs(150);
        let report = run_scenario(&options).unwrap();
        assert!(
            (36.0..44.0).contains(&report.physical_temp),
            "controller should hold near 40C: {}",
            report.physical_temp
        );
    }

    #[test]
    fn profile_scenario_replays_file() {
        let dir = std::env::temp_dir().join("dimetrodon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("app.profile");
        std::fs::write(&path, "compute 30 0.9\nwait 20\n").unwrap();
        let mut options = quick_options(WorkloadChoice::Profile);
        options.profile_path = Some(path.to_string_lossy().into_owned());
        options.trace = Some(32);
        let report = run_scenario(&options).unwrap();
        assert!(report.cpu_executed > 5.0, "replay should burn CPU");
        let dump = report.trace_dump.as_ref().expect("trace requested");
        assert!(dump.contains("dispatch"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn faulty_setpoint_scenario_reports_losses_and_trips() {
        let dir = std::env::temp_dir().join("dimetrodon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("burst.faults");
        std::fs::write(&path, "at 5s all dropout for 10s\nat 5s all drop-hooks 0.2 for 10s\n")
            .unwrap();
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.duration = SimDuration::from_secs(120);
        options.setpoint = Some(45.0);
        options.sensor_noise = Some(1.0);
        options.trip = Some(51.0);
        options.faults_path = Some(path.to_string_lossy().into_owned());
        let report = run_scenario(&options).unwrap();
        assert!(report.dropped_reads > 0, "dropout window must lose reads");
        let text = report.render();
        assert!(text.contains("thermal trips"));
        assert!(text.contains("sensor reads dropped"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trip_alone_is_reported_and_clean_runs_never_trip() {
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.trip = Some(90.0); // far above anything the platform reaches
        let report = run_scenario(&options).unwrap();
        assert_eq!(report.trips, 0);
        assert!(report.render().contains("thermal trips"));
    }

    #[test]
    fn bad_fault_plans_error_cleanly() {
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.faults_path = Some("/definitely/not/here.faults".into());
        assert!(matches!(run_scenario(&options), Err(ScenarioError::Faults(_))));

        let dir = std::env::temp_dir().join("dimetrodon_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.faults");
        std::fs::write(&path, "at 5s all explode\n").unwrap();
        let mut options = quick_options(WorkloadChoice::CpuBurn);
        options.faults_path = Some(path.to_string_lossy().into_owned());
        assert!(matches!(run_scenario(&options), Err(ScenarioError::Faults(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_profile_errors() {
        let mut options = quick_options(WorkloadChoice::Profile);
        options.profile_path = Some("/definitely/not/here.profile".into());
        assert!(matches!(
            run_scenario(&options),
            Err(ScenarioError::Profile(_))
        ));
        let mut none = quick_options(WorkloadChoice::Profile);
        none.profile_path = None;
        assert!(matches!(run_scenario(&none), Err(ScenarioError::Profile(_))));
    }

    #[test]
    fn ule_scenario_runs() {
        let mut options = quick_options(WorkloadChoice::Spec(SpecBenchmark::Astar));
        options.scheduler = SchedulerChoice::Ule;
        let report = run_scenario(&options).unwrap();
        assert!(report.cpu_executed > 10.0);
    }
}
