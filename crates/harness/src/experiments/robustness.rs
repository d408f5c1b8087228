//! Robustness of closed-loop control under degraded telemetry
//! (reproduction-specific; no paper artefact).
//!
//! The paper's controllers assume trustworthy DTS readings. This
//! experiment asks what each controller variant does as the sensor path
//! degrades: a grid of fault intensity × controller hardening, where each
//! cell runs a saturating workload under a setpoint controller whose
//! temperature reads flow through a [`FaultyTelemetry`] source, with the
//! machine's reactive [`ThermalTrip`] armed as the safety net. Reported
//! per cell: setpoint tracking error over the tail, peak sensor
//! temperature, trip activations, throughput cost, and how much telemetry
//! was lost.
//!
//! The zero-intensity column runs an ideal sensor spec with an empty
//! plan — exact DTS reads, no randomness drawn — so it doubles as a live
//! check that the fault machinery at rest changes nothing.

use dimetrodon::{DimetrodonHook, PolicyHandle, SetpointController, TelemetryFilter};
use dimetrodon_faults::{
    FaultKind, FaultPlan, FaultTarget, FaultyHook, FaultyTelemetry, SensorSpec,
};
use dimetrodon_machine::{CoreId, Machine, MachineConfig, ThermalTrip};
use dimetrodon_sched::{SchedHook, System, ThreadKind};
use dimetrodon_sim_core::{derive_seed, SimDuration, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::runner::RunConfig;
use crate::sweep::parallel_map;

/// The mean-hotspot setpoint the preventive controller holds, °C.
pub const SETPOINT_CELSIUS: f64 = 45.0;
/// The reactive trip's critical hotspot threshold, °C. Below the
/// unconstrained full-load hotspot (~54 °C on the calibrated platform),
/// so losing the preventive loop genuinely engages the trip.
pub const CRITICAL_CELSIUS: f64 = 51.0;
/// The controller's idle quantum.
pub const QUANTUM: SimDuration = SimDuration::from_millis(10);

/// Default fault intensities swept. `0.0` is the pristine path; at
/// `0.5` and above the hot core's sensor also drops out entirely and a
/// fraction of scheduler hooks goes missing.
pub const SWEEP_INTENSITY: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// How much telemetry conditioning the controller gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerVariant {
    /// Raw readings straight into the integrator (pre-hardening).
    Baseline,
    /// Median filtering, outlier rejection, dropout fallback.
    Hardened,
}

impl ControllerVariant {
    /// Both variants, in sweep order.
    pub const ALL: [ControllerVariant; 2] =
        [ControllerVariant::Baseline, ControllerVariant::Hardened];

    /// The variant's column label.
    pub fn label(self) -> &'static str {
        match self {
            ControllerVariant::Baseline => "baseline",
            ControllerVariant::Hardened => "hardened",
        }
    }
}

/// One cell of the robustness grid.
#[derive(Debug, Clone)]
pub struct RobustnessCell {
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Which controller hardening ran.
    pub variant: ControllerVariant,
    /// RMS of (dispatch-observed sensor temperature − setpoint) over the
    /// tail window, °C.
    pub tracking_rms: f64,
    /// Hottest dispatch-observed sensor temperature of the whole run, °C.
    pub peak_temp: f64,
    /// Times the reactive trip latched.
    pub trips: u64,
    /// Executed CPU time per core-second, in `[0, 1]`.
    pub throughput: f64,
    /// The injection probability in force at the end of the run.
    pub final_p: f64,
    /// Controller ticks spent with telemetry lost (fallback engaged).
    pub fallback_ticks: u64,
    /// Sensor reads lost to dropout faults.
    pub dropped_reads: u64,
}

/// The sensor degradation at `intensity`: noise and ambient dropout grow
/// linearly; quantization and staleness switch on with any fault at all.
fn spec_at(intensity: f64) -> SensorSpec {
    if intensity <= 0.0 {
        return SensorSpec::ideal();
    }
    SensorSpec {
        noise_sigma: 2.0 * intensity,
        quantum_celsius: 0.5,
        staleness: SimDuration::from_millis(1),
        dropout_p: intensity,
        power_noise_sigma: 0.0,
    }
}

/// The scheduled faults at `intensity`: from 0.5 the hot core's sensor
/// goes permanently dark a third of the way in, and a slice of scheduler
/// hook invocations is dropped for the middle third.
fn plan_at(intensity: f64, duration: SimDuration) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if intensity >= 0.5 {
        let third = SimDuration::from_nanos(duration.as_nanos() / 3);
        plan = plan
            .with(
                SimTime::ZERO + third,
                FaultTarget::Core(0),
                FaultKind::Dropout,
                None,
            )
            .with(
                SimTime::ZERO + third,
                FaultTarget::All,
                FaultKind::DropHooks(intensity / 2.0),
                Some(third),
            );
    }
    plan
}

/// Builds one cell's system. Returns the system and the policy handle so
/// callers can read the commanded `p`.
fn build_cell(
    intensity: f64,
    variant: ControllerVariant,
    config: RunConfig,
) -> (System, PolicyHandle) {
    let mut machine_config = MachineConfig::xeon_e5520();
    machine_config.thermal_trip = Some(ThermalTrip::prochot_at(CRITICAL_CELSIUS));
    #[expect(
        clippy::expect_used,
        reason = "a perturbed preset; an invalid one is a harness bug"
    )]
    let mut machine = Machine::new(machine_config).expect("machine config is valid");
    machine.settle_idle();

    let policy = PolicyHandle::new();
    let hook = DimetrodonHook::new(policy.clone(), config.seed ^ 0xD13E);
    let plan = plan_at(intensity, config.duration);
    // Every cell reads the per-core DTS path so the controlled quantity
    // (mean hotspot temperature) is the same across the grid; at zero
    // intensity the spec is ideal and the plan empty, so the reads are
    // exact and draw no randomness.
    let mut controller = SetpointController::new(hook, SETPOINT_CELSIUS, QUANTUM)
        .with_telemetry(Box::new(FaultyTelemetry::new(
            spec_at(intensity),
            plan.clone(),
            config.seed ^ 0x5E45,
        )));
    if variant == ControllerVariant::Hardened {
        controller = controller.with_filter(TelemetryFilter::hardened());
    }
    let installed: Box<dyn SchedHook> = if plan.has_scheduler_faults() {
        Box::new(FaultyHook::new(
            Box::new(controller),
            plan,
            config.seed ^ 0xFA17,
        ))
    } else {
        Box::new(controller)
    };

    let mut system = System::new(machine);
    system.set_hook(installed);
    (system, policy)
}

/// The installed controller, whether or not a [`FaultyHook`] wraps it.
#[expect(clippy::expect_used, reason = "build_cell installs a known hook shape")]
fn controller_of(system: &System) -> &SetpointController {
    let hook = system.hook();
    let direct = hook.as_any().expect("robustness hook exposes as_any");
    if let Some(controller) = direct.downcast_ref::<SetpointController>() {
        return controller;
    }
    direct
        .downcast_ref::<FaultyHook>()
        .and_then(|faulty| faulty.inner().as_any())
        .and_then(|any| any.downcast_ref::<SetpointController>())
        .expect("wrapped robustness hook is a SetpointController")
}

/// Runs one cell of the grid.
pub fn run_cell(intensity: f64, variant: ControllerVariant, config: RunConfig) -> RobustnessCell {
    let (mut system, policy) = build_cell(intensity, variant, config);
    let cores = system.machine().num_cores();
    let ids: Vec<_> = (0..cores)
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
        .collect();
    system.run_until(SimTime::ZERO + config.duration);

    let measure_from = config.measure_from();
    let mut sq_sum = 0.0;
    let mut samples = 0usize;
    let mut peak = f64::MIN;
    for core in 0..cores {
        for (t, v) in system.dispatch_temp_series(CoreId(core)).iter() {
            peak = peak.max(v);
            if t >= measure_from {
                sq_sum += (v - SETPOINT_CELSIUS).powi(2);
                samples += 1;
            }
        }
    }
    let executed: f64 = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();

    let controller = controller_of(&system);
    RobustnessCell {
        intensity,
        variant,
        tracking_rms: if samples == 0 {
            f64::NAN
        } else {
            (sq_sum / samples as f64).sqrt()
        },
        peak_temp: peak,
        trips: system.machine().trip_count(),
        throughput: executed / (cores as f64 * config.duration.as_secs_f64()),
        final_p: policy.global().map_or(0.0, |params| params.p()),
        fallback_ticks: controller.fallback_ticks(),
        dropped_reads: controller.telemetry().dropped_reads(),
    }
}

/// Runs the full grid (intensities × variants) across the worker pool.
pub fn run(config: RunConfig) -> Vec<RobustnessCell> {
    run_subset(config, &SWEEP_INTENSITY, &ControllerVariant::ALL)
}

/// Runs a subset of the grid. Cells are seeded from their grid index, so
/// results are bit-identical across worker counts.
pub fn run_subset(
    config: RunConfig,
    intensities: &[f64],
    variants: &[ControllerVariant],
) -> Vec<RobustnessCell> {
    let cells: Vec<(f64, ControllerVariant)> = intensities
        .iter()
        .flat_map(|&i| variants.iter().map(move |&v| (i, v)))
        .collect();
    parallel_map(cells.len(), |index| {
        let (intensity, variant) = cells[index];
        run_cell(
            intensity,
            variant,
            RunConfig {
                seed: derive_seed(config.seed, index as u64),
                ..config
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::set_jobs;

    #[test]
    fn acceptance_hot_core_dropout_never_diverges_and_trip_bounds_peak() {
        // The PR's acceptance criterion: ambient dropout at 50% plus the
        // hot core permanently dark. The hardened controller must keep p
        // in bounds, temperatures finite, and the trip must bound the
        // peak near the critical threshold.
        let cell = run_cell(0.5, ControllerVariant::Hardened, RunConfig::quick(31));
        assert!(
            cell.final_p.is_finite()
                && (0.0..=SetpointController::DEFAULT_P_MAX).contains(&cell.final_p),
            "p diverged: {}",
            cell.final_p
        );
        assert!(cell.peak_temp.is_finite(), "peak temperature is not a number");
        assert!(
            cell.peak_temp < CRITICAL_CELSIUS + 1.0,
            "trip failed to bound the peak: {} vs critical {}",
            cell.peak_temp,
            CRITICAL_CELSIUS
        );
        assert!(cell.dropped_reads > 0, "the scenario must actually drop reads");
    }

    #[test]
    fn trip_engages_once_telemetry_is_lost() {
        // Intensity 1.0: ambient dropout probability 1, every sensor
        // dark. The preventive loop stands down and the reactive trip
        // must be what holds the line.
        let cell = run_cell(1.0, ControllerVariant::Hardened, RunConfig::quick(32));
        assert!(cell.trips > 0, "reactive trip never latched");
        assert!(cell.fallback_ticks > 0, "controller never entered fallback");
        assert!(cell.peak_temp < CRITICAL_CELSIUS + 1.0, "peak {}", cell.peak_temp);
    }

    #[test]
    fn zero_intensity_cells_track_tightly_and_never_trip() {
        let cell = run_cell(0.0, ControllerVariant::Baseline, RunConfig::quick(33));
        assert_eq!(cell.trips, 0);
        assert_eq!(cell.dropped_reads, 0);
        assert_eq!(cell.fallback_ticks, 0);
        // Dispatch-point hotspot reads ripple several degrees around the
        // mean during injection, so "tight" is a few °C of RMS.
        assert!(cell.tracking_rms < 5.0, "clean tracking RMS {}", cell.tracking_rms);
    }

    #[test]
    fn grid_is_bit_identical_across_worker_counts() {
        let reference = run_subset(
            RunConfig::quick(34),
            &[0.0, 0.5],
            &ControllerVariant::ALL,
        );
        for jobs in [1, 4] {
            set_jobs(jobs);
            let cells = run_subset(
                RunConfig::quick(34),
                &[0.0, 0.5],
                &ControllerVariant::ALL,
            );
            set_jobs(0);
            for (a, b) in reference.iter().zip(&cells) {
                assert_eq!(a.tracking_rms.to_bits(), b.tracking_rms.to_bits(), "jobs {jobs}");
                assert_eq!(a.peak_temp.to_bits(), b.peak_temp.to_bits(), "jobs {jobs}");
                assert_eq!(a.trips, b.trips, "jobs {jobs}");
                assert_eq!(a.throughput.to_bits(), b.throughput.to_bits(), "jobs {jobs}");
            }
        }
    }

    #[test]
    fn hardening_beats_baseline_under_heavy_faults() {
        // Under heavy sensor faults the hardened variant should track the
        // setpoint no worse than the raw integrator.
        let cells = run_subset(RunConfig::quick(35), &[0.75], &ControllerVariant::ALL);
        let baseline = &cells[0];
        let hardened = &cells[1];
        assert!(
            hardened.tracking_rms <= baseline.tracking_rms + 0.5,
            "hardened {} vs baseline {}",
            hardened.tracking_rms,
            baseline.tracking_rms
        );
    }
}
