//! The common experiment runner: build a system, apply an actuation,
//! drive a workload, and take the paper's measurements.
//!
//! Measurement conventions follow §3.2–3.4:
//!
//! * **Temperature** is the mean core temperature averaged over the last
//!   `measure_window` of the run (default: last 30 s of 300 s).
//! * **Temperature reduction** is relative to the idle temperature:
//!   `(T_unconstrained − T_policy) / (T_unconstrained − T_idle)`.
//! * **Throughput** for saturating workloads is executed CPU time per
//!   core-second; **throughput reduction** is relative to the
//!   unconstrained run of the same workload.

use dimetrodon::{DimetrodonHook, InjectionModel, InjectionParams, PolicyHandle};
use dimetrodon_machine::{Machine, MachineConfig};
use dimetrodon_power::PStateId;
use dimetrodon_sched::{System, ThreadId, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime, TimeSeries};
use dimetrodon_workload::{CpuBurn, SpecBenchmark};

/// Which thermal-management mechanism a run applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Actuation {
    /// Unconstrained execution (race-to-idle).
    None,
    /// Dimetrodon idle-cycle injection with the given parameters.
    Injection {
        /// The `(p, L)` policy.
        params: InjectionParams,
        /// Probabilistic (paper) or deterministic (ablation) drawing.
        model: InjectionModel,
    },
    /// Chip-wide voltage/frequency scaling pinned at a P-state.
    Vfs {
        /// The operating point, 0 = fastest.
        pstate: PStateId,
    },
    /// `p4tcc`-style clock duty cycling.
    Tcc {
        /// Clock duty in `(0, 1)`.
        duty: f64,
    },
}

/// Timing parameters of a characterisation run. Every run starts cold:
/// the machine settles at idle, the actuation is installed before the
/// first dispatch, and the run lasts `duration` (§3.2–3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Total simulated run length (the paper: 300 s).
    pub duration: SimDuration,
    /// Tail window over which temperature is averaged (the paper: 30 s).
    pub measure_window: SimDuration,
    /// Simulation seed.
    pub seed: u64,
}

impl RunConfig {
    /// The paper's 300 s / 30 s setup.
    pub fn paper(seed: u64) -> Self {
        RunConfig {
            duration: SimDuration::from_secs(300),
            measure_window: SimDuration::from_secs(30),
            seed,
        }
    }

    /// A shortened setup for tests: long enough to approach steady state
    /// on the calibrated machine (global time constant ≈ 60 s) without
    /// the full five minutes.
    pub fn quick(seed: u64) -> Self {
        RunConfig {
            duration: SimDuration::from_secs(150),
            measure_window: SimDuration::from_secs(20),
            seed,
        }
    }

    fn measure_from(&self) -> SimTime {
        SimTime::ZERO + (self.duration - self.measure_window)
    }
}

/// What a characterisation run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Idle (all-cores-idle steady state) mean die temperature, °C.
    pub idle_temp: f64,
    /// Mean core temperature over the tail measurement window, °C.
    pub tail_temp: f64,
    /// Executed CPU time per core-second of run, in `[0, 1]`.
    pub throughput: f64,
    /// The sampled (true, die-bulk) mean-core-temperature series of the
    /// whole run — physical ground truth for diagnostics.
    pub temp_series: TimeSeries,
    /// The observed temperature curve: dispatch-point sensor readings
    /// binned into one-second means — what the paper's monitor plots.
    pub observed_curve: Vec<(f64, f64)>,
    /// Total idle quanta injected.
    pub injected_idles: u64,
}

impl RunOutcome {
    /// Temperature rise over idle, °C.
    pub fn rise_over_idle(&self) -> f64 {
        self.tail_temp - self.idle_temp
    }

    /// Whether this is the supervisor's placeholder for a point that
    /// produced no measurement (`supervise::unavailable_outcome`).
    pub fn is_unavailable(&self) -> bool {
        self.idle_temp.is_nan() || self.tail_temp.is_nan()
    }

    /// The paper's relative temperature reduction versus an unconstrained
    /// run: `(T_unconstrained − T_this) / (T_unconstrained − T_idle)`.
    /// NaN, like the rest of a missing point, when either run is the
    /// supervisor's placeholder for a point that produced no measurement.
    ///
    /// # Panics
    ///
    /// Panics if a measured unconstrained run is not hotter than idle.
    pub fn temp_reduction_vs(&self, unconstrained: &RunOutcome) -> f64 {
        if self.is_unavailable() || unconstrained.is_unavailable() {
            return f64::NAN;
        }
        let denom = unconstrained.tail_temp - unconstrained.idle_temp;
        assert!(
            denom > 0.0,
            "unconstrained run must rise above idle (rise = {denom})"
        );
        (unconstrained.tail_temp - self.tail_temp) / denom
    }

    /// Throughput reduction versus an unconstrained run, in `[0, 1]`; NaN
    /// when either run is the supervisor's placeholder.
    pub fn throughput_reduction_vs(&self, unconstrained: &RunOutcome) -> f64 {
        if self.is_unavailable() || unconstrained.is_unavailable() {
            return f64::NAN;
        }
        if unconstrained.throughput <= 0.0 {
            return 0.0;
        }
        (1.0 - self.throughput / unconstrained.throughput).max(0.0)
    }
}

/// Builds a system on the standard test platform with the given actuation
/// installed, returning the system and (for injection runs) the policy
/// handle.
pub fn build_system(actuation: Actuation, seed: u64) -> (System, Option<PolicyHandle>) {
    build_system_on(&MachineConfig::xeon_e5520(), actuation, seed)
}

/// Builds a system on an explicit machine configuration (used by
/// sensitivity and ablation studies that perturb the platform itself).
pub fn build_system_on(
    machine_config: &MachineConfig,
    actuation: Actuation,
    seed: u64,
) -> (System, Option<PolicyHandle>) {
    #[expect(
        clippy::expect_used,
        reason = "every caller passes a preset or a perturbation of one"
    )]
    let mut machine = Machine::new(machine_config.clone()).expect("machine config is valid");
    machine.settle_idle();
    match actuation {
        Actuation::None => (System::new(machine), None),
        Actuation::Injection { params, model } => {
            let policy = PolicyHandle::new();
            policy.set_global(Some(params));
            let mut system = System::new(machine);
            system.set_hook(Box::new(DimetrodonHook::with_model(
                policy.clone(),
                model,
                seed ^ 0xD13E,
            )));
            (system, Some(policy))
        }
        Actuation::Vfs { pstate } => {
            machine.set_pstate(pstate);
            (System::new(machine), None)
        }
        Actuation::Tcc { duty } => {
            machine.set_tcc_duty(duty);
            (System::new(machine), None)
        }
    }
}

/// The workloads the characterisation runner can drive, one instance per
/// core (the paper "executed four instances of each benchmark in
/// parallel", §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturatingWorkload {
    /// `cpuburn` (worst case).
    CpuBurn,
    /// A SPEC CPU2006-like profile.
    Spec(SpecBenchmark),
}

impl SaturatingWorkload {
    fn spawn_on(self, system: &mut System) -> Vec<ThreadId> {
        let cores = system.machine().num_cores();
        (0..cores)
            .map(|_| match self {
                SaturatingWorkload::CpuBurn => {
                    system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()))
                }
                SaturatingWorkload::Spec(bench) => {
                    system.spawn(ThreadKind::User, Box::new(bench.body()))
                }
            })
            .collect()
    }
}

/// Runs the §3.4 characterisation: one saturating workload instance per
/// core under `actuation`, measuring tail temperature and throughput.
pub fn characterize(
    workload: SaturatingWorkload,
    actuation: Actuation,
    config: RunConfig,
) -> RunOutcome {
    characterize_on(&MachineConfig::xeon_e5520(), workload, actuation, config)
}

/// [`characterize`] on an explicit machine configuration.
pub fn characterize_on(
    machine_config: &MachineConfig,
    workload: SaturatingWorkload,
    actuation: Actuation,
    config: RunConfig,
) -> RunOutcome {
    #[expect(
        clippy::expect_used,
        reason = "a run never told to stop reaches its end"
    )]
    characterize_while(machine_config, workload, actuation, config, || true)
        .expect("an unchecked run completes")
}

/// Events a [`characterize_while`] run dispatches between two calls of
/// its check: a few milliseconds of wall clock.
const CHUNK_EVENTS: u64 = 10_000;

/// [`characterize_on`] driven through [`System::run_events`] in chunks of
/// [`CHUNK_EVENTS`], calling `keep_going` before each chunk and returning
/// `None` once it says no: how the sweep supervisor stops an attempt at
/// its deadline. Chunked `run_events` finished by `run_until` is one
/// `run_until`, so a completed run's outcome does not depend on the
/// chunking or on `keep_going`.
pub(crate) fn characterize_while(
    machine_config: &MachineConfig,
    workload: SaturatingWorkload,
    actuation: Actuation,
    config: RunConfig,
    mut keep_going: impl FnMut() -> bool,
) -> Option<RunOutcome> {
    let (mut system, ids, idle_temp) = start_run(machine_config, workload, actuation, config);
    let end = SimTime::ZERO + config.duration;
    system.reserve_samples_until(end);
    loop {
        if !keep_going() {
            return None;
        }
        if system.run_events(CHUNK_EVENTS, end) < CHUNK_EVENTS {
            break;
        }
    }
    system.run_until(end);
    Some(measure(&system, &ids, idle_temp, config))
}

/// The cold system of a characterisation run with one workload instance
/// spawned per core, its threads, and its idle temperature.
fn start_run(
    machine_config: &MachineConfig,
    workload: SaturatingWorkload,
    actuation: Actuation,
    config: RunConfig,
) -> (System, Vec<ThreadId>, f64) {
    let (mut system, _policy) = build_system_on(machine_config, actuation, config.seed);
    let ids = workload.spawn_on(&mut system);
    let idle_temp = system.machine().idle_temperature();
    (system, ids, idle_temp)
}

/// The measurements of a characterisation run that reached its end.
fn measure(system: &System, ids: &[ThreadId], idle_temp: f64, config: RunConfig) -> RunOutcome {
    // The paper's temperature metric: coretemp reads taken by the
    // monitoring process, which land at scheduling boundaries.
    #[expect(clippy::expect_used, reason = "the run covers the measure window")]
    let tail_temp = system
        .observed_temp_over(config.measure_from())
        .expect("run produced dispatch samples");
    let executed: f64 = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();
    let cores = system.machine().num_cores() as f64;

    // Bin all cores' dispatch readings into one-second means.
    let total_secs = config.duration.as_secs_f64().ceil() as usize + 1;
    let mut sums = vec![0.0f64; total_secs];
    let mut counts = vec![0u32; total_secs];
    for core in system.machine().core_ids().collect::<Vec<_>>() {
        for (t, v) in system.dispatch_temp_series(core).iter() {
            let bucket = t.as_secs_f64() as usize;
            if bucket < total_secs {
                sums[bucket] += v;
                counts[bucket] += 1;
            }
        }
    }
    let observed_curve = sums
        .iter()
        .zip(&counts)
        .enumerate()
        .filter(|(_, (_, &c))| c > 0)
        .map(|(sec, (&s, &c))| (sec as f64, s / c as f64))
        .collect();

    RunOutcome {
        idle_temp,
        tail_temp,
        throughput: executed / (cores * config.duration.as_secs_f64()),
        temp_series: system.mean_temp_series().clone(),
        observed_curve,
        injected_idles: system.total_injected_idles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunConfig {
        RunConfig {
            duration: SimDuration::from_secs(100),
            measure_window: SimDuration::from_secs(15),
            seed: 1,
        }
    }

    /// A measured outcome with the given temperatures and throughput.
    fn measured(idle_temp: f64, tail_temp: f64, throughput: f64) -> RunOutcome {
        RunOutcome {
            idle_temp,
            tail_temp,
            throughput,
            temp_series: TimeSeries::new("measured"),
            observed_curve: Vec::new(),
            injected_idles: 0,
        }
    }

    #[test]
    fn a_placeholder_on_either_side_yields_nan() {
        let base = measured(40.0, 60.0, 1.0);
        let point = measured(40.0, 55.0, 0.9);
        let missing = crate::supervise::unavailable_outcome();
        assert!(!base.is_unavailable() && !point.is_unavailable());
        assert!(missing.is_unavailable());
        for (run, baseline) in [(&point, &missing), (&missing, &base), (&missing, &missing)] {
            assert!(run.temp_reduction_vs(baseline).is_nan());
            assert!(run.throughput_reduction_vs(baseline).is_nan());
        }
        assert!((point.temp_reduction_vs(&base) - 0.25).abs() < 1e-12);
        assert!((point.throughput_reduction_vs(&base) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unconstrained run must rise above idle")]
    fn a_measured_baseline_that_does_not_rise_still_panics() {
        let flat = measured(40.0, 40.0, 1.0);
        measured(40.0, 39.0, 0.9).temp_reduction_vs(&flat);
    }

    #[test]
    fn unconstrained_cpuburn_saturates() {
        let out = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick());
        assert!(out.throughput > 0.99, "throughput {}", out.throughput);
        assert!(out.rise_over_idle() > 10.0, "rise {}", out.rise_over_idle());
        assert_eq!(out.injected_idles, 0);
    }

    #[test]
    fn injection_reduces_temperature_and_throughput() {
        let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick());
        let inj = characterize(
            SaturatingWorkload::CpuBurn,
            Actuation::Injection {
                params: InjectionParams::new(0.5, SimDuration::from_millis(100)),
                model: InjectionModel::Probabilistic,
            },
            quick(),
        );
        let temp_red = inj.temp_reduction_vs(&base);
        let thr_red = inj.throughput_reduction_vs(&base);
        assert!((0.2..0.9).contains(&temp_red), "temp reduction {temp_red}");
        assert!((0.3..0.65).contains(&thr_red), "throughput reduction {thr_red}");
        assert!(inj.injected_idles > 100);
    }

    #[test]
    fn vfs_reduces_both_superlinearly() {
        let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick());
        let vfs = characterize(
            SaturatingWorkload::CpuBurn,
            Actuation::Vfs { pstate: PStateId(5) },
            quick(),
        );
        let thr_red = vfs.throughput_reduction_vs(&base);
        let temp_red = vfs.temp_reduction_vs(&base);
        // Speed drops to 1600/2266 => ~29% throughput reduction.
        assert!((0.25..0.33).contains(&thr_red), "thr {thr_red}");
        // The quadratic power benefit: temperature reduction well above
        // the throughput cost (paper: ~50% at ~30%).
        assert!(temp_red > thr_red, "temp {temp_red} vs thr {thr_red}");
    }

    #[test]
    fn tcc_is_worse_than_one_to_one() {
        let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick());
        let tcc = characterize(
            SaturatingWorkload::CpuBurn,
            Actuation::Tcc { duty: 0.5 },
            quick(),
        );
        let thr_red = tcc.throughput_reduction_vs(&base);
        let temp_red = tcc.temp_reduction_vs(&base);
        assert!(
            temp_red < thr_red,
            "p4tcc should be sub-1:1: temp {temp_red} vs thr {thr_red}"
        );
    }

    #[test]
    fn spec_profiles_run_cooler_than_cpuburn() {
        let burn = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick());
        let astar = characterize(
            SaturatingWorkload::Spec(SpecBenchmark::Astar),
            Actuation::None,
            quick(),
        );
        assert!(astar.rise_over_idle() < burn.rise_over_idle() * 0.85);
    }

    #[test]
    fn relative_results_are_fan_speed_invariant() {
        // §3.4: absolute temperatures move with fan speed, but the
        // *relative* trade-off metrics barely do — which is why the paper
        // could fix fans at full without loss of generality.
        let reduction_at = |fan: f64, seed: u64| {
            let machine_config = MachineConfig::xeon_e5520().with_fan_speed(fan);
            let cfg = RunConfig {
                duration: SimDuration::from_secs(120),
                measure_window: SimDuration::from_secs(20),
                seed,
            };
            let base = characterize_on(
                &machine_config,
                SaturatingWorkload::CpuBurn,
                Actuation::None,
                cfg,
            );
            let run = characterize_on(
                &machine_config,
                SaturatingWorkload::CpuBurn,
                Actuation::Injection {
                    params: InjectionParams::new(0.5, SimDuration::from_millis(25)),
                    model: InjectionModel::Probabilistic,
                },
                cfg,
            );
            (run.temp_reduction_vs(&base), base.rise_over_idle())
        };
        let (full_fan, full_rise) = reduction_at(1.0, 5);
        let (half_fan, half_rise) = reduction_at(0.6, 6);
        // Absolute rise changes materially...
        assert!(half_rise > full_rise + 1.0, "{half_rise} vs {full_rise}");
        // ...but the relative reduction metric is nearly unchanged.
        assert!(
            (full_fan - half_fan).abs() < 0.06,
            "fan invariance violated: {full_fan} vs {half_fan}"
        );
    }

    #[test]
    fn a_run_stopped_before_it_starts_returns_no_outcome() {
        let machine = MachineConfig::xeon_e5520();
        let outcome = characterize_while(
            &machine,
            SaturatingWorkload::CpuBurn,
            Actuation::None,
            quick(),
            || false,
        );
        assert!(outcome.is_none());
    }

    #[test]
    fn a_chunked_run_is_bit_identical_to_one_run_until() {
        // 100 s of injected cpuburn dispatches several chunks of events.
        let machine = MachineConfig::xeon_e5520();
        let workload = SaturatingWorkload::CpuBurn;
        let actuation = Actuation::Injection {
            params: InjectionParams::new(0.5, SimDuration::from_millis(5)),
            model: InjectionModel::Probabilistic,
        };
        let (mut system, ids, idle_temp) = start_run(&machine, workload, actuation, quick());
        system.run_until(SimTime::ZERO + quick().duration);
        let plain = measure(&system, &ids, idle_temp, quick());
        let mut checks = 0;
        let chunked = characterize_while(&machine, workload, actuation, quick(), || {
            checks += 1;
            true
        })
        .expect("a run never told to stop completes");
        assert!(
            checks > 2,
            "only {checks} chunk(s): the test must span several"
        );
        assert_eq!(plain.idle_temp.to_bits(), chunked.idle_temp.to_bits());
        assert_eq!(plain.tail_temp.to_bits(), chunked.tail_temp.to_bits());
        assert_eq!(plain.throughput.to_bits(), chunked.throughput.to_bits());
        assert_eq!(plain.injected_idles, chunked.injected_idles);
        let curve = |o: &RunOutcome| {
            o.observed_curve
                .iter()
                .map(|(t, v)| (t.to_bits(), v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(curve(&plain), curve(&chunked));
        let series = |o: &RunOutcome| {
            o.temp_series
                .iter()
                .map(|(t, v)| (t, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(series(&plain), series(&chunked));
    }

    #[test]
    fn run_config_presets() {
        let p = RunConfig::paper(7);
        assert_eq!(p.duration, SimDuration::from_secs(300));
        assert_eq!(p.measure_window, SimDuration::from_secs(30));
        assert_eq!(p.seed, 7);
        assert!(RunConfig::quick(7).duration < p.duration);
    }
}
