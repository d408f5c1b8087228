//! The `paper-sweep` workload: the full Figure 3 grid on cpuburn, cold,
//! 150 s per point, through the sweep `fig3::run` builds, run point by
//! point at one worker under the bench binaries' sweep supervisor.

use std::path::Path;
use std::time::Instant;

use dimetrodon::model::predicted_throughput_reduction;
use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_bench::fig3_table;
use dimetrodon_harness::experiments::fig3::{EfficiencyPoint, Fig3Data, PROPORTIONS, QUANTA_MS};
use dimetrodon_harness::supervise::{self, SupervisorConfig};
use dimetrodon_harness::sweep::{self, run_sweep, SweepPoint};
use dimetrodon_harness::{build_system, Actuation, RunConfig, RunOutcome, SaturatingWorkload};
use dimetrodon_sched::{System, ThreadId, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::trace::{Laps, Tracer};
use crate::{add, Batch, Counts, Workload};

/// The scheduler quantum the analytic model assumes, seconds.
const QUANTUM_S: f64 = 0.1;
/// Largest accepted gap between a point's measured throughput reduction
/// and `predicted_throughput_reduction`; the worst gap at the default
/// seed is 0.011.
const MODEL_TOLERANCE: f64 = 0.025;

pub struct SweepWorkload {
    config: RunConfig,
    /// The unconstrained baseline, then the (p, L) grid, with the seeds
    /// `fig3::run` gives them.
    points: Vec<SweepPoint>,
    /// (p, L in ms) of every point after the baseline.
    grid: Vec<(f64, u64)>,
}

impl SweepWorkload {
    pub fn new(seed: u64, work: &Path) -> SweepWorkload {
        sweep::set_jobs(1);
        supervise::install(SupervisorConfig {
            journal_dir: Some(work.join("journal")),
            backoff: true,
            ..SupervisorConfig::default()
        });
        let config = RunConfig::quick(seed);
        let point = |actuation, seed| {
            SweepPoint::new(
                SaturatingWorkload::CpuBurn,
                actuation,
                RunConfig { seed, ..config },
            )
        };
        let mut points = vec![point(Actuation::None, config.seed)];
        let mut grid = Vec::new();
        for (i, &p) in PROPORTIONS.iter().enumerate() {
            for (j, &l_ms) in QUANTA_MS.iter().enumerate() {
                grid.push((p, l_ms));
                points.push(point(
                    Actuation::Injection {
                        params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
                        model: InjectionModel::Probabilistic,
                    },
                    config.seed.wrapping_add((i * 97 + j * 13 + 1) as u64),
                ));
            }
        }
        SweepWorkload {
            config,
            points,
            grid,
        }
    }

    /// `fig3::run`'s table from the outcomes of every point, baseline
    /// first.
    fn data(&self, outcomes: &[RunOutcome]) -> Fig3Data {
        let base = &outcomes[0];
        let points = self
            .grid
            .iter()
            .zip(&outcomes[1..])
            .map(|(&(p, l_ms), outcome)| EfficiencyPoint {
                p,
                l_ms,
                temp_reduction: outcome.temp_reduction_vs(base),
                throughput_reduction: outcome.throughput_reduction_vs(base),
            })
            .collect();
        Fig3Data { points }
    }

    /// Checks the table, failing every point the supervisor quarantined
    /// (all of them when the baseline was) and every point whose
    /// throughput reduction strays from the analytic model.
    fn batch(&self, data: &Fig3Data, quarantined: &[usize]) -> Batch {
        let mut failed = 0;
        for (index, point) in data.points.iter().enumerate() {
            let model = predicted_throughput_reduction(QUANTUM_S, point.p, point.l_ms as f64 / 1e3);
            let gap = (point.throughput_reduction - model).abs();
            let ok = point.temp_reduction.is_finite() && gap <= MODEL_TOLERANCE;
            if !ok {
                eprintln!(
                    "output check failed: p={} L={} ms throughput reduction {} vs model {model}",
                    point.p, point.l_ms, point.throughput_reduction
                );
            }
            if !ok || quarantined.contains(&(index + 1)) || quarantined.contains(&0) {
                failed += 1;
            }
        }
        if quarantined.contains(&0) {
            failed += 1;
        }
        Batch {
            failed,
            table: fig3_table(data).render_csv(),
            exact: format!("{:?}", data.points),
        }
    }
}

fn spawn_cpuburn(system: &mut System) -> Vec<ThreadId> {
    (0..system.machine().num_cores())
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
        .collect()
}

/// `characterize_on`'s measurement: tail temperature, throughput and
/// the one-second binned dispatch curve.
fn measure(system: &System, ids: &[ThreadId], config: &RunConfig, idle_temp: f64) -> RunOutcome {
    let tail_temp = system
        .observed_temp_over(SimTime::ZERO + (config.duration - config.measure_window))
        .expect("run produced dispatch samples");
    let executed: f64 = ids
        .iter()
        .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
        .sum();
    let cores = system.machine().num_cores() as f64;
    let total_secs = config.duration.as_secs_f64().ceil() as usize + 1;
    let mut sums = vec![0.0f64; total_secs];
    let mut counts = vec![0u32; total_secs];
    for core in system.machine().core_ids() {
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

impl Workload for SweepWorkload {
    fn ops(&self) -> u64 {
        self.points.len() as u64
    }

    fn sim_seconds(&self) -> f64 {
        self.points.len() as f64 * self.config.duration.as_secs_f64()
    }

    fn setup(&self) -> Vec<f64> {
        self.points
            .iter()
            .map(|point| {
                let started = Instant::now();
                let (mut system, policy) = build_system(point.actuation, point.config.seed);
                spawn_cpuburn(&mut system);
                let elapsed = started.elapsed().as_secs_f64();
                drop((system, policy));
                elapsed
            })
            .collect()
    }

    /// `run_sweep` on one point at a time, with a lap after each.
    fn run(&self, laps: &mut Laps) -> Batch {
        let mut quarantined = Vec::new();
        let mut outcomes = Vec::new();
        for (index, point) in self.points.iter().enumerate() {
            outcomes.extend(run_sweep(std::slice::from_ref(point)));
            laps.lap();
            if !supervise::take_incidents().is_empty() {
                quarantined.push(index);
            }
        }
        self.batch(&self.data(&outcomes), &quarantined)
    }

    fn run_traced(&self, tracer: &mut Tracer) -> (Batch, Counts) {
        let config = self.config;
        let deadline = SimTime::ZERO + config.duration;
        let mut counts = Counts::new();
        let mut outcomes = Vec::new();
        for point in &self.points {
            tracer.enter("point");
            let (mut system, ids) = tracer.span("harness.runner.build", || {
                let (mut system, _policy) = build_system(point.actuation, point.config.seed);
                let ids = spawn_cpuburn(&mut system);
                (system, ids)
            });
            let idle_temp = system.machine().idle_temperature();
            let events = tracer.span("sched.run_events", || {
                let events = system.run_events(u64::MAX, deadline);
                system.run_until(deadline);
                events
            });
            add(&mut counts, "sched.events", events);
            let outcome = tracer.span("harness.runner.measure", || {
                measure(&system, &ids, &config, idle_temp)
            });
            add(
                &mut counts,
                "dimetrodon.injected_idles",
                outcome.injected_idles,
            );
            tracer.exit();
            outcomes.push(outcome);
        }
        (self.batch(&self.data(&outcomes), &[]), counts)
    }

    fn layers(&self, tracer: &Tracer, counts: &Counts, batches: usize) -> Vec<(String, f64)> {
        let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
        let run_events = tracer.total("sched.run_events").as_secs_f64() / batches as f64;
        vec![
            (
                "harness.runner.build_us".into(),
                1e6 * tracer.mean_secs("harness.runner.build"),
            ),
            ("sched.events".into(), count("sched.events")),
            (
                "sched.ns_per_event".into(),
                1e9 * run_events / count("sched.events"),
            ),
            (
                "dimetrodon.injected_idles".into(),
                count("dimetrodon.injected_idles"),
            ),
            (
                "harness.runner.measure_ms".into(),
                1e3 * tracer.mean_secs("harness.runner.measure"),
            ),
        ]
    }
}
