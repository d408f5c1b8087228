//! Benchmarks of the parallel sweep engine: how many characterisation
//! runs per second the worker pool sustains at one worker versus one per
//! core. `BENCH_sweeps.json` at the repo root records a baseline captured
//! from this bench (see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_harness::sweep::{self, run_sweep, SweepPoint};
use dimetrodon_harness::{Actuation, RunConfig, SaturatingWorkload};
use dimetrodon_sim_core::SimDuration;

/// The benchmark grid: 8 independent cpuburn characterisations, short
/// enough to sample repeatedly but long enough to dominate pool overhead.
fn grid() -> Vec<SweepPoint> {
    let config = RunConfig {
        duration: SimDuration::from_secs(30),
        measure_window: SimDuration::from_secs(10),
        seed: 7,
    };
    let mut points = Vec::new();
    for (i, &p) in [0.25, 0.5].iter().enumerate() {
        for (j, &l_ms) in [2u64, 10, 25, 100].iter().enumerate() {
            points.push(SweepPoint::new(
                SaturatingWorkload::CpuBurn,
                Actuation::Injection {
                    params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
                    model: InjectionModel::Probabilistic,
                },
                RunConfig {
                    seed: config.seed.wrapping_add((i * 97 + j * 13 + 1) as u64),
                    ..config
                },
            ));
        }
    }
    points
}

fn bench_sweep_engine(c: &mut Criterion) {
    let points = grid();
    let all_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);

    for jobs in [1, all_cores] {
        group.bench_function(&format!("grid8_jobs{jobs}"), |b| {
            sweep::set_jobs(jobs);
            b.iter(|| run_sweep(&points));
            sweep::set_jobs(0);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_engine);
criterion_main!(benches);
