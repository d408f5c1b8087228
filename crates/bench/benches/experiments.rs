//! One criterion bench per table and figure: each target exercises the
//! exact experiment code that regenerates the paper artefact, at reduced
//! duration so `cargo bench` completes in minutes. The full-scale
//! regeneration (paper durations, full sweep grids) lives in the `fig*`,
//! `table1`, and `validate_*` binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use dimetrodon_harness::experiments::{fig1, fig2, fig3, fig4, fig5, fig6, table1, validation};
use dimetrodon_harness::{RunConfig, SaturatingWorkload};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_workload::SpecBenchmark;

/// A short-but-meaningful configuration: long enough that the machine
/// approaches its slow time constant, short enough to benchmark.
fn bench_config(seed: u64) -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(60),
        measure_window: SimDuration::from_secs(10),
        seed,
    }
}

fn experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);

    group.bench_function("fig1_power_traces", |b| {
        b.iter(|| fig1::run(11));
    });

    group.bench_function("fig2_temperature_curves", |b| {
        b.iter(|| fig2::run(bench_config(12)));
    });

    group.bench_function("fig3_efficiency_point", |b| {
        b.iter(|| fig3::run_subset(bench_config(13), &[0.5], &[5, 100]));
    });

    group.bench_function("fig4_mechanism_point", |b| {
        b.iter(|| fig4::run_subset(bench_config(14), &[0.5], &[25], true));
    });

    group.bench_function("fig5_scope_point", |b| {
        // The cool process's cycle (6 s work + 60 s sleep) needs a run
        // long enough to complete at least one cycle after the scheduler
        // warm-up.
        let config = RunConfig {
            duration: SimDuration::from_secs(150),
            measure_window: SimDuration::from_secs(20),
            seed: 15,
        };
        b.iter(|| fig5::run_subset(config, &[0.75]));
    });

    group.bench_function("fig6_web_point", |b| {
        b.iter(|| fig6::run_subset(bench_config(16), &[0.75], &[100]));
    });

    group.bench_function("table1_row", |b| {
        b.iter(|| {
            table1::run_workloads(
                bench_config(17),
                &[(
                    SaturatingWorkload::Spec(SpecBenchmark::Astar),
                    "astar".into(),
                    71.7,
                    table1::paper_fit(SpecBenchmark::Astar),
                )],
                // Keep the sweep inside the fit window (r <= 0.5) so the
                // pareto boundary always yields enough points.
                &[0.25, 0.5],
                &[5, 25],
            )
        });
    });

    group.bench_function("validation_throughput_trial", |b| {
        b.iter(|| validation::throughput_grid(1, 18, &[0.5], &[50]));
    });

    group.bench_function("validation_energy_trial", |b| {
        b.iter(|| validation::energy_grid(1, 19, &[0.5], &[100]));
    });

    group.finish();
}

criterion_group!(paper_experiments, experiments);
criterion_main!(paper_experiments);
