//! Bit-exactness of warm-prefix sharing: a forked (cloned) system must
//! resume exactly as a run that never stopped, at every worker count, with the
//! snapshot cache on or off. These are the properties that make the
//! `--no-snapshot` flag a timing knob rather than a correctness knob.

use std::sync::Mutex;

use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_harness::sweep::parallel_map_with;
use dimetrodon_harness::{
    build_system, characterize, snapshot, Actuation, RunConfig, SaturatingWorkload,
};
use dimetrodon_machine::MachineConfig;
use dimetrodon_sched::{System, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_workload::CpuBurn;

/// The snapshot enable flag and reuse counters are process-global;
/// serialise the tests that depend on their state.
static SNAPSHOT_LOCK: Mutex<()> = Mutex::new(());

fn injection(p: f64, l_ms: u64) -> Actuation {
    Actuation::Injection {
        params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
        model: InjectionModel::Probabilistic,
    }
}

fn warm_config(seed: u64) -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(40),
        measure_window: SimDuration::from_secs(10),
        warmup: SimDuration::from_secs(25),
        seed,
    }
}

/// Every bit of state a characterisation exposes, as comparable integers.
fn outcome_bits(out: &dimetrodon_harness::RunOutcome) -> (u64, u64, u64, u64, Vec<(u64, u64)>) {
    (
        out.idle_temp.to_bits(),
        out.tail_temp.to_bits(),
        out.throughput.to_bits(),
        out.injected_idles,
        out.observed_curve
            .iter()
            .map(|&(t, v)| (t.to_bits(), v.to_bits()))
            .collect(),
    )
}

#[test]
fn fork_resumes_bit_identically_to_the_original() {
    // Drive a full system (machine + scheduler + injection hook) to the
    // middle of a run, fork it, and let both copies finish: every
    // temperature bit and every counter must agree.
    let build = || {
        let (mut system, _policy) = build_system(injection(0.5, 25), 99);
        for _ in 0..system.machine().num_cores() {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        system
    };
    let mut original = build();
    let mut fork = original.clone();

    let end = SimTime::ZERO + SimDuration::from_secs(25);
    original.run_until(end);
    fork.run_until(end);

    assert_system_bits_equal(&original, &fork);
}

fn assert_system_bits_equal(a: &System, b: &System) {
    assert_eq!(a.now(), b.now());
    assert_eq!(a.total_injected_idles(), b.total_injected_idles());
    for core in a.machine().core_ids().collect::<Vec<_>>() {
        assert_eq!(
            a.machine().core_temperature(core).to_bits(),
            b.machine().core_temperature(core).to_bits(),
            "core {core:?} temperature diverged"
        );
    }
    for id in a.thread_ids() {
        assert_eq!(
            a.thread_stats(id),
            b.thread_stats(id),
            "thread {id} accounting diverged"
        );
    }
    assert_eq!(
        a.machine().energy().joules().to_bits(),
        b.machine().energy().joules().to_bits()
    );
}

#[test]
fn warm_runs_are_identical_with_and_without_the_cache() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let points = [injection(0.25, 10), injection(0.5, 100), Actuation::None];

    snapshot::set_enabled(true);
    snapshot::reset();
    let cached: Vec<_> = points
        .iter()
        .enumerate()
        .map(|(i, &a)| characterize(SaturatingWorkload::CpuBurn, a, warm_config(40 + i as u64)))
        .collect();
    let stats = snapshot::stats();
    assert_eq!(stats.warmups_paid, 1, "one shared prefix for the grid");
    assert_eq!(stats.forks_served, 2);

    snapshot::set_enabled(false);
    let cold: Vec<_> = points
        .iter()
        .enumerate()
        .map(|(i, &a)| characterize(SaturatingWorkload::CpuBurn, a, warm_config(40 + i as u64)))
        .collect();
    snapshot::set_enabled(true);
    snapshot::reset();

    for (hit, miss) in cached.iter().zip(&cold) {
        assert_eq!(outcome_bits(hit), outcome_bits(miss));
    }
}

#[test]
fn warm_sweep_is_bit_identical_at_every_worker_count() {
    let _guard = SNAPSHOT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    snapshot::set_enabled(true);
    let machine = MachineConfig::xeon_e5520();
    let grid: Vec<(Actuation, RunConfig)> = [2u64, 10, 25, 100]
        .iter()
        .enumerate()
        .map(|(j, &l_ms)| (injection(0.5, l_ms), warm_config(7 + j as u64)))
        .collect();

    snapshot::reset();
    let reference: Vec<_> = grid
        .iter()
        .map(|&(a, c)| {
            outcome_bits(&dimetrodon_harness::characterize_on(
                &machine,
                SaturatingWorkload::CpuBurn,
                a,
                c,
            ))
        })
        .collect();

    for workers in [1, 2, 3, 7] {
        snapshot::reset();
        let outcomes = parallel_map_with(workers, grid.len(), |i| {
            let (a, c) = grid[i];
            outcome_bits(&dimetrodon_harness::characterize_on(
                &machine,
                SaturatingWorkload::CpuBurn,
                a,
                c,
            ))
        });
        assert_eq!(outcomes, reference, "workers = {workers}");
    }
    snapshot::reset();
}
