//! Cross-crate integration tests: drive the whole stack — policy,
//! scheduler, machine, thermal, workloads, analysis — through the public
//! API of the umbrella crate, the way a downstream user would.

#![allow(clippy::float_cmp, reason = "tests assert exact, deterministic values")]

use dimetrodon_repro::analysis::{fit_power_law, pareto_frontier, TradeoffPoint};
use dimetrodon_repro::harness::{characterize, Actuation, RunConfig, SaturatingWorkload};
use dimetrodon_repro::machine::{CoreId, Machine, MachineConfig};
use dimetrodon_repro::policy::model::predicted_runtime;
use dimetrodon_repro::policy::{DimetrodonHook, InjectionModel, InjectionParams, PolicyHandle};
use dimetrodon_repro::sched::{BsdScheduler, SchedConfig, System, ThreadKind};
use dimetrodon_repro::sim::{SimDuration, SimTime};
use dimetrodon_repro::workload::{CpuBurn, SpecBenchmark};
use proptest::prelude::*;

fn quick(seed: u64) -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(100),
        measure_window: SimDuration::from_secs(15),
        seed,
    }
}

#[test]
fn full_pipeline_from_policy_to_pareto() {
    // Sweep a small grid end-to-end, extract the pareto frontier, fit the
    // paper's power law — every crate participates.
    let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick(1));
    let mut points = Vec::new();
    for (i, &(p, l)) in [(0.25, 5u64), (0.25, 100), (0.5, 5), (0.5, 100), (0.75, 25)]
        .iter()
        .enumerate()
    {
        let outcome = characterize(
            SaturatingWorkload::CpuBurn,
            Actuation::Injection {
                params: InjectionParams::new(p, SimDuration::from_millis(l)),
                model: InjectionModel::Probabilistic,
            },
            quick(2 + i as u64),
        );
        points.push(TradeoffPoint::new(
            outcome.temp_reduction_vs(&base),
            outcome.throughput_reduction_vs(&base),
            (p, l),
        ));
    }
    let frontier = pareto_frontier(&points);
    assert!(!frontier.is_empty());
    // Frontier costs rise with benefit.
    for pair in frontier.windows(2) {
        assert!(pair[1].benefit > pair[0].benefit);
        assert!(pair[1].cost >= pair[0].cost);
    }
    let fit_points: Vec<(f64, f64)> = frontier.iter().map(|p| (p.benefit, p.cost)).collect();
    if fit_points.len() >= 2 {
        let fit = fit_power_law(&fit_points).expect("frontier fits a power law");
        assert!(fit.alpha > 0.0 && fit.beta > 0.0, "{fit}");
    }
}

#[test]
fn analytic_model_predicts_simulated_runtime() {
    // The §2.2 D(t) model and the simulator agree on a single run to
    // within the variance of one probabilistic trial.
    let (p, l_ms, work_s) = (0.5, 50u64, 5.0);
    let policy = PolicyHandle::new();
    policy.set_global(Some(InjectionParams::new(
        p,
        SimDuration::from_millis(l_ms),
    )));
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
    machine.settle_idle();
    let mut system = System::new(machine);
    system.set_hook(Box::new(DimetrodonHook::new(policy, 7)));
    let id = system.spawn(
        ThreadKind::User,
        Box::new(CpuBurn::finite(SimDuration::from_secs_f64(work_s))),
    );
    assert!(system.run_until_exited(&[id], SimTime::from_secs(120)));
    let measured = system.thread_stats(id).wall_time().expect("exited").as_secs_f64();
    let predicted = predicted_runtime(work_s, 0.1, p, l_ms as f64 / 1e3);
    // One trial: allow +-25% (geometric-sum variance); the tight bound
    // lives in the multi-trial validation experiment.
    assert!(
        (measured - predicted).abs() / predicted < 0.25,
        "measured {measured} vs predicted {predicted}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §2.2 model `D(t) = R + S·p/(1−p)·L` (`S = R/q`) against the
    /// simulator over random (p, L), with deterministic injection so each
    /// case is exact. Two known costs bound the difference:
    /// - the thread exits in the quantum of its last run decision, which
    ///   leaves the error-diffusion accumulator `a` in `[p, 1)`; the thread
    ///   gets `a/(1−p)` fewer idle quanta than `D(t)` counts, between
    ///   `p/(1−p)` and `1/(1−p)`;
    /// - each of its at most `S/(1−p)` decisions may pay a context switch
    ///   and a resume penalty.
    #[test]
    fn analytic_model_bounds_deterministic_runtime(p in 0.1..=0.75, l_ms in 1.0..=100.0) {
        let work = SimDuration::from_secs(5);
        let idle_quantum = SimDuration::from_secs_f64(l_ms / 1e3);
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(p, idle_quantum)));
        let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        system.set_hook(Box::new(DimetrodonHook::with_model(
            policy,
            InjectionModel::Deterministic,
            7,
        )));
        let id = system.spawn(ThreadKind::User, Box::new(CpuBurn::finite(work)));
        prop_assert!(system.run_until_exited(&[id], SimTime::from_secs(60)));
        let measured = system.thread_stats(id).wall_time().expect("exited").as_secs_f64();

        let (r, q, l) = (
            work.as_secs_f64(),
            BsdScheduler::TIMESLICE.as_secs_f64(),
            idle_quantum.as_secs_f64(),
        );
        let predicted = predicted_runtime(r, q, p, l);
        let costs = SchedConfig::default();
        let per_decision = (costs.switch_cost + costs.resume_penalty).as_secs_f64();
        let lowest = predicted - l / (1.0 - p);
        let highest = predicted - l * p / (1.0 - p) + r / q / (1.0 - p) * per_decision;
        prop_assert!(
            lowest < measured && measured <= highest,
            "measured {measured} s outside ({lowest}, {highest}] around D(t) = {predicted} s"
        );
    }
}

#[test]
fn per_thread_policy_respected_across_stack() {
    let policy = PolicyHandle::new();
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
    machine.settle_idle();
    let mut system = System::new(machine);
    system.set_hook(Box::new(DimetrodonHook::new(policy.clone(), 11)));

    let throttled = system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
    let exempt = system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
    policy.set_thread(
        throttled,
        Some(InjectionParams::new(0.5, SimDuration::from_millis(100))),
    );

    system.run_until(SimTime::from_secs(30));
    let throttled_stats = system.thread_stats(throttled);
    let exempt_stats = system.thread_stats(exempt);
    assert!(throttled_stats.injected_idles > 20);
    assert_eq!(exempt_stats.injected_idles, 0);
    // Two threads, four cores: the exempt thread loses nothing.
    assert!(exempt_stats.cpu_executed.as_secs_f64() > 29.5);
    assert!(throttled_stats.cpu_executed.as_secs_f64() < 25.0);
}

#[test]
fn workloads_heat_in_table_1_order() {
    // Thermal profiles order by Table 1's rise column across the full
    // stack.
    let burn = characterize(SaturatingWorkload::CpuBurn, Actuation::None, quick(21));
    let namd = characterize(
        SaturatingWorkload::Spec(SpecBenchmark::Namd),
        Actuation::None,
        quick(22),
    );
    let astar = characterize(
        SaturatingWorkload::Spec(SpecBenchmark::Astar),
        Actuation::None,
        quick(23),
    );
    assert!(burn.rise_over_idle() > namd.rise_over_idle());
    assert!(namd.rise_over_idle() > astar.rise_over_idle());
}

#[test]
fn deterministic_injection_is_reproducible_and_smoother() {
    // The deterministic model (the paper's §3.4 conjecture) produces the
    // same temperature trajectory twice and at least as smooth a tail as
    // the probabilistic model.
    let run = |model: InjectionModel, seed: u64| {
        characterize(
            SaturatingWorkload::CpuBurn,
            Actuation::Injection {
                params: InjectionParams::new(0.5, SimDuration::from_millis(100)),
                model,
            },
            quick(seed),
        )
    };
    let a = run(InjectionModel::Deterministic, 31);
    let b = run(InjectionModel::Deterministic, 31);
    assert_eq!(a.tail_temp, b.tail_temp, "same seed, same result");

    let jitter = |outcome: &dimetrodon_repro::harness::RunOutcome| {
        let tail: Vec<f64> = outcome
            .observed_curve
            .iter()
            .filter(|(t, _)| *t > 50.0)
            .map(|&(_, v)| v)
            .collect();
        tail.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (tail.len() - 1) as f64
    };
    let det = run(InjectionModel::Deterministic, 33);
    let prob = run(InjectionModel::Probabilistic, 34);
    assert!(
        jitter(&det) < jitter(&prob),
        "deterministic injection should be smoother: {} vs {}",
        jitter(&det),
        jitter(&prob)
    );
    // "...but with similar overall temperature trends": the *physical*
    // tail temperatures agree within a degree. (The observed tail differs
    // by design: with exactly alternating idle/run decisions, every
    // dispatch reads a post-idle sensor, so the deterministic variant's
    // measured temperature is systematically lower at the same duty — an
    // ablation finding this reproduction documents in EXPERIMENTS.md.)
    let physical_tail = |o: &dimetrodon_repro::harness::RunOutcome| {
        o.temp_series
            .mean_over(quick(0).measure_from())
            .expect("sampled")
    };
    assert!((physical_tail(&det) - physical_tail(&prob)).abs() < 1.0);
    assert!(
        det.tail_temp < prob.tail_temp,
        "deterministic spacing should lower the observed temperature: {} vs {}",
        det.tail_temp,
        prob.tail_temp
    );
}

#[test]
fn nop_idle_mode_still_cools_but_less() {
    // §2.1: on processors without low-power idle states, running a nop
    // loop still lets functional units cool — the hotspot relaxes — but
    // the benefit is smaller than C1E's.
    let run_with = |config: MachineConfig, seed: u64| {
        let mut machine = Machine::new(config).expect("preset");
        machine.settle_idle();
        let idle = machine.idle_temperature();
        let mut system = System::new(machine);
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(0.5, SimDuration::from_millis(25))));
        system.set_hook(Box::new(DimetrodonHook::new(policy, seed)));
        for _ in 0..4 {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system.run_until(SimTime::from_secs(100));
        let observed = system
            .observed_temp_over(SimTime::from_secs(80))
            .expect("samples");
        (observed, idle)
    };
    let run_unconstrained = |config: MachineConfig| {
        let mut machine = Machine::new(config).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        for _ in 0..4 {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system.run_until(SimTime::from_secs(100));
        system
            .observed_temp_over(SimTime::from_secs(80))
            .expect("samples")
    };

    let c1e_base = run_unconstrained(MachineConfig::xeon_e5520());
    let (c1e_temp, c1e_idle) = run_with(MachineConfig::xeon_e5520(), 41);
    let c1e_reduction = (c1e_base - c1e_temp) / (c1e_base - c1e_idle);

    let nop_base = run_unconstrained(MachineConfig::xeon_e5520_nop_idle());
    let (nop_temp, nop_idle) = run_with(MachineConfig::xeon_e5520_nop_idle(), 42);
    let nop_reduction = (nop_base - nop_temp) / (nop_base - nop_idle);

    assert!(nop_reduction > 0.02, "nop idling should still cool: {nop_reduction}");
    assert!(
        c1e_reduction > nop_reduction,
        "C1E should cool more than a nop loop: {c1e_reduction} vs {nop_reduction}"
    );
}

#[test]
fn sensor_reads_are_quantised_like_coretemp() {
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
    machine.settle_idle();
    for core in machine.core_ids().collect::<Vec<_>>() {
        let exact = machine.core_sensor_temperature(core);
        let reported = machine.coretemp(core);
        assert!((exact - reported as f64).abs() <= 0.5);
    }
    let _ = CoreId(0);
}
