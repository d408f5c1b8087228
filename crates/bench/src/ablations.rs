//! Ablations of the reproduction's own design choices — the DESIGN.md §6
//! list, run by the `ablations` binary. Each section perturbs exactly one
//! knob and reports the effect:
//!
//! 1. probabilistic vs deterministic injection (§3.4's conjecture);
//! 2. C1E vs nop-loop idle (§2.1's fallback);
//! 3. 4.4BSD vs ULE-lite scheduler (footnote 2's generalisation);
//! 4. the hotspot sensing model itself (without it, efficiency is flat —
//!    the reproduction's key modelling claim);
//! 5. the cold-resume penalty (source of the §3.3 model deviation);
//! 6. SMT: naive injection vs co-scheduled idle quanta (§3.2);
//! 7. thermal-aware wake placement (the related-work complement).
//!
//! Every section's runs are independent, so each fans across the sweep
//! engine's worker pool (`--jobs N` to pin the worker count).

use dimetrodon::model::predicted_runtime;
use dimetrodon::{
    DimetrodonHook, InjectionModel, InjectionParams, PolicyHandle, SetpointController,
    SmtCoScheduler,
};
use dimetrodon_analysis::Table;
use dimetrodon_harness::args::Args;
use dimetrodon_harness::sweep::{parallel_map, run_sweep, SweepPoint};
use dimetrodon_harness::{characterize, Actuation, RunConfig, SaturatingWorkload};
use dimetrodon_machine::{Machine, MachineConfig, ThermalThrottle};
use dimetrodon_sched::{
    BsdScheduler, NullHook, SchedConfig, SchedHook, Scheduler, System, ThreadKind, UleScheduler,
};
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::{banner, write_csv};

/// Runs every section, prints the table and writes `ablations.csv`.
pub(crate) fn run(_: &Args, config: RunConfig) -> String {
    let mut table = Table::new(vec!["ablation", "variant", "metric", "value"]);

    injection_model(&mut table, config);
    idle_mode(&mut table, config);
    scheduler_choice(&mut table, config);
    let [with_hotspot, no_hotspot] = hotspot_model(&mut table, config);
    resume_penalty(&mut table);
    smt_co_scheduling(&mut table);
    thermal_placement(&mut table);
    deep_cstates(&mut table, config);
    power_cap(&mut table);
    preventive_vs_reactive(&mut table, config);

    banner("ablations", "design-choice studies (one knob per section)");
    println!("{}", table.render());
    write_csv("ablations", &table);

    format!(
        "ablations: short-quantum efficiency {with_hotspot:.2} with the hotspot, \
         {no_hotspot:.2} without"
    )
}

fn push(table: &mut Table, ablation: &str, variant: &str, metric: &str, value: f64) {
    table.row(vec![
        ablation.to_string(),
        variant.to_string(),
        metric.to_string(),
        format!("{value:.4}"),
    ]);
}

fn burn_injection(p: f64, l_ms: u64, model: InjectionModel) -> Actuation {
    Actuation::Injection {
        params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
        model,
    }
}

/// 1. Probabilistic vs deterministic injection at the same `(p, L)`.
fn injection_model(table: &mut Table, config: RunConfig) {
    let variants = [
        ("probabilistic", InjectionModel::Probabilistic),
        ("deterministic", InjectionModel::Deterministic),
    ];
    let sweep: Vec<SweepPoint> = variants
        .iter()
        .map(|&(_, model)| {
            SweepPoint::new(
                SaturatingWorkload::CpuBurn,
                burn_injection(0.5, 100, model),
                config,
            )
        })
        .collect();
    for ((name, _), out) in variants.iter().zip(run_sweep(&sweep)) {
        push(table, "injection_model", name, "observed_tail_c", out.tail_temp);
        // The supervisor's placeholder for a failed point has no series
        // and no curve: its physical tail and jitter are missing (NaN),
        // like its observed tail.
        let physical = if out.is_unavailable() {
            f64::NAN
        } else {
            out.temp_series
                .mean_over(SimTime::ZERO + (config.duration - config.measure_window))
                .expect("sampled")
        };
        push(table, "injection_model", name, "physical_tail_c", physical);
        let tail: Vec<f64> = out
            .observed_curve
            .iter()
            .filter(|(t, _)| *t > config.duration.as_secs_f64() / 2.0)
            .map(|&(_, v)| v)
            .collect();
        let jitter = match tail.len() {
            0 | 1 => f64::NAN,
            n => tail.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (n - 1) as f64,
        };
        push(table, "injection_model", name, "curve_jitter_c", jitter);
    }
}

/// 2. C1E vs nop-loop idle at the same policy.
fn idle_mode(table: &mut Table, config: RunConfig) {
    let variants = [
        ("c1e", MachineConfig::xeon_e5520()),
        ("nop_loop", MachineConfig::xeon_e5520_nop_idle()),
    ];
    // Two points per variant: the unconstrained base, then the injected run.
    let mut sweep = Vec::new();
    for (_, machine_config) in &variants {
        sweep.push(SweepPoint::on(
            machine_config.clone(),
            SaturatingWorkload::CpuBurn,
            Actuation::None,
            config,
        ));
        sweep.push(SweepPoint::on(
            machine_config.clone(),
            SaturatingWorkload::CpuBurn,
            burn_injection(0.5, 25, InjectionModel::Probabilistic),
            config,
        ));
    }
    let outcomes = run_sweep(&sweep);
    for (v, (name, _)) in variants.iter().enumerate() {
        let (base, run) = (&outcomes[2 * v], &outcomes[2 * v + 1]);
        push(table, "idle_mode", name, "temp_reduction", run.temp_reduction_vs(base));
    }
}

/// 3. The same injection point under the 4.4BSD and ULE-lite schedulers.
fn scheduler_choice(table: &mut Table, config: RunConfig) {
    let run_with = |scheduler: Box<dyn Scheduler>, inject: bool, seed: u64| {
        let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        machine.settle_idle();
        let hook: Box<dyn SchedHook> = if inject {
            let policy = PolicyHandle::new();
            policy.set_global(Some(InjectionParams::new(0.5, SimDuration::from_millis(25))));
            Box::new(DimetrodonHook::new(policy, seed))
        } else {
            Box::new(NullHook)
        };
        let mut system =
            System::with_parts(machine, scheduler, hook, SchedConfig::default());
        let ids: Vec<_> = (0..4)
            .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
            .collect();
        system.run_until(SimTime::ZERO + config.duration);
        let observed = system
            .observed_temp_over(SimTime::ZERO + (config.duration - config.measure_window))
            .expect("samples");
        let idle = system.machine().idle_temperature();
        let executed: f64 = ids
            .iter()
            .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
            .sum();
        (observed, idle, executed / (4.0 * config.duration.as_secs_f64()))
    };
    type MakeScheduler = fn() -> Box<dyn Scheduler>;
    let schedulers: [(&str, MakeScheduler); 2] = [
        ("bsd", || Box::new(BsdScheduler::new())),
        ("ule", || Box::new(UleScheduler::new(4))),
    ];
    // Four independent runs: (scheduler × {unconstrained, injected}).
    let results = parallel_map(4, |job| {
        let (_, mk) = schedulers[job / 2];
        let inject = job % 2 == 1;
        run_with(mk(), inject, config.seed + if inject { 1 } else { 0 })
    });
    for (s, (name, _)) in schedulers.iter().enumerate() {
        let (hot, idle, base_thr) = results[2 * s];
        let (cooled, _, thr) = results[2 * s + 1];
        push(
            table,
            "scheduler",
            name,
            "temp_reduction",
            (hot - cooled) / (hot - idle),
        );
        push(
            table,
            "scheduler",
            name,
            "throughput_reduction",
            1.0 - thr / base_thr,
        );
    }
}

/// 4. Remove the hotspot power concentration: the efficiency advantage
///    of short quanta should collapse toward 1:1 (the reproduction's
///    central modelling claim — in a linear network with bulk-only
///    sensing, mean temperature tracks duty exactly). Returns the
///    efficiency with the hotspot and without it.
fn hotspot_model(table: &mut Table, config: RunConfig) -> [f64; 2] {
    let mut flat = MachineConfig::xeon_e5520();
    flat.thermal.hotspot_power_fraction = 0.0;

    let variants = [
        ("with_hotspot", MachineConfig::xeon_e5520()),
        ("no_hotspot", flat),
    ];
    let mut sweep = Vec::new();
    for (_, machine_config) in &variants {
        sweep.push(SweepPoint::on(
            machine_config.clone(),
            SaturatingWorkload::CpuBurn,
            Actuation::None,
            config,
        ));
        sweep.push(SweepPoint::on(
            machine_config.clone(),
            SaturatingWorkload::CpuBurn,
            burn_injection(0.25, 2, InjectionModel::Probabilistic),
            config,
        ));
    }
    let outcomes = run_sweep(&sweep);
    let mut efficiencies = [0.0; 2];
    for (v, (name, _)) in variants.iter().enumerate() {
        let (base, run) = (&outcomes[2 * v], &outcomes[2 * v + 1]);
        let temp = run.temp_reduction_vs(base);
        let thr = run.throughput_reduction_vs(base).max(1e-6);
        efficiencies[v] = temp / thr;
        push(table, "hotspot_model", name, "short_quantum_efficiency", temp / thr);
    }
    efficiencies
}

/// 5. Cold-resume penalty sweep: the §3.3 deviation from `D(t)` scales
///    with the penalty.
fn resume_penalty(table: &mut Table) {
    const TRIALS: usize = 12;
    let (p, l, work) = (0.75, SimDuration::from_millis(50), SimDuration::from_secs(7));
    let predicted = predicted_runtime(7.0, 0.1, p, 0.05);
    let penalties = [0u64, 150, 1000];
    let deviations = parallel_map(penalties.len() * TRIALS, |job| {
        let penalty_us = penalties[job / TRIALS];
        let trial = (job % TRIALS) as u64;
        let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        machine.settle_idle();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(p, l)));
        let mut system = System::with_parts(
            machine,
            Box::new(BsdScheduler::new()),
            Box::new(DimetrodonHook::new(policy, 500 + trial)),
            SchedConfig {
                resume_penalty: SimDuration::from_micros(penalty_us),
                ..SchedConfig::default()
            },
        );
        let id = system.spawn(ThreadKind::User, Box::new(CpuBurn::finite(work)));
        assert!(system.run_until_exited(&[id], SimTime::from_secs(300)));
        let wall = system.thread_stats(id).wall_time().expect("exited").as_secs_f64();
        (wall - predicted) / predicted
    });
    for (i, penalty_us) in penalties.iter().enumerate() {
        let cell = &deviations[i * TRIALS..(i + 1) * TRIALS];
        let mean = cell.iter().sum::<f64>() / cell.len() as f64;
        push(
            table,
            "resume_penalty",
            &format!("{penalty_us}us"),
            "mean_deviation_from_dt",
            mean,
        );
    }
}

/// 6. SMT: naive injection vs co-scheduled idle quanta (§3.2).
fn smt_co_scheduling(table: &mut Table) {
    let run = |co: bool, inject: bool, seed: u64| {
        let mut machine = Machine::new(MachineConfig::xeon_e5520_smt()).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        if inject {
            let policy = PolicyHandle::new();
            policy.set_global(Some(InjectionParams::new(0.5, SimDuration::from_millis(50))));
            let hook = DimetrodonHook::new(policy, seed);
            if co {
                system.set_hook(Box::new(SmtCoScheduler::new(hook)));
            } else {
                system.set_hook(Box::new(hook));
            }
        }
        for _ in 0..8 {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system.run_until(SimTime::from_secs(120));
        system
            .observed_temp_over(SimTime::from_secs(100))
            .expect("samples")
    };
    let variants = [(false, false, 0), (false, true, 1), (true, true, 2)];
    let temps = parallel_map(variants.len(), |job| {
        let (co, inject, seed) = variants[job];
        run(co, inject, seed)
    });
    push(table, "smt", "unconstrained", "observed_tail_c", temps[0]);
    push(table, "smt", "naive_injection", "observed_tail_c", temps[1]);
    push(table, "smt", "co_scheduled", "observed_tail_c", temps[2]);
}

/// 8. Deep C-states: with a C6-class state available, long idle quanta
///    gain extra cooling (lower idle floor) at the cost of cache-refill
///    penalties — the §2.2 "if a low power state flushes cache lines"
///    what-if.
fn deep_cstates(table: &mut Table, config: RunConfig) {
    const QUANTA_MS: [u64; 2] = [1, 100];
    let variants = [
        ("c1e_only", MachineConfig::xeon_e5520()),
        ("with_c6", MachineConfig::xeon_e5520_deep_idle()),
    ];
    // Per variant: one base, then one run per quantum.
    let stride = 1 + QUANTA_MS.len();
    let mut sweep = Vec::new();
    for (_, machine_config) in &variants {
        sweep.push(SweepPoint::on(
            machine_config.clone(),
            SaturatingWorkload::CpuBurn,
            Actuation::None,
            config,
        ));
        for &l_ms in &QUANTA_MS {
            sweep.push(SweepPoint::on(
                machine_config.clone(),
                SaturatingWorkload::CpuBurn,
                burn_injection(0.5, l_ms, InjectionModel::Probabilistic),
                config,
            ));
        }
    }
    let outcomes = run_sweep(&sweep);
    for (v, (name, _)) in variants.iter().enumerate() {
        let base = &outcomes[v * stride];
        for (q, &l_ms) in QUANTA_MS.iter().enumerate() {
            let run = &outcomes[v * stride + 1 + q];
            push(
                table,
                "deep_cstates",
                &format!("{name}_L{l_ms}ms"),
                "temp_reduction",
                run.temp_reduction_vs(base),
            );
            push(
                table,
                "deep_cstates",
                &format!("{name}_L{l_ms}ms"),
                "throughput_reduction",
                run.throughput_reduction_vs(base),
            );
        }
    }
}

/// 9. Power capping via forced idleness (§4's related-work bridge): at
///    the same package-power cap, shorter idle quanta leave the machine
///    cooler — "rearchitecting the power-capping mechanism to use
///    shorter idle quanta would provide thermally-beneficial
///    side-effects".
fn power_cap(table: &mut Table) {
    const QUANTA_MS: [u64; 3] = [5, 25, 100];
    let results = parallel_map(QUANTA_MS.len(), |job| {
        let quantum_ms = QUANTA_MS[job];
        let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        machine.settle_idle();
        let hook = DimetrodonHook::new(PolicyHandle::new(), 600 + quantum_ms);
        let controller =
            SetpointController::power_cap(hook, 45.0, SimDuration::from_millis(quantum_ms));
        let mut system = System::new(machine);
        system.set_hook(Box::new(controller));
        for _ in 0..4 {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system.run_until(SimTime::from_secs(150));
        let observed = system
            .observed_temp_over(SimTime::from_secs(100))
            .expect("samples");
        // Mean power over the tail, sampled once per second.
        let mut sum = 0.0;
        for s in 150..180 {
            system.run_until(SimTime::from_secs(s));
            sum += system.machine().package_power();
        }
        (sum / 30.0, observed)
    });
    for (&quantum_ms, &(mean_power, observed)) in QUANTA_MS.iter().zip(&results) {
        push(
            table,
            "power_cap_45w",
            &format!("L{quantum_ms}ms"),
            "mean_power_w",
            mean_power,
        );
        push(
            table,
            "power_cap_45w",
            &format!("L{quantum_ms}ms"),
            "observed_temp_c",
            observed,
        );
    }
}

/// 10. Preventive (Dimetrodon) vs reactive (PROCHOT-style trip) thermal
///     management — the paper's §1 framing. At a matched throughput
///     loss, the reactive throttle only clips the peak at its trigger
///     while Dimetrodon lowers the whole trajectory.
fn preventive_vs_reactive(table: &mut Table, config: RunConfig) {
    let reactive_run = |trigger: f64| {
        let mut machine_config = MachineConfig::xeon_e5520();
        machine_config.thermal_throttle = Some(ThermalThrottle::prochot_at(trigger));
        let mut machine = Machine::new(machine_config).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        let ids: Vec<_> = (0..4)
            .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite())))
            .collect();
        system.run_until(SimTime::ZERO + config.duration);
        let observed = system
            .observed_temp_over(SimTime::ZERO + (config.duration - config.measure_window))
            .expect("samples");
        let executed: f64 = ids
            .iter()
            .map(|&id| system.thread_stats(id).cpu_executed.as_secs_f64())
            .sum();
        (observed, executed / (4.0 * config.duration.as_secs_f64()))
    };

    // Both reactive triggers in parallel; the matched preventive run
    // depends on the in-range trigger's throughput, so it follows.
    let triggers = [56.0, 50.0];
    let reactive_runs = parallel_map(triggers.len(), |job| reactive_run(triggers[job]));

    // Near-critical trigger (how real systems deploy reactive DTM): it
    // barely touches the average in normal operation.
    let near_critical = reactive_runs[0];
    push(
        table,
        "preventive_vs_reactive",
        "reactive_56c",
        "observed_temp_c",
        near_critical.0,
    );
    push(table, "preventive_vs_reactive", "reactive_56c", "throughput", near_critical.1);

    // In-range trigger: the trip becomes a closed-loop duty regulator.
    let reactive = reactive_runs[1];
    push(table, "preventive_vs_reactive", "reactive_50c", "observed_temp_c", reactive.0);
    push(table, "preventive_vs_reactive", "reactive_50c", "throughput", reactive.1);

    // Preventive: spend the same throughput with short quanta.
    let budget = (1.0 - reactive.1).clamp(0.01, 0.95);
    let params = dimetrodon::PolicyPlanner::new(SimDuration::from_millis(100))
        .for_throughput_budget(budget)
        .expect("budget is feasible");
    let preventive = characterize(
        SaturatingWorkload::CpuBurn,
        Actuation::Injection {
            params,
            model: InjectionModel::Probabilistic,
        },
        config,
    );
    push(
        table,
        "preventive_vs_reactive",
        "dimetrodon_matched",
        "observed_temp_c",
        preventive.tail_temp,
    );
    push(
        table,
        "preventive_vs_reactive",
        "dimetrodon_matched",
        "throughput",
        preventive.throughput,
    );
}

/// 7. Thermal-aware wake placement on a pulsed single-thread load.
fn thermal_placement(table: &mut Table) {
    use dimetrodon_sched::{Action, Burst, ThreadBody};
    #[derive(Debug, Clone)]
    struct Pulsed {
        left: SimDuration,
    }
    impl ThreadBody for Pulsed {
        fn next_action(&mut self, _now: SimTime) -> Action {
            if self.left.is_zero() {
                self.left = SimDuration::from_millis(300);
                return Action::Sleep(SimDuration::from_millis(60));
            }
            let chunk = self.left.min(SimDuration::from_millis(10));
            self.left -= chunk;
            Action::Run(Burst::new(chunk, 1.0))
        }
    }
    let hottest_means = parallel_map(2, |job| {
        let placement = job == 1;
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        let mut system = System::with_parts(
            machine,
            Box::new(BsdScheduler::new()),
            Box::new(NullHook),
            SchedConfig {
                thermal_aware_placement: placement,
                ..SchedConfig::default()
            },
        );
        system.machine_mut().settle_idle();
        system.spawn(
            ThreadKind::User,
            Box::new(Pulsed {
                left: SimDuration::from_millis(300),
            }),
        );
        system.run_until(SimTime::from_secs(90));
        (0..4)
            .map(|i| {
                system
                    .core_temp_series(dimetrodon_machine::CoreId(i))
                    .mean_over(SimTime::from_secs(45))
                    .expect("sampled")
            })
            .fold(f64::MIN, f64::max)
    });
    for (job, &hottest) in hottest_means.iter().enumerate() {
        push(
            table,
            "placement",
            if job == 1 { "thermal_aware" } else { "queue_order" },
            "hottest_die_mean_c",
            hottest,
        );
    }
}
