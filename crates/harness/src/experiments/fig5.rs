//! Figure 5: global versus thread-specific control.
//!
//! A periodic, short-running "cool" process (6 s of cpuburn, 60 s of
//! sleep) shares the machine with a hot CPU-bound application (four
//! instances of calculix). Under a *global* policy the cool process is
//! unfairly penalised for the hot process's heat; under *per-thread*
//! control only the hot threads absorb the slowdown and the cool process
//! runs essentially uninterrupted while the system still cools.

use dimetrodon::{DimetrodonHook, InjectionParams, PolicyHandle};
use dimetrodon_machine::{Machine, MachineConfig};
use dimetrodon_sched::{System, ThreadId, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_workload::{PeriodicBurn, SpecBenchmark};

use crate::runner::RunConfig;
use crate::sweep::parallel_map;

/// Whether the injection policy applies system-wide or only to the hot
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyScope {
    /// All user threads are eligible (chip-wide techniques like DVFS can
    /// only do this).
    Global,
    /// Only the hot application's threads are eligible — the flexibility
    /// that distinguishes software injection (§2.1, §3.6).
    PerThread,
}

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Injection probability applied.
    pub p: f64,
    /// Scope of the policy.
    pub scope: PolicyScope,
    /// Temperature reduction over idle relative to the unconstrained mix.
    pub temp_reduction: f64,
    /// Cool process throughput relative to its unconstrained run, in
    /// `[0, 1]`: `nominal work phase / mean measured work phase`.
    pub cool_throughput: f64,
}

/// The sweep results.
#[derive(Debug, Clone)]
pub struct Fig5Data {
    /// All measured `(p, scope)` combinations.
    pub points: Vec<Fig5Point>,
}

impl Fig5Data {
    /// Points of one scope, ordered by temperature reduction.
    pub fn scope_points(&self, scope: PolicyScope) -> Vec<Fig5Point> {
        let mut pts: Vec<Fig5Point> = self
            .points
            .iter()
            .filter(|p| p.scope == scope)
            .copied()
            .collect();
        pts.sort_by(|a, b| a.temp_reduction.total_cmp(&b.temp_reduction));
        pts
    }
}

/// The probabilities swept (L is fixed at the timeslice, 100 ms).
pub const SWEEP_P: [f64; 4] = [0.25, 0.5, 0.75, 0.9];

struct MixOutcome {
    tail_temp: f64,
    idle_temp: f64,
    cool_cycle_wall: Option<f64>,
}


fn run_mix(p: Option<f64>, scope: PolicyScope, config: RunConfig) -> MixOutcome {
    #[expect(clippy::expect_used, reason = "the Xeon preset is always valid")]
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("valid preset");
    machine.settle_idle();
    let idle_temp = machine.idle_temperature();
    let mut system = System::new(machine);

    // Hot application: four instances of calculix (the hottest SPEC
    // profile).
    let hot_ids: Vec<ThreadId> = (0..4)
        .map(|_| system.spawn(ThreadKind::User, Box::new(SpecBenchmark::Calculix.body())))
        .collect();
    // Cool process: the paper's 6 s burn / 60 s sleep loop.
    let (cool_body, cool_counter) = PeriodicBurn::paper_cool_process();
    let cool_id = system.spawn(ThreadKind::User, Box::new(cool_body));

    if let Some(p) = p {
        let policy = PolicyHandle::new();
        let params = InjectionParams::new(p, SimDuration::from_millis(100));
        match scope {
            PolicyScope::Global => policy.set_global(Some(params)),
            PolicyScope::PerThread => {
                for &id in &hot_ids {
                    policy.set_thread(id, Some(params));
                }
                // The cool thread keeps no policy entry: exempt.
                let _ = cool_id;
            }
        }
        system.set_hook(Box::new(DimetrodonHook::new(policy, config.seed ^ 0xF15)));
    }

    // Let scheduler priorities reach equilibrium (the cold-start cycle
    // runs before the hot threads have accumulated recent-CPU estimates),
    // then measure cycles from there.
    let warmup = SimDuration::from_secs(70).min(config.duration / 2);
    system.run_until(SimTime::ZERO + warmup);
    cool_counter.reset();
    system.run_until(SimTime::ZERO + config.duration);
    #[expect(clippy::expect_used, reason = "the run covers the measure window")]
    let tail_temp = system
        .observed_temp_over(config.measure_from())
        .expect("samples exist");
    MixOutcome {
        tail_temp,
        idle_temp,
        cool_cycle_wall: cool_counter.mean_cycle_wall_secs(),
    }
}

/// Runs the Figure 5 sweep: each probability in [`SWEEP_P`] under both
/// scopes, measured against the unconstrained mix.
pub fn run(config: RunConfig) -> Fig5Data {
    run_subset(config, &SWEEP_P)
}

/// Runs a subset of probabilities (for tests).
pub fn run_subset(config: RunConfig, sweep_p: &[f64]) -> Fig5Data {
    // Job 0 is the unconstrained mix; then (p, scope) pairs in grid order.
    let grid: Vec<(usize, f64, PolicyScope)> = sweep_p
        .iter()
        .enumerate()
        .flat_map(|(i, &p)| {
            [PolicyScope::Global, PolicyScope::PerThread]
                .into_iter()
                .map(move |scope| (i, p, scope))
        })
        .collect();
    let outcomes = parallel_map(grid.len() + 1, |job| {
        if job == 0 {
            run_mix(None, PolicyScope::Global, config)
        } else {
            let (i, p, scope) = grid[job - 1];
            run_mix(
                Some(p),
                scope,
                RunConfig {
                    seed: config.seed.wrapping_add(i as u64 * 11 + 5),
                    ..config
                },
            )
        }
    });
    let base = &outcomes[0];
    let base_rise = base.tail_temp - base.idle_temp;
    #[expect(
        clippy::expect_used,
        reason = "the uninjected baseline always completes cool-process cycles in the window"
    )]
    let base_cycle = base
        .cool_cycle_wall
        .expect("baseline cool process completed cycles");

    let points = grid
        .iter()
        .zip(&outcomes[1..])
        .map(|(&(_, p, scope), outcome)| {
            let temp_reduction = (base.tail_temp - outcome.tail_temp) / base_rise;
            let cool_throughput = match outcome.cool_cycle_wall {
                // Relative throughput: how much the work phase stretched
                // versus the unconstrained mix.
                Some(wall) => (base_cycle / wall).min(1.0),
                // No cycle completed within the run: throughput
                // effectively zero.
                None => 0.0,
            };
            Fig5Point {
                p,
                scope,
                temp_reduction,
                cool_throughput,
            }
        })
        .collect();
    Fig5Data { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_thread_control_spares_the_cool_process() {
        let config = RunConfig {
            duration: SimDuration::from_secs(200),
            measure_window: SimDuration::from_secs(30),
            seed: 51,
        };
        let data = run_subset(config, &[0.75]);
        let global = data.scope_points(PolicyScope::Global)[0];
        let per_thread = data.scope_points(PolicyScope::PerThread)[0];

        // Both lower the temperature materially.
        assert!(global.temp_reduction > 0.15, "global {:?}", global);
        assert!(per_thread.temp_reduction > 0.15, "per-thread {:?}", per_thread);

        // The cool process suffers under the global policy and runs
        // (nearly) uninterrupted under per-thread control.
        assert!(
            global.cool_throughput < 0.5,
            "global should penalise the cool process: {}",
            global.cool_throughput
        );
        assert!(
            per_thread.cool_throughput > 0.9,
            "per-thread should spare the cool process: {}",
            per_thread.cool_throughput
        );
    }
}
