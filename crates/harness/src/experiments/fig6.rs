//! Figure 6: QoS versus temperature reduction for the web workload.
//!
//! The SPECWeb-like workload (440 connections, 15–25 % per-core load)
//! runs under a sweep of `(p, L)` policies; each run is scored against
//! the "good" (3 s) and "tolerable" (5 s) response-time thresholds,
//! relative to the unconstrained baseline. The paper's findings: the
//! tolerable metric holds to ~20 % temperature reductions with virtually
//! no drop-off, the good metric degrades sharply past ~30 %, and shorter
//! quanta remain the efficient choice.

use dimetrodon::{DimetrodonHook, InjectionParams, PolicyHandle};
use dimetrodon_machine::{Machine, MachineConfig};
use dimetrodon_sched::System;
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};
use dimetrodon_workload::{spawn_web_workload, QosStats, WebConfig};

use crate::runner::RunConfig;
use crate::sweep::parallel_map;

/// The probabilities swept.
pub const SWEEP_P: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];
/// The quantum lengths swept (ms).
pub const SWEEP_L_MS: [u64; 3] = [25, 50, 100];

/// One web-workload measurement.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Injection probability (0 = baseline).
    pub p: f64,
    /// Idle quantum, ms.
    pub l_ms: u64,
    /// Temperature reduction over idle relative to the unconstrained web
    /// run.
    pub temp_reduction: f64,
    /// "Good" QoS (≤ 3 s) relative to baseline, in `[0, ~1]`.
    pub good_qos: f64,
    /// "Tolerable" QoS (≤ 5 s) relative to baseline.
    pub tolerable_qos: f64,
    /// Raw QoS statistics of the run.
    pub stats: QosStats,
}

/// The sweep results.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// The unconstrained baseline's statistics.
    pub baseline: QosStats,
    /// Unconstrained temperature rise over idle, °C (the paper observed
    /// ≈ 6 °C).
    pub baseline_rise: f64,
    /// All swept configurations.
    pub points: Vec<Fig6Point>,
}

struct WebOutcome {
    tail_temp: f64,
    idle_temp: f64,
    stats: QosStats,
}

fn run_web(policy_params: Option<InjectionParams>, config: RunConfig) -> WebOutcome {
    #[expect(clippy::expect_used, reason = "the Xeon preset is always valid")]
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("valid preset");
    machine.settle_idle();
    let idle_temp = machine.idle_temperature();
    let mut system = System::new(machine);
    if let Some(params) = policy_params {
        let policy = PolicyHandle::new();
        policy.set_global(Some(params));
        system.set_hook(Box::new(DimetrodonHook::new(policy, config.seed ^ 0xF16)));
    }
    let mut rng = SimRng::new(config.seed ^ 0x3EB);
    let (_ids, qos) = spawn_web_workload(&mut system, WebConfig::paper_setup(), &mut rng);
    system.run_until(SimTime::ZERO + config.duration);
    #[expect(clippy::expect_used, reason = "the run covers the measure window")]
    let tail_temp = system
        .observed_temp_over(config.measure_from())
        .expect("samples exist");
    WebOutcome {
        tail_temp,
        idle_temp,
        stats: qos.snapshot(),
    }
}

/// Runs the full Figure 6 sweep.
pub fn run(config: RunConfig) -> Fig6Data {
    run_subset(config, &SWEEP_P, &SWEEP_L_MS)
}

/// Runs a reduced sweep (for tests).
pub fn run_subset(config: RunConfig, sweep_p: &[f64], sweep_l_ms: &[u64]) -> Fig6Data {
    // Job 0 is the unconstrained baseline; then the (p, L) grid.
    let grid: Vec<(usize, usize, f64, u64)> = sweep_p
        .iter()
        .enumerate()
        .flat_map(|(i, &p)| {
            sweep_l_ms
                .iter()
                .enumerate()
                .map(move |(j, &l_ms)| (i, j, p, l_ms))
        })
        .collect();
    let mut outcomes = parallel_map(grid.len() + 1, |job| {
        if job == 0 {
            run_web(None, config)
        } else {
            let (i, j, p, l_ms) = grid[job - 1];
            run_web(
                Some(InjectionParams::new(p, SimDuration::from_millis(l_ms))),
                RunConfig {
                    seed: config.seed.wrapping_add((i * 31 + j * 7 + 9) as u64),
                    ..config
                },
            )
        }
    });
    let base = outcomes.remove(0);
    let base_rise = base.tail_temp - base.idle_temp;
    let base_good = base.stats.good_fraction().max(1e-9);
    let base_tolerable = base.stats.tolerable_fraction().max(1e-9);

    let points = grid
        .iter()
        .zip(outcomes)
        .map(|(&(_, _, p, l_ms), outcome)| Fig6Point {
            p,
            l_ms,
            temp_reduction: (base.tail_temp - outcome.tail_temp) / base_rise,
            good_qos: outcome.stats.good_fraction() / base_good,
            tolerable_qos: outcome.stats.tolerable_fraction() / base_tolerable,
            stats: outcome.stats,
        })
        .collect();
    Fig6Data {
        baseline: base.stats,
        baseline_rise: base_rise,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RunConfig {
        RunConfig {
            duration: SimDuration::from_secs(150),
            measure_window: SimDuration::from_secs(30),
            seed: 61,
        }
    }

    #[test]
    fn baseline_matches_paper_setup() {
        let data = run_subset(config(), &[0.25], &[100]);
        // ~15-25% load, thousands of requests, modest rise (paper: ~6 C).
        assert!(data.baseline.total() > 2000, "requests {}", data.baseline.total());
        assert!(
            (1.5..12.0).contains(&data.baseline_rise),
            "baseline rise {}",
            data.baseline_rise
        );
        // Unconstrained: everything is good.
        assert!(data.baseline.good_fraction() > 0.99);
    }

    #[test]
    fn moderate_injection_preserves_tolerable_qos() {
        // Below the capacity knee the two §3.7 effects nearly cancel —
        // injected idles cool the sensor reads, deferral bunches work and
        // heats them — so the temperature change is small (either sign)
        // while both QoS metrics hold: the flat left side of Figure 6.
        let data = run_subset(config(), &[0.75], &[50]);
        let pt = &data.points[0];
        assert!(
            pt.temp_reduction.abs() < 0.3,
            "sub-knee temperature effect should be small: {}",
            pt.temp_reduction
        );
        assert!(
            pt.tolerable_qos > 0.95,
            "tolerable QoS should hold at moderate injection: {}",
            pt.tolerable_qos
        );
        assert!(
            pt.good_qos > 0.9,
            "good QoS should mostly hold at moderate injection: {}",
            pt.good_qos
        );
    }

    #[test]
    fn aggressive_injection_degrades_good_qos() {
        // Past the capacity knee (p = 0.9, L = 100 ms pushes per-request
        // core time past what four cores can serve), requests queue up:
        // large temperature reductions, collapsing "good" QoS — the right
        // side of Figure 6.
        let data = run_subset(config(), &[0.9], &[100]);
        let pt = &data.points[0];
        assert!(
            pt.good_qos < 0.7,
            "good QoS should degrade under heavy injection: {}",
            pt.good_qos
        );
        assert!(pt.tolerable_qos >= pt.good_qos);
        assert!(
            pt.temp_reduction > 0.3,
            "deep injection should cool substantially: {}",
            pt.temp_reduction
        );
    }
}
