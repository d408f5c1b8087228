//! Figure 1: race-to-idle versus Dimetrodon power consumption.
//!
//! A multi-threaded CPU-bound process (four finite cpuburn threads) runs
//! to completion; the package power trace is sampled each millisecond.
//! Unconstrained, the process races at full power then drops to idle.
//! Under Dimetrodon the trace spends time at the four intermediate power
//! plateaus corresponding to 1–4 cores idling, and the burst stretches —
//! same total energy, lower average power while computing.

use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_power::PowerMeter;
use dimetrodon_sched::ThreadKind;
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::runner::{build_system, Actuation};

/// One power trace: `(seconds, watts)` samples.
pub type PowerTrace = Vec<(f64, f64)>;

/// The two traces of Figure 1 plus their measured energies.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Unconstrained (race-to-idle) power trace.
    pub race_to_idle: PowerTrace,
    /// Dimetrodon (p = 0.5, L = 100 ms) power trace.
    pub dimetrodon: PowerTrace,
    /// Energy of the race-to-idle trace over the window, joules.
    pub race_to_idle_joules: f64,
    /// Energy of the Dimetrodon trace over the window, joules.
    pub dimetrodon_joules: f64,
    /// The observation window, seconds.
    pub window_secs: f64,
}

/// Per-thread CPU demand of the multi-threaded burst.
const WORK: SimDuration = SimDuration::from_millis(1500);
/// Observation window covering both variants' completions (the paper's
/// x-axis runs to ~3.8 s).
const WINDOW: SimDuration = SimDuration::from_millis(3800);

fn trace(actuation: Actuation, seed: u64) -> (PowerTrace, f64) {
    let (mut system, _policy) = build_system(actuation, seed);
    let mut rng = SimRng::new(seed ^ 0xF16);
    system.attach_power_meter(PowerMeter::ideal(SimDuration::from_millis(1), &mut rng));
    let ids: Vec<_> = (0..4)
        .map(|_| system.spawn(ThreadKind::User, Box::new(CpuBurn::finite(WORK))))
        .collect();
    system.run_until_exited(&ids, SimTime::ZERO + WINDOW);
    system.run_until(SimTime::ZERO + WINDOW);
    #[expect(clippy::expect_used, reason = "the meter is attached a few lines up")]
    let meter = system.power_meter().expect("attached");
    let samples = meter
        .series()
        .iter()
        .map(|(t, w)| (t.as_secs_f64(), w))
        .collect();
    (samples, meter.measured_joules())
}

/// Runs the Figure 1 experiment.
pub fn run(seed: u64) -> Fig1Data {
    let (race_to_idle, race_to_idle_joules) = trace(Actuation::None, seed);
    let (dimetrodon, dimetrodon_joules) = trace(
        Actuation::Injection {
            params: InjectionParams::new(0.5, SimDuration::from_millis(100)),
            model: InjectionModel::Probabilistic,
        },
        seed,
    );
    Fig1Data {
        race_to_idle,
        dimetrodon,
        race_to_idle_joules,
        dimetrodon_joules,
        window_secs: WINDOW.as_secs_f64(),
    }
}

impl Fig1Data {
    /// Mean power while any thread was still computing, for a trace: the
    /// quantity Dimetrodon lowers.
    pub fn mean_active_power(trace: &PowerTrace, idle_floor_w: f64) -> f64 {
        let active: Vec<f64> = trace
            .iter()
            .map(|&(_, w)| w)
            .filter(|&w| w > idle_floor_w)
            .collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().sum::<f64>() / active.len() as f64
    }

    /// Distinct power plateaus in a trace (rounded to the nearest
    /// `bucket_w` watts) — Figure 1's caption notes four levels as
    /// different numbers of cores idle.
    pub fn plateau_count(trace: &PowerTrace, bucket_w: f64) -> usize {
        let mut buckets: Vec<i64> = trace
            .iter()
            .map(|&(_, w)| (w / bucket_w).round() as i64)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_parity_and_lower_average_power() {
        let data = run(42);
        // §2.2: same total energy (within a few percent).
        let ratio = data.dimetrodon_joules / data.race_to_idle_joules;
        assert!((0.95..1.05).contains(&ratio), "energy ratio {ratio}");
        // Lower average power during computation.
        let rti_active = Fig1Data::mean_active_power(&data.race_to_idle, 20.0);
        let dim_active = Fig1Data::mean_active_power(&data.dimetrodon, 20.0);
        assert!(
            dim_active < rti_active - 5.0,
            "dimetrodon should compute at lower power: {dim_active} vs {rti_active}"
        );
    }

    #[test]
    fn dimetrodon_trace_shows_intermediate_levels() {
        let data = run(43);
        // Race-to-idle: essentially two levels (full burn, then idle).
        let rti_levels = Fig1Data::plateau_count(&data.race_to_idle, 8.0);
        // Dimetrodon passes through intermediate plateaus.
        let dim_levels = Fig1Data::plateau_count(&data.dimetrodon, 8.0);
        assert!(dim_levels > rti_levels, "{dim_levels} vs {rti_levels}");
        assert!(dim_levels >= 4, "expected >= 4 power levels, got {dim_levels}");
    }

    #[test]
    fn dimetrodon_stretches_the_burst() {
        let data = run(44);
        let last_busy = |trace: &PowerTrace| {
            trace
                .iter()
                .rev()
                .find(|&&(_, w)| w > 20.0)
                .map(|&(t, _)| t)
                .unwrap_or(0.0)
        };
        let rti_done = last_busy(&data.race_to_idle);
        let dim_done = last_busy(&data.dimetrodon);
        assert!(
            dim_done > rti_done * 1.5,
            "dimetrodon should stretch execution: {dim_done} vs {rti_done}"
        );
    }
}
