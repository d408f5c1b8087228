//! §3.3 model validation: throughput against `D(t)` and energy against
//! race-to-idle.
//!
//! * **Throughput**: a finite cpuburn of known CPU demand runs under each
//!   `(p, L)` configuration; its measured wall time is compared with
//!   `D(t) = R + (R/q)·p/(1−p)·L`. The paper saw throughputs "on average
//!   1.0 % lower than expected", with deviation growing with `p` (context
//!   switching and state-monitoring overheads — reproduced here by the
//!   switch cost and cold-resume penalty).
//! * **Energy**: Dimetrodon and race-to-idle execute the same 7 s finite
//!   cpuburn over equal windows; both are measured with the simulated
//!   current clamp. The paper: 97.6 %–103.7 % of race-to-idle energy,
//!   average deviation −0.37 %.

use dimetrodon::model::predicted_runtime;
use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_analysis::Summary;
use dimetrodon_power::PowerMeter;
use dimetrodon_sched::ThreadKind;
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};
use dimetrodon_workload::CpuBurn;

use crate::runner::{build_system, Actuation};
use crate::sweep::parallel_map;

/// The paper's throughput-validation grid: probabilities.
pub const THROUGHPUT_P: [f64; 3] = [0.25, 0.5, 0.75];
/// The paper's throughput-validation grid: quanta (ms).
pub const THROUGHPUT_L_MS: [u64; 4] = [25, 50, 75, 100];
/// The paper's energy-validation grid: quanta (ms).
pub const ENERGY_L_MS: [u64; 2] = [50, 100];
/// CPU demand of the finite cpuburn (the paper's energy runs: 7 s).
pub const WORK: SimDuration = SimDuration::from_secs(7);
/// The scheduler quantum `q` (the 4.4BSD timeslice).
pub const QUANTUM: SimDuration = SimDuration::from_millis(100);

/// One configuration's throughput-validation result.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Injection probability.
    pub p: f64,
    /// Idle quantum, ms.
    pub l_ms: u64,
    /// `D(t)` predicted wall time, s.
    pub predicted_s: f64,
    /// Mean measured wall time across trials, s.
    pub measured_s: f64,
    /// Per-trial relative deviations `(measured − predicted)/predicted`.
    pub deviations: Vec<f64>,
}

impl ThroughputRow {
    /// Mean relative deviation of this configuration.
    pub fn mean_deviation(&self) -> f64 {
        Summary::of(&self.deviations).mean
    }
}

/// The whole throughput validation.
#[derive(Debug, Clone)]
pub struct ThroughputValidation {
    /// One row per `(p, L)`.
    pub rows: Vec<ThroughputRow>,
    /// Summary of all deviations pooled.
    pub overall: Summary,
}

/// Measures one finite-cpuburn trial's wall time under `(p, L)`.
#[expect(
    clippy::expect_used,
    reason = "run_until_exited success is asserted above, so wall_time is present"
)]
fn one_trial(p: f64, l_ms: u64, seed: u64) -> f64 {
    let (mut system, _policy) = build_system(
        Actuation::Injection {
            params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
            model: InjectionModel::Probabilistic,
        },
        seed,
    );
    let id = system.spawn(ThreadKind::User, Box::new(CpuBurn::finite(WORK)));
    let deadline = SimTime::from_secs(600);
    assert!(system.run_until_exited(&[id], deadline), "trial did not finish");
    system
        .thread_stats(id)
        .wall_time()
        .expect("exited")
        .as_secs_f64()
}

/// Runs the §3.3 throughput validation with `trials` per configuration
/// (the paper used 100).
pub fn throughput(trials: usize, seed: u64) -> ThroughputValidation {
    throughput_grid(trials, seed, &THROUGHPUT_P, &THROUGHPUT_L_MS)
}

/// Runs the validation over an explicit grid (tests use a reduced one).
pub fn throughput_grid(
    trials: usize,
    seed: u64,
    grid_p: &[f64],
    grid_l_ms: &[u64],
) -> ThroughputValidation {
    assert!(trials > 0, "need at least one trial");
    // Trial seeds are drawn from one sequential fork chain (exactly as
    // the sequential implementation did), so trials stay bit-identical;
    // the trials themselves then fan across the pool.
    let mut rng = SimRng::new(seed);
    let mut cells = Vec::new();
    for &p in grid_p {
        for &l_ms in grid_l_ms {
            let seeds: Vec<u64> = (0..trials)
                .map(|_| rng.fork(0).uniform().to_bits())
                .collect();
            cells.push((p, l_ms, seeds));
        }
    }
    let walls = parallel_map(cells.len() * trials, |job| {
        let (p, l_ms, ref seeds) = cells[job / trials];
        one_trial(p, l_ms, seeds[job % trials])
    });

    let mut rows = Vec::new();
    let mut all = Vec::new();
    for (cell, (p, l_ms, _)) in cells.iter().enumerate() {
        let predicted = predicted_runtime(
            WORK.as_secs_f64(),
            QUANTUM.as_secs_f64(),
            *p,
            SimDuration::from_millis(*l_ms).as_secs_f64(),
        );
        let cell_walls = &walls[cell * trials..(cell + 1) * trials];
        let deviations: Vec<f64> = cell_walls
            .iter()
            .map(|wall| (wall - predicted) / predicted)
            .collect();
        all.extend_from_slice(&deviations);
        rows.push(ThroughputRow {
            p: *p,
            l_ms: *l_ms,
            predicted_s: predicted,
            measured_s: cell_walls.iter().sum::<f64>() / trials as f64,
            deviations,
        });
    }
    ThroughputValidation {
        rows,
        overall: Summary::of(&all),
    }
}

/// One energy-validation configuration's result.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Injection probability.
    pub p: f64,
    /// Idle quantum, ms.
    pub l_ms: u64,
    /// Per-trial ratios `E_dimetrodon / E_race_to_idle`.
    pub ratios: Vec<f64>,
}

/// The whole energy validation.
#[derive(Debug, Clone)]
pub struct EnergyValidation {
    /// One row per `(p, L)`.
    pub rows: Vec<EnergyRow>,
    /// Summary of `ratio − 1` pooled over all trials (the paper's
    /// deviations from race-to-idle energy).
    pub overall_deviation: Summary,
}

/// One energy trial: measures Dimetrodon's and race-to-idle's energy over
/// equal windows with independently calibrated clamps.
fn energy_trial(p: f64, l_ms: u64, seed: u64) -> f64 {
    // Dimetrodon run: measure until the thread completes at D.
    let (mut system, _policy) = build_system(
        Actuation::Injection {
            params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
            model: InjectionModel::Probabilistic,
        },
        seed,
    );
    let mut rng = SimRng::new(seed ^ 0xE6);
    // The Fluke clamp's per-trial calibration: ~1% gain std plus
    // per-sample noise (its 3.5% figure is a worst-case accuracy spec).
    system.attach_power_meter(PowerMeter::new(
        PowerMeter::PAPER_INTERVAL,
        0.01,
        0.004,
        &mut rng,
    ));
    let id = system.spawn(ThreadKind::User, Box::new(CpuBurn::finite(WORK)));
    assert!(
        system.run_until_exited(&[id], SimTime::from_secs(600)),
        "dimetrodon trial did not finish"
    );
    let window = system.now();
    system.run_until(window); // flush machine advance to `now`
    #[expect(clippy::expect_used, reason = "the meter is attached above")]
    let dimetrodon_joules = system.power_meter().expect("attached").measured_joules();

    // Race-to-idle run over the same window length.
    let (mut base, _none) = build_system(Actuation::None, seed);
    base.attach_power_meter(PowerMeter::new(
        PowerMeter::PAPER_INTERVAL,
        0.01,
        0.004,
        &mut rng,
    ));
    let id = base.spawn(ThreadKind::User, Box::new(CpuBurn::finite(WORK)));
    base.run_until(window);
    assert!(base.has_exited(id), "race-to-idle must finish within the window");
    #[expect(clippy::expect_used, reason = "the meter is attached above")]
    let rti_joules = base.power_meter().expect("attached").measured_joules();

    dimetrodon_joules / rti_joules
}

/// Runs the §3.3 energy validation with `trials` per configuration (the
/// paper used five).
pub fn energy(trials: usize, seed: u64) -> EnergyValidation {
    energy_grid(trials, seed, &THROUGHPUT_P, &ENERGY_L_MS)
}

/// Energy validation over an explicit grid.
pub fn energy_grid(
    trials: usize,
    seed: u64,
    grid_p: &[f64],
    grid_l_ms: &[u64],
) -> EnergyValidation {
    assert!(trials > 0, "need at least one trial");
    // Same scheme as `throughput_grid`: sequential seed derivation,
    // parallel trials.
    let mut rng = SimRng::new(seed);
    let mut cells = Vec::new();
    for &p in grid_p {
        for &l_ms in grid_l_ms {
            let seeds: Vec<u64> = (0..trials)
                .map(|_| rng.fork(1).uniform().to_bits())
                .collect();
            cells.push((p, l_ms, seeds));
        }
    }
    let all_ratios = parallel_map(cells.len() * trials, |job| {
        let (p, l_ms, ref seeds) = cells[job / trials];
        energy_trial(p, l_ms, seeds[job % trials])
    });

    let mut rows = Vec::new();
    let mut deviations = Vec::new();
    for (cell, (p, l_ms, _)) in cells.iter().enumerate() {
        let ratios = all_ratios[cell * trials..(cell + 1) * trials].to_vec();
        deviations.extend(ratios.iter().map(|r| r - 1.0));
        rows.push(EnergyRow { p: *p, l_ms: *l_ms, ratios });
    }
    EnergyValidation {
        rows,
        overall_deviation: Summary::of(&deviations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_model_holds_within_a_few_percent() {
        // Per-trial wall time has geometric-sum variance (sd ≈ 2.9 s at
        // p = 0.75 on a 28 s prediction), so this asserts the mean over a
        // modest trial count stays within a few percent; the directional
        // "deviation grows with p" claim needs the 100-trial binary
        // (`validate_model`) to resolve.
        let v = throughput_grid(16, 81, &[0.25, 0.75], &[50]);
        for row in &v.rows {
            let dev = row.mean_deviation();
            assert!(
                dev.abs() < 0.05,
                "p={} L={}ms: deviation {dev} (measured {} vs predicted {})",
                row.p,
                row.l_ms,
                row.measured_s,
                row.predicted_s
            );
        }
        assert_eq!(v.overall.n, 32);
    }

    #[test]
    fn energy_is_race_to_idle_equivalent() {
        let v = energy_grid(3, 82, &[0.5], &[100]);
        for row in &v.rows {
            for &ratio in &row.ratios {
                assert!(
                    (0.93..1.07).contains(&ratio),
                    "energy ratio {ratio} outside the plausible band"
                );
            }
        }
        // Pooled deviation small, as in the paper (-0.37% avg).
        assert!(
            v.overall_deviation.mean.abs() < 0.04,
            "mean deviation {}",
            v.overall_deviation.mean
        );
    }
}
