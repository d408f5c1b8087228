//! Figure 3: efficiency (temperature : throughput trade-off ratio) of
//! Dimetrodon on cpuburn, varying idle quantum length L and proportion p.
//!
//! The paper's central characterisation: short idle quanta are
//! disproportionately efficient (up to ~16:1 at small reductions) because
//! each core cools exponentially quickly within a short window; longer
//! quanta show diminishing marginal benefit. Lower-p curves are noisier
//! because they rest on fewer injections.

use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_sim_core::SimDuration;

use crate::runner::{Actuation, RunConfig, SaturatingWorkload};
use crate::sweep::{run_sweep, SweepPoint};

/// The probabilities plotted in Figure 3.
pub const PROPORTIONS: [f64; 4] = [0.1, 0.25, 0.5, 0.75];
/// The quantum lengths swept (ms), spanning the figure's log axis.
pub const QUANTA_MS: [u64; 7] = [1, 2, 5, 10, 25, 50, 100];

/// One `(p, L)` measurement.
#[derive(Debug, Clone, Copy)]
pub struct EfficiencyPoint {
    /// Injection probability.
    pub p: f64,
    /// Idle quantum length, ms.
    pub l_ms: u64,
    /// Temperature reduction over idle, relative to unconstrained.
    pub temp_reduction: f64,
    /// Throughput reduction relative to unconstrained.
    pub throughput_reduction: f64,
}

impl EfficiencyPoint {
    /// The figure's y-axis: temperature : throughput reduction ratio.
    pub fn efficiency(&self) -> f64 {
        if self.throughput_reduction <= 0.0 {
            return 0.0;
        }
        self.temp_reduction / self.throughput_reduction
    }
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// One point per `(p, L)` combination.
    pub points: Vec<EfficiencyPoint>,
}

impl Fig3Data {
    /// The points of one probability's curve, ordered by L.
    pub fn curve(&self, p: f64) -> Vec<EfficiencyPoint> {
        let mut pts: Vec<EfficiencyPoint> = self
            .points
            .iter()
            .filter(|pt| (pt.p - p).abs() < 1e-9)
            .copied()
            .collect();
        pts.sort_by_key(|pt| pt.l_ms);
        pts
    }
}

/// Runs the Figure 3 sweep. The unconstrained baseline is measured once
/// and shared.
pub fn run(config: RunConfig) -> Fig3Data {
    run_subset(config, &PROPORTIONS, &QUANTA_MS)
}

/// Runs a subset of the sweep (for tests and quick looks).
pub fn run_subset(config: RunConfig, proportions: &[f64], quanta_ms: &[u64]) -> Fig3Data {
    // Point 0 is the shared unconstrained baseline; the grid follows.
    let mut sweep = vec![SweepPoint::new(
        SaturatingWorkload::CpuBurn,
        Actuation::None,
        config,
    )];
    let mut grid = Vec::new();
    for (i, &p) in proportions.iter().enumerate() {
        for (j, &l_ms) in quanta_ms.iter().enumerate() {
            grid.push((p, l_ms));
            sweep.push(SweepPoint::new(
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
    let mut outcomes = run_sweep(&sweep);
    let base = outcomes.remove(0);
    let points = grid
        .into_iter()
        .zip(&outcomes)
        .map(|((p, l_ms), outcome)| EfficiencyPoint {
            p,
            l_ms,
            temp_reduction: outcome.temp_reduction_vs(&base),
            throughput_reduction: outcome.throughput_reduction_vs(&base),
        })
        .collect();
    Fig3Data { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::characterize;
    use crate::sweep;

    /// The pre-engine implementation, kept verbatim as the golden
    /// sequential reference for the determinism regression test.
    fn run_subset_sequential(
        config: RunConfig,
        proportions: &[f64],
        quanta_ms: &[u64],
    ) -> Fig3Data {
        let base = characterize(SaturatingWorkload::CpuBurn, Actuation::None, config);
        let mut points = Vec::new();
        for (i, &p) in proportions.iter().enumerate() {
            for (j, &l_ms) in quanta_ms.iter().enumerate() {
                let outcome = characterize(
                    SaturatingWorkload::CpuBurn,
                    Actuation::Injection {
                        params: InjectionParams::new(p, SimDuration::from_millis(l_ms)),
                        model: InjectionModel::Probabilistic,
                    },
                    RunConfig {
                        seed: config.seed.wrapping_add((i * 97 + j * 13 + 1) as u64),
                        ..config
                    },
                );
                points.push(EfficiencyPoint {
                    p,
                    l_ms,
                    temp_reduction: outcome.temp_reduction_vs(&base),
                    throughput_reduction: outcome.throughput_reduction_vs(&base),
                });
            }
        }
        Fig3Data { points }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        // Parallelism must never change science output: the engine at any
        // worker count reproduces the old sequential loop bit for bit.
        let config = RunConfig {
            duration: SimDuration::from_secs(50),
            measure_window: SimDuration::from_secs(10),
            seed: 33,
        };
        let golden = run_subset_sequential(config, &[0.25, 0.75], &[5, 100]);
        for jobs in [1, 4] {
            sweep::set_jobs(jobs);
            let data = run_subset(config, &[0.25, 0.75], &[5, 100]);
            sweep::set_jobs(0);
            assert_eq!(data.points.len(), golden.points.len(), "jobs={jobs}");
            for (got, want) in data.points.iter().zip(&golden.points) {
                assert_eq!(got.p.to_bits(), want.p.to_bits(), "jobs={jobs}");
                assert_eq!(got.l_ms, want.l_ms, "jobs={jobs}");
                assert_eq!(
                    got.temp_reduction.to_bits(),
                    want.temp_reduction.to_bits(),
                    "jobs={jobs}: temp {} vs {}",
                    got.temp_reduction,
                    want.temp_reduction
                );
                assert_eq!(
                    got.throughput_reduction.to_bits(),
                    want.throughput_reduction.to_bits(),
                    "jobs={jobs}: throughput {} vs {}",
                    got.throughput_reduction,
                    want.throughput_reduction
                );
            }
        }
    }

    #[test]
    fn short_quanta_are_more_efficient() {
        // A reduced sweep: p = 0.5 across short/medium/long quanta.
        let data = run_subset(RunConfig::quick(31), &[0.5], &[2, 25, 100]);
        let curve = data.curve(0.5);
        assert_eq!(curve.len(), 3);
        let effs: Vec<f64> = curve.iter().map(|p| p.efficiency()).collect();
        assert!(
            effs[0] > effs[1] && effs[1] > effs[2],
            "efficiency should fall with L: {effs:?}"
        );
        // Figure 3's magnitudes: several-to-one at short L, near 1:1 at
        // L = 100 ms.
        assert!(effs[0] > 3.0, "short-quantum efficiency {}", effs[0]);
        assert!((0.5..2.5).contains(&effs[2]), "long-quantum efficiency {}", effs[2]);
    }

    #[test]
    fn throughput_cost_grows_with_l_at_fixed_p() {
        let data = run_subset(RunConfig::quick(32), &[0.25], &[5, 100]);
        let curve = data.curve(0.25);
        assert!(
            curve[1].throughput_reduction > curve[0].throughput_reduction,
            "longer L must cost more throughput"
        );
        assert!(
            curve[1].temp_reduction > curve[0].temp_reduction,
            "longer L must buy more cooling"
        );
    }
}
