//! Figure 4: wide-range parameter sweeps of Dimetrodon against VFS and
//! `p4tcc` clock duty cycling, with pareto boundaries.
//!
//! The paper's comparison: Dimetrodon wins for temperature reductions up
//! to ~30 % (short idle quanta are extremely efficient), VFS wins beyond
//! (its quadratic `V²f` power reduction compounds), and `p4tcc` never
//! reaches a 1:1 trade-off because sub-quantum clock gating saves dynamic
//! power only and never enters a low-power state.

use dimetrodon::{InjectionModel, InjectionParams};
use dimetrodon_analysis::{pareto_frontier, TradeoffPoint};
use dimetrodon_power::PStateId;
use dimetrodon_sim_core::SimDuration;

use crate::runner::{Actuation, RunConfig, RunOutcome, SaturatingWorkload};
use crate::sweep::{run_sweep, SweepPoint as EnginePoint};

/// Dimetrodon's sweep grid: probabilities.
pub const SWEEP_P: [f64; 6] = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95];
/// Dimetrodon's sweep grid: quantum lengths (ms).
pub const SWEEP_L_MS: [u64; 6] = [1, 5, 10, 25, 50, 100];
/// TCC duty cycles swept (the hardware's 12.5 % granularity).
pub const SWEEP_TCC: [f64; 7] = [0.875, 0.75, 0.625, 0.5, 0.375, 0.25, 0.125];

/// A labelled trade-off point: benefit = temperature reduction, cost =
/// throughput reduction.
pub type SweepPoint = TradeoffPoint<String>;

/// The three mechanisms' sweeps and pareto boundaries.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// All Dimetrodon `(p, L)` configurations.
    pub dimetrodon: Vec<SweepPoint>,
    /// All VFS setpoints.
    pub vfs: Vec<SweepPoint>,
    /// All TCC duty setpoints.
    pub tcc: Vec<SweepPoint>,
}

impl Fig4Data {
    /// Dimetrodon's pareto boundary.
    pub fn dimetrodon_pareto(&self) -> Vec<SweepPoint> {
        pareto_frontier(&self.dimetrodon)
    }

    /// VFS's pareto boundary.
    pub fn vfs_pareto(&self) -> Vec<SweepPoint> {
        pareto_frontier(&self.vfs)
    }

    /// TCC's pareto boundary.
    pub fn tcc_pareto(&self) -> Vec<SweepPoint> {
        pareto_frontier(&self.tcc)
    }
}

/// The trade-off points of `runs` against the unconstrained `base`, one
/// per tag. A run whose reductions are not finite — the supervisor's
/// placeholder for a point that timed out or was quarantined, or any run
/// against a placeholder base — has no point: its incident is reported,
/// and the frontier is taken over the points that were measured.
fn points(runs: &[RunOutcome], tags: Vec<String>, base: &RunOutcome) -> Vec<SweepPoint> {
    runs.iter()
        .zip(tags)
        .filter_map(|(outcome, tag)| {
            let benefit = outcome.temp_reduction_vs(base);
            let cost = outcome.throughput_reduction_vs(base);
            (benefit.is_finite() && cost.is_finite())
                .then(|| TradeoffPoint::new(benefit, cost, tag))
        })
        .collect()
}

/// Runs the full Figure 4 sweep.
pub fn run(config: RunConfig) -> Fig4Data {
    run_subset(config, &SWEEP_P, &SWEEP_L_MS, true)
}

/// Runs a reduced sweep (for tests): a subset of the Dimetrodon grid,
/// optionally including the baselines' full ladders (they are cheap — six
/// and seven runs).
pub fn run_subset(
    config: RunConfig,
    sweep_p: &[f64],
    sweep_l_ms: &[u64],
    include_baselines: bool,
) -> Fig4Data {
    // One flat job list: baseline, the Dimetrodon grid, then (optionally)
    // the VFS and TCC ladders, all fanned across the pool together.
    let mut sweep = vec![EnginePoint::new(
        SaturatingWorkload::CpuBurn,
        Actuation::None,
        config,
    )];
    let mut tags = Vec::new();
    for (i, &p) in sweep_p.iter().enumerate() {
        for (j, &l) in sweep_l_ms.iter().enumerate() {
            tags.push(format!("p={p},L={l}ms"));
            sweep.push(EnginePoint::new(
                SaturatingWorkload::CpuBurn,
                Actuation::Injection {
                    params: InjectionParams::new(p, SimDuration::from_millis(l)),
                    model: InjectionModel::Probabilistic,
                },
                RunConfig {
                    seed: config.seed.wrapping_add((i * 61 + j * 7 + 3) as u64),
                    ..config
                },
            ));
        }
    }
    let grid_len = tags.len();
    let mut vfs_tags = Vec::new();
    let mut tcc_tags = Vec::new();
    if include_baselines {
        for idx in 1..=5usize {
            vfs_tags.push(format!("P{idx}"));
            sweep.push(EnginePoint::new(
                SaturatingWorkload::CpuBurn,
                Actuation::Vfs {
                    pstate: PStateId(idx),
                },
                config,
            ));
        }
        for &duty in &SWEEP_TCC {
            tcc_tags.push(format!("duty={duty}"));
            sweep.push(EnginePoint::new(
                SaturatingWorkload::CpuBurn,
                Actuation::Tcc { duty },
                config,
            ));
        }
    }

    let outcomes = run_sweep(&sweep);
    let base = &outcomes[0];
    let grid = &outcomes[1..1 + grid_len];
    let vfs_runs = &outcomes[1 + grid_len..1 + grid_len + vfs_tags.len()];
    let tcc_runs = &outcomes[1 + grid_len + vfs_tags.len()..];
    Fig4Data {
        dimetrodon: points(grid, tags, base),
        vfs: points(vfs_runs, vfs_tags, base),
        tcc: points(tcc_runs, tcc_tags, base),
    }
}

/// Where the Dimetrodon and VFS pareto boundaries cross: the largest
/// temperature reduction — within the range both mechanisms can reach —
/// at which Dimetrodon's frontier cost is still at or below VFS's. The
/// paper reports ≈ 30 %. (Beyond VFS's frequency floor only Dimetrodon
/// can go at all; that region is excluded, since "crossover" means the
/// point where one should switch mechanism.)
pub fn crossover_temp_reduction(data: &Fig4Data) -> Option<f64> {
    let dim = data.dimetrodon_pareto();
    let vfs = data.vfs_pareto();
    let mut best = None;
    for step in 0..=100 {
        let r = step as f64 / 100.0;
        let dim_cost = dimetrodon_analysis::frontier_cost_at(&dim, r);
        let vfs_cost = dimetrodon_analysis::frontier_cost_at(&vfs, r);
        if let (Some(d), Some(v)) = (dim_cost, vfs_cost) {
            if d <= v {
                best = Some(r);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::unavailable_outcome;

    #[test]
    fn mechanism_shapes_hold() {
        // Reduced grid, full baselines.
        let data = run_subset(RunConfig::quick(41), &[0.25, 0.75], &[5, 100], true);
        assert_eq!(data.dimetrodon.len(), 4);
        assert_eq!(data.vfs.len(), 5);
        assert_eq!(data.tcc.len(), 7);

        // p4tcc: sub-1:1 everywhere (cost exceeds benefit).
        for p in &data.tcc {
            assert!(
                p.benefit < p.cost,
                "p4tcc should be sub-1:1: {} vs {} ({})",
                p.benefit,
                p.cost,
                p.tag
            );
        }

        // VFS: superior to 1:1 (quadratic power benefit).
        for p in &data.vfs {
            assert!(
                p.benefit > p.cost,
                "VFS should beat 1:1: {} vs {} ({})",
                p.benefit,
                p.cost,
                p.tag
            );
        }

        // Dimetrodon short-L point beats VFS at small reductions: compare
        // frontier costs at the smallest dimetrodon benefit.
        let dim = data.dimetrodon_pareto();
        assert!(!dim.is_empty());
        let small = &dim[0];
        assert!(
            small.efficiency() > 2.0,
            "short-quantum point should be efficient: {}",
            small.efficiency()
        );
    }

    #[test]
    fn vfs_has_limited_range_dimetrodon_does_not() {
        let data = run_subset(RunConfig::quick(42), &[0.9], &[100], true);
        // VFS bottoms out at the frequency floor (~50% temperature
        // reduction); Dimetrodon p=0.9 L=100ms reaches further.
        let max_vfs = data
            .vfs
            .iter()
            .map(|p| p.benefit)
            .fold(f64::MIN, f64::max);
        let max_dim = data
            .dimetrodon
            .iter()
            .map(|p| p.benefit)
            .fold(f64::MIN, f64::max);
        assert!(
            max_dim > max_vfs,
            "dimetrodon should reach deeper reductions: {max_dim} vs {max_vfs}"
        );
    }

    /// A measured run: idle at 30 °C, `tail` °C over the window.
    fn measured(tail: f64, throughput: f64) -> RunOutcome {
        RunOutcome {
            tail_temp: tail,
            throughput,
            idle_temp: 30.0,
            ..unavailable_outcome()
        }
    }

    #[test]
    fn placeholders_have_no_trade_off_point() {
        let base = measured(50.0, 1.0);
        let runs = [measured(40.0, 0.8), unavailable_outcome()];
        let tags = || vec!["measured".to_string(), "failed".to_string()];
        let kept = points(&runs, tags(), &base);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].tag, "measured");
        assert!((kept[0].benefit - 0.5).abs() < 1e-12);
        assert!((kept[0].cost - 0.2).abs() < 1e-12);
        // A placeholder base leaves no run measurable against it.
        assert!(points(&runs, tags(), &unavailable_outcome()).is_empty());
        let data = Fig4Data {
            dimetrodon: kept,
            vfs: Vec::new(),
            tcc: Vec::new(),
        };
        assert_eq!(data.dimetrodon_pareto().len(), 1);
        assert_eq!(crossover_temp_reduction(&data), None);
    }
}
