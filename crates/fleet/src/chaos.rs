//! The chaos experiment: failure intensity × routing policy, measured
//! in availability terms.
//!
//! Each grid point builds a fresh fleet whose config carries a
//! [`FleetFaultPlan::synthetic`] plan scaled by the point's intensity,
//! wraps the point's [`PolicyKind`] in a [`FailoverPolicy`] (recovered
//! machines re-enter rotation only after a hysteresis streak), runs the
//! full duration, and reports [`ChaosMetrics`]. Intensity 0 is the
//! control row: no faults are scheduled, but accounting is switched on
//! so the row still reports capacity 1.0 and its healthy-epoch p99 for
//! comparison.
//!
//! Points shard over [`parallel_map_with`] exactly like the plain fleet
//! comparison — a point's outcome is a pure function of the grid, so
//! results are bit-identical at every worker count — and completed
//! points append to the [`ChaosJournal`], keyed by a grid fingerprint
//! that includes every synthetic plan's bytes: change the generator, the
//! intensities, or the base config, and stale journals stop replaying.

use dimetrodon_analysis::Table;
use dimetrodon_ckpt::fnv1a64;
use dimetrodon_faults::FleetFaultPlan;
use dimetrodon_harness::sweep::{jobs, parallel_map_with};

use crate::config::FleetConfig;
use crate::journal::ChaosJournal;
use crate::policy::{FailoverPolicy, PolicyKind};
use crate::sim::{ChaosMetrics, Fleet};

/// The chaos sweep's default failure intensities.
pub const DEFAULT_INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The shortened smoke sweep's intensities.
pub const QUICK_INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];

/// Epochs a recovered machine must advertise up before the failover
/// wrapper returns it to rotation.
pub const RECOVERY_HYSTERESIS_EPOCHS: u64 = 3;

/// One chaos sweep: a base fleet config (its own chaos plan must be
/// empty — each point supplies its synthetic plan) crossed with failure
/// intensities, every [`PolicyKind`] at each intensity.
#[derive(Debug, Clone)]
pub struct ChaosGrid {
    /// The fleet configuration every point starts from.
    pub base: FleetConfig,
    /// Failure intensities, in `[0, 1]`, in run order.
    pub intensities: Vec<f64>,
    /// The failover wrapper's recovery hysteresis, epochs.
    pub recovery_epochs: u64,
}

impl ChaosGrid {
    /// A grid over `base` and `intensities` with the default recovery
    /// hysteresis.
    ///
    /// # Panics
    ///
    /// Panics if `base` already schedules chaos, no intensity is given,
    /// or an intensity is outside `[0, 1]`.
    pub fn new(base: FleetConfig, intensities: Vec<f64>) -> ChaosGrid {
        assert!(
            base.chaos.is_empty(),
            "the grid's base config must not schedule chaos; each point supplies its plan"
        );
        assert!(!intensities.is_empty(), "need at least one intensity");
        for &intensity in &intensities {
            assert!(
                intensity.is_finite() && (0.0..=1.0).contains(&intensity),
                "intensity must be in [0, 1], got {intensity}"
            );
        }
        ChaosGrid {
            base,
            intensities,
            recovery_epochs: RECOVERY_HYSTERESIS_EPOCHS,
        }
    }

    /// The grid's points in run order: intensity-major, every policy at
    /// each intensity.
    pub fn points(&self) -> Vec<(f64, PolicyKind)> {
        self.intensities
            .iter()
            .flat_map(|&intensity| PolicyKind::ALL.into_iter().map(move |kind| (intensity, kind)))
            .collect()
    }

    /// The stable label of one point, used in CSV rows and journal
    /// lines: `i<intensity>:<policy>`.
    pub fn label(intensity: f64, kind: PolicyKind) -> String {
        format!("i{intensity:.2}:{}", kind.name())
    }

    /// The synthetic plan a point at `intensity` runs under.
    pub fn plan(&self, intensity: f64) -> FleetFaultPlan {
        FleetFaultPlan::synthetic(
            intensity,
            self.base.machines,
            self.base.machines_per_rack,
            self.base.duration,
        )
    }

    /// One point's full fleet config: the base with the point's plan.
    pub fn point_config(&self, intensity: f64) -> FleetConfig {
        let mut config = self.base.clone();
        config.chaos = self.plan(intensity);
        config
    }

    /// The grid's journal identity: the base config fingerprint, every
    /// intensity's bit pattern *and* its generated plan's bytes, and the
    /// recovery hysteresis. Changing the synthetic generator therefore
    /// invalidates old journals instead of replaying stale results.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = self.base.fingerprint().to_le_bytes().to_vec();
        bytes.extend_from_slice(&(self.intensities.len() as u64).to_le_bytes());
        for &intensity in &self.intensities {
            bytes.extend_from_slice(&intensity.to_bits().to_le_bytes());
            let plan = self.plan(intensity).identity_bytes();
            bytes.extend_from_slice(&(plan.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&plan);
        }
        bytes.extend_from_slice(&self.recovery_epochs.to_le_bytes());
        fnv1a64(&bytes)
    }
}

/// One grid point's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The point's failure intensity.
    pub intensity: f64,
    /// The routing policy under the failover wrapper.
    pub policy: PolicyKind,
    /// Availability-under-failure summary of the run.
    pub metrics: ChaosMetrics,
    /// Whether the metrics were replayed from the journal.
    pub replayed: bool,
}

/// Runs the chaos grid with the global worker count ([`jobs`]),
/// consulting `journal` for replay/append when given.
pub fn chaos_comparison(grid: &ChaosGrid, journal: Option<&ChaosJournal>) -> Vec<ChaosOutcome> {
    chaos_comparison_with(jobs(), grid, journal)
}

/// [`chaos_comparison`] with an explicit worker count; what the
/// determinism tests drive.
pub fn chaos_comparison_with(
    workers: usize,
    grid: &ChaosGrid,
    journal: Option<&ChaosJournal>,
) -> Vec<ChaosOutcome> {
    let points = grid.points();
    let recovery_epochs = grid.recovery_epochs;
    parallel_map_with(workers, points.len(), |index| {
        let (intensity, kind) = points[index];
        if let Some(metrics) = journal.and_then(|j| j.replayed(index)) {
            return ChaosOutcome {
                intensity,
                policy: kind,
                metrics,
                replayed: true,
            };
        }
        let config = grid.point_config(intensity);
        config.validate();
        let mut policy = FailoverPolicy::new(kind.build(&config), recovery_epochs);
        let mut fleet = Fleet::new(config);
        // Intensity-0 points have an empty plan; force accounting on so
        // the control row still reports availability.
        fleet.set_collect_chaos(true);
        fleet.run(&mut policy);
        // simlint::allow(R1): set_collect_chaos(true) guarantees metrics.
        let metrics = fleet.chaos_metrics().expect("chaos accounting was enabled");
        if let Some(journal) = journal {
            journal.append(index, &ChaosGrid::label(intensity, kind), &metrics);
        }
        ChaosOutcome {
            intensity,
            policy: kind,
            metrics,
            replayed: false,
        }
    })
}

/// Renders an absent measurement as `-`, a present one at 4 decimals.
fn opt4(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

/// The chaos sweep as a table, one row per (intensity, policy) — the
/// shape of `results/fleet_chaos.csv`.
pub fn chaos_table(outcomes: &[ChaosOutcome]) -> Table {
    let mut table = Table::new(vec![
        "intensity",
        "policy",
        "arrived",
        "shed",
        "shed_frac",
        "capacity_mean",
        "capacity_min",
        "healthy_epochs",
        "degraded_epochs",
        "p99_healthy_s",
        "p99_degraded_s",
        "recoveries",
        "recover_mean_s",
        "recover_max_s",
        "trips",
        "peak_temp_C",
    ]);
    for outcome in outcomes {
        let m = &outcome.metrics;
        table.row(vec![
            format!("{:.2}", outcome.intensity),
            outcome.policy.name().to_string(),
            format!("{}", m.arrived_requests),
            format!("{}", m.shed_requests),
            format!("{:.4}", m.shed_fraction),
            format!("{:.4}", m.capacity_mean),
            format!("{:.4}", m.capacity_min),
            format!("{}", m.healthy_epochs),
            format!("{}", m.degraded_epochs),
            opt4(m.p99_healthy_s),
            opt4(m.p99_degraded_s),
            format!("{}", m.recoveries),
            opt4(m.recovery_mean_s),
            opt4(m.recovery_max_s),
            format!("{}", m.trips),
            format!("{:.3}", m.peak_celsius),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_sim_core::SimDuration;

    fn tiny_grid(seed: u64) -> ChaosGrid {
        let mut base = FleetConfig::rack_scale(6, seed);
        base.machines_per_rack = 3;
        base.duration = SimDuration::from_secs(12);
        ChaosGrid::new(base, vec![0.0, 1.0])
    }

    #[test]
    fn grid_points_cover_every_intensity_policy_pair_in_order() {
        let grid = tiny_grid(41);
        let points = grid.points();
        assert_eq!(points.len(), 2 * PolicyKind::ALL.len());
        assert_eq!(points[0], (0.0, PolicyKind::RoundRobin));
        assert_eq!(points[4], (1.0, PolicyKind::RoundRobin));
        assert_eq!(ChaosGrid::label(0.5, PolicyKind::LeastLoaded), "i0.50:least-loaded");
    }

    #[test]
    fn fingerprint_tracks_base_intensities_and_hysteresis() {
        let grid = tiny_grid(41);
        assert_eq!(grid.fingerprint(), tiny_grid(41).fingerprint());
        assert_ne!(grid.fingerprint(), tiny_grid(42).fingerprint());

        let mut narrowed = grid.clone();
        narrowed.intensities = vec![0.0];
        assert_ne!(grid.fingerprint(), narrowed.fingerprint());

        let mut patient = grid.clone();
        patient.recovery_epochs += 1;
        assert_ne!(grid.fingerprint(), patient.fingerprint());
    }

    #[test]
    fn comparison_is_bit_identical_across_worker_counts() {
        let grid = tiny_grid(43);
        let serial = chaos_comparison_with(1, &grid, None);
        let sharded = chaos_comparison_with(3, &grid, None);
        assert_eq!(serial, sharded);
        assert_eq!(
            chaos_table(&serial).render_csv(),
            chaos_table(&sharded).render_csv()
        );
    }

    #[test]
    fn intensity_zero_is_a_clean_control_row() {
        let grid = tiny_grid(47);
        let outcomes = chaos_comparison_with(2, &grid, None);
        for outcome in outcomes.iter().filter(|o| o.intensity == 0.0) {
            let m = &outcome.metrics;
            assert_eq!(m.shed_requests, 0, "{}: control row sheds nothing", outcome.policy.name());
            assert_eq!(m.capacity_min, 1.0);
            assert_eq!(m.recoveries, 0);
            assert!(m.arrived_requests > 0);
        }
    }

    #[test]
    fn full_intensity_actually_degrades_the_fleet() {
        let grid = tiny_grid(53);
        let outcomes = chaos_comparison_with(2, &grid, None);
        for outcome in outcomes.iter().filter(|o| o.intensity == 1.0) {
            let m = &outcome.metrics;
            assert!(
                m.capacity_min < 1.0,
                "{}: crashes must dent capacity",
                outcome.policy.name()
            );
            assert!(m.degraded_epochs > 0);
            assert!(
                m.recoveries > 0,
                "{}: timed outages must complete recoveries",
                outcome.policy.name()
            );
        }
    }

    #[test]
    fn journal_replay_reproduces_the_fresh_run_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!(
            "fleet-chaos-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let grid = tiny_grid(59);
        let journal = ChaosJournal::open(&dir, &grid, false);
        let fresh = chaos_comparison_with(3, &grid, Some(&journal));
        drop(journal);

        let resumed = ChaosJournal::open(&dir, &grid, true);
        assert_eq!(resumed.replayed_count(), grid.points().len());
        let replayed = chaos_comparison_with(2, &grid, Some(&resumed));
        assert!(replayed.iter().all(|o| o.replayed));
        assert_eq!(
            chaos_table(&fresh).render_csv(),
            chaos_table(&replayed).render_csv(),
            "replayed chaos sweep renders byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
