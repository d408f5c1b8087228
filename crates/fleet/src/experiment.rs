//! The fleet comparison experiment: every routing policy over the same
//! offered load, sharded across workers like sweep points.
//!
//! Each [`PolicyKind`] variant is one work item for the harness's worker
//! pool ([`parallel_map_with`]): a variant's outcome is a pure function of
//! the config (the fleet and its policy are built fresh inside the
//! worker), so results are bit-identical at every worker count and
//! reassemble in variant order. Completed variants append to the
//! [`FleetJournal`], and a resumed comparison replays journaled variants
//! instead of recomputing them — byte-identical output either way.

use dimetrodon_analysis::Table;
use dimetrodon_ckpt::CkptError;
use dimetrodon_harness::sweep::parallel_map_with;

use crate::ckpt::{run_fleet_checkpointed, CheckpointSpec};
use crate::config::FleetConfig;
use crate::journal::FleetJournal;
use crate::policy::PolicyKind;
use crate::sim::{run_fleet, RackReport};

/// One policy variant's outcome: its per-rack reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The routing policy that produced these reports.
    pub policy: PolicyKind,
    /// Per-rack outcome, in rack order.
    pub reports: Vec<RackReport>,
    /// Whether the reports were replayed from the journal instead of
    /// recomputed.
    pub replayed: bool,
}

/// Runs every [`PolicyKind`] over `config` on `workers` workers,
/// consulting `journal` for replay/append when given; what the
/// determinism tests drive so concurrent tests cannot flip each other's
/// pool sizes.
#[expect(
    clippy::expect_used,
    reason = "with `spec = None` no checkpoint I/O ever runs"
)]
pub fn fleet_comparison_with(
    workers: usize,
    config: &FleetConfig,
    journal: Option<&FleetJournal>,
) -> Vec<FleetOutcome> {
    fleet_comparison_checkpointed(workers, config, journal, None)
        .expect("infallible without a checkpoint spec")
}

/// [`fleet_comparison_with`] with durable mid-run checkpointing: each
/// policy variant saves its fleet + policy state every
/// [`CheckpointSpec::every_epochs`](crate::CheckpointSpec::every_epochs)
/// control epochs and, with restore enabled, resumes from the newest
/// verifiable checkpoint. Journal replay still wins over restore — a
/// *finished* variant never re-runs at all.
///
/// # Errors
///
/// Returns the first variant's [`CkptError`] when restore is requested
/// and that variant's checkpoint files exist but none verifies (or the
/// one that does was written by a different config). `spec = None` is
/// exactly the plain comparison and never errors.
pub fn fleet_comparison_checkpointed(
    workers: usize,
    config: &FleetConfig,
    journal: Option<&FleetJournal>,
    spec: Option<&CheckpointSpec>,
) -> Result<Vec<FleetOutcome>, CkptError> {
    config.validate();
    let outcomes = parallel_map_with(workers, PolicyKind::ALL.len(), |variant| {
        let kind = PolicyKind::ALL[variant];
        if let Some(reports) = journal.and_then(|j| j.replayed(variant)) {
            return Ok(FleetOutcome {
                policy: kind,
                reports,
                replayed: true,
            });
        }
        let mut policy = kind.build(config);
        let reports = match spec {
            Some(spec) => run_fleet_checkpointed(config, policy.as_mut(), spec)?,
            None => run_fleet(config, policy.as_mut()),
        };
        if let Some(journal) = journal {
            journal.append(variant, kind.name(), &reports);
        }
        Ok(FleetOutcome {
            policy: kind,
            reports,
            replayed: false,
        })
    });
    outcomes.into_iter().collect()
}

/// The comparison as a table, one row per (policy, rack) — the shape of
/// `results/fleet.csv`.
pub fn fleet_table(outcomes: &[FleetOutcome]) -> Table {
    let mut table = Table::new(vec![
        "policy",
        "rack",
        "machines",
        "peak_temp_C",
        "rms_temp_C",
        "trips",
        "requests",
        "good_frac",
        "p99_latency_s",
    ]);
    for outcome in outcomes {
        for report in &outcome.reports {
            table.row(vec![
                outcome.policy.name().to_string(),
                format!("{}", report.rack),
                format!("{}", report.machines),
                format!("{:.3}", report.peak_celsius),
                format!("{:.3}", report.rms_celsius),
                format!("{}", report.trips),
                format!("{}", report.requests),
                format!("{:.4}", report.good_fraction),
                match report.p99_latency_s {
                    Some(p99) => format!("{:.4}", p99),
                    None => "-".to_string(),
                },
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_sim_core::SimDuration;

    fn tiny_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::rack_scale(6, seed);
        config.machines_per_rack = 3;
        config.duration = SimDuration::from_secs(10);
        config
    }

    #[test]
    fn comparison_covers_every_policy_in_order() {
        let outcomes = fleet_comparison_with(2, &tiny_config(23), None);
        let names: Vec<&str> = outcomes.iter().map(|o| o.policy.name()).collect();
        assert_eq!(
            names,
            PolicyKind::ALL.map(PolicyKind::name).to_vec(),
            "outcomes reassemble in variant order"
        );
        assert!(outcomes.iter().all(|o| !o.replayed));
        assert!(outcomes.iter().all(|o| o.reports.len() == 2));
    }

    #[test]
    fn table_has_one_row_per_policy_rack_pair() {
        let outcomes = fleet_comparison_with(1, &tiny_config(29), None);
        let table = fleet_table(&outcomes);
        let csv = table.render_csv();
        // 1 header + 4 policies × 2 racks.
        assert_eq!(csv.lines().count(), 1 + 4 * 2);
        for kind in PolicyKind::ALL {
            assert!(csv.contains(kind.name()), "{} row missing", kind.name());
        }
    }

    #[test]
    fn journal_replay_reproduces_the_fresh_run_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!(
            "fleet-experiment-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let config = tiny_config(31);
        let journal = FleetJournal::open(&dir, config.fingerprint(), false);
        let fresh = fleet_comparison_with(3, &config, Some(&journal));
        drop(journal);

        let resumed_journal = FleetJournal::open(&dir, config.fingerprint(), true);
        assert_eq!(resumed_journal.replayed_count(), PolicyKind::ALL.len());
        let replayed = fleet_comparison_with(2, &config, Some(&resumed_journal));
        assert!(replayed.iter().all(|o| o.replayed));
        assert_eq!(
            fleet_table(&fresh).render_csv(),
            fleet_table(&replayed).render_csv(),
            "replayed comparison renders byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
