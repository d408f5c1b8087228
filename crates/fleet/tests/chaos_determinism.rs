//! Chaos determinism contract: a chaos sweep is a pure function of its
//! [`ChaosGrid`] — worker count, the harness snapshot cache, and
//! journal-based resume (including resume from a torn journal tail, the
//! on-disk shape a mid-comparison SIGKILL leaves, and over bit flips, see
//! `journal_damage.rs`) must all be invisible in the output, byte for
//! byte, even while machines are crashing, restarting cold, and being
//! failed over around.

use std::fs;

use dimetrodon_ckpt::scan_journal;
use dimetrodon_faults::{FleetFaultKind, FleetFaultPlan, FleetTarget};
use dimetrodon_fleet::{
    chaos_comparison_with, chaos_journal_path, chaos_table, fleet_comparison_with, fleet_table,
    ChaosGrid, ChaosJournal, FleetConfig, FleetJournal, PolicyKind, RECOVERY_HYSTERESIS_EPOCHS,
};
use dimetrodon_harness::snapshot;
use dimetrodon_sim_core::{SimDuration, SimTime};

/// The suite's reference fleet: 64 machines (four racks), shortened to
/// 15 control epochs so the whole file runs in seconds.
fn suite_config() -> FleetConfig {
    let mut config = FleetConfig::rack_scale(64, 9001);
    config.duration = SimDuration::from_secs(15);
    config
}

/// The reference grid: the no-failure control plus full intensity, so
/// every point class (clean, crashing, CRAC-degraded, wedged) is
/// exercised across all four routing policies — eight points.
fn suite_grid() -> ChaosGrid {
    ChaosGrid::new(suite_config(), vec![0.0, 1.0])
}

/// The canonical serialization compared across every axis below.
fn chaos_csv(workers: usize, journal: Option<&ChaosJournal>) -> String {
    let outcomes = chaos_comparison_with(workers, &suite_grid(), journal);
    chaos_table(&outcomes).render_csv()
}

#[test]
fn worker_count_is_invisible_in_the_chaos_output() {
    let reference = chaos_csv(1, None);
    assert!(reference.contains("round-robin"), "sanity: CSV has rows");
    assert!(
        reference.lines().count() > PolicyKind::ALL.len(),
        "sanity: both intensities produced rows"
    );
    for workers in [2, 3, 7] {
        assert_eq!(
            chaos_csv(workers, None),
            reference,
            "chaos CSV must be bit-identical at {workers} workers"
        );
    }
}

#[test]
fn snapshot_cache_state_is_invisible_in_the_chaos_output() {
    // The cache toggle is process-global; run both arms back to back and
    // restore the entry state whatever it was.
    let was_enabled = snapshot::enabled();
    snapshot::set_enabled(true);
    let with_cache = chaos_csv(2, None);
    snapshot::set_enabled(false);
    let without_cache = chaos_csv(2, None);
    snapshot::set_enabled(was_enabled);
    assert_eq!(
        with_cache, without_cache,
        "chaos CSV must not depend on the snapshot cache"
    );
}

#[test]
fn a_chaos_journal_for_a_different_grid_is_never_replayed() {
    let grid = suite_grid();
    let other = ChaosGrid::new(suite_config(), vec![0.0, 0.5]);
    assert_ne!(grid.fingerprint(), other.fingerprint());
    let dir = std::env::temp_dir().join(format!(
        "chaos-determinism-xgrid-{}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).expect("create journal dir");
    assert_ne!(
        chaos_journal_path(&dir, grid.fingerprint()),
        chaos_journal_path(&dir, other.fingerprint()),
        "fingerprinted filenames keep grids apart"
    );

    let other_journal = ChaosJournal::open(&dir, &other, false);
    let outcomes = chaos_comparison_with(2, &other, Some(&other_journal));
    assert_eq!(outcomes.len(), other.points().len());
    drop(other_journal);

    let mine = ChaosJournal::open(&dir, &grid, true);
    assert_eq!(mine.replayed_count(), 0, "a different grid must not replay");

    fs::remove_dir_all(&dir).expect("remove journal dir");
}

/// The *standard* fleet comparison with a non-empty chaos plan in its
/// config journals under a chaos-aware fingerprint and resumes byte for
/// byte — crashing machines do not weaken the resume contract of the
/// pre-existing journal format.
#[test]
fn planned_chaos_comparison_resumes_byte_identically() {
    let mut config = suite_config();
    config.chaos = FleetFaultPlan::new()
        .with(
            SimTime::ZERO + SimDuration::from_secs(3),
            FleetTarget::Machine(5),
            FleetFaultKind::Crash,
            Some(SimDuration::from_secs(4)),
        )
        .with(
            SimTime::ZERO + SimDuration::from_secs(6),
            FleetTarget::Rack(1),
            FleetFaultKind::Crac { recirc_scale: 2.0, inlet_delta_celsius: 3.0 },
            Some(SimDuration::from_secs(5)),
        );
    assert_ne!(
        config.fingerprint(),
        suite_config().fingerprint(),
        "a scheduled plan must move the fingerprint"
    );
    const { assert!(RECOVERY_HYSTERESIS_EPOCHS > 0, "sanity: hysteresis configured") };

    let dir = std::env::temp_dir().join(format!(
        "chaos-determinism-plan-{}-{:016x}",
        std::process::id(),
        config.fingerprint()
    ));
    fs::create_dir_all(&dir).expect("create journal dir");

    let journal = FleetJournal::open(&dir, config.fingerprint(), false);
    let reference = fleet_table(&fleet_comparison_with(1, &config, Some(&journal))).render_csv();
    let path = journal.path().to_path_buf();
    drop(journal);

    // Kill shape: the first record whole, the second torn mid-frame.
    let full = fs::read(&path).expect("read journal");
    let ends = scan_journal(&full).expect("journal verifies").record_ends;
    assert_eq!(ends.len(), PolicyKind::ALL.len());
    fs::write(&path, &full[..(ends[0] + ends[1]) / 2]).expect("write torn journal");

    let resumed = FleetJournal::open(&dir, config.fingerprint(), true);
    assert_eq!(resumed.replayed_count(), 1);
    let after = fleet_table(&fleet_comparison_with(3, &config, Some(&resumed))).render_csv();
    assert_eq!(after, reference, "chaos-planned comparison must resume byte for byte");

    fs::remove_dir_all(&dir).expect("remove journal dir");
}
