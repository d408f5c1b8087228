//! Fleet determinism contract: a fleet comparison is a pure function of
//! its [`FleetConfig`] — worker count and journal-based resume (including
//! resume over a damaged journal, see `journal_damage.rs`) must both be
//! invisible in the output, byte for byte.

use std::fs;
use std::io::Write as _;

use dimetrodon_fleet::{fleet_comparison_with, fleet_table, FleetConfig, FleetJournal, PolicyKind};
use dimetrodon_sim_core::SimDuration;

/// The suite's reference fleet: 64 machines (four racks), shortened to
/// 15 control epochs so the whole file runs in seconds.
fn suite_config() -> FleetConfig {
    let mut config = FleetConfig::rack_scale(64, 9001);
    config.duration = SimDuration::from_secs(15);
    config
}

/// The canonical serialization compared across every axis below.
fn comparison_csv(workers: usize, journal: Option<&FleetJournal>) -> String {
    let config = suite_config();
    let outcomes = fleet_comparison_with(workers, &config, journal);
    fleet_table(&outcomes).render_csv()
}

#[test]
fn worker_count_is_invisible_in_the_output() {
    let reference = comparison_csv(1, None);
    assert!(reference.contains("round-robin"), "sanity: CSV has rows");
    for workers in [2, 3, 7] {
        assert_eq!(
            comparison_csv(workers, None),
            reference,
            "fleet CSV must be bit-identical at {workers} workers"
        );
    }
}

#[test]
fn a_journal_for_a_different_config_is_never_replayed() {
    let config = suite_config();
    let mut other = suite_config();
    other.seed ^= 1;
    assert_ne!(config.fingerprint(), other.fingerprint());

    let dir = std::env::temp_dir().join(format!(
        "fleet-determinism-xseed-{}",
        std::process::id()
    ));
    fs::create_dir_all(&dir).expect("create journal dir");

    // Populate a journal for `other`, then open `config`'s journal in the
    // same directory: the fingerprinted filename keeps them apart.
    let other_journal = FleetJournal::open(&dir, other.fingerprint(), false);
    let outcomes = fleet_comparison_with(1, &other, Some(&other_journal));
    assert_eq!(outcomes.len(), PolicyKind::ALL.len());
    let path = other_journal.path().to_path_buf();
    drop(other_journal);

    let mine = FleetJournal::open(&dir, config.fingerprint(), true);
    assert_eq!(mine.replayed_count(), 0, "a different config must not replay");
    drop(mine);

    // Garbage appended after the valid records ends the journal there
    // without poisoning the records before it.
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open journal for append");
    writeln!(file, "variant not-a-number bogus").expect("append garbage");
    drop(file);
    let reopened = FleetJournal::open(&dir, other.fingerprint(), true);
    assert_eq!(reopened.replayed_count(), PolicyKind::ALL.len());

    fs::remove_dir_all(&dir).expect("remove journal dir");
}
