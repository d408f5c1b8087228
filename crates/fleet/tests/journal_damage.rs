//! Journal damage contract for the fleet comparison and the chaos sweep:
//! a journal hit by a single-bit flip or cut short anywhere — the shapes
//! a bad disk and a mid-write SIGKILL leave behind — replays exactly the
//! whole records before the damage, each bit-equal to what the run
//! wrote, and never a changed value. A resume over such a journal
//! recomputes the rest and reproduces the undamaged run's CSV byte for
//! byte at every worker count.

use std::fs;
use std::path::Path;

use dimetrodon_ckpt::scan_journal;
use dimetrodon_fleet::{
    chaos_comparison_with, chaos_table, fleet_comparison_with, fleet_table, ChaosGrid,
    ChaosJournal, ChaosMetrics, FleetConfig, FleetJournal, PolicyKind, RackReport,
};
use dimetrodon_sim_core::SimDuration;

/// The suites' reference fleet: 64 machines (four racks), shortened to
/// 15 control epochs.
fn suite_config() -> FleetConfig {
    let mut config = FleetConfig::rack_scale(64, 9001);
    config.duration = SimDuration::from_secs(15);
    config
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fleet-journal-damage-{}-{tag}", std::process::id()));
    drop(fs::remove_dir_all(&dir));
    dir
}

/// The bytes of an intact journal and the end offset of each record.
fn intact_journal(path: &Path) -> (Vec<u8>, Vec<usize>) {
    let bytes = fs::read(path).expect("journal written");
    let scan = scan_journal(&bytes).expect("journal verifies");
    assert_eq!(scan.valid_len, bytes.len(), "journal is intact");
    (bytes, scan.record_ends)
}

/// Writes every single-bit flip of `bytes` (one per byte, the bit
/// cycling with the offset) and every cut of it to `path` in turn, and
/// after each calls `check` with the number of records whose frames end
/// at or before the damaged byte — the records that must replay.
fn damage_everywhere(path: &Path, bytes: &[u8], ends: &[usize], mut check: impl FnMut(usize)) {
    for offset in 0..bytes.len() {
        let intact = ends.iter().filter(|&&end| end <= offset).count();
        let mut flipped = bytes.to_vec();
        flipped[offset] ^= 1 << (offset % 8);
        fs::write(path, &flipped).expect("write flipped journal");
        check(intact);
        fs::write(path, &bytes[..offset]).expect("write cut journal");
        check(intact);
    }
}

/// The two damages that go through a full resume, with the records each
/// leaves intact: a flip inside the second record's payload and a cut
/// inside the third record's frame.
fn resume_damages(bytes: &[u8], ends: &[usize]) -> [(Vec<u8>, usize); 2] {
    let mut flipped = bytes.to_vec();
    flipped[ends[1] - 12] ^= 0x10;
    [(flipped, 1), (bytes[..ends[2] - 5].to_vec(), 2)]
}

fn report_bits(reports: &[RackReport]) -> Vec<u64> {
    reports
        .iter()
        .flat_map(|r| {
            [
                r.rack as u64,
                r.machines as u64,
                r.peak_celsius.to_bits(),
                r.rms_celsius.to_bits(),
                r.trips,
                r.requests,
                r.good_fraction.to_bits(),
                r.p99_latency_s.map_or(1, f64::to_bits),
            ]
        })
        .collect()
}

fn metric_bits(m: &ChaosMetrics) -> Vec<u64> {
    let opt = |v: Option<f64>| v.map_or(1, f64::to_bits);
    vec![
        m.arrived_requests,
        m.shed_requests,
        m.shed_fraction.to_bits(),
        m.arrived_cpu_s.to_bits(),
        m.served_cpu_s.to_bits(),
        m.shed_cpu_s.to_bits(),
        m.capacity_mean.to_bits(),
        m.capacity_min.to_bits(),
        m.healthy_epochs,
        m.degraded_epochs,
        opt(m.p99_healthy_s),
        opt(m.p99_degraded_s),
        m.recoveries,
        opt(m.recovery_mean_s),
        opt(m.recovery_max_s),
        m.trips,
        m.peak_celsius.to_bits(),
    ]
}

#[test]
fn a_damaged_fleet_journal_replays_exactly_the_variants_before_the_damage() {
    let config = suite_config();
    let dir = scratch_dir("fleet");
    let journal = FleetJournal::open(&dir, config.fingerprint(), false);
    // One worker journals in variant order, so record k is variant k.
    let reference = fleet_comparison_with(1, &config, Some(&journal));
    let reference_csv = fleet_table(&reference).render_csv();
    let path = journal.path().to_path_buf();
    drop(journal);
    let (bytes, ends) = intact_journal(&path);
    assert_eq!(ends.len(), PolicyKind::ALL.len());

    damage_everywhere(&path, &bytes, &ends, |intact| {
        let journal = FleetJournal::open(&dir, config.fingerprint(), true);
        assert_eq!(journal.replayed_count(), intact);
        for (variant, outcome) in reference.iter().enumerate().take(intact) {
            let replayed = journal.replayed(variant).expect("intact variant replays");
            assert_eq!(report_bits(&replayed), report_bits(&outcome.reports));
        }
    });

    for (damaged, intact) in resume_damages(&bytes, &ends) {
        for workers in [1, 3] {
            fs::write(&path, &damaged).expect("write damaged journal");
            let journal = FleetJournal::open(&dir, config.fingerprint(), true);
            let outcomes = fleet_comparison_with(workers, &config, Some(&journal));
            assert_eq!(outcomes.iter().filter(|o| o.replayed).count(), intact);
            assert_eq!(
                fleet_table(&outcomes).render_csv(),
                reference_csv,
                "resume over damage must reproduce the run at {workers} workers"
            );
        }
    }
    // The last resume cut the damage off and appended after the intact
    // records: a second resume is pure replay.
    let healed = FleetJournal::open(&dir, config.fingerprint(), true);
    assert_eq!(healed.replayed_count(), PolicyKind::ALL.len());
    fs::remove_dir_all(&dir).expect("remove journal dir");
}

#[test]
fn a_damaged_chaos_journal_replays_exactly_the_points_before_the_damage() {
    // Full intensity across the four policies: every point crashes
    // machines, degrades a CRAC, and wedges controllers.
    let grid = ChaosGrid::new(suite_config(), vec![1.0]);
    let dir = scratch_dir("chaos");
    let journal = ChaosJournal::open(&dir, &grid, false);
    // One worker journals in grid order, so record k is point k.
    let reference = chaos_comparison_with(1, &grid, Some(&journal));
    let reference_csv = chaos_table(&reference).render_csv();
    let path = journal.path().to_path_buf();
    drop(journal);
    let (bytes, ends) = intact_journal(&path);
    assert_eq!(ends.len(), grid.points().len());

    damage_everywhere(&path, &bytes, &ends, |intact| {
        let journal = ChaosJournal::open(&dir, &grid, true);
        assert_eq!(journal.replayed_count(), intact);
        for (index, outcome) in reference.iter().enumerate().take(intact) {
            let replayed = journal.replayed(index).expect("intact point replays");
            assert_eq!(metric_bits(&replayed), metric_bits(&outcome.metrics));
        }
    });

    for (damaged, intact) in resume_damages(&bytes, &ends) {
        for workers in [1, 3] {
            fs::write(&path, &damaged).expect("write damaged journal");
            let journal = ChaosJournal::open(&dir, &grid, true);
            let outcomes = chaos_comparison_with(workers, &grid, Some(&journal));
            assert_eq!(outcomes.iter().filter(|o| o.replayed).count(), intact);
            assert_eq!(
                chaos_table(&outcomes).render_csv(),
                reference_csv,
                "resume over damage must reproduce the sweep at {workers} workers"
            );
        }
    }
    let healed = ChaosJournal::open(&dir, &grid, true);
    assert_eq!(healed.replayed_count(), grid.points().len());
    fs::remove_dir_all(&dir).expect("remove journal dir");
}
