//! Property tests for the sweep supervisor (`harness::supervise`):
//!
//! * the journal preserves a whole [`RunOutcome`] bit-for-bit across
//!   arbitrary re-serialization cycles,
//!   and point fingerprints are a pure function of the point's fields;
//! * a run killed after *any* k of n journal records — including a torn
//!   final frame, as a SIGKILL mid-write leaves behind — resumes with
//!   `--resume` to outcomes bit-identical to an uninterrupted run, at
//!   every worker count;
//! * a journal damaged by a single-bit flip or a cut anywhere replays
//!   exactly the whole records before the damage, each bit-equal to what
//!   was written, and never a changed value;
//! * a chaos grid poisoning an intensity-controlled fraction of points
//!   (the robustness experiment's intensity knob turned on the harness
//!   itself) quarantines exactly the poisoned points and leaves every
//!   healthy point's measurements untouched.

#![allow(clippy::panic, reason = "test code: a panic is a failed test")]

use std::path::PathBuf;
use std::sync::Mutex;

use dimetrodon_ckpt::{journal_path, scan_journal};
use dimetrodon_harness::supervise::{
    fingerprint_point, fingerprint_sweep, run_supervised, take_incidents, take_replayed,
    IncidentKind, PointOutcome, SupervisorConfig, SweepJournal,
};
use dimetrodon_harness::sweep::{set_jobs, SweepPoint};
use dimetrodon_harness::{Actuation, RunConfig, RunOutcome, SaturatingWorkload};
use dimetrodon_sim_core::{derive_seed, SimDuration, SimTime, TimeSeries};
use proptest::prelude::*;

/// Tests that run sweeps share the process-global supervisor and jobs
/// state; serialize them so worker-count assertions stay meaningful.
static SWEEP_LOCK: Mutex<()> = Mutex::new(());

fn tiny_config(seed: u64) -> RunConfig {
    RunConfig {
        duration: SimDuration::from_secs(2),
        measure_window: SimDuration::from_secs(1),
        seed,
    }
}

fn tiny_point(seed: u64) -> SweepPoint {
    SweepPoint::new(SaturatingWorkload::CpuBurn, Actuation::None, tiny_config(seed))
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dimetrodon-supervise-prop-{}-{tag}", std::process::id()))
}

/// Bit-level equality of everything the journal preserves: the scalar
/// metrics, the injected idle count, the full observed dispatch curve,
/// and the temperature series with its name.
fn same_measurements(a: &RunOutcome, b: &RunOutcome) -> bool {
    let series = |o: &RunOutcome| {
        let samples: Vec<_> = o.temp_series.iter().map(|(t, v)| (t, v.to_bits())).collect();
        (o.temp_series.name().to_string(), samples)
    };
    series(a) == series(b)
        && a.idle_temp.to_bits() == b.idle_temp.to_bits()
        && a.tail_temp.to_bits() == b.tail_temp.to_bits()
        && a.throughput.to_bits() == b.throughput.to_bits()
        && a.injected_idles == b.injected_idles
        && a.observed_curve.len() == b.observed_curve.len()
        && a
            .observed_curve
            .iter()
            .zip(&b.observed_curve)
            .all(|((ta, va), (tb, vb))| ta.to_bits() == tb.to_bits() && va.to_bits() == vb.to_bits())
}

fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e9..1.0e9,
        -1.0e-12..1.0e-12,
        Just(0.0),
        Just(-0.0),
        Just(316.41948),
    ]
}

fn outcome_strategy() -> impl Strategy<Value = RunOutcome> {
    (
        finite_f64(),
        finite_f64(),
        finite_f64(),
        any::<u64>(),
        prop::collection::vec(32u8..127u8, 0..12),
        0usize..5,
        prop::collection::vec((finite_f64(), finite_f64()), 0..8),
    )
        .prop_map(
            |(idle, tail, throughput, idles, name_bytes, series_len, curve)| {
                let name: String = name_bytes.into_iter().map(char::from).collect();
                let mut series = TimeSeries::new(name);
                for i in 0..series_len {
                    series.push(SimTime::from_secs(i as u64), i as f64);
                }
                RunOutcome {
                    idle_temp: idle,
                    tail_temp: tail,
                    throughput,
                    temp_series: series,
                    observed_curve: curve,
                    injected_idles: idles,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Append → reopen → append → reopen: the fingerprint key and every
    /// journaled measurement survive arbitrary re-serialization cycles
    /// bit-for-bit (floats travel as IEEE-754 bit patterns, never through
    /// decimal — `-0.0` and subnormals included).
    #[test]
    fn journal_entry_measurements_survive_reserialization(
        fingerprint in any::<u64>(),
        outcome in outcome_strategy(),
    ) {
        let dir = scratch_dir(&format!("cycle-{fingerprint:016x}"));
        let sweep = fingerprint_sweep(&[tiny_point(fingerprint)]);
        let cycle = |outcome: &RunOutcome| {
            SweepJournal::open(&dir, "sweep", sweep, false).append(fingerprint, outcome);
            let reopened = SweepJournal::open(&dir, "sweep", sweep, true);
            assert_eq!(reopened.replayed_count(), 1);
            reopened.replayed(fingerprint).cloned()
        };
        let cycle1 = cycle(&outcome).expect("a fresh record must replay under its key");
        prop_assert!(same_measurements(&outcome, &cycle1), "first cycle lost bits");
        // A second cycle (a replayed point being re-journaled) is just as
        // lossless.
        let cycle2 = cycle(&cycle1).expect("a re-journaled record must replay");
        prop_assert!(same_measurements(&outcome, &cycle2), "second cycle lost bits");
        drop(std::fs::remove_dir_all(&dir));
    }

    /// Point fingerprints are a pure function of the point's fields: an
    /// independently reconstructed identical point fingerprints equal,
    /// any seed perturbation fingerprints different, and the sweep
    /// fingerprint is reproducible from a rebuilt grid.
    #[test]
    fn point_fingerprints_are_stable_and_discriminating(
        seed in any::<u64>(),
        perturb in 1u64..1000,
    ) {
        let a = tiny_point(seed);
        let rebuilt = tiny_point(seed);
        prop_assert_eq!(fingerprint_point(&a), fingerprint_point(&rebuilt));
        let other = tiny_point(seed.wrapping_add(perturb));
        prop_assert_ne!(fingerprint_point(&a), fingerprint_point(&other));
        prop_assert_eq!(
            fingerprint_sweep(&[a, other]),
            fingerprint_sweep(&[tiny_point(seed), tiny_point(seed.wrapping_add(perturb))])
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill-and-resume at any interrupt point: run a grid to completion,
    /// cut its journal back to the first `kill_after` records plus a torn
    /// fragment of the next frame, and resume. At every worker count the
    /// resumed outcomes are bit-identical to the uninterrupted run,
    /// exactly `kill_after` points are replayed rather than recomputed,
    /// and the journal ends up complete again.
    #[test]
    fn any_interrupt_point_resumes_bit_identical_at_every_worker_count(
        kill_after in 0usize..=4,
        seed in 0u64..1000,
    ) {
        const POINTS: usize = 4;
        let guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let points: Vec<SweepPoint> = (0..POINTS as u64)
            .map(|i| tiny_point(derive_seed(seed, i)))
            .collect();
        let sweep = fingerprint_sweep(&points);

        // Uninterrupted reference run, journaling to a scratch dir.
        let ref_dir = scratch_dir(&format!("ref-{seed}-{kill_after}"));
        drop(std::fs::remove_dir_all(&ref_dir));
        set_jobs(2);
        let reference = run_supervised(
            &points,
            &SupervisorConfig {
                journal_dir: Some(ref_dir.clone()),
                ..SupervisorConfig::default()
            },
        );
        prop_assert!(reference.iter().all(PointOutcome::is_ok));

        // "Kill" the run after `kill_after` records: keep the header and
        // the first records (journal order is completion order, not grid
        // order), then tear the next frame in half as SIGKILL would.
        let bytes =
            std::fs::read(journal_path(&ref_dir, "sweep", sweep)).expect("reference journal");
        let scan = scan_journal(&bytes).expect("reference journal verifies");
        prop_assert_eq!(scan.records.len(), POINTS);
        let cut = match scan.record_ends.get(kill_after) {
            Some(&end) => end - (scan.records[kill_after].len() + 12) / 2,
            None => bytes.len(),
        };
        let kept = &bytes[..cut];

        for workers in [1, 2, 3] {
            let dir = scratch_dir(&format!("resume-{seed}-{kill_after}-{workers}"));
            drop(std::fs::remove_dir_all(&dir));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            std::fs::write(journal_path(&dir, "sweep", sweep), kept)
                .expect("write truncated journal");
            set_jobs(workers);
            take_replayed();
            let resumed = run_supervised(
                &points,
                &SupervisorConfig {
                    journal_dir: Some(dir.clone()),
                    resume: true,
                    ..SupervisorConfig::default()
                },
            );
            prop_assert_eq!(take_replayed(), kill_after, "replay count at {workers} workers");
            for (i, (r, o)) in reference.iter().zip(&resumed).enumerate() {
                match (r, o) {
                    (PointOutcome::Ok(a), PointOutcome::Ok(b)) => prop_assert!(
                        same_measurements(a, b),
                        "point {i} diverged at {workers} workers"
                    ),
                    _ => prop_assert!(false, "point {i} did not complete"),
                }
            }
            // The resumed run cut the torn frame off and appended after
            // the intact records: every point replays with the reference
            // measurements, so a *second* resume would be pure replay.
            let healed = SweepJournal::open(&dir, "sweep", sweep, true);
            prop_assert_eq!(healed.replayed_count(), POINTS);
            for (point, outcome) in points.iter().zip(&reference) {
                let PointOutcome::Ok(outcome) = outcome else {
                    unreachable!("checked above")
                };
                let replayed = healed.replayed(fingerprint_point(point));
                prop_assert!(
                    replayed.is_some_and(|r| same_measurements(outcome, r)),
                    "healed journal diverged at {workers} workers"
                );
            }
            drop(std::fs::remove_dir_all(&dir));
        }
        drop(std::fs::remove_dir_all(&ref_dir));
        drop(guard);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos: poison a deterministic, intensity-controlled fraction of a
    /// grid with invalid machine configs (each poisoned point panics in
    /// `build_system_on`). The supervisor must quarantine exactly the
    /// poisoned points, record one incident each, and deliver every
    /// healthy point with exactly the measurements an all-healthy run
    /// produces.
    #[test]
    fn chaos_grid_quarantines_exactly_the_poisoned_points(
        intensity in 0.0f64..=1.0,
        seed in 0u64..1000,
    ) {
        const POINTS: usize = 5;
        let guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Deterministic chaos, the robustness experiment's way: point i
        // is poisoned iff its seed-derived draw falls below `intensity`.
        let poisoned: Vec<bool> = (0..POINTS as u64)
            .map(|i| (derive_seed(seed, i) as f64 / u64::MAX as f64) < intensity)
            .collect();
        let healthy: Vec<SweepPoint> = (0..POINTS as u64)
            .map(|i| tiny_point(derive_seed(seed ^ 0xC4A0, i)))
            .collect();
        let chaos: Vec<SweepPoint> = healthy
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut point = p.clone();
                if poisoned[i] {
                    point.machine.num_cores = 0;
                }
                point
            })
            .collect();

        set_jobs(2);
        drop(take_incidents());
        let reference = run_supervised(&healthy, &SupervisorConfig::default());
        drop(take_incidents());
        let outcomes = run_supervised(&chaos, &SupervisorConfig::default());
        let incidents = take_incidents();

        let expected = poisoned.iter().filter(|&&p| p).count();
        prop_assert_eq!(incidents.len(), expected);
        for incident in &incidents {
            prop_assert_eq!(incident.kind, IncidentKind::Quarantined);
            prop_assert!(poisoned[incident.point], "healthy point {} reported", incident.point);
        }
        for (i, (r, o)) in reference.iter().zip(&outcomes).enumerate() {
            match (poisoned[i], o) {
                (true, PointOutcome::Panicked { msg }) => prop_assert!(
                    msg.contains("machine config is valid"),
                    "unexpected panic payload: {msg}"
                ),
                (false, PointOutcome::Ok(b)) => match r {
                    PointOutcome::Ok(a) => prop_assert!(
                        same_measurements(a, b),
                        "healthy point {i} diverged under chaos"
                    ),
                    _ => prop_assert!(false, "reference point {i} failed"),
                },
                _ => prop_assert!(false, "point {i} landed in the wrong outcome class"),
            }
        }
        drop(guard);
    }
}

/// Every measurement of every outcome at full precision, one row per
/// point — the sweep's CSV, with nothing rounded away.
fn outcomes_csv(outcomes: &[PointOutcome]) -> String {
    let mut csv = String::from("point,idle,tail,throughput,injected_idles,curve\n");
    for (i, outcome) in outcomes.iter().enumerate() {
        let PointOutcome::Ok(o) = outcome else {
            panic!("point {i} did not complete")
        };
        csv.push_str(&format!(
            "{i},{:?},{:?},{:?},{},{:?}\n",
            o.idle_temp, o.tail_temp, o.throughput, o.injected_idles, o.observed_curve
        ));
    }
    csv
}

/// Damage anywhere in a sweep journal — a single-bit flip at every byte
/// (the bit cycling with the offset) or a cut at every byte offset —
/// replays exactly the whole records before the damage, each bit-equal
/// to what the run wrote. One flip and one cut then go through a full
/// resume whose CSV equals the undamaged run's at one and three workers.
#[test]
fn a_damaged_sweep_journal_replays_exactly_the_records_before_the_damage() {
    let guard = SWEEP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let points: Vec<SweepPoint> = (0..3).map(|i| tiny_point(900 + i)).collect();
    let dir = scratch_dir("damage");
    drop(std::fs::remove_dir_all(&dir));
    let config = SupervisorConfig {
        journal_dir: Some(dir.clone()),
        ..SupervisorConfig::default()
    };
    // One worker journals in point order, so record k is point k.
    set_jobs(1);
    let reference = run_supervised(&points, &config);
    let reference_csv = outcomes_csv(&reference);
    let sweep = fingerprint_sweep(&points);
    let path = journal_path(&dir, "sweep", sweep);
    let bytes = std::fs::read(&path).expect("journal written");
    let ends = scan_journal(&bytes).expect("journal verifies").record_ends;
    assert_eq!(ends.len(), points.len());

    let replays_prefix = |damaged: &[u8], damaged_at: usize| {
        std::fs::write(&path, damaged).expect("write damaged journal");
        let journal = SweepJournal::open(&dir, "sweep", sweep, true);
        let intact = ends.iter().filter(|&&end| end <= damaged_at).count();
        assert_eq!(journal.replayed_count(), intact, "damage at byte {damaged_at}");
        for (point, outcome) in points.iter().zip(&reference).take(intact) {
            let PointOutcome::Ok(written) = outcome else {
                unreachable!("the reference completed")
            };
            let replayed = journal.replayed(fingerprint_point(point));
            assert!(
                replayed.is_some_and(|r| same_measurements(written, r)),
                "damage at byte {damaged_at} changed a replayed value"
            );
        }
    };
    for offset in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[offset] ^= 1 << (offset % 8);
        replays_prefix(&flipped, offset);
        replays_prefix(&bytes[..offset], offset);
    }

    // A flip inside the second record's payload and a cut inside the
    // third record's frame, resumed for real.
    let mut flipped = bytes.clone();
    flipped[ends[1] - 12] ^= 0x10;
    for (damaged, replayed) in [(flipped, 1), (bytes[..ends[2] - 5].to_vec(), 2)] {
        for workers in [1, 3] {
            std::fs::write(&path, &damaged).expect("write damaged journal");
            set_jobs(workers);
            take_replayed();
            let resumed = run_supervised(
                &points,
                &SupervisorConfig {
                    resume: true,
                    ..config.clone()
                },
            );
            assert_eq!(take_replayed(), replayed, "replays at {workers} workers");
            assert_eq!(outcomes_csv(&resumed), reference_csv, "CSV at {workers} workers");
        }
    }
    drop(std::fs::remove_dir_all(&dir));
    drop(guard);
}
