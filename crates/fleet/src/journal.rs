//! The fleet comparison's and chaos sweep's crash-resumable journals.
//!
//! Both are [`dimetrodon_ckpt::Journal`]s under `results/.journal/`: an
//! append-only log of checksummed frames, one record per completed unit,
//! floats as IEEE-754 bit patterns. The unit of the fleet journal (kind
//! `fleet`) is a whole policy variant, every [`RackReport`] of one
//! [`PolicyKind`] run, keyed by `fnv1a64` of the policy name; the unit of
//! the chaos journal (kind `fleet-chaos`) is one (intensity, policy) grid
//! point's [`ChaosMetrics`], keyed by `fnv1a64` of its
//! [`ChaosGrid::label`]. Keys, not write order, place a record, so worker
//! threads may append in completion order and a resumed run still
//! reassembles results in order. A torn or bit-flipped record ends the
//! replayed prefix: that record and the ones after it are recomputed,
//! never replayed with a changed value.
//!
//! A journal's identity is [`FleetConfig::fingerprint`](crate::FleetConfig::fingerprint)
//! or [`ChaosGrid::fingerprint`] — explicit byte-serialized identities,
//! not `Debug` renderings — folded with its record type's declared
//! schema, so a journal is never replayed against a config it does not
//! describe or into a record layout it was not written in.

use std::path::Path;

use dimetrodon_ckpt::{fnv1a64, Journal};

use crate::chaos::ChaosGrid;
use crate::policy::PolicyKind;
use crate::sim::{ChaosMetrics, RackReport};

/// A fleet comparison's journal: replayed variants loaded at open, live
/// appends one frame per completed variant.
#[derive(Debug)]
pub struct FleetJournal(Journal<Vec<RackReport>>);

impl FleetJournal {
    /// Opens the journal for `config_fingerprint` inside `dir`.
    ///
    /// With `resume` set, every record of the longest verifying prefix is
    /// loaded for replay, and new records append after that prefix.
    /// Without `resume`, any stale journal is truncated and the
    /// comparison starts fresh. I/O failures disable journaling with a
    /// warning instead of failing the run.
    pub fn open(dir: &Path, config_fingerprint: u64, resume: bool) -> FleetJournal {
        FleetJournal(Journal::open(dir, "fleet", config_fingerprint, resume))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.0.path()
    }

    /// Variants loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.0.replayed_count()
    }

    /// The replayed reports for a variant, if its record survived.
    pub fn replayed(&self, variant: usize) -> Option<Vec<RackReport>> {
        let kind = PolicyKind::ALL.get(variant)?;
        self.0.replayed(fnv1a64(kind.name().as_bytes())).cloned()
    }

    /// Appends one completed variant. Thread-safe; workers append in
    /// completion order.
    ///
    /// # Panics
    ///
    /// Panics if `policy` is not the name of variant `variant` — an entry
    /// written under the wrong identity would silently poison resumes.
    pub fn append(&self, variant: usize, policy: &str, reports: &[RackReport]) {
        assert_eq!(
            PolicyKind::ALL.get(variant).map(|kind| kind.name()),
            Some(policy),
            "fleet journal append under a policy name that is not its variant's"
        );
        self.0.append(fnv1a64(policy.as_bytes()), &reports.to_vec());
    }
}

/// A chaos sweep's journal: same replay and append discipline as
/// [`FleetJournal`], but the unit is one (intensity, policy) grid point
/// and the identity is the grid fingerprint (base config, every
/// synthetic plan's bytes, the recovery hysteresis).
#[derive(Debug)]
pub struct ChaosJournal {
    journal: Journal<ChaosMetrics>,
    /// The grid's label per point index, whose hash keys the point's
    /// record.
    labels: Vec<String>,
}

impl ChaosJournal {
    /// Opens the journal for `grid` inside `dir`; same resume contract
    /// as [`FleetJournal::open`].
    pub fn open(dir: &Path, grid: &ChaosGrid, resume: bool) -> ChaosJournal {
        ChaosJournal {
            journal: Journal::open(dir, "fleet-chaos", grid.fingerprint(), resume),
            labels: grid
                .points()
                .into_iter()
                .map(|(intensity, kind)| ChaosGrid::label(intensity, kind))
                .collect(),
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Points loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.journal.replayed_count()
    }

    /// The replayed metrics for a point, if its record survived.
    pub fn replayed(&self, index: usize) -> Option<ChaosMetrics> {
        let label = self.labels.get(index)?;
        self.journal.replayed(fnv1a64(label.as_bytes())).cloned()
    }

    /// Appends one completed point. Thread-safe; workers append in
    /// completion order.
    ///
    /// # Panics
    ///
    /// Panics if `label` is not the grid's label for `index` — an entry
    /// written under the wrong identity would silently poison resumes.
    pub fn append(&self, index: usize, label: &str, metrics: &ChaosMetrics) {
        assert_eq!(
            self.labels.get(index).map(String::as_str),
            Some(label),
            "chaos journal append under a label the grid does not own"
        );
        self.journal.append(fnv1a64(label.as_bytes()), metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;

    fn scratch(tag: u32) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fleet-journal-test-{}-{tag}", std::process::id()))
    }

    fn sample_reports() -> Vec<RackReport> {
        vec![
            RackReport {
                rack: 0,
                machines: 16,
                peak_celsius: 51.25,
                rms_celsius: 47.031,
                trips: 3,
                requests: 12_000,
                good_fraction: 0.9925,
                p99_latency_s: Some(2.75),
            },
            RackReport {
                rack: 1,
                machines: 2,
                peak_celsius: 40.0,
                rms_celsius: -0.0,
                trips: 0,
                requests: 0,
                good_fraction: f64::NAN,
                p99_latency_s: None,
            },
        ]
    }

    /// Bit-level equality, so `-0.0` and NaN count as round-tripped
    /// only when their bit patterns survive.
    fn bits(reports: &[RackReport]) -> Vec<[u64; 8]> {
        reports
            .iter()
            .map(|r| {
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

    #[test]
    fn entries_round_trip_bit_for_bit_and_the_latest_per_policy_wins() {
        let dir = scratch(line!());
        let journal = FleetJournal::open(&dir, 7, false);
        journal.append(2, "coolest-first", &sample_reports());
        journal.append(0, "round-robin", &sample_reports());
        journal.append(0, "round-robin", &sample_reports()[..1]);
        let resumed = FleetJournal::open(&dir, 7, true);
        assert_eq!(resumed.replayed_count(), 2);
        let replayed = |variant| resumed.replayed(variant).map(|reports| bits(&reports));
        assert_eq!(replayed(2), Some(bits(&sample_reports())));
        assert_eq!(replayed(0), Some(bits(&sample_reports()[..1])));
        assert_eq!(replayed(1), None);
        assert_eq!(replayed(PolicyKind::ALL.len()), None);
        // A fresh open truncates.
        assert_eq!(FleetJournal::open(&dir, 7, false).replayed_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_metrics() -> ChaosMetrics {
        ChaosMetrics {
            arrived_requests: 3600,
            shed_requests: 42,
            shed_fraction: 42.0 / 3600.0,
            arrived_cpu_s: 512.25,
            served_cpu_s: 430.5,
            shed_cpu_s: 11.75,
            capacity_mean: 0.96875,
            capacity_min: 0.75,
            healthy_epochs: 20,
            degraded_epochs: 10,
            p99_healthy_s: Some(1.5),
            p99_degraded_s: None,
            recoveries: 2,
            recovery_mean_s: Some(6.0),
            recovery_max_s: None,
            trips: 5,
            peak_celsius: 51.375,
        }
    }

    #[test]
    fn chaos_entries_round_trip_bit_for_bit() {
        let dir = scratch(line!());
        let grid = ChaosGrid::new(FleetConfig::quick(3), vec![0.0, 0.5]);
        let (intensity, kind) = grid.points()[5];
        let journal = ChaosJournal::open(&dir, &grid, false);
        journal.append(5, &ChaosGrid::label(intensity, kind), &sample_metrics());
        let resumed = ChaosJournal::open(&dir, &grid, true);
        assert_eq!(resumed.replayed_count(), 1);
        assert_eq!(resumed.replayed(5), Some(sample_metrics()));
        assert_eq!(resumed.replayed(4), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "not its variant's")]
    fn an_append_under_another_variants_policy_name_panics() {
        let dir = scratch(line!());
        let journal = FleetJournal::open(&dir, 7, false);
        // The append panics, so the directory goes first.
        std::fs::remove_dir_all(&dir).ok();
        journal.append(1, PolicyKind::ALL[0].name(), &sample_reports());
    }
}
