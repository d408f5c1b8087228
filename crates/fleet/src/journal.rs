//! The fleet comparison's and chaos sweep's crash-resumable journals.
//!
//! Both are [`dimetrodon_ckpt::Journal`]s under `results/.journal/`: an
//! append-only log of checksummed frames, one record per completed unit,
//! floats as IEEE-754 bit patterns. The unit of the fleet journal is a
//! whole policy variant (every rack report of one
//! [`PolicyKind`](crate::PolicyKind) run); the unit of the chaos journal
//! is one (intensity, policy) grid point. Records are keyed by variant or
//! point index, so worker threads may append in completion order and a
//! resumed run still reassembles results in order. A torn or bit-flipped
//! record ends the replayed prefix: that record and the ones after it
//! are recomputed, never replayed with a changed value.
//!
//! The file name embeds [`FleetConfig::fingerprint`](crate::FleetConfig::fingerprint)
//! or [`ChaosGrid::fingerprint`] — explicit byte-serialized identities,
//! not `Debug` renderings — and the header frame repeats it, so a
//! journal can never be replayed against a config it does not describe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use dimetrodon_ckpt::{CkptError, Dec, Enc, Journal};

use crate::chaos::ChaosGrid;
use crate::policy::PolicyKind;
use crate::sim::{ChaosMetrics, RackReport};

/// The journal file path for a fleet comparison inside `dir`.
pub fn journal_path(dir: &Path, config_fingerprint: u64) -> PathBuf {
    dir.join(format!("fleet-{config_fingerprint:016x}.journal"))
}

/// A fleet comparison's journal: replayed variants loaded at open, live
/// appends one frame per completed variant.
#[derive(Debug)]
pub struct FleetJournal {
    journal: Journal,
    entries: BTreeMap<usize, Vec<RackReport>>,
}

impl FleetJournal {
    /// Opens the journal for `config_fingerprint` inside `dir`.
    ///
    /// With `resume` set, every record of the longest verifying prefix
    /// whose variant index names a known [`PolicyKind`] with a matching
    /// name is loaded for replay, and new records append after that
    /// prefix. Without `resume`, any stale journal is truncated and the
    /// comparison starts fresh. I/O failures disable journaling with a
    /// warning instead of failing the run.
    pub fn open(dir: &Path, config_fingerprint: u64, resume: bool) -> FleetJournal {
        let path = journal_path(dir, config_fingerprint);
        let (journal, records) = Journal::open(&path, "fleet", config_fingerprint, resume);
        // Later records win, matching append order.
        let entries = records
            .iter()
            .filter_map(|record| decode_variant(record).ok())
            .collect();
        FleetJournal { journal, entries }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Variants loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.entries.len()
    }

    /// The replayed reports for a variant, if its record survived.
    pub fn replayed(&self, variant: usize) -> Option<Vec<RackReport>> {
        self.entries.get(&variant).cloned()
    }

    /// Appends one completed variant. Thread-safe; workers append in
    /// completion order.
    pub fn append(&self, variant: usize, policy: &str, reports: &[RackReport]) {
        let mut enc = Enc::new();
        enc.seq_len(variant);
        enc.bytes(policy.as_bytes());
        enc.seq_len(reports.len());
        for report in reports {
            enc.seq_len(report.machines);
            enc.f64(report.peak_celsius);
            enc.f64(report.rms_celsius);
            enc.u64(report.trips);
            enc.u64(report.requests);
            enc.f64(report.good_fraction);
            enc.opt_f64(report.p99_latency_s);
        }
        self.journal.append(&enc.into_bytes());
    }
}

/// Decodes one [`FleetJournal::append`] record; a record whose policy
/// name is not its variant index's is from an incompatible policy set
/// and is rejected.
fn decode_variant(record: &[u8]) -> Result<(usize, Vec<RackReport>), CkptError> {
    let mut dec = Dec::new(record);
    let variant = dec.seq_len()?;
    let policy = dec.bytes()?;
    if PolicyKind::ALL.get(variant).map(|kind| kind.name().as_bytes()) != Some(policy) {
        return Err(CkptError::Malformed("unknown policy variant".into()));
    }
    let reports = (0..dec.seq_len()?)
        .map(|rack| {
            Ok(RackReport {
                rack,
                machines: dec.seq_len()?,
                peak_celsius: dec.f64()?,
                rms_celsius: dec.f64()?,
                trips: dec.u64()?,
                requests: dec.u64()?,
                good_fraction: dec.f64()?,
                p99_latency_s: dec.opt_f64()?,
            })
        })
        .collect::<Result<Vec<_>, CkptError>>()?;
    dec.finish()?;
    Ok((variant, reports))
}

/// The journal file path for a chaos sweep inside `dir`.
pub fn chaos_journal_path(dir: &Path, grid_fingerprint: u64) -> PathBuf {
    dir.join(format!("fleet-chaos-{grid_fingerprint:016x}.journal"))
}

/// A chaos sweep's journal: same replay and append discipline as
/// [`FleetJournal`], but the unit is one (intensity, policy) grid point
/// and the identity is the grid fingerprint (base config, every
/// synthetic plan's bytes, the recovery hysteresis).
#[derive(Debug)]
pub struct ChaosJournal {
    journal: Journal,
    /// Expected label per point index, from the grid; records whose
    /// label disagrees are from an incompatible grid and never replay.
    labels: Vec<String>,
    entries: BTreeMap<usize, ChaosMetrics>,
}

impl ChaosJournal {
    /// Opens the journal for `grid` inside `dir`; same resume contract
    /// as [`FleetJournal::open`].
    pub fn open(dir: &Path, grid: &ChaosGrid, resume: bool) -> ChaosJournal {
        let fingerprint = grid.fingerprint();
        let path = chaos_journal_path(dir, fingerprint);
        let (journal, records) = Journal::open(&path, "fleet-chaos", fingerprint, resume);
        let labels: Vec<String> = grid
            .points()
            .into_iter()
            .map(|(intensity, kind)| ChaosGrid::label(intensity, kind))
            .collect();
        let entries = records
            .iter()
            .filter_map(|record| decode_point(record, &labels).ok())
            .collect();
        ChaosJournal {
            journal,
            labels,
            entries,
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Points loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.entries.len()
    }

    /// The replayed metrics for a point, if its record survived.
    pub fn replayed(&self, index: usize) -> Option<ChaosMetrics> {
        self.entries.get(&index).cloned()
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
        let m = metrics;
        let mut enc = Enc::new();
        enc.seq_len(index);
        enc.bytes(label.as_bytes());
        enc.u64(m.arrived_requests);
        enc.u64(m.shed_requests);
        enc.f64(m.shed_fraction);
        enc.f64(m.arrived_cpu_s);
        enc.f64(m.served_cpu_s);
        enc.f64(m.shed_cpu_s);
        enc.f64(m.capacity_mean);
        enc.f64(m.capacity_min);
        enc.u64(m.healthy_epochs);
        enc.u64(m.degraded_epochs);
        enc.opt_f64(m.p99_healthy_s);
        enc.opt_f64(m.p99_degraded_s);
        enc.u64(m.recoveries);
        enc.opt_f64(m.recovery_mean_s);
        enc.opt_f64(m.recovery_max_s);
        enc.u64(m.trips);
        enc.f64(m.peak_celsius);
        self.journal.append(&enc.into_bytes());
    }
}

/// Decodes one [`ChaosJournal::append`] record; a record whose label is
/// not the grid's label for its index is rejected.
fn decode_point(record: &[u8], labels: &[String]) -> Result<(usize, ChaosMetrics), CkptError> {
    let mut dec = Dec::new(record);
    let index = dec.seq_len()?;
    if labels.get(index).map(String::as_bytes) != Some(dec.bytes()?) {
        return Err(CkptError::Malformed("label not in this grid".into()));
    }
    let metrics = ChaosMetrics {
        arrived_requests: dec.u64()?,
        shed_requests: dec.u64()?,
        shed_fraction: dec.f64()?,
        arrived_cpu_s: dec.f64()?,
        served_cpu_s: dec.f64()?,
        shed_cpu_s: dec.f64()?,
        capacity_mean: dec.f64()?,
        capacity_min: dec.f64()?,
        healthy_epochs: dec.u64()?,
        degraded_epochs: dec.u64()?,
        p99_healthy_s: dec.opt_f64()?,
        p99_degraded_s: dec.opt_f64()?,
        recoveries: dec.u64()?,
        recovery_mean_s: dec.opt_f64()?,
        recovery_max_s: dec.opt_f64()?,
        trips: dec.u64()?,
        peak_celsius: dec.f64()?,
    };
    dec.finish()?;
    Ok((index, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;

    fn scratch(tag: u32) -> PathBuf {
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
    fn entries_round_trip_bit_for_bit() {
        let dir = scratch(line!());
        let journal = FleetJournal::open(&dir, 7, false);
        journal.append(2, "coolest-first", &sample_reports());
        let resumed = FleetJournal::open(&dir, 7, true);
        assert_eq!(resumed.replayed_count(), 1);
        assert_eq!(
            bits(&resumed.replayed(2).expect("variant 2 replays")),
            bits(&sample_reports())
        );
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
        // A record whose label is not the grid's for its index is from
        // an incompatible grid and must not replay.
        let labels = vec!["i0.00:round-robin".to_string()];
        let mut enc = Enc::new();
        enc.seq_len(0);
        enc.bytes(b"i0.50:round-robin");
        assert!(decode_point(&enc.into_bytes(), &labels).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_resume_replays_only_known_variants() {
        let dir = scratch(line!());
        let fingerprint = 0xabcd_ef01_2345_6789;
        {
            let journal = FleetJournal::open(&dir, fingerprint, false);
            journal.append(0, "round-robin", &sample_reports());
            // An entry whose name does not match its variant index is
            // from an incompatible policy set and must not replay.
            journal.append(1, "not-a-policy", &sample_reports());
        }
        let resumed = FleetJournal::open(&dir, fingerprint, true);
        assert_eq!(resumed.replayed_count(), 1);
        assert_eq!(
            bits(&resumed.replayed(0).expect("variant 0 replays")),
            bits(&sample_reports())
        );
        assert!(resumed.replayed(1).is_none());

        // Fresh open truncates.
        let fresh = FleetJournal::open(&dir, fingerprint, false);
        assert_eq!(fresh.replayed_count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
