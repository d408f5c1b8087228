//! Sweep supervision: panic quarantine, deadlines, bounded retry, and a
//! crash-resumable journal.
//!
//! The bare pool in [`crate::sweep`] treats a sweep as all-or-nothing: one
//! panicking point tears the whole run down, a hung point hangs it
//! forever, and a killed process restarts from zero. For the short sweeps
//! of the paper that is fine; for the long fleet-style runs ROADMAP aims
//! at it is not. This module wraps every point of a sweep in a supervisor
//! that can
//!
//! * **quarantine** a panicking point ([`PanicPolicy::Quarantine`]) and
//!   keep the rest of the grid running, surfacing the failure as a
//!   [`PointOutcome::Panicked`] and an [`Incident`] instead of an abort
//!   (`--strict` restores the abort-on-panic behaviour bit-for-bit);
//! * enforce a **per-point deadline**, which an attempt checks between
//!   chunks of events on its own worker, and a **sweep-level time
//!   budget**, so a pathological `(p, L)` point times out
//!   ([`PointOutcome::TimedOut`]) or is skipped ([`PointOutcome::Skipped`])
//!   instead of hanging `run_all`;
//! * **retry** transiently failing points a bounded number of times with
//!   deterministic backoff — attempt 0 runs the point's own seed, attempt
//!   `k > 0` runs `derive_seed(derive_seed(seed, index), k)`, so retried
//!   output is still a pure function of the grid, never of wall clock;
//! * **journal** completed points to disk (`results/.journal/`) as
//!   checksummed [`dimetrodon_ckpt::Journal`] frames, keyed by a stable
//!   fingerprint of the [`SweepPoint`]; a killed run restarted with
//!   `--resume` replays journaled points instead of recomputing them and
//!   produces byte-identical CSVs. A torn or bit-flipped record ends the
//!   replayed prefix, so damage costs recomputation, never a wrong value.
//!
//! # Determinism
//!
//! Supervision never changes *values*, only *availability*. A point that
//! completes produces exactly the outcome the bare pool would have
//! produced: quarantine is `catch_unwind` around the same call, every
//! attempt runs in chunks of events (bit-identical to one uninterrupted
//! run) whether or not a deadline is checked between them, and replay
//! restores the journaled outcome bit-for-bit (floats
//! travel as IEEE-754 bit patterns, never through decimal, under a
//! per-record checksum). Wall-clock
//! time decides only whether a point is *attempted*; it never flows into
//! any result value — which is why this module carries the workspace's
//! only sanctioned `Instant::now` suppressions.
//!
//! The journal stores the whole [`RunOutcome`]: the scalar metrics, the
//! observed dispatch curve and the physical temperature series (times as
//! nanoseconds), so a replayed outcome is the computed one.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use std::time::Instant;

use dimetrodon_ckpt::{fnv1a64, CkptError, Dec, Enc, Journal};
use dimetrodon_sim_core::{derive_seed, SimTime, TimeSeries};

use crate::runner::{characterize_while, RunOutcome};
use crate::sweep::{parallel_map_with, SweepPoint};

/// What the supervisor does when a point panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Re-raise the panic and let the pool abort the sweep — today's
    /// behaviour, selected by `--strict`.
    Strict,
    /// Catch the panic, retry if attempts remain, and otherwise record an
    /// [`Incident`] and return [`PointOutcome::Panicked`].
    Quarantine,
}

/// Configuration of the supervision layer, installed globally with
/// [`install`] (the bench binaries build one from their flags)
/// and consulted by [`crate::sweep::run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Panic handling; defaults to [`PanicPolicy::Quarantine`].
    pub policy: PanicPolicy,
    /// Wall-clock deadline for a single attempt of a single point; `None`
    /// (the default) lets a point run forever.
    pub point_deadline: Option<Duration>,
    /// Wall-clock budget for a whole sweep: points whose *start* would
    /// fall past the budget are skipped. `None` (the default) is
    /// unbounded.
    pub sweep_budget: Option<Duration>,
    /// Extra attempts after a failed first one; retries re-run the point
    /// with a seed derived from `(point seed, index, attempt)`.
    pub retries: u32,
    /// Directory for journal files (`results/.journal`); `None` disables
    /// journaling entirely.
    pub journal_dir: Option<PathBuf>,
    /// Replay completed points from an existing journal (`--resume`).
    /// When `false` a pre-existing journal for the sweep is truncated.
    pub resume: bool,
    /// Whether retries sleep the deterministic linear backoff between
    /// attempts. The delay only spaces out attempts against transient
    /// environmental trouble — it never influences results — so the
    /// default is on for the binaries but off under `cfg(test)`, where
    /// retried deterministic points would just burn wall-clock.
    pub backoff: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            policy: PanicPolicy::Quarantine,
            point_deadline: None,
            sweep_budget: None,
            retries: 0,
            journal_dir: None,
            resume: false,
            backoff: !cfg!(test),
        }
    }
}

/// The supervised result of one sweep point.
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// The point completed (possibly after retries, possibly replayed
    /// from the journal) with exactly the outcome the bare pool would
    /// have produced.
    Ok(RunOutcome),
    /// Every attempt panicked; `msg` is the first attempt's payload.
    Panicked {
        /// The panic message of the first failed attempt.
        msg: String,
    },
    /// Every attempt overran the per-point deadline.
    TimedOut,
    /// The sweep-level time budget was exhausted before the point
    /// started.
    Skipped,
}

impl PointOutcome {
    /// Whether the point produced a real outcome.
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }

    /// Collapses to a [`RunOutcome`]: real measurements for
    /// [`PointOutcome::Ok`], the [`unavailable_outcome`] placeholder
    /// (NaN temperatures, zero throughput) for every failure.
    pub fn into_outcome(self) -> RunOutcome {
        match self {
            PointOutcome::Ok(outcome) => outcome,
            _ => unavailable_outcome(),
        }
    }
}

/// The placeholder outcome a quarantined/timed-out/skipped point
/// contributes to a sweep: NaN temperatures, zero throughput, an empty
/// series, and no injected idles. Downstream reductions treat NaN rows
/// as missing data.
pub fn unavailable_outcome() -> RunOutcome {
    RunOutcome {
        idle_temp: f64::NAN,
        tail_temp: f64::NAN,
        throughput: 0.0,
        temp_series: TimeSeries::new("unavailable"),
        observed_curve: Vec::new(),
        injected_idles: 0,
    }
}

/// Why a point failed under supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// All attempts panicked and the point was quarantined.
    Quarantined,
    /// All attempts overran the per-point deadline.
    TimedOut,
    /// The sweep budget was exhausted before the point started.
    Skipped,
}

/// A point failure recorded for end-of-run reporting: the bench binaries
/// print incidents and exit nonzero when any occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Hex fingerprint of the sweep the point belonged to.
    pub sweep: String,
    /// Index of the point within its sweep.
    pub point: usize,
    /// What went wrong.
    pub kind: IncidentKind,
    /// Attempts made (0 for a skipped point).
    pub attempts: u32,
    /// Human-readable detail (panic message for quarantines).
    pub detail: String,
}

impl std::fmt::Display for Incident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            IncidentKind::Quarantined => write!(
                f,
                "sweep {} point {}: quarantined after {} attempt(s): {}",
                self.sweep, self.point, self.attempts, self.detail
            ),
            IncidentKind::TimedOut => write!(
                f,
                "sweep {} point {}: timed out after {} attempt(s)",
                self.sweep, self.point, self.attempts
            ),
            IncidentKind::Skipped => write!(
                f,
                "sweep {} point {}: skipped ({})",
                self.sweep, self.point, self.detail
            ),
        }
    }
}

/// The globally installed supervisor configuration, if any.
static CONFIG: Mutex<Option<SupervisorConfig>> = Mutex::new(None);
/// Incidents accumulated across every supervised sweep in this process.
static INCIDENTS: Mutex<Vec<Incident>> = Mutex::new(Vec::new());
/// Points replayed from journals instead of recomputed.
static REPLAYED: AtomicUsize = AtomicUsize::new(0);

/// Installs `config` as the process-wide supervisor;
/// [`crate::sweep::run_sweep`] consults it on every call.
pub fn install(config: SupervisorConfig) {
    *CONFIG.lock().unwrap_or_else(|e| e.into_inner()) = Some(config);
}

/// The currently installed supervisor configuration, if any.
pub fn installed() -> Option<SupervisorConfig> {
    CONFIG.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Drains the incidents recorded since the last call (or process start).
pub fn take_incidents() -> Vec<Incident> {
    std::mem::take(&mut *INCIDENTS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Drains the count of points replayed from journals since the last call.
pub fn take_replayed() -> usize {
    REPLAYED.swap(0, Ordering::Relaxed)
}

// --- Fingerprints -------------------------------------------------------

/// A stable fingerprint of one sweep point: FNV-1a64 over its exhaustive
/// `Debug` rendering (machine, workload, actuation, run config, seed).
/// Two points fingerprint equal exactly when they describe the same
/// computation, in which case their outcomes are interchangeable.
pub fn fingerprint_point(point: &SweepPoint) -> u64 {
    fnv1a64(format!("{point:?}").as_bytes())
}

/// A stable fingerprint of a whole sweep (order-sensitive), used to name
/// the sweep's journal file.
pub fn fingerprint_sweep(points: &[SweepPoint]) -> u64 {
    let mut text = String::new();
    for point in points {
        text.push_str(&format!("{point:?}"));
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

// --- Journal -------------------------------------------------------------

/// The journal file path for a sweep inside `dir`.
pub fn journal_path(dir: &Path, sweep_fingerprint: u64) -> PathBuf {
    dir.join(format!("sweep-{sweep_fingerprint:016x}.journal"))
}

/// Keep-last-K retention for the journal directory (`--journal-gc K`):
/// deletes `*.journal` files beyond the `keep` most recently modified,
/// except that a file whose name embeds any of `active_fingerprints`
/// (the hex forms every journal family uses) is **never** deleted, no
/// matter how old — garbage collection must not eat the journal the
/// current run is appending to or about to resume from. Returns how
/// many files were removed; all I/O errors are best-effort skips, so a
/// GC pass can never fail a run.
pub fn gc_journals(dir: &Path, keep: usize, active_fingerprints: &[u64]) -> usize {
    let active: Vec<String> = active_fingerprints
        .iter()
        .map(|fp| format!("{fp:016x}"))
        .collect();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "file mtimes order GC candidates only; no result ever observes them"
    )]
    let mut journals: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            let name = path.file_name()?.to_str()?;
            if !name.ends_with(".journal") {
                return None;
            }
            if active.iter().any(|hex| name.contains(hex.as_str())) {
                return None;
            }
            let modified = entry.metadata().ok()?.modified().ok()?;
            Some((modified, path))
        })
        .collect();
    // Newest first; ties break on the path so the order is total.
    journals.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut removed = 0;
    for (_, path) in journals.into_iter().skip(keep) {
        if std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// A sweep's journal: the outcomes replayed at open, keyed by point
/// fingerprint, and the file completed points append to.
///
/// Each record is one point's whole outcome in a checksummed frame; the
/// journal's own identity is the sweep fingerprint.
#[derive(Debug)]
pub struct SweepJournal {
    journal: Journal,
    replayed: BTreeMap<u64, RunOutcome>,
}

impl SweepJournal {
    /// Opens the journal of the sweep with fingerprint `sweep` (see
    /// [`fingerprint_sweep`]) inside `dir`. With `resume`, the records of
    /// the longest verifying prefix replay (later records for a point
    /// win) and new ones append after them; without it, any existing
    /// journal for the sweep is truncated.
    pub fn open(dir: &Path, sweep: u64, resume: bool) -> SweepJournal {
        let (journal, records) = Journal::open(&journal_path(dir, sweep), "sweep", sweep, resume);
        let replayed = records
            .iter()
            .filter_map(|record| decode_record(record).ok())
            .collect();
        SweepJournal { journal, replayed }
    }

    /// Points loaded for replay at open.
    pub fn replayed_count(&self) -> usize {
        self.replayed.len()
    }

    /// The replayed outcome of the point with `fingerprint`, if its
    /// record survived.
    pub fn replayed(&self, fingerprint: u64) -> Option<&RunOutcome> {
        self.replayed.get(&fingerprint)
    }

    /// Appends one completed point. Thread-safe; workers append in
    /// completion order.
    pub fn append(&self, fingerprint: u64, outcome: &RunOutcome) {
        let mut enc = Enc::new();
        enc.u64(fingerprint);
        enc.f64(outcome.idle_temp);
        enc.f64(outcome.tail_temp);
        enc.f64(outcome.throughput);
        enc.u64(outcome.injected_idles);
        enc.bytes(outcome.temp_series.name().as_bytes());
        enc.seq_len(outcome.temp_series.len());
        for (at, value) in outcome.temp_series.iter() {
            enc.u64(at.as_nanos());
            enc.f64(value);
        }
        enc.seq_len(outcome.observed_curve.len());
        for &(t, v) in &outcome.observed_curve {
            enc.f64(t);
            enc.f64(v);
        }
        self.journal.append(&enc.into_bytes());
    }
}

/// Decodes one [`SweepJournal::append`] record into `(fingerprint,
/// outcome)`.
fn decode_record(record: &[u8]) -> Result<(u64, RunOutcome), CkptError> {
    let mut dec = Dec::new(record);
    let fingerprint = dec.u64()?;
    let idle_temp = dec.f64()?;
    let tail_temp = dec.f64()?;
    let throughput = dec.f64()?;
    let injected_idles = dec.u64()?;
    let mut temp_series = TimeSeries::new(String::from_utf8_lossy(dec.bytes()?));
    for _ in 0..dec.seq_len()? {
        let (at, value) = (SimTime::from_nanos(dec.u64()?), dec.f64()?);
        if value.is_nan() || temp_series.last().is_some_and(|(last, _)| at < last) {
            return Err(CkptError::Malformed("unordered or NaN series sample".into()));
        }
        temp_series.push(at, value);
    }
    let observed_curve = (0..dec.seq_len()?)
        .map(|_| Ok((dec.f64()?, dec.f64()?)))
        .collect::<Result<Vec<_>, CkptError>>()?;
    dec.finish()?;
    let outcome = RunOutcome {
        idle_temp,
        tail_temp,
        throughput,
        temp_series,
        observed_curve,
        injected_idles,
    };
    Ok((fingerprint, outcome))
}

// --- Supervised execution ----------------------------------------------

/// How one attempt of one point ended, internally.
enum AttemptError {
    Panicked(String),
    TimedOut,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The point as attempt `attempt` runs it: attempt 0 is the grid's own
/// point, later attempts re-derive the seed from `(seed, index, attempt)`
/// so retried output stays a pure function of the grid.
fn attempt_point(point: &SweepPoint, index: usize, attempt: u32) -> SweepPoint {
    if attempt == 0 {
        return point.clone();
    }
    let mut retried = point.clone();
    retried.config.seed = derive_seed(
        derive_seed(point.config.seed, index as u64),
        u64::from(attempt),
    );
    retried
}

/// Deterministic retry backoff: linear in the attempt number, capped.
/// The delay only spaces out attempts; it never influences results.
fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_millis(u64::from(attempt.min(10)) * 25)
}

/// Runs one attempt of one point on the calling worker, honouring the
/// deadline and the panic policy: with a deadline the attempt looks at
/// its elapsed time between chunks of events and stops at the first look
/// past it. Under [`PanicPolicy::Strict`] a panic propagates out of this
/// function (and poisons the pool) exactly as it would without
/// supervision.
fn run_attempt(
    point: &SweepPoint,
    index: usize,
    attempt: u32,
    config: &SupervisorConfig,
) -> Result<RunOutcome, AttemptError> {
    let prepared = attempt_point(point, index, attempt);
    #[expect(
        clippy::disallowed_methods,
        reason = "the deadline clock only decides whether an attempt goes on; it never flows into results"
    )]
    let deadline = config.point_deadline.map(|limit| (Instant::now(), limit));
    let run = || {
        characterize_while(
            &prepared.machine,
            prepared.workload,
            prepared.actuation,
            prepared.config,
            || deadline.is_none_or(|(started, limit)| started.elapsed() < limit),
        )
    };
    let finished = if config.policy == PanicPolicy::Strict {
        run()
    } else {
        std::panic::catch_unwind(AssertUnwindSafe(run))
            .map_err(|payload| AttemptError::Panicked(panic_message(payload.as_ref())))?
    };
    finished.ok_or(AttemptError::TimedOut)
}

/// Runs one point under full supervision: bounded retries around
/// [`run_attempt`] and journaling of success.
fn supervise_point(
    point: &SweepPoint,
    index: usize,
    fingerprint: u64,
    config: &SupervisorConfig,
    journal: Option<&SweepJournal>,
) -> PointOutcome {
    let mut first_error: Option<AttemptError> = None;
    for attempt in 0..=config.retries {
        if attempt > 0 && config.backoff {
            std::thread::sleep(retry_backoff(attempt));
        }
        match run_attempt(point, index, attempt, config) {
            Ok(outcome) => {
                if let Some(journal) = journal {
                    journal.append(fingerprint, &outcome);
                }
                return PointOutcome::Ok(outcome);
            }
            Err(error) => {
                first_error.get_or_insert(error);
            }
        }
    }
    match first_error {
        Some(AttemptError::Panicked(msg)) => PointOutcome::Panicked { msg },
        Some(AttemptError::TimedOut) | None => PointOutcome::TimedOut,
    }
}

/// Runs a sweep under the supervision layer: journal replay, per-point
/// quarantine/deadline/retry, and the sweep time budget. Outcomes come
/// back in point order; callers wanting plain [`RunOutcome`]s collapse
/// them with [`PointOutcome::into_outcome`]. The sweep's incidents are
/// recorded in point order too, once every point has finished, so the
/// list never depends on which worker finished first.
pub fn run_supervised(points: &[SweepPoint], config: &SupervisorConfig) -> Vec<PointOutcome> {
    run_supervised_with(crate::sweep::jobs(), points, config)
}

/// [`run_supervised`] on an explicit number of workers.
fn run_supervised_with(
    workers: usize,
    points: &[SweepPoint],
    config: &SupervisorConfig,
) -> Vec<PointOutcome> {
    let sweep = fingerprint_sweep(points);
    let journal = config
        .journal_dir
        .as_ref()
        .map(|dir| SweepJournal::open(dir, sweep, config.resume));
    #[expect(
        clippy::disallowed_methods,
        reason = "the budget clock gates whether points start; it never flows into results"
    )]
    let start = Instant::now();
    let outcomes = parallel_map_with(workers, points.len(), |index| {
        let point = &points[index];
        let fingerprint = fingerprint_point(point);
        if let Some(outcome) = journal.as_ref().and_then(|j| j.replayed(fingerprint)) {
            REPLAYED.fetch_add(1, Ordering::Relaxed);
            return PointOutcome::Ok(outcome.clone());
        }
        if let Some(budget) = config.sweep_budget {
            if start.elapsed() >= budget {
                return PointOutcome::Skipped;
            }
        }
        supervise_point(point, index, fingerprint, config, journal.as_ref())
    });
    let incidents = outcomes.iter().enumerate().filter_map(|(point, outcome)| {
        let (kind, attempts, detail) = match outcome {
            PointOutcome::Ok(_) => return None,
            PointOutcome::Panicked { msg } => {
                (IncidentKind::Quarantined, config.retries + 1, msg.clone())
            }
            PointOutcome::TimedOut => (IncidentKind::TimedOut, config.retries + 1, String::new()),
            PointOutcome::Skipped => (
                IncidentKind::Skipped,
                0,
                "sweep time budget exhausted".to_string(),
            ),
        };
        Some(Incident {
            sweep: format!("{sweep:016x}"),
            point,
            kind,
            attempts,
            detail,
        })
    });
    INCIDENTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(incidents);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Actuation, RunConfig, SaturatingWorkload};
    use dimetrodon_machine::MachineConfig;
    use dimetrodon_sim_core::SimDuration;

    /// The incident list and the replay counter are process-global;
    /// tests that record or drain them take this lock so one test's drain
    /// cannot eat another's entries.
    static COUNTERS: Mutex<()> = Mutex::new(());

    fn counters() -> std::sync::MutexGuard<'static, ()> {
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

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

    /// A point whose machine config is invalid, so `build_system_on`
    /// panics deterministically.
    fn poisoned_point(seed: u64) -> SweepPoint {
        let mut machine = MachineConfig::xeon_e5520();
        machine.num_cores = 0;
        SweepPoint::on(
            machine,
            SaturatingWorkload::CpuBurn,
            Actuation::None,
            tiny_config(seed),
        )
    }

    #[test]
    fn fingerprints_distinguish_points_and_track_equality() {
        let a = tiny_point(1);
        let b = tiny_point(2);
        assert_ne!(fingerprint_point(&a), fingerprint_point(&b));
        assert_eq!(fingerprint_point(&a), fingerprint_point(&a.clone()));
        assert_ne!(
            fingerprint_sweep(&[a.clone(), b.clone()]),
            fingerprint_sweep(&[b, a])
        );
    }

    #[test]
    fn quarantine_survives_a_panicking_point() {
        let _counters = counters();
        let points = vec![tiny_point(1), poisoned_point(2), tiny_point(3)];
        let config = SupervisorConfig::default();
        let outcomes = run_supervised(&points, &config);
        assert!(outcomes[0].is_ok());
        assert!(matches!(outcomes[1], PointOutcome::Panicked { .. }));
        assert!(outcomes[2].is_ok());
        let incidents = take_incidents();
        let ours: Vec<_> = incidents
            .iter()
            .filter(|i| i.kind == IncidentKind::Quarantined && i.point == 1)
            .collect();
        assert!(!ours.is_empty(), "quarantine must be recorded");
        assert!(ours[0].detail.contains("machine config is valid"));
    }

    #[test]
    fn strict_policy_aborts_like_the_bare_pool() {
        let points = vec![tiny_point(1), poisoned_point(2)];
        let config = SupervisorConfig {
            policy: PanicPolicy::Strict,
            ..SupervisorConfig::default()
        };
        let result =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_supervised(&points, &config)));
        assert!(result.is_err(), "strict mode must re-raise the panic");
    }

    #[test]
    fn backoff_defaults_off_under_test_so_retries_spin_without_sleeping() {
        let _counters = counters();
        // In the binaries the default is on; under cfg(test) the linear
        // sleep would only slow deterministic retries down.
        assert!(!SupervisorConfig::default().backoff);
        #[expect(clippy::disallowed_methods, reason = "asserts retries do not sleep")]
        let before = std::time::Instant::now();
        let config = SupervisorConfig {
            retries: 10,
            ..SupervisorConfig::default()
        };
        drop(run_supervised(&[poisoned_point(4)], &config));
        drop(take_incidents());
        assert!(
            before.elapsed() < retry_backoff(10),
            "retries must not sleep the backoff when the knob is off"
        );
    }

    #[test]
    fn retries_use_derived_seeds_and_give_up_deterministically() {
        let _counters = counters();
        let points = vec![poisoned_point(9)];
        let config = SupervisorConfig {
            retries: 2,
            ..SupervisorConfig::default()
        };
        let outcomes = run_supervised(&points, &config);
        assert!(matches!(outcomes[0], PointOutcome::Panicked { .. }));
        let incident = take_incidents()
            .into_iter()
            .find(|i| i.kind == IncidentKind::Quarantined)
            .expect("incident recorded");
        assert_eq!(incident.attempts, 3);
        // The retried point differs only in seed, derived from the grid.
        let retried = attempt_point(&points[0], 0, 1);
        assert_eq!(
            retried.config.seed,
            derive_seed(derive_seed(points[0].config.seed, 0), 1)
        );
        assert_eq!(attempt_point(&points[0], 0, 0), points[0]);
    }

    /// A point slow enough that it spans many chunks of events and
    /// cannot finish before its deadline (a tiny point finishes within
    /// its first chunk, so its clock is read once, before it starts): a
    /// half-hour simulated run takes on the order of a second of wall
    /// clock.
    fn slow_point(seed: u64) -> SweepPoint {
        let slow = RunConfig {
            duration: SimDuration::from_secs(1800),
            measure_window: SimDuration::from_secs(1),
            seed,
        };
        SweepPoint::new(SaturatingWorkload::CpuBurn, Actuation::None, slow)
    }

    #[test]
    fn deadline_times_a_point_out_without_hanging() {
        let _counters = counters();
        let points = vec![slow_point(4)];
        let config = SupervisorConfig {
            point_deadline: Some(Duration::from_millis(10)),
            ..SupervisorConfig::default()
        };
        let outcomes = run_supervised(&points, &config);
        assert!(matches!(outcomes[0], PointOutcome::TimedOut));
        drop(take_incidents());
    }

    #[test]
    fn incidents_are_listed_in_point_order() {
        let _counters = counters();
        // At two workers, point 1 panics at once while point 0 is still
        // waiting out its deadline, so point 1 fails first.
        let points = vec![slow_point(5), poisoned_point(6)];
        let config = SupervisorConfig {
            point_deadline: Some(Duration::from_millis(50)),
            ..SupervisorConfig::default()
        };
        let outcomes = run_supervised_with(2, &points, &config);
        assert!(matches!(outcomes[0], PointOutcome::TimedOut));
        assert!(matches!(outcomes[1], PointOutcome::Panicked { .. }));
        let sweep = format!("{:016x}", fingerprint_sweep(&points));
        let listed: Vec<(usize, IncidentKind)> = take_incidents()
            .into_iter()
            .filter(|incident| incident.sweep == sweep)
            .map(|incident| (incident.point, incident.kind))
            .collect();
        assert_eq!(
            listed,
            [(0, IncidentKind::TimedOut), (1, IncidentKind::Quarantined)]
        );
    }

    #[test]
    fn sweep_budget_skips_remaining_points() {
        let _counters = counters();
        let points: Vec<_> = (0..4).map(tiny_point).collect();
        let config = SupervisorConfig {
            sweep_budget: Some(Duration::ZERO),
            ..SupervisorConfig::default()
        };
        let outcomes = run_supervised(&points, &config);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PointOutcome::Skipped)));
        drop(take_incidents());
    }

    #[test]
    fn journal_replay_restores_measurements_bit_for_bit() {
        let _counters = counters();
        let dir = std::env::temp_dir().join(format!(
            "dimetrodon-journal-test-{}",
            std::process::id()
        ));
        let points = vec![tiny_point(11), tiny_point(12)];
        let config = SupervisorConfig {
            journal_dir: Some(dir.clone()),
            ..SupervisorConfig::default()
        };
        let fresh = run_supervised(&points, &config);
        let resumed = run_supervised(
            &points,
            &SupervisorConfig {
                resume: true,
                ..config
            },
        );
        assert_eq!(take_replayed(), 2, "both points must replay");
        for (a, b) in fresh.iter().zip(&resumed) {
            let (PointOutcome::Ok(a), PointOutcome::Ok(b)) = (a, b) else {
                panic!("all points complete");
            };
            assert_eq!(a.idle_temp.to_bits(), b.idle_temp.to_bits());
            assert_eq!(a.tail_temp.to_bits(), b.tail_temp.to_bits());
            assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
            assert_eq!(a.observed_curve, b.observed_curve);
            assert_eq!(a.injected_idles, b.injected_idles);
            assert_eq!(a.temp_series.name(), b.temp_series.name());
            assert!(!a.temp_series.is_empty(), "a run samples its temperature");
            let samples = |o: &RunOutcome| {
                o.temp_series
                    .iter()
                    .map(|(t, v)| (t, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(samples(a), samples(b));
        }
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn without_resume_an_existing_journal_is_truncated() {
        let _counters = counters();
        let dir = std::env::temp_dir().join(format!(
            "dimetrodon-journal-trunc-{}",
            std::process::id()
        ));
        let points = vec![tiny_point(21)];
        let config = SupervisorConfig {
            journal_dir: Some(dir.clone()),
            ..SupervisorConfig::default()
        };
        drop(run_supervised(&points, &config));
        drop(run_supervised(&points, &config));
        assert_eq!(take_replayed(), 0, "fresh runs never replay");
        let journal = SweepJournal::open(&dir, fingerprint_sweep(&points), true);
        assert_eq!(
            journal.replayed_count(),
            1,
            "truncation must discard the first run"
        );
        drop(std::fs::remove_dir_all(&dir));
    }

    #[test]
    fn journal_gc_keeps_last_k_and_never_deletes_active_fingerprints() {
        let dir = std::env::temp_dir().join(format!("dimetrodon-journal-gc-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create dir");
        let active_fp: u64 = 0xA11CE;
        // The active journal is the OLDEST file — worst case for an
        // mtime-ordered GC.
        let mut paths = vec![journal_path(&dir, active_fp)];
        for fp in 1..=4u64 {
            paths.push(dir.join(format!("fleet-{fp:016x}.journal")));
        }
        paths.push(dir.join("not-a-journal.txt"));
        let base = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for (age, path) in paths.iter().enumerate() {
            std::fs::write(path, "journal\n").expect("write");
            let file = std::fs::File::options().write(true).open(path).expect("open");
            file.set_modified(base + std::time::Duration::from_secs(age as u64))
                .expect("set mtime");
        }

        let removed = gc_journals(&dir, 2, &[active_fp]);
        assert_eq!(removed, 2, "4 inactive journals, keep 2");
        assert!(
            journal_path(&dir, active_fp).exists(),
            "GC must never delete the active fingerprint's journal"
        );
        assert!(dir.join("not-a-journal.txt").exists(), "non-journals untouched");
        // The two newest inactive journals survive, the two oldest are gone.
        assert!(!dir.join(format!("fleet-{:016x}.journal", 1u64)).exists());
        assert!(!dir.join(format!("fleet-{:016x}.journal", 2u64)).exists());
        assert!(dir.join(format!("fleet-{:016x}.journal", 3u64)).exists());
        assert!(dir.join(format!("fleet-{:016x}.journal", 4u64)).exists());

        assert_eq!(gc_journals(&dir, 2, &[active_fp]), 0, "GC is idempotent");
        std::fs::remove_dir_all(&dir).ok();
    }
}
