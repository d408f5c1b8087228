//! Parallel sweep execution engine.
//!
//! Every figure and table in the paper is a parameter sweep: dozens of
//! independent characterisation runs over a `(p, L)` grid. Each run builds
//! its own [`System`](dimetrodon_sched::System) from scratch and carries
//! its own seed, so runs share no state and can execute on any core in any
//! order. This module fans them across a worker pool and returns results
//! in grid order.
//!
//! Determinism is preserved by construction: a point's outcome is a pure
//! function of its [`SweepPoint`] (every experiment derives per-point
//! seeds from grid indices, never from execution order), and results are
//! reassembled by point index. Output is therefore bit-identical across
//! `--jobs` values, including `--jobs 1`.
//!
//! The pool is `std::thread::scope` plus a shared atomic work index — no
//! runtime dependencies. Worker count defaults to
//! [`std::thread::available_parallelism`] and can be overridden globally
//! with [`set_jobs`] (the `--jobs N` flag of the bench binaries),
//! or per-call with [`parallel_map_with`] (which is what tests use, so a
//! concurrently running test can never flip another sweep's worker count
//! through the shared global).
//!
//! If a point panics, the pool stops claiming new indices immediately
//! (a poisoned flag checked in the claim loop) and the first panic payload
//! is re-raised at join — the rest of the grid is not burned first. Sweeps
//! that need to *survive* a panicking point instead of aborting run under
//! the [`supervise`](crate::supervise) layer, which [`run_sweep`] consults.
//!
//! # Examples
//!
//! ```
//! use dimetrodon_harness::sweep::parallel_map;
//!
//! let squares = parallel_map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use dimetrodon_machine::MachineConfig;

use crate::runner::{characterize_on, Actuation, RunConfig, RunOutcome, SaturatingWorkload};
use crate::supervise;

pub use dimetrodon_sim_core::derive_seed;

/// Global worker-count override: 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count used by every subsequent sweep; `0` restores the
/// default of one worker per available core.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count sweeps currently run with.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Applies `f` to every index in `0..count` across the worker pool,
/// returning results in index order.
///
/// `f` must be a pure function of the index for output to be independent
/// of worker count; all sweep callers satisfy this by deriving per-point
/// seeds from grid indices.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the first panic is propagated,
/// and no further indices are dispatched once one worker has panicked).
pub fn parallel_map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(jobs(), count, f)
}

/// [`parallel_map`] with an explicit worker count instead of the global
/// [`set_jobs`] override.
///
/// This is the entry point tests use: worker count is a parameter of the
/// call, so concurrently running tests cannot flip each other's pool
/// sizes through the shared `JOBS` atomic mid-sweep.
///
/// # Panics
///
/// Panics if any invocation of `f` panics (the first panic is propagated,
/// and no further indices are dispatched once one worker has panicked).
#[expect(
    clippy::expect_used,
    reason = "the atomic work index hands every slot to exactly one worker"
)]
pub fn parallel_map_with<T, F>(workers: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(count.max(1));
    if workers <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    // Set by the first worker whose point panics; checked in the claim
    // loop so the remaining grid is not burned before the panic surfaces.
    let poisoned = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        match std::panic::catch_unwind(AssertUnwindSafe(|| f(index))) {
                            Ok(value) => produced.push((index, value)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Relaxed);
                                let mut slot =
                                    first_panic.lock().unwrap_or_else(|e| e.into_inner());
                                if slot.is_none() {
                                    *slot = Some(payload);
                                }
                                break;
                            }
                        }
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // Workers catch their own panics, so join can only fail on a
            // panic *between* points (allocator/unwind machinery); treat it
            // like a point panic.
            match handle.join() {
                Ok(produced) => {
                    for (index, value) in produced {
                        slots[index] = Some(value);
                    }
                }
                Err(payload) => {
                    let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
        }
    });

    if let Some(payload) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every sweep index is claimed exactly once"))
        .collect()
}

/// One point of a characterisation sweep: which machine, workload, and
/// actuation to run, with the point's own (index-derived) seed inside
/// [`RunConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The platform to simulate.
    pub machine: MachineConfig,
    /// The saturating workload to drive.
    pub workload: SaturatingWorkload,
    /// The thermal-management mechanism under test.
    pub actuation: Actuation,
    /// Run length, measurement window, and seed.
    pub config: RunConfig,
}

impl SweepPoint {
    /// A point on the standard test platform.
    pub fn new(workload: SaturatingWorkload, actuation: Actuation, config: RunConfig) -> Self {
        SweepPoint {
            machine: MachineConfig::xeon_e5520(),
            workload,
            actuation,
            config,
        }
    }

    /// A point on an explicit platform (sensitivity and ablation studies).
    pub fn on(
        machine: MachineConfig,
        workload: SaturatingWorkload,
        actuation: Actuation,
        config: RunConfig,
    ) -> Self {
        SweepPoint {
            machine,
            workload,
            actuation,
            config,
        }
    }
}

/// Runs every point's characterisation across the worker pool, returning
/// outcomes in point order.
///
/// When a [`supervise::SupervisorConfig`] is installed (the bench binaries
/// install one from their flags), each point runs under the
/// supervision layer: panics are quarantined instead of aborting the
/// sweep, points can carry deadlines and bounded retries, and completed
/// points are journaled to disk so an interrupted run resumes without
/// recomputation. Failed points surface as
/// [`supervise::unavailable_outcome`] placeholders (NaN temperatures,
/// zero throughput) and are recorded as incidents for the caller to
/// report. With no supervisor installed this is exactly the bare pool:
/// a panic propagates and tears the sweep down.
pub fn run_sweep(points: &[SweepPoint]) -> Vec<RunOutcome> {
    match supervise::installed() {
        Some(config) => supervise::run_supervised(points, &config)
            .into_iter()
            .map(supervise::PointOutcome::into_outcome)
            .collect(),
        None => parallel_map(points.len(), |i| {
            let point = &points[i];
            characterize_on(&point.machine, point.workload, point.actuation, point.config)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // Make late indices finish first to exercise reassembly.
        let values = parallel_map(64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(values, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_point_sweeps_work() {
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn worker_count_does_not_change_values() {
        // Worker count is threaded explicitly through the pool, so this
        // test cannot race with the global `JOBS` override (and cannot
        // perturb any concurrently running sweep by mutating it).
        let reference: Vec<u64> = (0..40).map(|i| derive_seed(99, i)).collect();
        for jobs in [1, 2, 3, 7] {
            let values = parallel_map_with(jobs, 40, |i| derive_seed(99, i as u64));
            assert_eq!(values, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn pool_actually_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        // An explicit worker count: a concurrent test changing the global
        // override cannot reduce this pool to one worker mid-flight.
        parallel_map_with(4, 16, |_| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(
            PEAK.load(Ordering::SeqCst) > 1,
            "expected overlapping workers, peak {}",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn global_jobs_override_round_trips() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1, "auto resolves to at least one worker");
    }

    #[test]
    #[should_panic(expected = "sweep point panicked")]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with(2, 8, |i| {
                if i == 5 {
                    panic!("sweep point panicked");
                }
                i
            })
        });
        match result {
            Ok(_) => {}
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    #[test]
    fn panic_poisons_the_claim_loop() {
        use std::sync::atomic::AtomicUsize;
        // One worker panics on the very first index while the other
        // workers are briefly held; once the poison flag is up, the pool
        // must stop claiming fresh indices instead of burning the whole
        // grid before the join.
        let executed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_with(2, 1024, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("poison");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            })
        }));
        assert!(result.is_err(), "panic must still propagate");
        let ran = executed.load(Ordering::SeqCst);
        assert!(
            ran < 1024,
            "claim loop kept dispatching the whole grid after a panic ({ran} points ran)"
        );
    }
}
