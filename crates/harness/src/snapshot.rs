//! Warm-prefix sharing for parameter sweeps.
//!
//! Every point of a (p, L) grid simulates the same thing for most of its
//! run: the machine warming from idle under the unactuated workload,
//! before the point's controller parameters matter at all. With a
//! non-zero [`RunConfig::warmup`](crate::RunConfig::warmup) the runner
//! routes that prefix through this cache: the first point with a given
//! (machine, workload, warmup) triple builds the system, drives it to the
//! end of the prefix, and deposits a [`SystemSnapshot`]; every later
//! point forks the snapshot instead of recomputing the prefix. A grid of
//! N points pays one warmup and forks N times.
//!
//! # Why this cannot change results
//!
//! * The prefix runs under the null hook, which draws no randomness, so
//!   it is a pure function of the cache key — the per-point *seed* only
//!   feeds the policy RNG, which does not exist until actuation attaches
//!   after the prefix.
//! * A fork is a deep copy of all mutable simulation state (event queue
//!   ordering included); resuming it is bit-identical to continuing the
//!   original, which the harness property tests assert at every worker
//!   count.
//!
//! Consequently a cache hit, a cache miss, and a disabled cache
//! ([`set_enabled`]`(false)`, the CLI's `--no-snapshot`) all produce the
//! same bytes; the escape hatch exists for timing comparisons and
//! paranoia, not correctness.
//!
//! # Threading
//!
//! [`System`] holds `Rc` handles and cannot cross threads, so the cache
//! is thread-local: each sweep worker warms its own copy and amortises it
//! over the points its claim loop processes. The hit/miss counters are
//! global, so the orchestrating thread can report fleet-wide reuse.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dimetrodon_ckpt::fnv1a64;
use dimetrodon_machine::{IdleMode, MachineConfig};
use dimetrodon_sched::{System, SystemSnapshot};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_workload::SpecBenchmark;

use crate::runner::SaturatingWorkload;

/// Globally enables or disables warm-prefix reuse (the `--no-snapshot`
/// flag). Disabled, every run recomputes its prefix — same results,
/// cold-path timing.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Warm prefixes actually simulated (cache misses plus disabled-cache
/// runs).
static WARMUPS_PAID: AtomicU64 = AtomicU64::new(0);

/// Runs served by forking a cached prefix.
static FORKS_SERVED: AtomicU64 = AtomicU64::new(0);

/// Distinct warm prefixes a single worker keeps live. Sweeps iterate one
/// or two (machine, workload) combinations at a time; eight covers every
/// current experiment with room to spare while bounding memory.
const CACHE_CAP: usize = 8;

thread_local! {
    /// Per-worker snapshot store, most recently used last.
    static CACHE: RefCell<Vec<(u64, SystemSnapshot)>> = const { RefCell::new(Vec::new()) };
}

/// Enables or disables warm-prefix reuse for every subsequent run.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether warm-prefix reuse is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears the calling thread's snapshot store and zeroes the global
/// reuse counters. Benchmarks call this per iteration so each iteration
/// honestly pays its one warmup.
pub fn reset() {
    CACHE.with(|cache| cache.borrow_mut().clear());
    WARMUPS_PAID.store(0, Ordering::Relaxed);
    FORKS_SERVED.store(0, Ordering::Relaxed);
}

/// Reuse counters since the last [`reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Warm prefixes actually simulated.
    pub warmups_paid: u64,
    /// Runs served by forking a cached prefix.
    pub forks_served: u64,
}

/// Reads the global reuse counters.
pub fn stats() -> SnapshotStats {
    SnapshotStats {
        warmups_paid: WARMUPS_PAID.load(Ordering::Relaxed),
        forks_served: FORKS_SERVED.load(Ordering::Relaxed),
    }
}

/// Byte accumulator behind [`warm_key`]: every ingredient contributes its
/// exact bit pattern. `Debug` renderings are *not* a stable identity —
/// float formatting is lossy about representation, and a `Debug` impl can
/// legally omit fields (so a newly added piece of state, like the thermal
/// boundary temperature, could silently alias two distinct prefixes).
struct KeyFeed(Vec<u8>);

impl KeyFeed {
    fn new() -> Self {
        KeyFeed(Vec::with_capacity(256))
    }

    /// A discriminant or presence byte. Every enum/Option feeds one, so
    /// adjacent variable-length sections can never alias each other.
    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn duration(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }
}

/// Feeds every field of a [`MachineConfig`] — if a field is added, this
/// exhaustive walk is where it must join the key.
fn feed_machine(feed: &mut KeyFeed, m: &MachineConfig) {
    feed.usize(m.num_cores);
    feed.usize(m.threads_per_core);

    feed.f64(m.core_power.c_eff);
    feed.f64(m.core_power.leak_coeff);
    feed.f64(m.core_power.leak_t0);
    feed.f64(m.core_power.leak_tc);
    feed.f64(m.core_power.c1e_residual);
    feed.f64(m.core_power.c6_residual);
    feed.f64(m.core_power.nop_activity);

    feed.f64(m.package_power.uncore);

    feed.usize(m.pstates.len());
    for (id, pstate) in m.pstates.iter() {
        feed.usize(id.0);
        feed.u64(pstate.frequency_mhz() as u64);
        feed.f64(pstate.voltage());
    }

    feed.f64(m.thermal.ambient_celsius);
    feed.f64(m.thermal.die_capacitance);
    feed.f64(m.thermal.die_to_package);
    feed.f64(m.thermal.hotspot_capacitance);
    feed.f64(m.thermal.hotspot_to_die);
    feed.f64(m.thermal.hotspot_power_fraction);
    feed.f64(m.thermal.die_to_die);
    feed.f64(m.thermal.package_capacitance);
    feed.f64(m.thermal.package_to_heatsink);
    feed.f64(m.thermal.heatsink_capacitance);
    feed.f64(m.thermal.heatsink_to_ambient);

    feed.tag(match m.idle_mode {
        IdleMode::C1e => 0,
        IdleMode::NopLoop => 1,
    });

    match &m.deep_idle {
        None => feed.tag(0),
        Some(deep) => {
            feed.tag(1);
            feed.duration(deep.min_residency);
            feed.duration(deep.extra_resume_penalty);
        }
    }

    match &m.thermal_throttle {
        None => feed.tag(0),
        Some(throttle) => {
            feed.tag(1);
            feed.f64(throttle.trigger_celsius);
            feed.f64(throttle.hysteresis);
            feed.f64(throttle.throttle_duty);
        }
    }

    match &m.thermal_trip {
        None => feed.tag(0),
        Some(trip) => {
            feed.tag(1);
            feed.f64(trip.critical_celsius);
            feed.f64(trip.release_celsius);
            feed.f64(trip.trip_duty);
            feed.duration(trip.min_hold);
        }
    }

    feed.tag(m.per_core_dvfs as u8);
}

fn feed_workload(feed: &mut KeyFeed, workload: SaturatingWorkload) {
    match workload {
        SaturatingWorkload::CpuBurn => feed.tag(0),
        SaturatingWorkload::Spec(bench) => {
            feed.tag(1);
            feed.tag(match bench {
                SpecBenchmark::Calculix => 0,
                SpecBenchmark::Namd => 1,
                SpecBenchmark::DealII => 2,
                SpecBenchmark::Bzip2 => 3,
                SpecBenchmark::Gcc => 4,
                SpecBenchmark::Astar => 5,
            });
        }
    }
}

/// Explicit byte serialization of a [`MachineConfig`]: the exact
/// field-by-field encoding the warm-prefix cache key is built over.
/// Public so downstream identities that must distinguish any two
/// configurations the cache would distinguish (the fleet journal
/// fingerprint) can embed the same bytes instead of growing a second,
/// independently-maintained walk.
pub fn machine_config_bytes(machine: &MachineConfig) -> Vec<u8> {
    let mut feed = KeyFeed::new();
    feed_machine(&mut feed, machine);
    feed.0
}

/// The cache key of a warm prefix: FNV-1a64 (the supervisor's fingerprint
/// hash) over an explicit field-by-field byte serialization of everything
/// the prefix depends on. The seed is deliberately absent — the unactuated
/// prefix draws no randomness — which is exactly what lets a whole
/// seed-varied grid share one snapshot.
pub(crate) fn warm_key(
    machine: &MachineConfig,
    workload: SaturatingWorkload,
    warmup: SimDuration,
) -> u64 {
    let mut feed = KeyFeed::new();
    feed_machine(&mut feed, machine);
    feed_workload(&mut feed, workload);
    feed.duration(warmup);
    fnv1a64(&feed.0)
}

/// Returns a system warmed to the end of its prefix: a fork of the cached
/// snapshot under `key`, or the result of `build` (cached for next time)
/// on a miss. With the cache disabled, always builds and never stores.
pub(crate) fn warmed(key: u64, build: impl FnOnce() -> System) -> System {
    if !enabled() {
        WARMUPS_PAID.fetch_add(1, Ordering::Relaxed);
        return build();
    }
    let hit = CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let pos = cache.iter().position(|(k, _)| *k == key)?;
        // Move the entry to the back: eviction takes the front (least
        // recently used).
        let entry = cache.remove(pos);
        let fork = entry.1.fork();
        cache.push(entry);
        Some(fork)
    });
    if let Some(system) = hit {
        FORKS_SERVED.fetch_add(1, Ordering::Relaxed);
        return system;
    }
    let system = build();
    WARMUPS_PAID.fetch_add(1, Ordering::Relaxed);
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= CACHE_CAP {
            cache.remove(0);
        }
        cache.push((key, system.snapshot()));
    });
    system
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    use dimetrodon_machine::Machine;

    /// The enable flag and counters are process-global; serialise the
    /// tests that touch them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn tiny_system() -> System {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        System::new(machine)
    }

    #[test]
    fn keys_separate_every_prefix_ingredient() {
        let base = warm_key(
            &MachineConfig::xeon_e5520(),
            SaturatingWorkload::CpuBurn,
            SimDuration::from_secs(25),
        );
        assert_eq!(
            base,
            warm_key(
                &MachineConfig::xeon_e5520(),
                SaturatingWorkload::CpuBurn,
                SimDuration::from_secs(25),
            ),
            "equal ingredients must key equal"
        );
        assert_ne!(
            base,
            warm_key(
                &MachineConfig::xeon_e5520(),
                SaturatingWorkload::CpuBurn,
                SimDuration::from_secs(26),
            ),
            "warmup length must separate keys"
        );
        assert_ne!(
            base,
            warm_key(
                &MachineConfig::xeon_e5520_nop_idle(),
                SaturatingWorkload::CpuBurn,
                SimDuration::from_secs(25),
            ),
            "machine config must separate keys"
        );
    }

    #[test]
    fn keys_distinguish_sign_zero() {
        // A Debug-formatted key is at the mercy of float formatting; the
        // byte key must see the exact bit pattern, so configs differing
        // only in the sign of a zero field key differently.
        let mut positive = MachineConfig::xeon_e5520();
        let mut negative = positive.clone();
        positive.package_power.uncore = 0.0;
        negative.package_power.uncore = -0.0;
        let workload = SaturatingWorkload::CpuBurn;
        let warmup = SimDuration::from_secs(25);
        assert_ne!(
            warm_key(&positive, workload, warmup),
            warm_key(&negative, workload, warmup),
            "-0.0 and 0.0 are distinct prefixes and must key distinctly"
        );
    }

    #[test]
    fn keys_distinguish_option_presence_and_payload() {
        // Regression for the Debug-keying hazard the explicit walk fixes:
        // a field that is present-vs-absent (or differs only inside the
        // payload) must always move the key.
        use dimetrodon_machine::DeepIdleConfig;
        let base = MachineConfig::xeon_e5520();
        let mut with_deep = base.clone();
        with_deep.deep_idle = Some(DeepIdleConfig {
            min_residency: SimDuration::from_millis(5),
            extra_resume_penalty: SimDuration::from_micros(10),
        });
        let mut with_longer_residency = with_deep.clone();
        with_longer_residency.deep_idle = Some(DeepIdleConfig {
            min_residency: SimDuration::from_millis(6),
            extra_resume_penalty: SimDuration::from_micros(10),
        });
        let workload = SaturatingWorkload::CpuBurn;
        let warmup = SimDuration::from_secs(25);
        let k_base = warm_key(&base, workload, warmup);
        let k_deep = warm_key(&with_deep, workload, warmup);
        let k_longer = warm_key(&with_longer_residency, workload, warmup);
        assert_ne!(k_base, k_deep, "Option presence must move the key");
        assert_ne!(k_deep, k_longer, "Option payload must move the key");
    }

    #[test]
    fn keys_distinguish_workload_and_flag_fields() {
        let base = MachineConfig::xeon_e5520();
        let mut per_core = base.clone();
        per_core.per_core_dvfs = true;
        let warmup = SimDuration::from_secs(25);
        assert_ne!(
            warm_key(&base, SaturatingWorkload::CpuBurn, warmup),
            warm_key(&per_core, SaturatingWorkload::CpuBurn, warmup),
        );
        assert_ne!(
            warm_key(&base, SaturatingWorkload::CpuBurn, warmup),
            warm_key(&base, SaturatingWorkload::Spec(SpecBenchmark::Gcc), warmup),
        );
        assert_ne!(
            warm_key(&base, SaturatingWorkload::Spec(SpecBenchmark::Gcc), warmup),
            warm_key(&base, SaturatingWorkload::Spec(SpecBenchmark::Astar), warmup),
        );
    }

    #[test]
    fn cache_pays_once_and_forks_after() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let mut builds = 0;
        for _ in 0..4 {
            let _system = warmed(0xABCD, || {
                builds += 1;
                tiny_system()
            });
        }
        assert_eq!(builds, 1, "one warmup for the whole grid");
        assert_eq!(
            stats(),
            SnapshotStats {
                warmups_paid: 1,
                forks_served: 3
            }
        );
        reset();
    }

    #[test]
    fn disabled_cache_always_builds() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        let mut builds = 0;
        for _ in 0..3 {
            let _system = warmed(0xEF01, || {
                builds += 1;
                tiny_system()
            });
        }
        set_enabled(true);
        assert_eq!(builds, 3, "disabled cache must recompute every prefix");
        assert_eq!(stats().forks_served, 0);
        reset();
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        // Fill past capacity, then revisit the first key: it must have
        // been evicted and so must rebuild.
        for key in 0..=CACHE_CAP as u64 {
            warmed(key, tiny_system);
        }
        let mut rebuilt = false;
        warmed(0, || {
            rebuilt = true;
            tiny_system()
        });
        assert!(rebuilt, "oldest entry should have been evicted");
        reset();
    }
}
