//! The latency-sensitive web-serving workload (§3.7).
//!
//! The paper runs SPECWeb2005's eCommerce workload: 440 simultaneous
//! connections from two clients, producing 15–25 % load per core and a
//! ~6 °C unconstrained temperature rise, scored against the benchmark's
//! QoS thresholds — "good" (≤ 3 s response) and "tolerable" (≤ 5 s).
//!
//! The simulated equivalent is an open-loop connection model: each
//! connection thread thinks (exponentially distributed), then issues a
//! request whose service burst runs on the server. Response time is
//! measured from the instant the request is issued to the completion of
//! its service burst — so runqueue waiting *and injected idle quanta*
//! count against it, which reproduces the deferral feedback the paper
//! describes (delayed requests raise later load).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use dimetrodon_ckpt::{fnv1a64, schema_fold, CkptError, Dec, Enc, State};
use dimetrodon_sched::{Action, Burst, ThreadBody};
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};

/// Configuration of the web workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebConfig {
    /// Simultaneous connections (the paper: 440).
    pub connections: usize,
    /// Mean think time between a connection's requests.
    pub mean_think_time: SimDuration,
    /// Mean CPU demand of one request's service.
    pub mean_service_cpu: SimDuration,
    /// Activity factor of service code (web serving is less dense than
    /// cpuburn).
    pub service_activity: f64,
    /// The "good" QoS threshold (the paper: 3 s).
    pub good_threshold: SimDuration,
    /// The "tolerable" QoS threshold (the paper: 5 s).
    pub tolerable_threshold: SimDuration,
}

impl WebConfig {
    /// The paper's SPECWeb-like setup: 440 connections with SPECWeb2005-
    /// scale think times and eCommerce page weights, sized to put
    /// 15–25 % load on each of four cores.
    ///
    /// Load arithmetic: 440 connections × (60 ms service / ~30.06 s
    /// cycle) ≈ 0.88 busy core-seconds per second ≈ 22 % per core.
    pub fn paper_setup() -> Self {
        WebConfig {
            connections: 440,
            mean_think_time: SimDuration::from_secs(30),
            mean_service_cpu: SimDuration::from_millis(60),
            service_activity: 0.85,
            good_threshold: SimDuration::from_secs(3),
            tolerable_threshold: SimDuration::from_secs(5),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any duration is zero, `connections` is zero, activity is
    /// out of range, or the thresholds are not ordered
    /// `good <= tolerable`.
    pub fn validate(&self) {
        assert!(self.connections > 0, "need at least one connection");
        assert!(!self.mean_think_time.is_zero(), "think time must be positive");
        assert!(!self.mean_service_cpu.is_zero(), "service time must be positive");
        assert!(
            (0.0..=1.0).contains(&self.service_activity),
            "activity must be in [0, 1]"
        );
        assert!(
            self.good_threshold <= self.tolerable_threshold,
            "good threshold must not exceed tolerable"
        );
    }

    /// Scores one response latency against the thresholds: the one
    /// scoring rule both QoS accumulators use.
    fn grade(&self, latency: SimDuration) -> Grade {
        if latency <= self.good_threshold {
            Grade::Good
        } else if latency <= self.tolerable_threshold {
            Grade::Tolerable
        } else {
            Grade::Failed
        }
    }
}

/// A response's QoS grade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grade {
    Good,
    Tolerable,
    Failed,
}

/// The 1-based nearest-rank position of the `pct` percentile among `n`
/// ascending samples, ⌈pct/100 · n⌉ clamped to `[1, n]`: the one rank
/// convention both QoS accumulators use.
fn nearest_rank(pct: f64, n: usize) -> usize {
    ((pct / 100.0) * n as f64).ceil().max(1.0).min(n as f64) as usize
}

/// Aggregated request latencies, scored against the QoS thresholds. It
/// keeps every latency, for the histogram and mean of Figure 6; the fleet
/// keeps only a tail with [`QosTail`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct QosStats {
    latencies: Vec<f64>,
    good: u64,
    tolerable: u64,
    failed: u64,
}

impl QosStats {
    /// Records one completed request's latency, scoring it against the
    /// configuration's good/tolerable thresholds.
    pub fn record(&mut self, latency: SimDuration, config: &WebConfig) {
        self.latencies.push(latency.as_secs_f64());
        match config.grade(latency) {
            Grade::Good => self.good += 1,
            Grade::Tolerable => self.tolerable += 1,
            Grade::Failed => self.failed += 1,
        }
    }

    /// The raw response latencies, in seconds, in completion order.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Total completed requests.
    pub fn total(&self) -> u64 {
        self.good + self.tolerable + self.failed
    }

    /// Fraction of requests meeting the "good" (3 s) threshold.
    pub fn good_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.good as f64 / self.total() as f64
    }

    /// Fraction meeting the "tolerable" (5 s) threshold (good requests
    /// count as tolerable too).
    pub fn tolerable_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.good + self.tolerable) as f64 / self.total() as f64
    }

    /// Mean response latency in seconds, if any requests completed.
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        Some(self.latencies.iter().sum::<f64>() / self.latencies.len() as f64)
    }

    /// A latency percentile in `[0, 100]` by the nearest-rank convention
    /// — the smallest recorded latency with at least `pct` percent of the
    /// samples at or below it — if any requests completed. `pct = 0`
    /// returns the minimum, `pct = 100` the maximum, and a single sample
    /// answers every percentile.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `[0, 100]`.
    pub fn latency_percentile(&self, pct: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&pct), "percentile out of range");
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[nearest_rank(pct, sorted.len()) - 1])
    }
}

/// The fleet's QoS accumulator: it scores every request as [`QosStats`]
/// does, but keeps only the largest latencies, as many as the nearest-rank
/// p99 of any request count up to a fixed budget can reach.
///
/// Among `n` samples the nearest-rank p99 is the `n − ⌈0.99·n⌉ + 1` =
/// `⌊n/100⌋ + 1`-th largest (the `f64` product cannot cross an integer at
/// these counts), which never decreases with `n`. So with at most
/// `budget` requests recorded, the `⌊budget/100⌋ + 1` largest latencies
/// answer [`QosTail::p99`] bit for bit as
/// `QosStats::latency_percentile(99.0)` answers over every latency.
#[derive(Debug, Clone)]
pub struct QosTail {
    requests: u64,
    good: u64,
    /// The largest latencies so far, smallest on top: the one to evict.
    tail: BinaryHeap<Reverse<SimDuration>>,
    /// The most requests the owner will record; sets the tail's bound.
    budget: u64,
}

/// Saved as the request and good counts, then the tail in ascending order,
/// so equal contents always encode to equal bytes.
impl State for QosTail {
    const SCHEMA: u64 = schema_fold(
        fnv1a64(b"QosTail requests good tail"),
        <Vec<SimDuration> as State>::SCHEMA,
    );

    fn save(&self, enc: &mut Enc) {
        self.requests.save(enc);
        self.good.save(enc);
        let mut ascending: Vec<SimDuration> = self.tail.iter().map(|kept| kept.0).collect();
        ascending.sort_unstable();
        ascending.save(enc);
    }

    fn load(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.requests.load(dec)?;
        self.good.load(dec)?;
        let mut ascending: Vec<SimDuration> = Vec::new();
        ascending.load(dec)?;
        let kept = self.requests.min(self.bound() as u64);
        let problem = if self.requests > self.budget || self.good > self.requests {
            format!(
                "{} good of {} requests under a budget of {}",
                self.good, self.requests, self.budget
            )
        } else if ascending.len() as u64 != kept {
            format!(
                "a tail of {} latencies where {} requests keep {kept}",
                ascending.len(),
                self.requests
            )
        } else if !ascending.is_sorted() {
            "a tail out of ascending order".into()
        } else {
            self.tail = ascending.into_iter().map(Reverse).collect();
            return Ok(());
        };
        Err(CkptError::Malformed(format!("qos tail: {problem}")))
    }
}

impl QosTail {
    /// An empty accumulator for at most `budget` requests.
    pub fn new(budget: u64) -> QosTail {
        QosTail {
            requests: 0,
            good: 0,
            tail: BinaryHeap::new(),
            budget,
        }
    }

    /// How many latencies the tail keeps: `⌊budget/100⌋ + 1`.
    fn bound(&self) -> usize {
        (self.budget / 100 + 1) as usize
    }

    /// Records one completed request's latency, scored as
    /// [`QosStats::record`] scores it.
    pub fn record(&mut self, latency: SimDuration, config: &WebConfig) {
        debug_assert!(
            self.requests < self.budget,
            "qos tail over its budget of {} requests",
            self.budget
        );
        self.requests += 1;
        if config.grade(latency) == Grade::Good {
            self.good += 1;
        }
        if self.tail.len() < self.bound() {
            self.tail.push(Reverse(latency));
        } else if let Some(mut smallest) = self.tail.peek_mut() {
            if latency > smallest.0 {
                *smallest = Reverse(latency);
            }
        }
    }

    /// Total completed requests.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// How many latencies the tail holds: `min(requests, ⌊budget/100⌋ + 1)`.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Fraction of requests meeting the "good" threshold, as
    /// [`QosStats::good_fraction`] computes it.
    pub fn good_fraction(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.good as f64 / self.requests as f64
    }

    /// The nearest-rank p99 latency in seconds, if any requests completed.
    pub fn p99(&self) -> Option<f64> {
        let n = self.requests as usize;
        if n == 0 {
            return None;
        }
        let largest_first = self.tail.clone().into_sorted_vec();
        // The rank's distance from the top, ⌊n/100⌋, is below the tail's
        // length for every n up to the budget.
        Some(largest_first[n - nearest_rank(99.0, n)].0.as_secs_f64())
    }
}

/// Shared handle onto the workload's accumulated QoS statistics.
#[derive(Debug, Clone, Default)]
pub struct QosHandle(Rc<RefCell<QosStats>>);

impl QosHandle {
    /// Creates an empty stats accumulator.
    pub fn new() -> Self {
        QosHandle::default()
    }

    /// A snapshot of the statistics so far.
    pub fn snapshot(&self) -> QosStats {
        self.0.borrow().clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Not yet started: the first action sleeps a random think time so
    /// the connection population starts phase-staggered (without this,
    /// all connections would issue their first request simultaneously —
    /// a thundering herd no steady-state benchmark exhibits).
    Starting,
    /// Waiting out think time; next action issues a request.
    Thinking,
    /// A request issued at the stored instant is being serviced.
    InService { issued_at: SimTime },
}

/// One web connection: think, request, measure, repeat.
///
/// Spawn one per configured connection (see
/// [`spawn_web_workload`](crate::spawn_web_workload) for the convenience
/// wrapper).
#[derive(Debug)]
pub struct Connection {
    config: WebConfig,
    stats: QosHandle,
    rng: SimRng,
    phase: Phase,
}

impl Connection {
    /// Creates a connection with its own think/service randomness.
    pub fn new(config: WebConfig, stats: QosHandle, rng: SimRng) -> Self {
        config.validate();
        Connection {
            config,
            stats,
            rng,
            phase: Phase::Starting,
        }
    }

    fn think_time(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(
            self.rng
                .exponential(self.config.mean_think_time.as_secs_f64()),
        )
        .max(SimDuration::from_millis(1))
    }
}

impl ThreadBody for Connection {
    fn next_action(&mut self, now: SimTime) -> Action {
        match self.phase {
            Phase::Starting => {
                self.phase = Phase::Thinking;
                Action::Sleep(self.think_time())
            }
            Phase::Thinking => {
                // Think time has elapsed (or this is the first call):
                // issue a request now.
                self.phase = Phase::InService { issued_at: now };
                let cpu =
                    SimDuration::from_secs_f64(self.rng.exponential(
                        self.config.mean_service_cpu.as_secs_f64(),
                    ))
                    .max(SimDuration::from_micros(100));
                Action::Run(Burst::new(cpu, self.config.service_activity))
            }
            Phase::InService { issued_at } => {
                // The service burst just completed: the response is out.
                let latency = now.saturating_since(issued_at);
                self.stats.0.borrow_mut().record(latency, &self.config);
                self.phase = Phase::Thinking;
                Action::Sleep(self.think_time())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config() -> WebConfig {
        WebConfig::paper_setup()
    }

    #[test]
    fn paper_setup_load_is_15_to_25_percent_per_core() {
        let c = config();
        let cycle = c.mean_think_time.as_secs_f64() + c.mean_service_cpu.as_secs_f64();
        let busy_per_sec = c.connections as f64 * c.mean_service_cpu.as_secs_f64() / cycle;
        let per_core = busy_per_sec / 4.0;
        assert!(
            (0.15..0.25).contains(&per_core),
            "per-core load {per_core} outside the paper's band"
        );
    }

    #[test]
    fn connection_staggers_then_alternates_service_and_think() {
        let mut conn = Connection::new(config(), QosHandle::new(), SimRng::new(1));
        let a0 = conn.next_action(SimTime::ZERO);
        assert!(matches!(a0, Action::Sleep(_)), "first action staggers");
        let a1 = conn.next_action(SimTime::from_secs(3));
        assert!(matches!(a1, Action::Run(_)));
        let a2 = conn.next_action(SimTime::from_secs(3) + SimDuration::from_millis(30));
        assert!(matches!(a2, Action::Sleep(_)));
        let a3 = conn.next_action(SimTime::from_secs(30));
        assert!(matches!(a3, Action::Run(_)));
    }

    #[test]
    fn latency_is_measured_from_issue_to_completion() {
        let stats = QosHandle::new();
        let mut conn = Connection::new(config(), stats.clone(), SimRng::new(2));
        let _ = conn.next_action(SimTime::ZERO); // initial stagger sleep
        let _ = conn.next_action(SimTime::ZERO); // request issued at t=0
        let _ = conn.next_action(SimTime::from_secs(4)); // completed at t=4
        let snap = stats.snapshot();
        assert_eq!(snap.total(), 1);
        assert!((snap.mean_latency().unwrap() - 4.0).abs() < 1e-9);
        // 4 s: not good, but tolerable.
        assert_eq!(snap.good_fraction(), 0.0);
        assert_eq!(snap.tolerable_fraction(), 1.0);
    }

    #[test]
    fn qos_thresholds_bucket_correctly() {
        let c = config();
        let mut stats = QosStats::default();
        stats.record(SimDuration::from_secs(1), &c); // good
        stats.record(SimDuration::from_secs(4), &c); // tolerable
        stats.record(SimDuration::from_secs(9), &c); // failed
        assert_eq!(stats.total(), 3);
        assert!((stats.good_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((stats.tolerable_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        let c = config();
        let mut stats = QosStats::default();
        for ms in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            stats.record(SimDuration::from_millis(ms), &c);
        }
        assert!((stats.latency_percentile(0.0).unwrap() - 0.01).abs() < 1e-9);
        assert!((stats.latency_percentile(100.0).unwrap() - 0.1).abs() < 1e-9);
        let p50 = stats.latency_percentile(50.0).unwrap();
        assert!((0.04..=0.07).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn percentile_nearest_rank_exact_values() {
        let c = config();
        let mut stats = QosStats::default();
        stats.record(SimDuration::from_millis(10), &c);
        stats.record(SimDuration::from_millis(20), &c);
        // Nearest rank: p50 of two samples is the *first* (rank ceil(1)),
        // anything above 50 % needs the second.
        let expect = |pct: f64, secs: f64| {
            let got = stats.latency_percentile(pct).unwrap();
            assert!((got - secs).abs() < 1e-12, "p{pct} = {got}, expected {secs}");
        };
        expect(0.0, 0.01);
        expect(50.0, 0.01);
        expect(50.1, 0.02);
        expect(100.0, 0.02);
    }

    #[test]
    fn percentile_on_single_sample_answers_every_pct() {
        let c = config();
        let mut stats = QosStats::default();
        stats.record(SimDuration::from_millis(50), &c);
        for pct in [0.0, 1.0, 50.0, 99.0, 100.0] {
            let got = stats.latency_percentile(pct).unwrap();
            assert!((got - 0.05).abs() < 1e-12, "p{pct} = {got}");
        }
    }

    #[test]
    fn percentile_p99_of_100_samples_is_the_99th() {
        let c = config();
        let mut stats = QosStats::default();
        for ms in 1..=100u64 {
            stats.record(SimDuration::from_millis(ms), &c);
        }
        let p99 = stats.latency_percentile(99.0).unwrap();
        assert!((p99 - 0.099).abs() < 1e-12, "p99 = {p99}");
        let p1 = stats.latency_percentile(1.0).unwrap();
        assert!((p1 - 0.001).abs() < 1e-12, "p1 = {p1}");
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = QosStats::default();
        assert_eq!(s.total(), 0);
        assert_eq!(s.good_fraction(), 0.0);
        assert_eq!(s.mean_latency(), None);
        assert_eq!(s.latency_percentile(50.0), None);
    }

    /// Feeds `stream` (milliseconds) to a tail whose budget is the stream's
    /// length and to [`QosStats`], the oracle; `check` sees both after
    /// every request.
    fn tail_against_every_latency(
        stream: &[u64],
        mut check: impl FnMut(usize, &QosTail, &QosStats),
    ) {
        let c = config();
        let mut tail = QosTail::new(stream.len() as u64);
        let mut every = QosStats::default();
        for (n, &ms) in stream.iter().enumerate() {
            tail.record(SimDuration::from_millis(ms), &c);
            every.record(SimDuration::from_millis(ms), &c);
            check(n + 1, &tail, &every);
        }
    }

    fn same_p99(tail: &QosTail, every: &QosStats) -> bool {
        tail.p99().map(f64::to_bits) == every.latency_percentile(99.0).map(f64::to_bits)
            && tail.good_fraction().to_bits() == every.good_fraction().to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every count from 1 to a small budget, on a 250 ms grid that
        /// straddles both thresholds, so ties are the rule.
        #[test]
        fn the_tail_answers_p99_at_every_count_up_to_its_budget(
            steps in prop::collection::vec(0u64..40, 1..=400usize),
        ) {
            let stream: Vec<u64> = steps.iter().map(|step| 250 * step).collect();
            let mut agree = true;
            tail_against_every_latency(&stream, |n, tail, every| {
                agree &= same_p99(tail, every);
                agree &= tail.tail_len() as u64 == (n as u64).min(stream.len() as u64 / 100 + 1);
            });
            prop_assert!(agree);
        }

        /// The whole budget of a larger run, its tail a hundredth of it.
        #[test]
        fn the_tail_answers_p99_at_a_full_large_budget(
            stream in prop::collection::vec(0u64..8_000, 2_000..=20_000usize),
        ) {
            let mut last = false;
            tail_against_every_latency(&stream, |n, tail, every| {
                if n == stream.len() {
                    last = same_p99(tail, every);
                }
            });
            prop_assert!(last);
        }
    }

    #[test]
    fn a_restored_tail_encodes_and_answers_as_the_saved_one() {
        let c = config();
        let mut tail = QosTail::new(1_000);
        for ms in [900u64, 10, 4_000, 10, 7_500, 3_000, 10, 12_000, 6_000, 900, 2_000, 8_000] {
            tail.record(SimDuration::from_millis(ms), &c);
        }
        let mut enc = Enc::new();
        tail.save(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = QosTail::new(1_000);
        let mut dec = Dec::new(&bytes);
        restored.load(&mut dec).unwrap();
        dec.finish().unwrap();
        let mut again = Enc::new();
        restored.save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(restored.p99(), tail.p99());
        assert_eq!(restored.good_fraction(), tail.good_fraction());
        // A budget of 1 000 keeps the 11 largest of the 12.
        assert_eq!(restored.tail_len(), 11);
    }

    #[test]
    #[should_panic(expected = "good threshold must not exceed tolerable")]
    fn bad_thresholds_panic() {
        let mut c = config();
        c.good_threshold = SimDuration::from_secs(6);
        c.validate();
    }
}
