//! End-to-end and per-layer benchmark of the fleet and Figure 3 sweep
//! paths, written from outside the program: every workload is a closed
//! batch sent from one thread at one worker through the public entry
//! points the `fleet` and `fig3` binaries use.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|paper-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` repeats the batch for `--seconds` of host time and reports
//! the end-to-end metrics. `--trace 1` alternates untraced batches with
//! batches in which the benchmark makes the layer calls itself inside
//! spans, checks that both produce bit-identical outputs, and reports the
//! per-layer metrics; for `fleet` it spends half its time on the same
//! fleet under the chaos layer's faults. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod fleet;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dimetrodon_ckpt::fnv1a64;
use trace::{Laps, Tracer};

/// Set-up is timed this many times before every batch: `Fleet::new` and
/// `build_system` take under a millisecond each.
const SETUP_REPS: usize = 5;

/// Result digests of the default seeds, one `workload seed digest` line
/// each; a differing digest is reported, not counted as a failure.
const REFERENCE: &str = include_str!("../reference.txt");

/// What one batch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Operations (policy variants or sweep points) that panicked, were
    /// quarantined, or failed an output check.
    pub failed: u64,
    /// The result table as the binaries render it to CSV.
    pub table: String,
    /// Every output at full precision (`{:?}` round-trips `f64`), for
    /// the bit-for-bit comparisons.
    pub exact: String,
}

/// Deterministic per-batch counts of a traced batch, by metric name.
pub type Counts = BTreeMap<String, u64>;

/// Adds `value` to the count `name`.
pub fn add(counts: &mut Counts, name: &str, value: u64) {
    *counts.entry(name.to_string()).or_default() += value;
}

/// One benchmark workload.
pub trait Workload {
    /// Operations per batch.
    fn ops(&self) -> u64;
    /// Simulated machine-seconds one batch covers.
    fn sim_seconds(&self) -> f64;
    /// Host seconds to build each fleet or system one batch simulates.
    fn setup(&self) -> Vec<f64>;
    /// One batch through the program's entry points, ending a lap after
    /// every epoch and variant or every sweep point.
    fn run(&self, laps: &mut Laps) -> Batch;
    /// One batch in which the benchmark makes the layer calls itself,
    /// recording spans into `tracer`.
    fn run_traced(&self, tracer: &mut Tracer) -> (Batch, Counts);
    /// Per-layer metrics from the spans and the first traced batch's
    /// counts, over `batches` traced batches.
    fn layers(&self, tracer: &Tracer, counts: &Counts, batches: usize) -> Vec<(String, f64)>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fleet,
    PaperSweep,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        match name {
            "fleet" => Some(Kind::Fleet),
            "paper-sweep" => Some(Kind::PaperSweep),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Fleet => "fleet",
            Kind::PaperSweep => "paper-sweep",
        }
    }

    /// The seeds the `fleet` and `run_all` binaries default to.
    fn default_seed(self) -> u64 {
        match self {
            Kind::Fleet => 211,
            Kind::PaperSweep => 110,
        }
    }
}

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .map(|pos| args.get(pos + 1).map_or("", String::as_str))
    };
    let kind = value("--workload")
        .ok_or("--workload is required")
        .and_then(|name| Kind::parse(name).ok_or("--workload must be fleet or paper-sweep"))?;
    let seed = match value("--seed") {
        Some(text) => text.parse().map_err(|_| "--seed requires an integer")?,
        None => kind.default_seed(),
    };
    let seconds: f64 = match value("--seconds") {
        Some(text) => text.parse().map_err(|_| "--seconds requires a number")?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// A scratch directory inside the benchmark's own directory, removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(kind: Kind) -> std::io::Result<WorkDir> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{}", kind.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl WorkDir {
    /// Where a traced run writes its spans: beside the scratch
    /// directory, so the file outlives the run.
    fn spans(&self, label: &str) -> PathBuf {
        let name = format!("spans-{label}.tsv");
        self.0
            .parent()
            .map_or_else(|| PathBuf::from(&name), |dir| dir.join(&name))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The median, or NaN for no values.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\"")
}

fn reference_digest(label: &str, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(label)
            && fields.next().and_then(|s| s.parse().ok()) == Some(seed);
        matches
            .then(|| fields.next().and_then(|d| u64::from_str_radix(d, 16).ok()))
            .flatten()
    })
}

/// Prints the FNV-1a digest of a result table beside its reference.
fn report_digest(label: &str, seed: u64, table: &str) {
    let digest = fnv1a64(table.as_bytes());
    let verdict = match reference_digest(label, seed) {
        Some(reference) if reference == digest => format!("matches reference {reference:016x}"),
        Some(reference) => format!("DIFFERS from reference {reference:016x}"),
        None => "no reference for this seed".to_string(),
    };
    println!("{label} result digest {digest:016x} ({verdict})");
}

/// Runs one batch, turning a panic that escaped the program's own
/// supervision into a batch whose every operation failed.
fn guarded<T>(ops: u64, fallback: impl FnOnce() -> T, f: impl FnOnce() -> T) -> (T, u64) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => (value, 0),
        Err(_) => (fallback(), ops),
    }
}

fn failed_batch() -> Batch {
    Batch {
        failed: 0,
        table: String::new(),
        exact: "panicked".to_string(),
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    /// Whether repeated batches agreed with each other bit for bit.
    repeatable: bool,
    first: Batch,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Whether another round brings the host time spent closer to the
/// `seconds` asked for than stopping now would.
fn another_round(round_times: &[f64], seconds: f64) -> bool {
    let host: f64 = round_times.iter().sum();
    round_times.is_empty() || host + host / round_times.len() as f64 / 2.0 < seconds
}

/// Keeps the element-wise minimum of `fastest` and `sample`; false if
/// their lengths differ.
fn keep_fastest(fastest: &mut Vec<f64>, sample: &[f64]) -> bool {
    if fastest.is_empty() {
        fastest.extend_from_slice(sample);
    } else if fastest.len() != sample.len() {
        return false;
    }
    for (best, &t) in fastest.iter_mut().zip(sample) {
        *best = best.min(t);
    }
    true
}

/// Tracing off: repeats the batch for about `seconds` and reports the
/// end-to-end metrics from the fastest host time each lap, and each
/// set-up, took over the run.
///
/// The shared host switches between a fast state and one about half as
/// fast, in stretches of 0.1 to a few seconds, for every workload here.
/// A median lands in either state depending on how a run overlapped
/// them. Each lap repeats once per batch, about 20 times in 50 s, so its
/// fastest repeat is its time in the fast state unless every repeat
/// fell in the slow one.
fn timed(work: &dyn Workload, seconds: f64) -> Outcome {
    let mut fastest_setup = Vec::new();
    let mut fastest_laps = Vec::new();
    let mut batches: Vec<Batch> = Vec::new();
    let mut batch_times = Vec::new();
    let mut round_times = Vec::new();
    let mut failed = 0;
    let mut repeatable = true;
    while another_round(&round_times, seconds) {
        let round_started = Instant::now();
        for _ in 0..SETUP_REPS {
            repeatable &= keep_fastest(&mut fastest_setup, &work.setup());
        }
        let started = Instant::now();
        let mut laps = Laps::start();
        let (batch, panicked) = guarded(work.ops(), failed_batch, || work.run(&mut laps));
        batch_times.push(started.elapsed().as_secs_f64());
        if panicked == 0 {
            repeatable &= keep_fastest(&mut fastest_laps, &laps.secs);
        }
        failed += batch.failed + panicked;
        batches.push(batch);
        round_times.push(round_started.elapsed().as_secs_f64());
    }
    repeatable &= batches.iter().all(|b| b.exact == batches[0].exact);
    let fastest_batch: f64 = fastest_laps.iter().sum();
    println!(
        "{} batches, {} laps each; host s per batch: fastest laps {fastest_batch:.4}, median batch {:.4}, fastest batch {:.4}",
        batches.len(),
        fastest_laps.len(),
        median(batch_times.clone()),
        batch_times.iter().copied().fold(f64::INFINITY, f64::min),
    );
    let metrics = vec![
        (
            "sim_s_per_s".to_string(),
            work.sim_seconds() / fastest_batch,
            "s/s",
        ),
        ("setup_s".to_string(), fastest_setup.iter().sum(), "s"),
        (
            "peak_rss_mb".to_string(),
            peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ),
    ];
    Outcome {
        attempted: batches.len() as u64 * work.ops(),
        failed,
        repeatable,
        first: batches.swap_remove(0),
        metrics,
    }
}

/// Every per-layer metric, in report order, with its unit.
const LAYERS: [(&str, &str); 29] = [
    ("fleet.sim.new_ms", "ms"),
    ("fleet.sim.step_self_us", "us"),
    ("fleet.sim.machine_epochs", "count"),
    ("fleet.policy.route_calls", "count"),
    ("fleet.policy.route_ns.round-robin", "ns"),
    ("fleet.policy.route_ns.least-loaded", "ns"),
    ("fleet.policy.route_ns.coolest-first", "ns"),
    ("fleet.policy.route_ns.pinned-migrate", "ns"),
    ("fleet.policy.route_share", "ratio"),
    ("fleet.policy.useful_frac", "ratio"),
    ("fleet.policy.end_epoch_us", "us"),
    ("fleet.chaos.shed_requests", "count"),
    ("fleet.chaos.recoveries", "count"),
    ("fleet.chaos.degraded_epochs", "count"),
    ("fleet.chaos.route_calls", "count"),
    ("fleet.chaos.useful_frac", "ratio"),
    ("fleet.chaos.step_self_us", "us"),
    ("ckpt.saves", "count"),
    ("ckpt.bytes", "B"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.save_ms", "ms"),
    ("fleet.journal.append_us", "us"),
    ("harness.runner.build_us", "us"),
    ("sched.events", "count"),
    ("sched.ns_per_event", "ns"),
    ("dimetrodon.injected_idles", "count"),
    ("harness.runner.measure_ms", "ms"),
    ("trace.root_cover", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Tracing on: alternates untraced and traced batches for `seconds`,
/// checks the traced outputs against the untraced ones, and reports the
/// per-layer metrics. Layers a workload never calls report 0. The
/// overhead compares the fastest batch of each kind, for the reason
/// `timed` gives.
fn traced(work: &dyn Workload, seconds: f64, spans_out: &Path) -> Outcome {
    let mut tracer = Tracer::new();
    let mut fastest_untraced = Duration::MAX;
    let mut fastest_traced = Duration::MAX;
    let mut traced_host = Duration::ZERO;
    let mut first: Option<(Batch, Counts)> = None;
    let mut pair_times = Vec::new();
    let mut failed = 0;
    let mut repeatable = true;
    while another_round(&pair_times, seconds) {
        let pair_started = Instant::now();
        let started = Instant::now();
        let (plain, panicked) = guarded(work.ops(), failed_batch, || work.run(&mut Laps::start()));
        fastest_untraced = fastest_untraced.min(started.elapsed());
        failed += plain.failed + panicked;

        let started = Instant::now();
        let ((batch, counts), panicked) = guarded(
            work.ops(),
            || (failed_batch(), Counts::new()),
            || work.run_traced(&mut tracer),
        );
        traced_host += started.elapsed();
        fastest_traced = fastest_traced.min(started.elapsed());
        failed += batch.failed + panicked;
        if batch.exact != plain.exact {
            eprintln!("traced outputs differ from the untraced batch's");
            failed += work.ops();
        }
        match &first {
            None => first = Some((batch, counts)),
            Some((first_batch, first_counts)) => {
                repeatable &= *first_batch == batch && *first_counts == counts;
            }
        }
        pair_times.push(pair_started.elapsed().as_secs_f64());
    }
    let pairs = pair_times.len();
    let (first, counts) = first.expect("at least one traced batch ran");

    let mut values: BTreeMap<String, f64> =
        work.layers(&tracer, &counts, pairs).into_iter().collect();
    values.insert(
        "trace.root_cover".into(),
        tracer.roots_total().as_secs_f64() / traced_host.as_secs_f64(),
    );
    values.insert(
        "trace.overhead".into(),
        fastest_traced.as_secs_f64() / fastest_untraced.as_secs_f64() - 1.0,
    );

    println!("self time by span over {pairs} traced batch(es):");
    for (name, time) in tracer.self_times() {
        println!("  {name:<34} {:>12.3} ms", time.as_secs_f64() * 1e3);
    }
    for (name, count) in &counts {
        println!("  count {name:<28} {count}");
    }
    if let Err(err) = tracer.write_tsv(spans_out) {
        eprintln!(
            "warning: cannot write spans to {}: {err}",
            spans_out.display()
        );
    }

    let metrics = LAYERS
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    Outcome {
        attempted: 2 * pairs as u64 * work.ops(),
        failed,
        repeatable,
        first,
        metrics,
    }
}

/// Failure-path layers the `fleet` traced run reports from its chaos
/// pass: the reported name, then the name the pass measures it under.
const CHAOS_LAYERS: [(&str, &str); 6] = [
    ("fleet.chaos.shed_requests", "fleet.chaos.shed_requests"),
    ("fleet.chaos.recoveries", "fleet.chaos.recoveries"),
    ("fleet.chaos.degraded_epochs", "fleet.chaos.degraded_epochs"),
    ("fleet.chaos.route_calls", "fleet.policy.route_calls"),
    ("fleet.chaos.useful_frac", "fleet.policy.useful_frac"),
    ("fleet.chaos.step_self_us", "fleet.sim.step_self_us"),
];

/// The `fleet` traced run: half the time on the plain fleet the timed
/// run measures, half on the same fleet under the chaos layer's faults
/// at intensity 1.0, as `fleet --chaos` runs that row. The chaos pass
/// keeps the failure path's layers measured although no timed workload
/// runs it.
fn traced_fleet(seed: u64, work: &WorkDir, seconds: f64) -> Outcome {
    let plain = traced(
        &fleet::FleetWorkload::plain(seed, &work.0),
        seconds / 2.0,
        &work.spans("fleet"),
    );
    let chaos = traced(
        &fleet::FleetWorkload::chaos(seed, &work.0),
        seconds / 2.0,
        &work.spans("fleet-chaos"),
    );
    report_digest("fleet-chaos", seed, &chaos.first.table);
    let measured = |name: &str| {
        chaos
            .metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, value, _)| value)
    };
    let metrics = plain
        .metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let value = CHAOS_LAYERS
                .iter()
                .find(|(reported, _)| *reported == name)
                .and_then(|(_, pass_name)| measured(pass_name))
                .unwrap_or(value);
            (name, value, unit)
        })
        .collect();
    Outcome {
        attempted: plain.attempted + chaos.attempted,
        failed: plain.failed + chaos.failed,
        repeatable: plain.repeatable && chaos.repeatable,
        first: plain.first,
        metrics,
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a non-finite value already marks the run
            // incorrect.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!("usage: perfbench --workload fleet|paper-sweep [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let work_dir = match WorkDir::create(args.kind) {
        Ok(dir) => dir,
        Err(err) => {
            eprintln!("error: cannot create the scratch directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} host {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_facts()
    );

    let outcome = match (args.kind, args.trace) {
        (Kind::Fleet, true) => traced_fleet(args.seed, &work_dir, args.seconds),
        (Kind::Fleet, false) => timed(
            &fleet::FleetWorkload::plain(args.seed, &work_dir.0),
            args.seconds,
        ),
        (Kind::PaperSweep, trace) => {
            let sweep = sweep::SweepWorkload::new(args.seed, &work_dir.0);
            match trace {
                true => traced(&sweep, args.seconds, &work_dir.spans(args.kind.name())),
                false => timed(&sweep, args.seconds),
            }
        }
    };
    report_digest(args.kind.name(), args.seed, &outcome.first.table);
    if !outcome.repeatable {
        eprintln!("repeated batches at one seed disagree");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<38} {value:>16.6} {unit}");
    }
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && outcome.repeatable && finite;
    println!(
        "{}",
        json_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
