//! Shared scaffolding for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper: it runs the corresponding `dimetrodon-harness` experiment,
//! prints the rows/series the paper reports, and writes a CSV under
//! `results/` for plotting. Pass `--quick` to any binary to run the
//! shortened configuration (used in smoke tests); the default matches the
//! paper's 300 s methodology.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use dimetrodon_analysis::Table;
use dimetrodon_harness::supervise::{self, PanicPolicy, SupervisorConfig};
use dimetrodon_harness::RunConfig;

/// A flag a binary accepts: its name and whether a value follows it.
pub type Flag = (&'static str, bool);

/// The supervision flags (see [`supervisor_from_args`]), accepted by the
/// binaries whose sweeps run through `run_sweep` and so under the
/// supervisor.
pub const SUPERVISION_FLAGS: &[Flag] = &[
    ("--strict", false),
    ("--retries", true),
    ("--point-deadline", true),
    ("--sweep-budget", true),
    ("--resume", false),
    ("--no-journal", false),
];

/// The flags [`run_config`] reads: `--quick` and `--seed N`.
const RUN_FLAGS: &[Flag] = &[("--quick", false), ("--seed", true)];

/// Checks that every argument is one of the `accepted` flags, followed by
/// its value when it takes one; the error names the first that is not.
fn check_flags(args: &[String], accepted: &[Flag]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match accepted.iter().find(|(name, _)| name == arg) {
            None => return Err(format!("unknown argument `{arg}`")),
            Some((name, true)) if rest.next().is_none() => {
                return Err(format!("{name} requires a value"));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Reads the process arguments (program name excluded) and checks them
/// against `--jobs N` and the binary's own `extra` flags; anything else
/// prints the accepted flags and exits with status 2. Then applies
/// `--jobs` and installs the sweep supervisor, and returns the arguments
/// for the binary's own flags.
pub fn apply_common_args(extra: &[Flag]) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let accepted: Vec<Flag> = [("--jobs", true)].iter().chain(extra).copied().collect();
    if let Err(err) = check_flags(&args, &accepted) {
        let flags: Vec<String> = accepted
            .iter()
            .map(|&(name, value)| {
                if value {
                    format!("{name} <value>")
                } else {
                    name.to_string()
                }
            })
            .collect();
        eprintln!("error: {err}\naccepted flags: {}", flags.join(" "));
        std::process::exit(2);
    }
    apply_jobs_from_args(&args);
    supervise::install(supervisor_from_args(&args));
    args
}

/// [`apply_common_args`] for the figure and table binaries, which also
/// accept `--quick` (the shortened configuration) and `--seed N`.
pub fn run_config_from_args(default_seed: u64, extra: &[Flag]) -> RunConfig {
    let accepted: Vec<Flag> = RUN_FLAGS.iter().chain(extra).copied().collect();
    run_config(&apply_common_args(&accepted), default_seed)
}

/// The run configuration `args` select: `--quick` picks the shortened
/// configuration, `--seed N` overrides `default_seed`.
///
/// # Panics
///
/// Panics if `--seed` is not followed by an integer.
fn run_config(args: &[String], default_seed: u64) -> RunConfig {
    let mut seed = default_seed;
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        seed = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seed requires an integer");
    }
    if args.iter().any(|a| a == "--quick") {
        RunConfig::quick(seed)
    } else {
        RunConfig::paper(seed)
    }
}

/// Parses the supervision flags shared by every bench binary:
///
/// * `--strict` — abort the whole sweep on a panicking point (the
///   pre-supervisor behaviour) instead of quarantining it;
/// * `--retries N` — extra attempts for a failed point (default 0), with
///   seeds re-derived from the grid so output stays deterministic;
/// * `--point-deadline SECS` — wall-clock watchdog per point attempt;
/// * `--sweep-budget SECS` — wall-clock budget per sweep, points past it
///   are skipped;
/// * `--resume` — replay completed points from the on-disk journal of a
///   previous (possibly killed) run;
/// * `--no-journal` — disable the journal entirely (it defaults to
///   `results/.journal/`).
///
/// # Panics
///
/// Panics if a flag's value is missing or unparsable.
pub fn supervisor_from_args(args: &[String]) -> SupervisorConfig {
    let seconds_after = |flag: &str| -> Option<Duration> {
        args.iter().position(|a| a == flag).map(|pos| {
            let secs: f64 = args
                .get(pos + 1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("{flag} requires a number of seconds"));
            assert!(
                secs.is_finite() && secs > 0.0,
                "{flag} requires a positive number of seconds"
            );
            Duration::from_secs_f64(secs)
        })
    };
    let retries = match args.iter().position(|a| a == "--retries") {
        Some(pos) => args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--retries requires a non-negative integer"),
        None => 0,
    };
    let journal_dir = if args.iter().any(|a| a == "--no-journal") {
        None
    } else {
        Some(PathBuf::from("results").join(".journal"))
    };
    SupervisorConfig {
        policy: if args.iter().any(|a| a == "--strict") {
            PanicPolicy::Strict
        } else {
            PanicPolicy::Quarantine
        },
        point_deadline: seconds_after("--point-deadline"),
        sweep_budget: seconds_after("--sweep-budget"),
        retries,
        journal_dir,
        resume: args.iter().any(|a| a == "--resume"),
        backoff: true,
    }
}

/// End-of-run supervision report: prints how many points were replayed
/// from journals and every quarantine/timeout/skip incident, and turns
/// incidents into a nonzero exit code so CI catches degraded runs even
/// though the rest of the grid completed.
pub fn supervision_epilogue() -> ExitCode {
    let replayed = supervise::take_replayed();
    if replayed > 0 {
        println!("[resume: {replayed} point(s) replayed from journal]");
    }
    let incidents = supervise::take_incidents();
    if incidents.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} point(s) failed under supervision:", incidents.len());
    for incident in &incidents {
        eprintln!("  {incident}");
    }
    ExitCode::FAILURE
}

/// Applies a `--jobs N` argument (if present) to the sweep engine.
///
/// # Panics
///
/// Panics if `--jobs` is present without a positive integer after it.
pub fn apply_jobs_from_args(args: &[String]) {
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let jobs: usize = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--jobs requires a positive integer");
        assert!(jobs > 0, "--jobs requires a positive integer");
        dimetrodon_harness::sweep::set_jobs(jobs);
    }
}

/// Whether `--quick` was passed (for binaries that scale sweep grids as
/// well as durations).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parsed durable-checkpoint flags, shared by checkpoint-aware binaries:
///
/// * `--checkpoint-every N` — control epochs (fleet) or events (single
///   machine) between checkpoint saves, overriding the default cadence;
/// * `--no-checkpoint` — disable checkpoint saving entirely;
/// * `--restore` — resume from the newest verifiable checkpoint (falls
///   back past corrupt files; exits nonzero when none verifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointArgs {
    /// Explicit `--checkpoint-every` cadence, when given.
    pub every: Option<u64>,
    /// Whether `--no-checkpoint` was passed.
    pub disabled: bool,
    /// Whether `--restore` was passed.
    pub restore: bool,
}

/// Parses the checkpoint flags from an argument list.
///
/// # Panics
///
/// Panics if `--checkpoint-every` is present without a positive integer
/// after it, or combined with `--no-checkpoint`.
pub fn checkpoint_args(args: &[String]) -> CheckpointArgs {
    let every = args.iter().position(|a| a == "--checkpoint-every").map(|pos| {
        let n: u64 = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--checkpoint-every requires a positive integer");
        assert!(n > 0, "--checkpoint-every requires a positive integer");
        n
    });
    let disabled = args.iter().any(|a| a == "--no-checkpoint");
    assert!(
        !(disabled && every.is_some()),
        "--checkpoint-every and --no-checkpoint are mutually exclusive"
    );
    CheckpointArgs {
        every,
        disabled,
        restore: args.iter().any(|a| a == "--restore"),
    }
}

/// The directory durable checkpoints live in (`results/.ckpt/`).
pub fn ckpt_dir() -> PathBuf {
    results_dir().join(".ckpt")
}

/// Applies a `--journal-gc K` argument (if present): keep-last-K
/// retention over `results/.journal/`, sparing any file named by one of
/// `active_fingerprints` (the runs this process is using) regardless of
/// age. Off by default — journals are cheap and resumability is worth
/// more than the disk.
///
/// # Panics
///
/// Panics if `--journal-gc` is present without a non-negative integer
/// after it.
pub fn apply_journal_gc_from_args(args: &[String], active_fingerprints: &[u64]) {
    if let Some(pos) = args.iter().position(|a| a == "--journal-gc") {
        let keep: usize = args
            .get(pos + 1)
            .and_then(|s| s.parse().ok())
            .expect("--journal-gc requires a non-negative keep count");
        let dir = results_dir().join(".journal");
        let removed =
            dimetrodon_harness::supervise::gc_journals(&dir, keep, active_fingerprints);
        if removed > 0 {
            println!("[journal-gc: removed {removed} old journal file(s), kept last {keep}]");
        }
    }
}

/// Prints a banner naming the experiment being regenerated.
pub fn banner(id: &str, caption: &str) {
    println!("================================================================");
    println!("{id}: {caption}");
    println!("================================================================");
}

/// The output directory for CSVs (`results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a table as CSV under `results/` and reports the path.
pub fn write_csv(name: &str, table: &Table) {
    write_csv_in(&results_dir(), name, table);
}

/// Writes a table as `dir/name.csv` and reports the path.
fn write_csv_in(dir: &Path, name: &str, table: &Table) {
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.render_csv()).expect("write csv");
    println!("[wrote {}]", path.display());
}

/// The Figure 3 efficiency table, shared by the `fig3` binary and
/// `run_all` so both emit the identical `fig3_efficiency.csv` (which the
/// CI kill-and-resume check diffs byte-for-byte).
pub fn fig3_table(data: &dimetrodon_harness::experiments::fig3::Fig3Data) -> Table {
    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "temp_reduction",
        "throughput_reduction",
        "efficiency",
    ]);
    for point in &data.points {
        table.row(vec![
            format!("{:.2}", point.p),
            format!("{}", point.l_ms),
            format!("{:.4}", point.temp_reduction),
            format!("{:.4}", point.throughput_reduction),
            format!("{:.2}", point.efficiency()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn default_config_is_paper_scale() {
        let config = run_config(&[], 5);
        assert_eq!(config.seed, 5);
        assert_eq!(
            config.duration,
            dimetrodon_sim_core::SimDuration::from_secs(300)
        );
        assert_eq!(run_config(&args(&["--quick", "--seed", "9"]), 5).seed, 9);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        let accepted: Vec<Flag> = RUN_FLAGS.iter().chain(SUPERVISION_FLAGS).copied().collect();
        assert_eq!(
            check_flags(&args(&["--quick", "--seed", "2", "--resume"]), &accepted),
            Ok(())
        );
        assert_eq!(
            check_flags(&args(&["--quick", "--resume"]), RUN_FLAGS),
            Err("unknown argument `--resume`".to_string())
        );
        assert_eq!(
            check_flags(&args(&["--quick", "--jbos", "2"]), &accepted),
            Err("unknown argument `--jbos`".to_string())
        );
        assert_eq!(
            check_flags(&args(&["--quick", "extra"]), &accepted),
            Err("unknown argument `extra`".to_string())
        );
        assert_eq!(
            check_flags(&args(&["--seed"]), &accepted),
            Err("--seed requires a value".to_string())
        );
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dimetrodon_bench_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into()]);
        write_csv_in(&dir, "bench_selftest", &t);
        let read = fs::read_to_string(dir.join("bench_selftest.csv")).unwrap();
        assert_eq!(read, "a\n1\n");
        fs::remove_dir_all(&dir).unwrap();
    }
}
