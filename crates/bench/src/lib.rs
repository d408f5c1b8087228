//! Shared scaffolding for the figure/table regeneration binaries.
//!
//! Each single-machine binary in `src/bin/` regenerates one table or
//! figure of the paper, or one of the reproduction's own studies: it
//! looks itself up in [`EXPERIMENTS`], runs the corresponding
//! `dimetrodon-harness` experiment, prints the rows/series the paper
//! reports, and writes a CSV under `results/` for plotting. `run_all`
//! runs the same table in order. Pass `--quick` to any binary to run the
//! shortened configuration (used in smoke tests); the default matches the
//! paper's 300 s methodology.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dimetrodon_analysis::Table;
use dimetrodon_harness::args::ArgsError;
use dimetrodon_harness::supervise;

pub use dimetrodon_harness::args::{Args, Flag, SUPERVISION_FLAGS};
pub use experiments::{Experiment, EXPERIMENTS, RUN_FLAGS};

mod ablations;
mod experiments;

/// Prints a usage error and the accepted flags, and exits with status 2;
/// `--help` prints the accepted flags and exits 0.
fn usage_exit(err: &ArgsError, accepted: &[Flag]) -> ! {
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
    let flags = flags.join(" ");
    if *err == ArgsError::HelpRequested {
        println!("accepted flags: {flags}");
        std::process::exit(0);
    }
    eprintln!("error: {err}\naccepted flags: {flags}");
    std::process::exit(2);
}

/// The value of a typed read of `args`, or the usage error's exit
/// (status 2, see [`usage_exit`]).
pub fn checked<T>(args: &Args, read: Result<T, ArgsError>) -> T {
    read.unwrap_or_else(|err| usage_exit(&err, args.accepted()))
}

/// Checks the process arguments (program name excluded) against `--jobs
/// N` and the binary's own `extra` flags, applies `--jobs` and installs
/// the sweep supervisor the [`SUPERVISION_FLAGS`] select, and returns the
/// checked arguments. Any usage error prints `error: …` and the accepted
/// flags and exits with status 2.
pub fn apply_common_args(extra: &[Flag]) -> Args {
    let accepted: Vec<Flag> = [("--jobs", true)].iter().chain(extra).copied().collect();
    let args = Args::parse(std::env::args().skip(1), &accepted)
        .unwrap_or_else(|err| usage_exit(&err, &accepted));
    let jobs = args.value("--jobs", "a positive worker count", |&n: &usize| n > 0);
    if let Some(jobs) = checked(&args, jobs) {
        dimetrodon_harness::sweep::set_jobs(jobs);
    }
    supervise::install(checked(&args, args.supervisor()));
    args
}

/// The `main` of the experiment binary `name`: checks the command line
/// against the experiment's flags, runs it, and reports supervision.
///
/// # Panics
///
/// Panics if `name` is not in [`EXPERIMENTS`].
pub fn run_experiment(name: &str) -> ExitCode {
    let experiment = EXPERIMENTS
        .iter()
        .find(|experiment| experiment.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name}"));
    let args = apply_common_args(&experiment.accepted());
    let config = checked(&args, experiment.config(&args));
    (experiment.run)(&args, config);
    supervision_epilogue()
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

/// The directory durable checkpoints live in (`results/.ckpt/`).
pub fn ckpt_dir() -> PathBuf {
    results_dir().join(".ckpt")
}

/// Keep-last-`keep` retention over `results/.journal/` (`--journal-gc
/// K`), sparing any file named by one of `active_fingerprints` (the runs
/// this process is using) regardless of age. Off unless asked for —
/// journals are cheap and resumability is worth more than the disk.
pub fn journal_gc(keep: usize, active_fingerprints: &[u64]) {
    let dir = results_dir().join(".journal");
    let removed = dimetrodon_ckpt::gc_journals(&dir, keep, active_fingerprints);
    if removed > 0 {
        println!("[journal-gc: removed {removed} old journal file(s), kept last {keep}]");
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

/// The Figure 3 efficiency table of `fig3_efficiency.csv`, which the
/// benchmark's `paper-sweep` workload renders too.
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

    fn experiment(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn default_config_is_paper_scale() {
        let fig1 = experiment("fig1");
        let none = Args::parse(Vec::<String>::new(), &fig1.accepted()).unwrap();
        let config = fig1.config(&none).unwrap();
        assert_eq!(config.seed, 101);
        assert_eq!(
            config.duration,
            dimetrodon_sim_core::SimDuration::from_secs(300)
        );
        let quick = Args::parse(["--quick", "--seed", "9"], &fig1.accepted()).unwrap();
        let quick_nine = dimetrodon_harness::RunConfig::quick(9);
        assert_eq!(fig1.config(&quick).unwrap(), quick_nine);
        let bad = Args::parse(["--seed", "abc"], &fig1.accepted()).unwrap();
        assert!(matches!(
            fig1.config(&bad),
            Err(ArgsError::BadValue { flag: "--seed", .. })
        ));
    }

    #[test]
    fn run_all_seeds_only_the_experiments_that_take_seed() {
        // run_all's own flags: every experiment's run and supervision flags.
        let flags = [RUN_FLAGS, SUPERVISION_FLAGS].concat();
        let args = Args::parse(["--quick", "--seed", "7"], &flags).unwrap();
        for experiment in EXPERIMENTS {
            let expected = match experiment.name {
                "validate_model" => 108,
                "validate_energy" => 109,
                _ => 7,
            };
            let seed = experiment.config(&args).unwrap().seed;
            assert_eq!(seed, expected, "{}", experiment.name);
        }
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
