//! Runs every experiment of [`EXPERIMENTS`] in order, exactly as its own
//! binary runs it (no subprocesses): each prints its report and writes
//! its CSVs, then `run_all` prints one summary line per experiment with
//! its wall-clock time. An experiment runs at its own seed unless
//! `--seed N` is passed and it takes `--seed`, and at its own `--quick`
//! configuration.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin run_all -- --quick --jobs 8
//! ```

use std::process::ExitCode;
use std::time::Instant;

use dimetrodon_analysis::Table;
use dimetrodon_bench::{
    apply_common_args, banner, checked, results_dir, supervision_epilogue, EXPERIMENTS, RUN_FLAGS,
    SUPERVISION_FLAGS,
};

fn main() -> ExitCode {
    let args = apply_common_args(&[RUN_FLAGS, SUPERVISION_FLAGS].concat());
    let total_start = Instant::now();
    banner("run_all", "regenerating every table and figure");

    // The summary rows, timing-free, rewritten to `run_all_summary.csv`
    // after every experiment so a killed run leaves its completed results
    // on disk (and a resumed run regenerates the identical file).
    let mut table = Table::new(vec!["experiment", "summary"]);
    let mut summary = Vec::new();
    for experiment in EXPERIMENTS {
        let start = Instant::now();
        let config = checked(&args, experiment.config(&args));
        let line = (experiment.run)(&args, config);
        summary.push(format!(
            "{line}   [{}: {:.1}s]",
            experiment.name,
            start.elapsed().as_secs_f64()
        ));
        table.row(vec![experiment.name.to_string(), line]);
        std::fs::write(
            results_dir().join("run_all_summary.csv"),
            table.render_csv(),
        )
        .expect("write run_all summary csv");
    }

    banner("summary", "one line per experiment");
    for line in summary {
        println!("  {line}");
    }
    println!(
        "  total wall-clock: {:.1}s",
        total_start.elapsed().as_secs_f64()
    );

    supervision_epilogue()
}
