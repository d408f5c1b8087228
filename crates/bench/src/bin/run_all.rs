//! Regenerates every table and figure in sequence by invoking the
//! sibling binaries' experiment code directly (no subprocesses), printing
//! a compact summary (with per-experiment wall-clock times) at the end.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin run_all -- --quick --jobs 8
//! ```

use std::process::ExitCode;
use std::time::Instant;

use dimetrodon_analysis::Table;
use dimetrodon_bench::{
    banner, fig3_table, results_dir, run_config_from_args, supervision_epilogue, write_csv,
    SUPERVISION_FLAGS,
};
use dimetrodon_harness::experiments::{fig1, fig2, fig3, fig4, fig5, fig6, table1, validation};

fn main() -> ExitCode {
    let (args, config) = run_config_from_args(110, SUPERVISION_FLAGS);
    let quick = args.has("--quick");
    let mut summary: Vec<String> = Vec::new();
    let mut flushed: Vec<(String, String)> = Vec::new();
    let total_start = Instant::now();

    banner("run_all", "regenerating every table and figure");

    // Appends an experiment's summary line tagged with its wall-clock
    // time, and flushes the timing-free summary rows to
    // `results/run_all_summary.csv` after every experiment so a killed
    // run leaves its completed results on disk (and a resumed run
    // regenerates the identical file).
    let timed = |summary: &mut Vec<String>,
                 flushed: &mut Vec<(String, String)>,
                 name: &str,
                 line: String,
                 start: Instant| {
        summary.push(format!(
            "{line}   [{name}: {:.1}s]",
            start.elapsed().as_secs_f64()
        ));
        flushed.push((name.to_string(), line));
        let mut table = Table::new(vec!["experiment", "summary"]);
        for (experiment, text) in flushed.iter() {
            table.row(vec![experiment.clone(), text.clone()]);
        }
        std::fs::write(
            results_dir().join("run_all_summary.csv"),
            table.render_csv(),
        )
        .expect("write run_all summary csv");
    };

    let start = Instant::now();
    let f1 = fig1::run(config.seed);
    timed(
        &mut summary,
        &mut flushed,
        "fig1",
        format!(
            "fig1: energy ratio {:.3}, dimetrodon computes at {:.1} W vs {:.1} W",
            f1.dimetrodon_joules / f1.race_to_idle_joules,
            fig1::Fig1Data::mean_active_power(&f1.dimetrodon, 20.0),
            fig1::Fig1Data::mean_active_power(&f1.race_to_idle, 20.0),
        ),
        start,
    );

    let start = Instant::now();
    let f2 = fig2::run(config);
    let rises: Vec<String> = f2
        .curves
        .iter()
        .map(|c| format!("p={:.2}:{:.1}C", c.p, c.tail_rise))
        .collect();
    timed(
        &mut summary,
        &mut flushed,
        "fig2",
        format!("fig2: tail rises {}", rises.join(" ")),
        start,
    );

    let start = Instant::now();
    let f3 = if quick {
        fig3::run_subset(config, &[0.25, 0.5], &[1, 25, 100])
    } else {
        fig3::run(config)
    };
    write_csv("fig3_efficiency", &fig3_table(&f3));
    let best = f3
        .points
        .iter()
        .filter(|p| p.temp_reduction > 0.01)
        .map(|p| p.efficiency())
        .fold(f64::NEG_INFINITY, f64::max);
    timed(
        &mut summary,
        &mut flushed,
        "fig3",
        format!("fig3: best efficiency {best:.1}:1"),
        start,
    );

    let start = Instant::now();
    let f4 = if quick {
        fig4::run_subset(config, &[0.25, 0.75], &[5, 100], true)
    } else {
        fig4::run(config)
    };
    timed(
        &mut summary,
        &mut flushed,
        "fig4",
        match fig4::crossover_temp_reduction(&f4) {
            Some(r) => format!("fig4: dimetrodon/VFS crossover ~{:.0}%", r * 100.0),
            None => "fig4: no crossover in sweep".to_string(),
        },
        start,
    );

    let start = Instant::now();
    let f5 = if quick {
        fig5::run_subset(config, &[0.75])
    } else {
        fig5::run(config)
    };
    let per_thread_min = f5
        .scope_points(fig5::PolicyScope::PerThread)
        .iter()
        .map(|p| p.cool_throughput)
        .fold(f64::INFINITY, f64::min);
    timed(
        &mut summary,
        &mut flushed,
        "fig5",
        format!(
            "fig5: per-thread cool throughput >= {:.0}%",
            per_thread_min * 100.0
        ),
        start,
    );

    let start = Instant::now();
    let f6 = if quick {
        fig6::run_subset(config, &[0.5, 0.9], &[100])
    } else {
        fig6::run(config)
    };
    timed(
        &mut summary,
        &mut flushed,
        "fig6",
        format!(
            "fig6: baseline rise {:.1} C over {} requests",
            f6.baseline_rise,
            f6.baseline.total()
        ),
        start,
    );

    let start = Instant::now();
    let t1 = table1::run(config);
    let convex = t1.iter().filter(|r| r.fit.beta > 1.0).count();
    timed(
        &mut summary,
        &mut flushed,
        "table1",
        format!("table1: {}/{} workloads convex", convex, t1.len()),
        start,
    );

    let start = Instant::now();
    let trials = if quick { 3 } else { 20 };
    let tv = validation::throughput(trials, config.seed);
    timed(
        &mut summary,
        &mut flushed,
        "validation-throughput",
        format!(
            "validation (throughput): mean deviation {:+.2}%",
            tv.overall.mean * 100.0
        ),
        start,
    );

    let start = Instant::now();
    let ev = validation::energy(if quick { 2 } else { 5 }, config.seed);
    timed(
        &mut summary,
        &mut flushed,
        "validation-energy",
        format!(
            "validation (energy): mean deviation {:+.2}%",
            ev.overall_deviation.mean * 100.0
        ),
        start,
    );

    banner("summary", "one line per experiment");
    for line in summary {
        println!("  {line}");
    }
    println!("  total wall-clock: {:.1}s", total_start.elapsed().as_secs_f64());

    supervision_epilogue()
}
