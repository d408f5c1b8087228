//! Regenerates the §3.3 throughput-model validation: measured runtimes of
//! a finite cpuburn versus the analytic `D(t) = R + S·p/(1−p)·L`.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin validate_model
//! # paper fidelity (100 trials/configuration):
//! cargo run --release -p dimetrodon-bench --bin validate_model -- --trials 100
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{apply_common_args, banner, checked, write_csv};
use dimetrodon_harness::experiments::validation;

fn main() -> std::process::ExitCode {
    let args = apply_common_args(&[("--quick", false), ("--trials", true)]);
    let trials = checked(
        &args,
        args.value("--trials", "a positive trial count", |&n: &usize| n > 0),
    )
    .unwrap_or(if args.has("--quick") { 5 } else { 30 });
    banner(
        "S3.3 (throughput)",
        "measured runtime vs D(t) = R + S*p/(1-p)*L over the paper's (p, L) grid",
    );
    println!("running {trials} trials per configuration (paper: 100)...\n");
    let v = validation::throughput(trials, 108);

    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "predicted_s",
        "measured_mean_s",
        "deviation_pct",
    ]);
    for row in &v.rows {
        table.row(vec![
            format!("{:.2}", row.p),
            format!("{}", row.l_ms),
            format!("{:.3}", row.predicted_s),
            format!("{:.3}", row.measured_s),
            format!("{:+.2}", row.mean_deviation() * 100.0),
        ]);
    }
    println!("{}", table.render());
    write_csv("validation_throughput", &table);

    println!(
        "overall deviation: mean {:+.2}%, |mean| {:.2}%, sd {:.2}% over {} trials \
         (the paper: throughput ~1.0% lower than predicted on average)",
        v.overall.mean * 100.0,
        v.overall.mean_abs * 100.0,
        v.overall.std_dev * 100.0,
        v.overall.n,
    );

    dimetrodon_bench::supervision_epilogue()
}
