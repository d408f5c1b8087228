//! Regenerates the §3.3 energy validation: Dimetrodon's energy versus
//! race-to-idle over equal windows, measured with the simulated current
//! clamp.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin validate_energy
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{apply_common_args, banner, write_csv};
use dimetrodon_harness::experiments::validation;

fn main() -> std::process::ExitCode {
    let args = apply_common_args(&[("--quick", false)]);
    banner(
        "S3.3 (energy)",
        "Dimetrodon energy / race-to-idle energy over equal windows (7 s finite cpuburn)",
    );
    let trials = if args.has("--quick") { 2 } else { 5 };
    println!("running {trials} trials per configuration (paper: 5)...\n");
    let v = validation::energy(trials, 109);

    let mut table = Table::new(vec!["p", "L_ms", "trial ratios (dimetrodon / race-to-idle)"]);
    let mut min_ratio = f64::INFINITY;
    let mut max_ratio = f64::NEG_INFINITY;
    for row in &v.rows {
        min_ratio = row.ratios.iter().copied().fold(min_ratio, f64::min);
        max_ratio = row.ratios.iter().copied().fold(max_ratio, f64::max);
        table.row(vec![
            format!("{:.2}", row.p),
            format!("{}", row.l_ms),
            row.ratios
                .iter()
                .map(|r| format!("{:.3}", r))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    println!("{}", table.render());
    write_csv("validation_energy", &table);

    println!(
        "ratios span {:.1}%..{:.1}% of race-to-idle energy; mean deviation {:+.2}%, \
         mean |deviation| {:.2}% (the paper: 97.6%..103.7%, avg -0.37%, avg abs 1.67%)",
        min_ratio * 100.0,
        max_ratio * 100.0,
        v.overall_deviation.mean * 100.0,
        v.overall_deviation.mean_abs * 100.0,
    );

    dimetrodon_bench::supervision_epilogue()
}
