//! Regenerates Figure 5: global versus thread-specific control with a
//! hot application and a periodic cool process.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig5
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv};
use dimetrodon_harness::experiments::fig5::{self, PolicyScope};

fn main() -> std::process::ExitCode {
    banner(
        "Figure 5",
        "global vs per-thread control: cool-process throughput vs system temperature reduction",
    );
    let (args, config) = run_config_from_args(105, &[]);
    let data = if args.has("--quick") {
        fig5::run_subset(config, &[0.5, 0.9])
    } else {
        fig5::run(config)
    };

    let mut table = Table::new(vec![
        "scope",
        "p",
        "temp_reduction",
        "cool_process_throughput",
    ]);
    for scope in [PolicyScope::Global, PolicyScope::PerThread] {
        for point in data.scope_points(scope) {
            table.row(vec![
                format!("{scope:?}"),
                format!("{:.2}", point.p),
                format!("{:.4}", point.temp_reduction),
                format!("{:.4}", point.cool_throughput),
            ]);
        }
    }
    println!("{}", table.render());
    write_csv("fig5_scope_comparison", &table);

    let worst_per_thread = data
        .scope_points(PolicyScope::PerThread)
        .iter()
        .map(|p| p.cool_throughput)
        .fold(f64::INFINITY, f64::min);
    let best_global = data
        .scope_points(PolicyScope::Global)
        .iter()
        .map(|p| p.cool_throughput)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "cool-process throughput: per-thread worst {:.0}%, global best {:.0}% — \
         per-thread control spares the cool process (paper S3.6)",
        worst_per_thread * 100.0,
        best_global * 100.0,
    );

    dimetrodon_bench::supervision_epilogue()
}
