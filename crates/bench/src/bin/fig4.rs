//! Regenerates Figure 4: wide-range sweeps of Dimetrodon vs VFS vs
//! `p4tcc`, with pareto boundaries and the Dimetrodon/VFS crossover.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig4
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::fig4::{self, SweepPoint};

fn rows(table: &mut Table, mechanism: &str, points: &[SweepPoint], pareto: &[SweepPoint]) {
    for point in points {
        let on_frontier = pareto
            .iter()
            .any(|f| f.tag == point.tag && f.benefit == point.benefit);
        table.row(vec![
            mechanism.to_string(),
            point.tag.clone(),
            format!("{:.4}", point.benefit),
            format!("{:.4}", point.cost),
            if on_frontier { "yes" } else { "no" }.to_string(),
        ]);
    }
}

fn main() -> std::process::ExitCode {
    banner(
        "Figure 4",
        "Dimetrodon vs voltage/frequency scaling vs p4tcc clock duty cycling",
    );
    let (args, config) = run_config_from_args(104, SUPERVISION_FLAGS);
    let data = if args.has("--quick") {
        fig4::run_subset(config, &[0.25, 0.75], &[5, 100], true)
    } else {
        fig4::run(config)
    };

    let mut table = Table::new(vec![
        "mechanism",
        "config",
        "temp_reduction",
        "throughput_reduction",
        "pareto",
    ]);
    rows(&mut table, "dimetrodon", &data.dimetrodon, &data.dimetrodon_pareto());
    rows(&mut table, "vfs", &data.vfs, &data.vfs_pareto());
    rows(&mut table, "p4tcc", &data.tcc, &data.tcc_pareto());
    println!("{}", table.render());
    write_csv("fig4_mechanism_sweeps", &table);

    match fig4::crossover_temp_reduction(&data) {
        Some(r) => println!(
            "Dimetrodon matches or beats VFS for temperature reductions up to \
             ~{:.0}% (the paper reports ~30%)",
            r * 100.0
        ),
        None => println!("no crossover found in this sweep"),
    }
    let sub_one = data.tcc.iter().filter(|p| p.benefit < p.cost).count();
    println!(
        "p4tcc configurations below 1:1 trade-off: {}/{} (the paper: all)",
        sub_one,
        data.tcc.len()
    );

    dimetrodon_bench::supervision_epilogue()
}
