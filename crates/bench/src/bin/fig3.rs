//! Regenerates Figure 3: Dimetrodon efficiency (temperature:throughput)
//! for cpuburn across idle quantum lengths and proportions.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig3
//! ```

use dimetrodon_bench::{banner, fig3_table, run_config_from_args, write_csv, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::fig3;

fn main() -> std::process::ExitCode {
    banner(
        "Figure 3",
        "efficiency vs idle quantum length L for p in {.1, .25, .5, .75}",
    );
    let (args, config) = run_config_from_args(103, SUPERVISION_FLAGS);
    let data = if args.has("--quick") {
        fig3::run_subset(config, &[0.25, 0.5], &[1, 5, 25, 100])
    } else {
        fig3::run(config)
    };

    let table = fig3_table(&data);
    println!("{}", table.render());
    write_csv("fig3_efficiency", &table);

    // A point the supervisor gave up on has NaN reductions.
    let best = data
        .points
        .iter()
        .filter(|p| p.temp_reduction > 0.01 && !p.efficiency().is_nan())
        .max_by(|a, b| a.efficiency().partial_cmp(&b.efficiency()).expect("no NaN"));
    match best {
        Some(best) => println!(
            "best efficiency: {:.1}:1 at p={:.2}, L={} ms (temp reduction {:.1}%) — \
             the paper reports 16:1 at a 4.4% reduction",
            best.efficiency(),
            best.p,
            best.l_ms,
            best.temp_reduction * 100.0,
        ),
        None => println!("best efficiency: no measured point reduces temperature by over 1%"),
    }

    dimetrodon_bench::supervision_epilogue()
}
