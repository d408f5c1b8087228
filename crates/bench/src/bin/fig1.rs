//! Regenerates Figure 1: race-to-idle versus Dimetrodon power traces.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig1
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv};
use dimetrodon_harness::experiments::fig1::{self, Fig1Data};

fn main() -> std::process::ExitCode {
    banner(
        "Figure 1",
        "race-to-idle vs Dimetrodon power consumption (4-thread cpuburn burst)",
    );
    let (_, config) = run_config_from_args(101, &[]);
    let data = fig1::run(config.seed);

    println!(
        "window: {:.1} s | energy: race-to-idle {:.1} J, dimetrodon {:.1} J (ratio {:.3})",
        data.window_secs,
        data.race_to_idle_joules,
        data.dimetrodon_joules,
        data.dimetrodon_joules / data.race_to_idle_joules,
    );
    println!(
        "mean power while computing: race-to-idle {:.1} W, dimetrodon {:.1} W",
        Fig1Data::mean_active_power(&data.race_to_idle, 20.0),
        Fig1Data::mean_active_power(&data.dimetrodon, 20.0),
    );
    println!(
        "distinct power levels (8 W buckets): race-to-idle {}, dimetrodon {} \
         (the paper's four intermediate plateaus)",
        Fig1Data::plateau_count(&data.race_to_idle, 8.0),
        Fig1Data::plateau_count(&data.dimetrodon, 8.0),
    );

    // Decimated trace for the CSV (full traces are ~3800 samples each).
    let mut table = Table::new(vec!["time_s", "race_to_idle_w", "dimetrodon_w"]);
    let stride = 10;
    for i in (0..data.race_to_idle.len().min(data.dimetrodon.len())).step_by(stride) {
        table.row(vec![
            format!("{:.3}", data.race_to_idle[i].0),
            format!("{:.2}", data.race_to_idle[i].1),
            format!("{:.2}", data.dimetrodon[i].1),
        ]);
    }
    write_csv("fig1_power_traces", &table);

    dimetrodon_bench::supervision_epilogue()
}
