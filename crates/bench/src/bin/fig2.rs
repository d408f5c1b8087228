//! Regenerates Figure 2: core temperature rise over idle during cpuburn
//! for p ∈ {0, .25, .5, .75} at L = 100 ms.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig2
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::fig2;

fn main() -> std::process::ExitCode {
    banner(
        "Figure 2",
        "temperature rise over idle, 4x cpuburn, varying idle proportion p (L = 100 ms)",
    );
    let (_, config) = run_config_from_args(102, SUPERVISION_FLAGS);
    let data = fig2::run(config);

    println!("idle temperature: {:.1} C", data.idle_temp);
    let mut summary = Table::new(vec!["p", "tail rise over idle (C)"]);
    for curve in &data.curves {
        summary.row(vec![
            format!("{:.2}", curve.p),
            format!("{:.1}", curve.tail_rise),
        ]);
    }
    println!("{}", summary.render());

    // Time-series CSV: one column per curve, aligned on whole seconds.
    let mut table = Table::new(vec!["time_s", "p0", "p25", "p50", "p75"]);
    let seconds = config.duration.as_millis() / 1000;
    for sec in 0..seconds {
        let mut row = vec![format!("{sec}")];
        for curve in &data.curves {
            let v = curve
                .rise
                .iter()
                .find(|(t, _)| *t as u64 == sec)
                .map(|&(_, r)| format!("{r:.2}"))
                .unwrap_or_default();
            row.push(v);
        }
        table.row(row);
    }
    write_csv("fig2_temperature_rise", &table);

    dimetrodon_bench::supervision_epilogue()
}
