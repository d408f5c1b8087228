//! Regenerates the reproduction's sensitivity study: the Figure 3
//! efficiency knee as a function of the hotspot time constant.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin sensitivity
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::sensitivity;

fn main() -> std::process::ExitCode {
    banner(
        "sensitivity",
        "efficiency-vs-L knee location as the hotspot time constant varies",
    );
    let (_, config) = run_config_from_args(112, SUPERVISION_FLAGS);
    let rows = sensitivity::run(config);

    let mut table = Table::new(vec!["tau_ms", "L_ms", "efficiency"]);
    for row in &rows {
        for &(l_ms, eff) in &row.curve {
            table.row(vec![
                format!("{:.1}", row.tau_ms),
                format!("{l_ms}"),
                format!("{eff:.2}"),
            ]);
        }
    }
    println!("{}", table.render());
    write_csv("sensitivity_hotspot_tau", &table);

    for row in &rows {
        match row.half_efficiency_l_ms() {
            Some(l) => println!(
                "tau = {:.1} ms: efficiency halves by L = {l} ms",
                row.tau_ms
            ),
            None => println!(
                "tau = {:.1} ms: efficiency never halves within the sweep",
                row.tau_ms
            ),
        }
    }
    println!(
        "\nThe knee tracks the hotspot pole — the model-level content of \
         S3.4's \"the optimal idle period appears closer to the order of \
         one ms\"."
    );

    dimetrodon_bench::supervision_epilogue()
}
