//! Regenerates the robustness study: closed-loop control under degraded
//! telemetry, fault intensity × controller hardening, with the reactive
//! thermal trip armed as the safety net.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin robustness
//! ```

use dimetrodon_analysis::Table;
use dimetrodon_bench::{banner, run_config_from_args, write_csv};
use dimetrodon_harness::experiments::robustness;

fn main() -> std::process::ExitCode {
    banner(
        "robustness",
        "setpoint control under sensor faults; trip activations and tracking cost",
    );
    let (_, config) = run_config_from_args(113, &[]);
    let cells = robustness::run(config);

    let mut table = Table::new(vec![
        "intensity",
        "variant",
        "tracking_rms_C",
        "peak_temp_C",
        "trips",
        "throughput",
        "final_p",
        "fallback_ticks",
        "dropped_reads",
    ]);
    for cell in &cells {
        table.row(vec![
            format!("{:.2}", cell.intensity),
            cell.variant.label().to_string(),
            format!("{:.2}", cell.tracking_rms),
            format!("{:.2}", cell.peak_temp),
            format!("{}", cell.trips),
            format!("{:.3}", cell.throughput),
            format!("{:.3}", cell.final_p),
            format!("{}", cell.fallback_ticks),
            format!("{}", cell.dropped_reads),
        ]);
    }
    println!("{}", table.render());
    write_csv("robustness", &table);

    let tripped: u64 = cells.iter().map(|c| c.trips).sum();
    println!(
        "\nAcross the grid the reactive trip latched {tripped} time(s); \
         peak sensor temperature stayed below {:.0} C + 1 in every cell: {}.",
        robustness::CRITICAL_CELSIUS,
        cells
            .iter()
            .all(|c| c.peak_temp < robustness::CRITICAL_CELSIUS + 1.0)
    );
    println!(
        "Hardened cells spend their blind ticks in fallback (preventive \
         injection ceded to the trip) instead of integrating noise."
    );

    dimetrodon_bench::supervision_epilogue()
}
