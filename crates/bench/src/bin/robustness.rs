//! Regenerates the robustness study: closed-loop control under degraded
//! telemetry, fault intensity × controller hardening, with the reactive
//! thermal trip armed as the safety net.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin robustness
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
