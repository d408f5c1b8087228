//! Regenerates Figure 1: race-to-idle versus Dimetrodon power traces.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig1
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
