//! Regenerates Figure 5: global versus thread-specific control with a
//! hot application and a periodic cool process.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig5
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
