//! Runs the ablations of the reproduction's own design choices (the
//! DESIGN.md §6 list), one knob per section.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin ablations
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
