//! Regenerates the §3.3 throughput-model validation: measured runtimes of
//! a finite cpuburn versus the analytic `D(t) = R + S·p/(1−p)·L`.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin validate_model
//! # paper fidelity (100 trials/configuration):
//! cargo run --release -p dimetrodon-bench --bin validate_model -- --trials 100
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
