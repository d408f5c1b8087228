//! Regenerates the §3.3 energy validation: Dimetrodon's energy versus
//! race-to-idle over equal windows, measured with the simulated current
//! clamp.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin validate_energy
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
