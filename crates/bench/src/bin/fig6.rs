//! Regenerates Figure 6: web-workload QoS ("good" and "tolerable")
//! versus temperature reduction under the injection sweep.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig6
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
