//! Regenerates Figure 3: Dimetrodon efficiency (temperature:throughput)
//! for cpuburn across idle quantum lengths and proportions.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig3
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
