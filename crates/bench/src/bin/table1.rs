//! Regenerates Table 1: per-workload temperature rise (as a percentage of
//! cpuburn's) and best-fit `T(r) = α·r^β` trade-off parameters.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin table1
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
