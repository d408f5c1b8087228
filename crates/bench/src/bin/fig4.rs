//! Regenerates Figure 4: wide-range sweeps of Dimetrodon vs VFS vs
//! `p4tcc`, with pareto boundaries and the Dimetrodon/VFS crossover.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig4
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
