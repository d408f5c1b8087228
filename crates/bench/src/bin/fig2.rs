//! Regenerates Figure 2: core temperature rise over idle during cpuburn
//! for p ∈ {0, .25, .5, .75} at L = 100 ms.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig2
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
