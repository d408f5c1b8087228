//! Regenerates the reproduction's sensitivity study: the Figure 3
//! efficiency knee as a function of the hotspot time constant.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin sensitivity
//! ```

fn main() -> std::process::ExitCode {
    dimetrodon_bench::run_experiment(env!("CARGO_BIN_NAME"))
}
