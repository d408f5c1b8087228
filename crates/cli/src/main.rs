//! `dimetrodon-sim`: run a custom scenario on the simulated platform.
//!
//! ```text
//! cargo run --release -p dimetrodon-cli -- --workload cpuburn --p 0.5 --l-ms 25
//! cargo run --release -p dimetrodon-cli -- --workload web --p 0.75 --l-ms 50
//! cargo run --release -p dimetrodon-cli -- --setpoint 45 --duration-secs 300
//! cargo run --release -p dimetrodon-cli -- --workload cpuburn --p 0.5 --smt
//! ```

use std::process::ExitCode;

use dimetrodon_cli::{run_scenario, ArgsError, Options, USAGE};

fn main() -> ExitCode {
    let options = match Options::parse(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(ArgsError::HelpRequested) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "running {:?} for {} (seed {})...",
        options.workload, options.duration, options.seed
    );
    match run_scenario(&options) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
