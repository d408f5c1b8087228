//! Per-thread policy control: cool the system without punishing the cool
//! process (the paper's Figure 5 demonstration).
//!
//! A periodic "cool" process (6 s of cpuburn, then a minute of sleep)
//! shares the machine with four instances of the hottest SPEC-like
//! profile. A chip-wide policy slows everyone; Dimetrodon's per-thread
//! table slows only the hot threads.
//!
//! ```text
//! cargo run --release --example per_thread_control
//! ```

use dimetrodon_repro::analysis::Table;
use dimetrodon_repro::harness::experiments::fig5::{run_subset, PolicyScope};
use dimetrodon_repro::harness::RunConfig;

fn main() {
    let config = RunConfig {
        duration: dimetrodon_repro::sim::SimDuration::from_secs(200),
        measure_window: dimetrodon_repro::sim::SimDuration::from_secs(30),
        seed: 5,
    };
    println!(
        "four hot calculix threads + one periodic cool process, p = 0.75, \
         L = 100 ms ({} s runs)...\n",
        config.duration.as_secs_f64()
    );
    let data = run_subset(config, &[0.75]);

    let mut table = Table::new(vec![
        "policy scope",
        "system temp reduction (%)",
        "cool process throughput (%)",
    ]);
    for scope in [PolicyScope::Global, PolicyScope::PerThread] {
        let point = data.scope_points(scope)[0];
        table.row(vec![
            format!("{scope:?}"),
            format!("{:.0}", point.temp_reduction * 100.0),
            format!("{:.0}", point.cool_throughput * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Both scopes cool the machine about equally, but the global policy\n\
         unfairly penalises the cool process for the hot process's heat —\n\
         the flexibility argument for scheduler-level injection over\n\
         chip-wide mechanisms like DVFS (paper S2.1, S3.6)."
    );
}
