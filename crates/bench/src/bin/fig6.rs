//! Regenerates Figure 6: web-workload QoS ("good" and "tolerable")
//! versus temperature reduction under the injection sweep.
//!
//! ```text
//! cargo run --release -p dimetrodon-bench --bin fig6
//! ```

use dimetrodon_analysis::{pareto_frontier, Histogram, Table, TradeoffPoint};
use dimetrodon_bench::{banner, run_config_from_args, write_csv};
use dimetrodon_harness::experiments::fig6;

fn main() -> std::process::ExitCode {
    banner(
        "Figure 6",
        "QoS vs temperature reduction for the 440-connection web workload",
    );
    let (args, config) = run_config_from_args(106, &[]);
    let data = if args.has("--quick") {
        fig6::run_subset(config, &[0.5, 0.9], &[50, 100])
    } else {
        fig6::run(config)
    };

    println!(
        "baseline: {} requests, {:.1}% good, {:.1}% tolerable, rise over idle {:.1} C \
         (the paper observed ~6 C)\n",
        data.baseline.total(),
        data.baseline.good_fraction() * 100.0,
        data.baseline.tolerable_fraction() * 100.0,
        data.baseline_rise,
    );

    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "temp_reduction",
        "good_qos",
        "tolerable_qos",
        "mean_latency_s",
        "requests",
    ]);
    for point in &data.points {
        table.row(vec![
            format!("{:.2}", point.p),
            format!("{}", point.l_ms),
            format!("{:.4}", point.temp_reduction),
            format!("{:.4}", point.good_qos),
            format!("{:.4}", point.tolerable_qos),
            format!("{:.2}", point.stats.mean_latency().unwrap_or(0.0)),
            format!("{}", point.stats.total()),
        ]);
    }
    println!("{}", table.render());
    write_csv("fig6_web_qos", &table);

    // Latency distribution of the heaviest surviving configuration.
    if let Some(worst) = data
        .points
        .iter()
        .filter(|p| p.stats.total() > 0)
        .max_by(|a, b| {
            a.stats
                .mean_latency()
                .partial_cmp(&b.stats.mean_latency())
                .expect("no NaN")
        })
    {
        let mut hist = Histogram::new(0.0, 10.0, 20);
        for &latency in worst.stats.latencies() {
            hist.add(latency);
        }
        println!(
            "latency distribution at p={}, L={}ms ({}):",
            worst.p, worst.l_ms, hist
        );
        print!("{}", hist.render(40));
        println!();
    }

    // The darkened pareto boundaries of the figure, per metric.
    for (metric, getter) in [
        ("good", Box::new(|p: &fig6::Fig6Point| p.good_qos) as Box<dyn Fn(&fig6::Fig6Point) -> f64>),
        ("tolerable", Box::new(|p: &fig6::Fig6Point| p.tolerable_qos)),
    ] {
        let points: Vec<TradeoffPoint<String>> = data
            .points
            .iter()
            .map(|p| {
                TradeoffPoint::new(
                    p.temp_reduction,
                    1.0 - getter(p).min(1.0),
                    format!("p={},L={}ms", p.p, p.l_ms),
                )
            })
            .collect();
        let frontier = pareto_frontier(&points);
        let described: Vec<String> = frontier
            .iter()
            .map(|f| format!("{} ({:.0}% @ QoS {:.0}%)", f.tag, f.benefit * 100.0, (1.0 - f.cost) * 100.0))
            .collect();
        println!("{metric} pareto boundary: {}", described.join(", "));
    }

    dimetrodon_bench::supervision_epilogue()
}
