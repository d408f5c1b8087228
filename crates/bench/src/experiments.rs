//! The table of experiments behind the figure and table binaries and
//! `run_all`: each entry is one binary's whole run, so a binary and
//! `run_all` print the same report and write the same CSV bytes.

use dimetrodon_analysis::{pareto_frontier, Histogram, Table, TradeoffPoint};
use dimetrodon_harness::args::{Args, ArgsError, Flag, SUPERVISION_FLAGS};
use dimetrodon_harness::experiments::fig1::{self, Fig1Data};
use dimetrodon_harness::experiments::fig4::{self, SweepPoint};
use dimetrodon_harness::experiments::fig5::{self, Fig5Data, PolicyScope};
use dimetrodon_harness::experiments::{
    fig2, fig3, fig6, robustness, sensitivity, table1, validation,
};
use dimetrodon_harness::RunConfig;

use crate::{ablations, banner, checked, fig3_table, write_csv};

/// The flags of a run at either scale: `--quick` and `--seed N`.
pub const RUN_FLAGS: &[Flag] = &[("--quick", false), ("--seed", true)];

/// One experiment of the paper's evaluation (or of the reproduction's
/// own studies), run by the binary of the same name and by `run_all`.
#[derive(Debug)]
pub struct Experiment {
    /// The binary's name, and the experiment's row in
    /// `run_all_summary.csv`.
    pub name: &'static str,
    /// The seed a run uses unless `--seed N` overrides it.
    pub seed: u64,
    /// The flags the binary accepts besides `--jobs`, in groups.
    pub flags: &'static [&'static [Flag]],
    /// Prints the report, writes the CSVs and returns one summary line.
    pub run: fn(&Args, RunConfig) -> String,
}

impl Experiment {
    /// The flags the binary accepts besides `--jobs`, as one list.
    pub fn accepted(&self) -> Vec<Flag> {
        self.flags.concat()
    }

    /// The run configuration `args` select: `--quick` picks the
    /// shortened configuration, and `--seed N` overrides the default seed
    /// when this experiment takes `--seed`.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`] for a seed that is not an unsigned integer.
    pub fn config(&self, args: &Args) -> Result<RunConfig, ArgsError> {
        let passed = if self.accepted().contains(&("--seed", true)) {
            args.value("--seed", "an unsigned integer", |_: &u64| true)?
        } else {
            None
        };
        let seed = passed.unwrap_or(self.seed);
        Ok(if args.has("--quick") {
            RunConfig::quick(seed)
        } else {
            RunConfig::paper(seed)
        })
    }
}

/// The flags of an experiment whose sweeps run through `run_sweep`.
const SUPERVISED: &[&[Flag]] = &[RUN_FLAGS, SUPERVISION_FLAGS];

/// Every single-machine experiment, in `run_all`'s order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig1", seed: 101, flags: &[RUN_FLAGS], run: fig1 },
    Experiment { name: "fig2", seed: 102, flags: SUPERVISED, run: fig2 },
    Experiment { name: "fig3", seed: 103, flags: SUPERVISED, run: fig3 },
    Experiment { name: "fig4", seed: 104, flags: SUPERVISED, run: fig4 },
    Experiment { name: "fig5", seed: 105, flags: &[RUN_FLAGS], run: fig5 },
    Experiment { name: "fig6", seed: 106, flags: &[RUN_FLAGS], run: fig6 },
    Experiment { name: "table1", seed: 107, flags: SUPERVISED, run: table1 },
    Experiment {
        name: "validate_model",
        seed: 108,
        flags: &[&[("--quick", false), ("--trials", true)]],
        run: validate_model,
    },
    Experiment {
        name: "validate_energy",
        seed: 109,
        flags: &[&[("--quick", false)]],
        run: validate_energy,
    },
    Experiment { name: "sensitivity", seed: 112, flags: SUPERVISED, run: sensitivity },
    Experiment { name: "robustness", seed: 113, flags: &[RUN_FLAGS], run: robustness },
    Experiment { name: "ablations", seed: 111, flags: SUPERVISED, run: ablations::run },
];

/// Figure 1: race-to-idle versus Dimetrodon power traces.
fn fig1(_: &Args, config: RunConfig) -> String {
    banner(
        "Figure 1",
        "race-to-idle vs Dimetrodon power consumption (4-thread cpuburn burst)",
    );
    let data = fig1::run(config.seed);

    println!(
        "window: {:.1} s | energy: race-to-idle {:.1} J, dimetrodon {:.1} J (ratio {:.3})",
        data.window_secs,
        data.race_to_idle_joules,
        data.dimetrodon_joules,
        data.dimetrodon_joules / data.race_to_idle_joules,
    );
    println!(
        "mean power while computing: race-to-idle {:.1} W, dimetrodon {:.1} W",
        Fig1Data::mean_active_power(&data.race_to_idle, 20.0),
        Fig1Data::mean_active_power(&data.dimetrodon, 20.0),
    );
    println!(
        "distinct power levels (8 W buckets): race-to-idle {}, dimetrodon {} \
         (the paper's four intermediate plateaus)",
        Fig1Data::plateau_count(&data.race_to_idle, 8.0),
        Fig1Data::plateau_count(&data.dimetrodon, 8.0),
    );

    // Decimated trace for the CSV (full traces are ~3800 samples each).
    let mut table = Table::new(vec!["time_s", "race_to_idle_w", "dimetrodon_w"]);
    let stride = 10;
    for i in (0..data.race_to_idle.len().min(data.dimetrodon.len())).step_by(stride) {
        table.row(vec![
            format!("{:.3}", data.race_to_idle[i].0),
            format!("{:.2}", data.race_to_idle[i].1),
            format!("{:.2}", data.dimetrodon[i].1),
        ]);
    }
    write_csv("fig1_power_traces", &table);

    format!(
        "fig1: energy ratio {:.3}, dimetrodon computes at {:.1} W vs {:.1} W",
        data.dimetrodon_joules / data.race_to_idle_joules,
        Fig1Data::mean_active_power(&data.dimetrodon, 20.0),
        Fig1Data::mean_active_power(&data.race_to_idle, 20.0),
    )
}

/// Figure 2: core temperature rise over idle during cpuburn for
/// p ∈ {0, .25, .5, .75} at L = 100 ms.
fn fig2(_: &Args, config: RunConfig) -> String {
    banner(
        "Figure 2",
        "temperature rise over idle, 4x cpuburn, varying idle proportion p (L = 100 ms)",
    );
    let data = fig2::run(config);

    println!("idle temperature: {:.1} C", data.idle_temp);
    let mut summary = Table::new(vec!["p", "tail rise over idle (C)"]);
    for curve in &data.curves {
        summary.row(vec![
            format!("{:.2}", curve.p),
            format!("{:.1}", curve.tail_rise),
        ]);
    }
    println!("{}", summary.render());

    // Time-series CSV: one column per curve, aligned on whole seconds.
    let mut table = Table::new(vec!["time_s", "p0", "p25", "p50", "p75"]);
    let seconds = config.duration.as_millis() / 1000;
    for sec in 0..seconds {
        let mut row = vec![format!("{sec}")];
        for curve in &data.curves {
            let v = curve
                .rise
                .iter()
                .find(|(t, _)| *t as u64 == sec)
                .map(|&(_, r)| format!("{r:.2}"))
                .unwrap_or_default();
            row.push(v);
        }
        table.row(row);
    }
    write_csv("fig2_temperature_rise", &table);

    let rises: Vec<String> = data
        .curves
        .iter()
        .map(|c| format!("p={:.2}:{:.1}C", c.p, c.tail_rise))
        .collect();
    format!("fig2: tail rises {}", rises.join(" "))
}

/// Figure 3: Dimetrodon efficiency (temperature:throughput) for cpuburn
/// across idle quantum lengths and proportions.
fn fig3(args: &Args, config: RunConfig) -> String {
    banner(
        "Figure 3",
        "efficiency vs idle quantum length L for p in {.1, .25, .5, .75}",
    );
    let data = if args.has("--quick") {
        fig3::run_subset(config, &[0.25, 0.5], &[1, 5, 25, 100])
    } else {
        fig3::run(config)
    };

    let table = fig3_table(&data);
    println!("{}", table.render());
    write_csv("fig3_efficiency", &table);

    // A point the supervisor gave up on has NaN reductions.
    let best = data
        .points
        .iter()
        .filter(|p| p.temp_reduction > 0.01 && !p.efficiency().is_nan())
        .max_by(|a, b| a.efficiency().partial_cmp(&b.efficiency()).expect("no NaN"));
    match best {
        Some(best) => {
            println!(
                "best efficiency: {:.1}:1 at p={:.2}, L={} ms (temp reduction {:.1}%) — \
                 the paper reports 16:1 at a 4.4% reduction",
                best.efficiency(),
                best.p,
                best.l_ms,
                best.temp_reduction * 100.0,
            );
            format!("fig3: best efficiency {:.1}:1", best.efficiency())
        }
        None => {
            println!("best efficiency: no measured point reduces temperature by over 1%");
            "fig3: no measured point reduces temperature by over 1%".to_string()
        }
    }
}

/// Figure 4 rows of one mechanism, marking its pareto frontier.
fn fig4_rows(table: &mut Table, mechanism: &str, points: &[SweepPoint], pareto: &[SweepPoint]) {
    for point in points {
        let on_frontier = pareto
            .iter()
            .any(|f| f.tag == point.tag && f.benefit == point.benefit);
        table.row(vec![
            mechanism.to_string(),
            point.tag.clone(),
            format!("{:.4}", point.benefit),
            format!("{:.4}", point.cost),
            if on_frontier { "yes" } else { "no" }.to_string(),
        ]);
    }
}

/// Figure 4: wide-range sweeps of Dimetrodon vs VFS vs `p4tcc`, with
/// pareto boundaries and the Dimetrodon/VFS crossover.
fn fig4(args: &Args, config: RunConfig) -> String {
    banner(
        "Figure 4",
        "Dimetrodon vs voltage/frequency scaling vs p4tcc clock duty cycling",
    );
    let data = if args.has("--quick") {
        fig4::run_subset(config, &[0.25, 0.75], &[5, 100], true)
    } else {
        fig4::run(config)
    };

    let mut table = Table::new(vec![
        "mechanism",
        "config",
        "temp_reduction",
        "throughput_reduction",
        "pareto",
    ]);
    fig4_rows(
        &mut table,
        "dimetrodon",
        &data.dimetrodon,
        &data.dimetrodon_pareto(),
    );
    fig4_rows(&mut table, "vfs", &data.vfs, &data.vfs_pareto());
    fig4_rows(&mut table, "p4tcc", &data.tcc, &data.tcc_pareto());
    println!("{}", table.render());
    write_csv("fig4_mechanism_sweeps", &table);

    let crossover = fig4::crossover_temp_reduction(&data);
    match crossover {
        Some(r) => println!(
            "Dimetrodon matches or beats VFS for temperature reductions up to \
             ~{:.0}% (the paper reports ~30%)",
            r * 100.0
        ),
        None => println!("no crossover found in this sweep"),
    }
    let sub_one = data.tcc.iter().filter(|p| p.benefit < p.cost).count();
    println!(
        "p4tcc configurations below 1:1 trade-off: {}/{} (the paper: all)",
        sub_one,
        data.tcc.len()
    );

    match crossover {
        Some(r) => format!("fig4: dimetrodon/VFS crossover ~{:.0}%", r * 100.0),
        None => "fig4: no crossover in sweep".to_string(),
    }
}

/// The cool process's throughput under per-thread and global control at
/// every swept `p`, e.g. `p=0.50 per-thread 100% / global 47%, p=0.90 0% /
/// 8%`.
fn fig5_throughputs(data: &Fig5Data) -> String {
    let global = |p: f64| {
        data.points
            .iter()
            .find(|point| point.scope == PolicyScope::Global && point.p.total_cmp(&p).is_eq())
            .map_or(f64::NAN, |point| point.cool_throughput)
    };
    data.points
        .iter()
        .filter(|point| point.scope == PolicyScope::PerThread)
        .enumerate()
        .map(|(i, point)| {
            let (per_thread, global) = (point.cool_throughput * 100.0, global(point.p) * 100.0);
            if i == 0 {
                format!(
                    "p={:.2} per-thread {per_thread:.0}% / global {global:.0}%",
                    point.p
                )
            } else {
                format!("p={:.2} {per_thread:.0}% / {global:.0}%", point.p)
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Figure 5: global versus thread-specific control with a hot
/// application and a periodic cool process.
fn fig5(args: &Args, config: RunConfig) -> String {
    banner(
        "Figure 5",
        "global vs per-thread control: cool-process throughput vs system temperature reduction",
    );
    let data = if args.has("--quick") {
        fig5::run_subset(config, &[0.5, 0.9])
    } else {
        fig5::run(config)
    };

    let mut table = Table::new(vec![
        "scope",
        "p",
        "temp_reduction",
        "cool_process_throughput",
    ]);
    for scope in [PolicyScope::Global, PolicyScope::PerThread] {
        for point in data.scope_points(scope) {
            table.row(vec![
                format!("{scope:?}"),
                format!("{:.2}", point.p),
                format!("{:.4}", point.temp_reduction),
                format!("{:.4}", point.cool_throughput),
            ]);
        }
    }
    println!("{}", table.render());
    write_csv("fig5_scope_comparison", &table);

    let throughputs = fig5_throughputs(&data);
    println!(
        "cool-process throughput: {throughputs} — per-thread control spares the cool \
         process below p = 0.9 (paper S3.6)"
    );

    format!("fig5: cool-process throughput {throughputs}")
}

/// Figure 6: web-workload QoS ("good" and "tolerable") versus
/// temperature reduction under the injection sweep.
fn fig6(args: &Args, config: RunConfig) -> String {
    banner(
        "Figure 6",
        "QoS vs temperature reduction for the 440-connection web workload",
    );
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
        (
            "good",
            Box::new(|p: &fig6::Fig6Point| p.good_qos) as Box<dyn Fn(&fig6::Fig6Point) -> f64>,
        ),
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
            .map(|f| {
                format!(
                    "{} ({:.0}% @ QoS {:.0}%)",
                    f.tag,
                    f.benefit * 100.0,
                    (1.0 - f.cost) * 100.0
                )
            })
            .collect();
        println!("{metric} pareto boundary: {}", described.join(", "));
    }

    format!(
        "fig6: baseline rise {:.1} C over {} requests",
        data.baseline_rise,
        data.baseline.total()
    )
}

/// Table 1: per-workload temperature rise (as a percentage of
/// cpuburn's) and best-fit `T(r) = α·r^β` trade-off parameters.
fn table1(_: &Args, config: RunConfig) -> String {
    banner(
        "Table 1",
        "real-workload results: rise over idle (% of cpuburn) and T(r) = a*r^b fits",
    );
    let rows = table1::run(config);

    let mut table = Table::new(vec![
        "workload",
        "rise % (measured)",
        "rise % (paper)",
        "alpha (measured)",
        "alpha (paper)",
        "beta (measured)",
        "beta (paper)",
        "fit R^2",
    ]);
    for row in &rows {
        table.row(vec![
            row.workload.clone(),
            format!("{:.1}", row.rise_pct),
            format!("{:.1}", row.paper_rise_pct),
            format!("{:.3}", row.fit.alpha),
            format!("{:.3}", row.paper_alpha_beta.0),
            format!("{:.3}", row.fit.beta),
            format!("{:.3}", row.paper_alpha_beta.1),
            format!("{:.3}", row.fit.r_squared),
        ]);
    }
    println!("{}", table.render());
    write_csv("table1_workloads", &table);

    let convex = rows.iter().filter(|r| r.fit.beta > 1.0).count();
    println!(
        "{}/{} workloads fit a convex (beta > 1) power law, as in the paper; \
         rise ordering matches Table 1.",
        convex,
        rows.len()
    );

    format!("table1: {}/{} workloads convex", convex, rows.len())
}

/// §3.3 throughput-model validation: measured runtimes of a finite
/// cpuburn versus the analytic `D(t) = R + S·p/(1−p)·L`; `--trials N`
/// sets the trials per configuration (the paper: 100).
fn validate_model(args: &Args, config: RunConfig) -> String {
    let trials = checked(
        args,
        args.value("--trials", "a positive trial count", |&n: &usize| n > 0),
    )
    .unwrap_or(if args.has("--quick") { 5 } else { 30 });
    banner(
        "S3.3 (throughput)",
        "measured runtime vs D(t) = R + S*p/(1-p)*L over the paper's (p, L) grid",
    );
    println!("running {trials} trials per configuration (paper: 100)...\n");
    let v = validation::throughput(trials, config.seed);

    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "predicted_s",
        "measured_mean_s",
        "deviation_pct",
    ]);
    for row in &v.rows {
        table.row(vec![
            format!("{:.2}", row.p),
            format!("{}", row.l_ms),
            format!("{:.3}", row.predicted_s),
            format!("{:.3}", row.measured_s),
            format!("{:+.2}", row.mean_deviation() * 100.0),
        ]);
    }
    println!("{}", table.render());
    write_csv("validation_throughput", &table);

    println!(
        "overall deviation: mean {:+.2}%, |mean| {:.2}%, sd {:.2}% over {} trials \
         (the paper: throughput ~1.0% lower than predicted on average)",
        v.overall.mean * 100.0,
        v.overall.mean_abs * 100.0,
        v.overall.std_dev * 100.0,
        v.overall.n,
    );

    format!(
        "validation (throughput): mean deviation {:+.2}%",
        v.overall.mean * 100.0
    )
}

/// §3.3 energy validation: Dimetrodon's energy versus race-to-idle over
/// equal windows, measured with the simulated current clamp.
fn validate_energy(args: &Args, config: RunConfig) -> String {
    banner(
        "S3.3 (energy)",
        "Dimetrodon energy / race-to-idle energy over equal windows (7 s finite cpuburn)",
    );
    let trials = if args.has("--quick") { 2 } else { 5 };
    println!("running {trials} trials per configuration (paper: 5)...\n");
    let v = validation::energy(trials, config.seed);

    let mut table = Table::new(vec![
        "p",
        "L_ms",
        "trial ratios (dimetrodon / race-to-idle)",
    ]);
    let mut min_ratio = f64::INFINITY;
    let mut max_ratio = f64::NEG_INFINITY;
    for row in &v.rows {
        min_ratio = row.ratios.iter().copied().fold(min_ratio, f64::min);
        max_ratio = row.ratios.iter().copied().fold(max_ratio, f64::max);
        table.row(vec![
            format!("{:.2}", row.p),
            format!("{}", row.l_ms),
            row.ratios
                .iter()
                .map(|r| format!("{:.3}", r))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    println!("{}", table.render());
    write_csv("validation_energy", &table);

    println!(
        "ratios span {:.1}%..{:.1}% of race-to-idle energy; mean deviation {:+.2}%, \
         mean |deviation| {:.2}% (the paper: 97.6%..103.7%, avg -0.37%, avg abs 1.67%)",
        min_ratio * 100.0,
        max_ratio * 100.0,
        v.overall_deviation.mean * 100.0,
        v.overall_deviation.mean_abs * 100.0,
    );

    format!(
        "validation (energy): mean deviation {:+.2}%",
        v.overall_deviation.mean * 100.0
    )
}

/// The reproduction's sensitivity study: the Figure 3 efficiency knee as
/// a function of the hotspot time constant.
fn sensitivity(_: &Args, config: RunConfig) -> String {
    banner(
        "sensitivity",
        "efficiency-vs-L knee location as the hotspot time constant varies",
    );
    let rows = sensitivity::run(config);

    let mut table = Table::new(vec!["tau_ms", "L_ms", "efficiency"]);
    for row in &rows {
        for &(l_ms, eff) in &row.curve {
            table.row(vec![
                format!("{:.1}", row.tau_ms),
                format!("{l_ms}"),
                format!("{eff:.2}"),
            ]);
        }
    }
    println!("{}", table.render());
    write_csv("sensitivity_hotspot_tau", &table);

    let mut knees = Vec::new();
    for row in &rows {
        match row.half_efficiency_l_ms() {
            Some(l) => {
                println!(
                    "tau = {:.1} ms: efficiency halves by L = {l} ms",
                    row.tau_ms
                );
                knees.push(format!("tau={:.1}:{l}ms", row.tau_ms));
            }
            None => {
                println!(
                    "tau = {:.1} ms: efficiency never halves within the sweep",
                    row.tau_ms
                );
                knees.push(format!("tau={:.1}:never", row.tau_ms));
            }
        }
    }
    println!(
        "\nThe knee tracks the hotspot pole — the model-level content of \
         S3.4's \"the optimal idle period appears closer to the order of \
         one ms\"."
    );

    format!("sensitivity: efficiency halves by L at {}", knees.join(" "))
}

/// The robustness study: closed-loop control under degraded telemetry,
/// fault intensity × controller hardening, with the reactive thermal
/// trip armed as the safety net.
fn robustness(_: &Args, config: RunConfig) -> String {
    banner(
        "robustness",
        "setpoint control under sensor faults; trip activations and tracking cost",
    );
    let cells = robustness::run(config);

    let mut table = Table::new(vec![
        "intensity",
        "variant",
        "tracking_rms_C",
        "peak_temp_C",
        "trips",
        "throughput",
        "final_p",
        "fallback_ticks",
        "dropped_reads",
    ]);
    for cell in &cells {
        table.row(vec![
            format!("{:.2}", cell.intensity),
            cell.variant.label().to_string(),
            format!("{:.2}", cell.tracking_rms),
            format!("{:.2}", cell.peak_temp),
            format!("{}", cell.trips),
            format!("{:.3}", cell.throughput),
            format!("{:.3}", cell.final_p),
            format!("{}", cell.fallback_ticks),
            format!("{}", cell.dropped_reads),
        ]);
    }
    println!("{}", table.render());
    write_csv("robustness", &table);

    let tripped: u64 = cells.iter().map(|c| c.trips).sum();
    let bounded = cells
        .iter()
        .all(|c| c.peak_temp < robustness::CRITICAL_CELSIUS + 1.0);
    println!(
        "\nAcross the grid the reactive trip latched {tripped} time(s); \
         peak sensor temperature stayed below {:.0} C + 1 in every cell: {bounded}.",
        robustness::CRITICAL_CELSIUS,
    );
    println!(
        "Hardened cells spend their blind ticks in fallback (preventive \
         injection ceded to the trip) instead of integrating noise."
    );

    format!(
        "robustness: trip latched {tripped} time(s), peak below {:.0} C + 1 in every cell: \
         {bounded}",
        robustness::CRITICAL_CELSIUS,
    )
}
