//! The `--fleet` path: run the cluster comparison from the CLI.

use dimetrodon_fleet::{
    fleet_comparison_checkpointed, fleet_table, run_fleet, run_fleet_checkpointed, ChaosMetrics,
    CheckpointSpec, Fleet, FleetConfig, FleetOutcome, PolicyKind,
};

use crate::args::Options;
use crate::report::ScenarioError;

/// Builds the fleet configuration a `--fleet` run uses: the rack-scale
/// preset at the requested machine count, with the CLI's duration, seed,
/// and (when `--chaos-plan` is passed) fleet fault plan applied.
///
/// # Errors
///
/// Returns [`ScenarioError::Chaos`] when the chaos-plan file is missing,
/// malformed, or names machines/racks outside the fleet.
pub fn fleet_config(options: &Options) -> Result<FleetConfig, ScenarioError> {
    #[expect(clippy::expect_used, reason = "only `--fleet` runs reach here")]
    let machines = options
        .fleet
        .expect("fleet_config is only called for --fleet runs");
    let mut config = FleetConfig::rack_scale(machines, options.seed);
    config.duration = options.duration;
    if let Some(path) = options.chaos_plan_path.as_deref() {
        config.load_chaos_plan(path).map_err(ScenarioError::Chaos)?;
    }
    Ok(config)
}

/// The durable-checkpoint spec a `--fleet` run uses, or `None` when
/// checkpointing is off. The CLI checkpoints only on request —
/// `--checkpoint-every` or `--restore` turns it on, `--no-checkpoint`
/// forces it off — so plain scenario invocations leave no state behind.
pub fn fleet_checkpoint_spec(options: &Options) -> Option<CheckpointSpec> {
    if options.no_checkpoint || (options.checkpoint_every.is_none() && !options.restore) {
        return None;
    }
    let mut spec = CheckpointSpec::new(std::path::Path::new("results/.ckpt"));
    if let Some(every) = options.checkpoint_every {
        spec.every_epochs = every;
    }
    spec.restore = options.restore;
    Some(spec)
}

/// One availability summary line for a policy's chaos run.
fn chaos_line(name: &str, metrics: &ChaosMetrics) -> String {
    let ttr = if metrics.recoveries > 0 {
        format!(
            ", recovered {}x (mean {:.0} s, max {:.0} s)",
            metrics.recoveries,
            metrics.recovery_mean_s.unwrap_or(0.0),
            metrics.recovery_max_s.unwrap_or(0.0)
        )
    } else {
        String::new()
    };
    format!(
        "  {name}: shed {:.2}% ({}/{} requests), capacity mean {:.3} min {:.3}, \
         {} degraded epoch(s){ttr}",
        100.0 * metrics.shed_fraction,
        metrics.shed_requests,
        metrics.arrived_requests,
        metrics.capacity_mean,
        metrics.capacity_min,
        metrics.degraded_epochs,
    )
}

/// Runs the fleet comparison (or a single `--fleet-policy` variant) and
/// renders the per-rack table plus a one-line summary; chaos runs append
/// an availability block per policy.
///
/// # Errors
///
/// Returns [`ScenarioError::Chaos`] when `--chaos-plan` names an
/// unreadable or invalid plan, and [`ScenarioError::Checkpoint`] when
/// `--restore` finds checkpoint files but none verifies.
pub fn run_fleet_scenario(options: &Options) -> Result<String, ScenarioError> {
    let config = fleet_config(options)?;
    let kinds: Vec<PolicyKind> = match options.fleet_policy {
        Some(kind) => vec![kind],
        None => PolicyKind::ALL.to_vec(),
    };
    let mut chaos_lines = Vec::new();
    let outcomes: Vec<FleetOutcome> = if config.chaos.is_empty() {
        let spec = fleet_checkpoint_spec(options);
        match options.fleet_policy {
            Some(kind) => {
                let mut policy = kind.build(&config);
                let reports = match spec.as_ref() {
                    Some(spec) => run_fleet_checkpointed(&config, policy.as_mut(), spec)
                        .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?,
                    None => run_fleet(&config, policy.as_mut()),
                };
                vec![FleetOutcome {
                    policy: kind,
                    reports,
                    replayed: false,
                }]
            }
            None => fleet_comparison_checkpointed(
                dimetrodon_harness::sweep::jobs(),
                &config,
                None,
                spec.as_ref(),
            )
            .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?,
        }
    } else {
        // Chaos runs drive the fleet directly so the availability metrics
        // are in hand when the table is rendered; they take no checkpoint
        // flags (the parser rejects them next to `--chaos-plan`).
        kinds
            .iter()
            .map(|&kind| {
                let mut policy = kind.build(&config);
                let mut fleet = Fleet::new(config.clone());
                fleet.run(policy.as_mut());
                #[expect(
                    clippy::expect_used,
                    reason = "a non-empty plan implies collection, so the metrics are present"
                )]
                let metrics = fleet.chaos_metrics().expect("chaos plan implies metrics");
                chaos_lines.push(chaos_line(kind.name(), &metrics));
                FleetOutcome {
                    policy: kind,
                    reports: fleet.reports(),
                    replayed: false,
                }
            })
            .collect()
    };
    let mut rendered = fleet_table(&outcomes).render();
    let trips: u64 = outcomes
        .iter()
        .flat_map(|o| o.reports.iter().map(|r| r.trips))
        .sum();
    let peak = outcomes
        .iter()
        .flat_map(|o| o.reports.iter().map(|r| r.peak_celsius))
        .fold(f64::NEG_INFINITY, f64::max);
    rendered.push_str(&format!(
        "\n{} machines in {} racks over {} epochs; fleet peak {:.2} C, {} trip(s).\n",
        config.machines,
        config.racks(),
        config.epochs(),
        peak,
        trips,
    ));
    if !chaos_lines.is_empty() {
        rendered.push_str(&format!(
            "availability under chaos ({} event(s), on-crash {}):\n",
            config.chaos.events().len(),
            config.chaos.on_crash().name(),
        ));
        for line in &chaos_lines {
            rendered.push_str(line);
            rendered.push('\n');
        }
    }
    Ok(rendered)
}

/// The policy set a `--fleet` run compares (for the report header).
pub fn compared_policies(options: &Options) -> Vec<&'static str> {
    match options.fleet_policy {
        Some(kind) => vec![kind.name()],
        None => PolicyKind::ALL.map(PolicyKind::name).to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_sim_core::SimDuration;

    fn fleet_options(extra: &[&str]) -> Options {
        let mut args = vec!["--fleet", "4", "--duration-secs", "5"];
        args.extend_from_slice(extra);
        Options::parse(args).expect("valid fleet options")
    }

    fn scratch_plan(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("dimetrodon_cli_chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn config_honours_duration_seed_and_count() {
        let options = fleet_options(&["--seed", "77"]);
        let config = fleet_config(&options).unwrap();
        assert_eq!(config.machines, 4);
        assert_eq!(config.seed, 77);
        assert_eq!(config.duration, SimDuration::from_secs(5));
        assert!(config.chaos.is_empty());
    }

    #[test]
    fn single_policy_run_renders_one_policy() {
        let options = fleet_options(&["--fleet-policy", "coolest-first"]);
        assert_eq!(compared_policies(&options), ["coolest-first"]);
        let rendered = run_fleet_scenario(&options).unwrap();
        assert!(rendered.contains("coolest-first"));
        assert!(!rendered.contains("round-robin"));
        assert!(rendered.contains("4 machines in 1 racks"));
        assert!(!rendered.contains("availability under chaos"));
    }

    #[test]
    fn comparison_run_renders_every_policy() {
        let options = fleet_options(&[]);
        let rendered = run_fleet_scenario(&options).unwrap();
        for name in compared_policies(&options) {
            assert!(rendered.contains(name), "{name} missing from report");
        }
    }

    #[test]
    fn chaos_plan_adds_the_availability_block() {
        let path = scratch_plan("crash.plan", "at 1s machine 0 crash for 2s\n");
        let options = fleet_options(&["--chaos-plan", &path]);
        let config = fleet_config(&options).unwrap();
        assert_eq!(config.chaos.events().len(), 1);
        let missing = fleet_options(&["--chaos-plan", "/definitely/not/here.plan"]);
        assert!(matches!(fleet_config(&missing), Err(ScenarioError::Chaos(_))));
        let rendered = run_fleet_scenario(&options).unwrap();
        assert!(rendered.contains("availability under chaos (1 event(s)"));
        for name in compared_policies(&options) {
            assert!(
                rendered.contains(&format!("  {name}: shed")),
                "{name} missing an availability line"
            );
        }
    }
}
