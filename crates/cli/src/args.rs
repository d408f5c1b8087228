//! Argument parsing for `dimetrodon-sim`, on the shared
//! [`Args`](dimetrodon_harness::args::Args) parser.

use std::str::FromStr;

use dimetrodon_fleet::PolicyKind;
use dimetrodon_harness::args::{Args, ArgsError, Flag};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_workload::SpecBenchmark;

/// The workload families the CLI can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadChoice {
    /// One infinite cpuburn per logical CPU.
    CpuBurn,
    /// One SPEC-like profile instance per logical CPU.
    Spec(SpecBenchmark),
    /// The 440-connection web workload.
    Web,
    /// The Figure 5 mix: four calculix + the periodic cool process.
    Mix,
    /// Replay a recorded workload profile file (one instance per logical
    /// CPU); see [`WorkloadProfile`](dimetrodon_workload::WorkloadProfile)
    /// for the format.
    Profile,
}

/// What `--workload` accepts.
const WORKLOADS: &str =
    "cpuburn | calculix | namd | dealII | bzip2 | gcc | astar | web | mix | profile";

impl FromStr for WorkloadChoice {
    type Err = ();

    fn from_str(value: &str) -> Result<Self, ()> {
        match value {
            "cpuburn" => Ok(WorkloadChoice::CpuBurn),
            "web" => Ok(WorkloadChoice::Web),
            "mix" => Ok(WorkloadChoice::Mix),
            "profile" => Ok(WorkloadChoice::Profile),
            other => SpecBenchmark::ALL
                .iter()
                .find(|b| b.name() == other)
                .map(|&b| WorkloadChoice::Spec(b))
                .ok_or(()),
        }
    }
}

/// Which scheduler to install.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerChoice {
    /// 4.4BSD multi-level feedback queue (the paper's).
    #[default]
    Bsd,
    /// ULE-lite per-CPU queues.
    Ule,
}

impl FromStr for SchedulerChoice {
    type Err = ();

    fn from_str(value: &str) -> Result<Self, ()> {
        match value {
            "bsd" => Ok(SchedulerChoice::Bsd),
            "ule" => Ok(SchedulerChoice::Ule),
            _ => Err(()),
        }
    }
}

/// Fully parsed CLI options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload to drive.
    pub workload: WorkloadChoice,
    /// Injection probability; `None` disables injection.
    pub p: Option<f64>,
    /// Idle quantum length.
    pub quantum: SimDuration,
    /// Deterministic (error-diffusion) injection instead of Bernoulli.
    pub deterministic: bool,
    /// Closed-loop temperature setpoint (°C); overrides `p`.
    pub setpoint: Option<f64>,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Scheduler choice.
    pub scheduler: SchedulerChoice,
    /// Enable SMT (8 logical CPUs) with co-scheduled idle quanta.
    pub smt: bool,
    /// Enable thermal-aware wake placement.
    pub placement: bool,
    /// Dump the last N scheduling decisions after the run.
    pub trace: Option<usize>,
    /// Path of the profile file for `--workload profile` / `--profile`.
    pub profile_path: Option<String>,
    /// Path of a fault-plan file (`at <t>s <target> <fault> ...` lines)
    /// injected into the telemetry/scheduler path.
    pub faults_path: Option<String>,
    /// Gaussian sensor-noise sigma (°C) applied to every telemetry read;
    /// implies degraded (DTS-style) telemetry for closed-loop runs.
    pub sensor_noise: Option<f64>,
    /// Critical hotspot temperature (°C) arming the reactive thermal
    /// trip.
    pub trip: Option<f64>,
    /// Simulation seed.
    pub seed: u64,
    /// Worker threads for the `--fleet` comparison; `None` means one per
    /// available core. Results are identical at every worker count.
    pub jobs: Option<usize>,
    /// Run the fleet comparison over this many rack-coupled machines
    /// instead of a single-machine scenario.
    pub fleet: Option<usize>,
    /// Restrict a `--fleet` run to one routing policy (default: compare
    /// all of them).
    pub fleet_policy: Option<PolicyKind>,
    /// Path of a fleet fault-plan file (`at <t>s machine <m>|rack <r>|all
    /// crash|crac <s> <d>|wedge` lines) injected into a `--fleet` run.
    pub chaos_plan_path: Option<String>,
    /// Durable-checkpoint cadence of a `--fleet` run, in control epochs
    /// between saves. Checkpointing is off by default in the CLI; this
    /// flag (or `--restore`) turns it on.
    pub checkpoint_every: Option<u64>,
    /// Never write checkpoints (excludes `--checkpoint-every`).
    pub no_checkpoint: bool,
    /// Resume from the newest verifiable checkpoint under
    /// `results/.ckpt/`, falling back past corrupt files; the run fails
    /// with a typed error when files exist but none verifies.
    pub restore: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: WorkloadChoice::CpuBurn,
            p: None,
            quantum: SimDuration::from_millis(25),
            deterministic: false,
            setpoint: None,
            duration: SimDuration::from_secs(150),
            scheduler: SchedulerChoice::Bsd,
            smt: false,
            placement: false,
            trace: None,
            profile_path: None,
            faults_path: None,
            sensor_noise: None,
            trip: None,
            seed: 42,
            jobs: None,
            fleet: None,
            fleet_policy: None,
            chaos_plan_path: None,
            checkpoint_every: None,
            no_checkpoint: false,
            restore: false,
        }
    }
}

/// Usage text for `--help`.
pub const USAGE: &str = "\
dimetrodon-sim: run a custom scenario on the simulated platform

USAGE:
    dimetrodon-sim [OPTIONS] [SCENARIO OPTIONS]      one machine
    dimetrodon-sim --fleet <n> [OPTIONS] [FLEET OPTIONS]  a fleet of n

OPTIONS:
    --duration-secs <s> simulated run length              [default: 150]
    --seed <n>         simulation seed                    [default: 42]
    --help             print this text

SCENARIO OPTIONS:
    --workload <w>     cpuburn | calculix | namd | dealII | bzip2 | gcc |
                       astar | web | mix | profile        [default: cpuburn]
    --profile <file>   replay a workload profile (implies --workload profile);
                       format: `compute <ms> <activity>` / `wait <ms>` lines
    --p <0..1>         injection probability              [default: off]
    --l-ms <ms>        idle quantum length in ms          [default: 25]
    --deterministic    error-diffusion injection instead of Bernoulli
    --setpoint <C>     closed-loop temperature target (overrides --p)
    --scheduler <s>    bsd | ule                          [default: bsd]
    --smt              enable SMT (co-scheduled idle quanta)
    --placement        thermal-aware wake placement
    --trace <n>        print the last n scheduling decisions
    --faults <file>    inject a fault plan (`at <t>s <core N|all> <fault> ...`
                       lines: stuck <C> | dropout | noise <sigma> |
                       drop-hooks <p> | drop-ticks | wakeup-jitter <span>,
                       optionally `for <span>`)
    --sensor-noise <C> gaussian sigma on telemetry reads (implies degraded
                       DTS telemetry for --setpoint runs)
    --trip <C>         arm the reactive thermal trip at this hotspot
                       temperature

FLEET OPTIONS:
    --fleet <n>        run the cluster comparison over n rack-coupled
                       machines instead of a single-machine scenario
    --fleet-policy <p> restrict --fleet to one routing policy:
                       round-robin | least-loaded | coolest-first |
                       pinned-migrate          [default: compare all]
    --jobs <n>         worker threads for the comparison  [default: all cores]
    --chaos-plan <file> inject a fleet fault plan
                       (`at <t>s machine <m>|rack <r>|all crash |
                       crac <scale> <delta> | wedge`, optionally
                       `for <span>`; directive `on-crash drop|redistribute`);
                       excludes the checkpoint flags below
    --checkpoint-every <n> write a durable checkpoint to results/.ckpt/
                       every n control epochs; corrupt files are detected
                       by checksum on restore            [default: off]
    --no-checkpoint    never write checkpoints (excludes --checkpoint-every)
    --restore          resume from the newest verifiable checkpoint,
                       falling back past corrupt files; fails with a typed
                       error when checkpoints exist but none verifies
";

/// The flags every run reads.
const COMMON_FLAGS: &[Flag] = &[("--duration-secs", true), ("--seed", true)];

/// The flags only a single-machine scenario reads.
const SCENARIO_FLAGS: &[Flag] = &[
    ("--workload", true),
    ("--profile", true),
    ("--p", true),
    ("--l-ms", true),
    ("--deterministic", false),
    ("--setpoint", true),
    ("--scheduler", true),
    ("--smt", false),
    ("--placement", false),
    ("--trace", true),
    ("--faults", true),
    ("--sensor-noise", true),
    ("--trip", true),
];

/// The flags only a `--fleet` run reads.
const FLEET_FLAGS: &[Flag] = &[
    ("--fleet", true),
    ("--fleet-policy", true),
    ("--jobs", true),
    ("--chaos-plan", true),
    ("--checkpoint-every", true),
    ("--no-checkpoint", false),
    ("--restore", false),
];

impl Options {
    /// Parses an argument list (without the program name). The list is
    /// checked against the common flags plus the scenario flags, or plus
    /// the fleet flags when `--fleet` is among them, so a flag the run
    /// would ignore is an error.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgsError`] describing the first problem, or
    /// [`ArgsError::HelpRequested`] for `--help`.
    pub fn parse<I, S>(argv: I) -> Result<Options, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let argv: Vec<String> = argv.into_iter().map(|a| a.as_ref().to_string()).collect();
        let fleet = argv.iter().any(|a| a == "--fleet");
        let (shape, other) = if fleet {
            (FLEET_FLAGS, SCENARIO_FLAGS)
        } else {
            (SCENARIO_FLAGS, FLEET_FLAGS)
        };
        let accepted: Vec<Flag> = COMMON_FLAGS.iter().chain(shape).copied().collect();
        let args = Args::parse(&argv, &accepted).map_err(|err| match err {
            ArgsError::UnknownFlag(arg) => match other.iter().find(|(name, _)| *name == arg) {
                Some(&(name, _)) if fleet => ArgsError::Exclusive(name, "--fleet"),
                Some(&(name, _)) => ArgsError::Requires(name, "--fleet"),
                None => ArgsError::UnknownFlag(arg),
            },
            err => err,
        })?;
        // The CLI's chaos runs drive the fleet directly, uncheckpointed.
        for flag in ["--checkpoint-every", "--no-checkpoint", "--restore"] {
            args.exclusive("--chaos-plan", flag)?;
        }
        args.exclusive("--checkpoint-every", "--no-checkpoint")?;

        let defaults = Options::default();
        let profile_path = args.text("--profile").map(str::to_string);
        let workload = match args.value("--workload", WORKLOADS, |_: &WorkloadChoice| true)? {
            Some(w) if profile_path.is_some() && w != WorkloadChoice::Profile => {
                return Err(ArgsError::Exclusive("--workload", "--profile"));
            }
            Some(w) => w,
            None if profile_path.is_some() => WorkloadChoice::Profile,
            None => defaults.workload,
        };
        Ok(Options {
            workload,
            p: args.value("--p", "a number in [0, 1)", |p: &f64| (0.0..1.0).contains(p))?,
            quantum: args
                .value("--l-ms", "a positive number of milliseconds", |ms: &f64| {
                    *ms > 0.0 && ms.is_finite()
                })?
                .map_or(defaults.quantum, SimDuration::from_millis_f64),
            deterministic: args.has("--deterministic"),
            setpoint: args.value("--setpoint", "a temperature in celsius", |_: &f64| true)?,
            duration: args
                .value("--duration-secs", "a positive integer", |&s: &u64| s > 0)?
                .map_or(defaults.duration, SimDuration::from_secs),
            scheduler: args
                .value("--scheduler", "bsd | ule", |_: &SchedulerChoice| true)?
                .unwrap_or_default(),
            smt: args.has("--smt"),
            placement: args.has("--placement"),
            trace: args.value("--trace", "a positive record count", |&n: &usize| n > 0)?,
            profile_path,
            faults_path: args.text("--faults").map(str::to_string),
            sensor_noise: args.value(
                "--sensor-noise",
                "a non-negative sigma in celsius",
                |s: &f64| *s >= 0.0 && s.is_finite(),
            )?,
            trip: args.value("--trip", "a finite temperature in celsius", |c: &f64| c.is_finite())?,
            seed: args
                .value("--seed", "an unsigned integer", |_: &u64| true)?
                .unwrap_or(defaults.seed),
            jobs: args.value("--jobs", "a positive worker count", |&n: &usize| n > 0)?,
            fleet: args.value("--fleet", "a positive machine count", |&n: &usize| n > 0)?,
            fleet_policy: args
                .text("--fleet-policy")
                .map(|raw| {
                    PolicyKind::parse(raw).ok_or_else(|| ArgsError::BadValue {
                        flag: "--fleet-policy",
                        value: raw.to_string(),
                        expected: "round-robin | least-loaded | coolest-first | pinned-migrate",
                    })
                })
                .transpose()?,
            chaos_plan_path: args.text("--chaos-plan").map(str::to_string),
            checkpoint_every: args.value(
                "--checkpoint-every",
                "a positive epoch count",
                |&n: &u64| n > 0,
            )?,
            no_checkpoint: args.has("--no-checkpoint"),
            restore: args.has("--restore"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn defaults() {
        let o = Options::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn full_command_line() {
        let o = Options::parse([
            "--workload", "gcc", "--p", "0.5", "--l-ms", "10", "--deterministic",
            "--duration-secs", "60", "--scheduler", "ule", "--smt", "--placement",
            "--seed", "7",
        ])
        .unwrap();
        assert_eq!(o.workload, WorkloadChoice::Spec(SpecBenchmark::Gcc));
        assert_eq!(o.p, Some(0.5));
        assert_eq!(o.quantum, SimDuration::from_millis(10));
        assert!(o.deterministic);
        assert_eq!(o.duration, SimDuration::from_secs(60));
        assert_eq!(o.scheduler, SchedulerChoice::Ule);
        assert!(o.smt && o.placement);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn workload_names() {
        assert_eq!(
            Options::parse(["--workload", "web"]).unwrap().workload,
            WorkloadChoice::Web
        );
        assert_eq!(
            Options::parse(["--workload", "mix"]).unwrap().workload,
            WorkloadChoice::Mix
        );
        assert!(matches!(
            Options::parse(["--workload", "nope"]),
            Err(ArgsError::BadValue { flag: "--workload", .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_p() {
        assert!(matches!(
            Options::parse(["--p", "1.0"]),
            Err(ArgsError::BadValue { flag: "--p", .. })
        ));
        assert!(matches!(
            Options::parse(["--p", "-0.1"]),
            Err(ArgsError::BadValue { flag: "--p", .. })
        ));
    }

    #[test]
    fn rejects_missing_values_and_unknown_flags() {
        assert_eq!(
            Options::parse(["--p"]),
            Err(ArgsError::MissingValue { flag: "--p" })
        );
        assert_eq!(
            Options::parse(["--frobnicate"]),
            Err(ArgsError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn flags_that_change_nothing_are_rejected() {
        for flag in [
            ["--strict", "--smt"],
            ["--retries", "3"],
            ["--point-deadline", "0.000001"],
        ] {
            assert_eq!(
                Options::parse(flag),
                Err(ArgsError::UnknownFlag(flag[0].into()))
            );
        }
        assert_eq!(
            Options::parse(["--p", "0.5", "--restore"]),
            Err(ArgsError::Requires("--restore", "--fleet"))
        );
        assert_eq!(
            Options::parse(["--jobs", "2"]),
            Err(ArgsError::Requires("--jobs", "--fleet"))
        );
        assert_eq!(
            Options::parse(["--fleet", "8", "--p", "0.5"]),
            Err(ArgsError::Exclusive("--p", "--fleet"))
        );
        assert_eq!(
            Options::parse(["--fleet", "4", "--chaos-plan", "p", "--checkpoint-every", "2"]),
            Err(ArgsError::Exclusive("--chaos-plan", "--checkpoint-every"))
        );
        assert_eq!(
            Options::parse(["--profile", "app.profile", "--workload", "gcc"]),
            Err(ArgsError::Exclusive("--workload", "--profile"))
        );
    }

    #[test]
    fn every_accepted_flag_is_documented() {
        let flags: Vec<&str> = [COMMON_FLAGS, SCENARIO_FLAGS, FLEET_FLAGS]
            .concat()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        assert_eq!(flags.len(), 22);
        for flag in flags {
            assert!(USAGE.contains(&format!("    {flag} ")), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn help_is_reported() {
        assert_eq!(Options::parse(["--help"]), Err(ArgsError::HelpRequested));
        assert_eq!(Options::parse(["-h"]), Err(ArgsError::HelpRequested));
        assert!(USAGE.contains("--workload"));
    }

    #[test]
    fn trace_and_profile_parse() {
        let o = Options::parse(["--trace", "50"]).unwrap();
        assert_eq!(o.trace, Some(50));
        assert!(matches!(
            Options::parse(["--trace", "0"]),
            Err(ArgsError::BadValue { flag: "--trace", .. })
        ));
        let o = Options::parse(["--profile", "app.profile"]).unwrap();
        assert_eq!(o.workload, WorkloadChoice::Profile);
        assert_eq!(o.profile_path.as_deref(), Some("app.profile"));
    }

    #[test]
    fn setpoint_parses() {
        let o = Options::parse(["--setpoint", "45.5"]).unwrap();
        assert_eq!(o.setpoint, Some(45.5));
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let o = Options::parse([
            "--faults", "plan.txt", "--sensor-noise", "1.5", "--trip", "70",
        ])
        .unwrap();
        assert_eq!(o.faults_path.as_deref(), Some("plan.txt"));
        assert_eq!(o.sensor_noise, Some(1.5));
        assert_eq!(o.trip, Some(70.0));
        assert!(matches!(
            Options::parse(["--sensor-noise", "-1"]),
            Err(ArgsError::BadValue { flag: "--sensor-noise", .. })
        ));
        assert!(matches!(
            Options::parse(["--sensor-noise", "inf"]),
            Err(ArgsError::BadValue { flag: "--sensor-noise", .. })
        ));
        assert!(matches!(
            Options::parse(["--trip", "nan"]),
            Err(ArgsError::BadValue { flag: "--trip", .. })
        ));
        assert!(USAGE.contains("--faults") && USAGE.contains("--trip"));
    }

    #[test]
    fn fleet_flags_parse_and_validate() {
        let o = Options::parse([
            "--fleet", "64", "--fleet-policy", "coolest-first", "--jobs", "8",
            "--checkpoint-every", "25", "--restore",
        ])
        .unwrap();
        assert_eq!(o.fleet, Some(64));
        assert_eq!(o.fleet_policy, Some(PolicyKind::CoolestFirst));
        assert_eq!(o.jobs, Some(8));
        assert_eq!(o.checkpoint_every, Some(25));
        assert!(o.restore && !o.no_checkpoint);
        assert!(crate::fleet_checkpoint_spec(&o).is_some_and(|spec| spec.restore && spec.every_epochs == 25));
        let o = Options::parse(["--fleet", "4", "--no-checkpoint"]).unwrap();
        assert!(o.no_checkpoint && o.checkpoint_every.is_none());
        assert!(crate::fleet_checkpoint_spec(&o).is_none());
        let o = Options::parse(["--fleet", "8", "--chaos-plan", "chaos.txt", "--no-checkpoint"]);
        assert_eq!(
            o,
            Err(ArgsError::Exclusive("--chaos-plan", "--no-checkpoint"))
        );
        let o = Options::parse(["--fleet", "8", "--chaos-plan", "chaos.txt"]).unwrap();
        assert_eq!(o.chaos_plan_path.as_deref(), Some("chaos.txt"));
        for (argv, flag) in [
            (&["--fleet", "0"][..], "--fleet"),
            (&["--fleet", "4", "--jobs", "0"], "--jobs"),
            (&["--fleet", "8", "--fleet-policy", "hottest-first"], "--fleet-policy"),
            (&["--fleet", "4", "--checkpoint-every", "0"], "--checkpoint-every"),
        ] {
            assert!(
                matches!(Options::parse(argv), Err(ArgsError::BadValue { flag: f, .. }) if f == flag),
                "{argv:?}"
            );
        }
        assert_eq!(
            Options::parse(["--fleet", "8", "--chaos-plan"]),
            Err(ArgsError::MissingValue { flag: "--chaos-plan" })
        );
        assert_eq!(
            Options::parse(["--fleet", "4", "--checkpoint-every", "5", "--no-checkpoint"]),
            Err(ArgsError::Exclusive("--checkpoint-every", "--no-checkpoint"))
        );
    }

    #[test]
    fn error_display() {
        let e = ArgsError::BadValue {
            flag: "--p",
            value: "2".into(),
            expected: "a number in [0, 1)",
        };
        assert!(e.to_string().contains("--p"));
        assert!(ArgsError::MissingValue { flag: "--seed" }
            .to_string()
            .contains("--seed"));
        assert_eq!(
            ArgsError::Requires("--restore", "--fleet").to_string(),
            "--restore requires --fleet"
        );
    }

    proptest! {
        /// Any valid p round-trips through parsing.
        #[test]
        fn prop_p_roundtrip(p in 0.0f64..0.999) {
            let o = Options::parse(["--p", &p.to_string()]).unwrap();
            prop_assert!((o.p.unwrap() - p).abs() < 1e-12);
        }

        /// Any seed round-trips.
        #[test]
        fn prop_seed_roundtrip(seed in any::<u64>()) {
            let o = Options::parse(["--seed", &seed.to_string()]).unwrap();
            prop_assert_eq!(o.seed, seed);
        }
    }
}
