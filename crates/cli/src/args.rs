//! Argument parsing for `dimetrodon-sim` — hand-rolled, dependency-free.

use std::fmt;

use dimetrodon_fleet::PolicyKind;
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

impl WorkloadChoice {
    fn parse(value: &str) -> Result<Self, ParseArgsError> {
        match value {
            "cpuburn" => Ok(WorkloadChoice::CpuBurn),
            "web" => Ok(WorkloadChoice::Web),
            "mix" => Ok(WorkloadChoice::Mix),
            "profile" => Ok(WorkloadChoice::Profile),
            other => SpecBenchmark::ALL
                .iter()
                .find(|b| b.name() == other)
                .map(|&b| WorkloadChoice::Spec(b))
                .ok_or_else(|| ParseArgsError::BadValue {
                    flag: "--workload",
                    value: other.to_string(),
                    expected:
                        "cpuburn | calculix | namd | dealII | bzip2 | gcc | astar | web | mix | profile",
                }),
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
    /// Worker threads for sweep-shaped runs; `None` means one per
    /// available core. Results are identical at every worker count.
    pub jobs: Option<usize>,
    /// Abort sweep-shaped runs on a panicking point (the pre-supervisor
    /// behaviour) instead of quarantining it.
    pub strict: bool,
    /// Extra attempts for a failed sweep point; retry seeds are derived
    /// from the grid, so results stay deterministic.
    pub retries: u32,
    /// Wall-clock watchdog per sweep-point attempt, seconds.
    pub point_deadline: Option<f64>,
    /// Run the fleet comparison over this many rack-coupled machines
    /// instead of a single-machine scenario.
    pub fleet: Option<usize>,
    /// Restrict a `--fleet` run to one routing policy (default: compare
    /// all of them).
    pub fleet_policy: Option<PolicyKind>,
    /// Path of a fleet fault-plan file (`at <t>s machine <m>|rack <r>|all
    /// crash|crac <s> <d>|wedge` lines) injected into a `--fleet` run.
    pub chaos_plan_path: Option<String>,
    /// Durable-checkpoint cadence: control epochs between saves for
    /// `--fleet` runs, simulated events for scenario runs. Checkpointing
    /// is off by default in the CLI; this flag (or `--restore`) turns it
    /// on.
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
            strict: false,
            retries: 0,
            point_deadline: None,
            fleet: None,
            fleet_policy: None,
            chaos_plan_path: None,
            checkpoint_every: None,
            no_checkpoint: false,
            restore: false,
        }
    }
}

/// Errors from [`Options::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseArgsError {
    /// A flag that takes a value was passed without one.
    MissingValue {
        /// The flag.
        flag: &'static str,
    },
    /// A value failed to parse or is out of range.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
    /// An unrecognised argument.
    UnknownFlag(String),
    /// `--help` was requested.
    HelpRequested,
}

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseArgsError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            ParseArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for {flag} (expected {expected})"),
            ParseArgsError::UnknownFlag(flag) => write!(f, "unknown argument `{flag}`"),
            ParseArgsError::HelpRequested => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ParseArgsError {}

/// Usage text for `--help`.
pub const USAGE: &str = "\
dimetrodon-sim: run a custom scenario on the simulated platform

USAGE:
    dimetrodon-sim [OPTIONS]

OPTIONS:
    --workload <w>     cpuburn | calculix | namd | dealII | bzip2 | gcc |
                       astar | web | mix | profile        [default: cpuburn]
    --profile <file>   replay a workload profile (implies --workload profile);
                       format: `compute <ms> <activity>` / `wait <ms>` lines
    --p <0..1>         injection probability              [default: off]
    --l-ms <ms>        idle quantum length in ms          [default: 25]
    --deterministic    error-diffusion injection instead of Bernoulli
    --setpoint <C>     closed-loop temperature target (overrides --p)
    --duration-secs <s> simulated run length              [default: 150]
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
    --seed <n>         simulation seed                    [default: 42]
    --jobs <n>         worker threads for sweep runs      [default: all cores]
    --strict           abort sweep runs on a panicking point instead of
                       quarantining it and finishing the grid
    --retries <n>      extra attempts for a failed sweep point (seeds are
                       re-derived from the grid; deterministic)  [default: 0]
    --point-deadline <s> wall-clock watchdog per sweep-point attempt
    --fleet <n>        run the cluster comparison over n rack-coupled
                       machines instead of a single-machine scenario
                       (honours --duration-secs, --seed, --jobs)
    --fleet-policy <p> restrict --fleet to one routing policy:
                       round-robin | least-loaded | coolest-first |
                       pinned-migrate          [default: compare all]
    --chaos-plan <file> inject a fleet fault plan into a --fleet run
                       (`at <t>s machine <m>|rack <r>|all crash |
                       crac <scale> <delta> | wedge`, optionally
                       `for <span>`; directive `on-crash drop|redistribute`)
    --checkpoint-every <n> write a durable checkpoint to results/.ckpt/
                       every n control epochs (--fleet) or n simulated
                       events (scenario runs); corrupt files are detected
                       by checksum on restore            [default: off]
    --no-checkpoint    never write checkpoints (excludes --checkpoint-every)
    --restore          resume from the newest verifiable checkpoint,
                       falling back past corrupt files; fails with a typed
                       error when checkpoints exist but none verifies
    --help             print this text
";

impl Options {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseArgsError`] describing the first problem, or
    /// [`ParseArgsError::HelpRequested`] for `--help`.
    pub fn parse<I, S>(args: I) -> Result<Options, ParseArgsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = Options::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut value_for = |flag: &'static str| {
                iter.next()
                    .map(|v| v.as_ref().to_string())
                    .ok_or(ParseArgsError::MissingValue { flag })
            };
            match arg {
                "--workload" => {
                    options.workload = WorkloadChoice::parse(&value_for("--workload")?)?;
                }
                "--p" => {
                    let raw = value_for("--p")?;
                    let p: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--p",
                        value: raw.clone(),
                        expected: "a number in [0, 1)",
                    })?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(ParseArgsError::BadValue {
                            flag: "--p",
                            value: raw,
                            expected: "a number in [0, 1)",
                        });
                    }
                    options.p = Some(p);
                }
                "--l-ms" => {
                    let raw = value_for("--l-ms")?;
                    let ms: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--l-ms",
                        value: raw.clone(),
                        expected: "a positive number of milliseconds",
                    })?;
                    if !(ms > 0.0 && ms.is_finite()) {
                        return Err(ParseArgsError::BadValue {
                            flag: "--l-ms",
                            value: raw,
                            expected: "a positive number of milliseconds",
                        });
                    }
                    options.quantum = SimDuration::from_millis_f64(ms);
                }
                "--deterministic" => options.deterministic = true,
                "--setpoint" => {
                    let raw = value_for("--setpoint")?;
                    let c: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--setpoint",
                        value: raw.clone(),
                        expected: "a temperature in celsius",
                    })?;
                    options.setpoint = Some(c);
                }
                "--duration-secs" => {
                    let raw = value_for("--duration-secs")?;
                    let s: u64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--duration-secs",
                        value: raw.clone(),
                        expected: "a positive integer",
                    })?;
                    if s == 0 {
                        return Err(ParseArgsError::BadValue {
                            flag: "--duration-secs",
                            value: raw,
                            expected: "a positive integer",
                        });
                    }
                    options.duration = SimDuration::from_secs(s);
                }
                "--scheduler" => {
                    let raw = value_for("--scheduler")?;
                    options.scheduler = match raw.as_str() {
                        "bsd" => SchedulerChoice::Bsd,
                        "ule" => SchedulerChoice::Ule,
                        _ => {
                            return Err(ParseArgsError::BadValue {
                                flag: "--scheduler",
                                value: raw,
                                expected: "bsd | ule",
                            })
                        }
                    };
                }
                "--smt" => options.smt = true,
                "--placement" => options.placement = true,
                "--trace" => {
                    let raw = value_for("--trace")?;
                    let n: usize = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--trace",
                        value: raw.clone(),
                        expected: "a positive record count",
                    })?;
                    if n == 0 {
                        return Err(ParseArgsError::BadValue {
                            flag: "--trace",
                            value: raw,
                            expected: "a positive record count",
                        });
                    }
                    options.trace = Some(n);
                }
                "--profile" => {
                    options.profile_path = Some(value_for("--profile")?);
                    options.workload = WorkloadChoice::Profile;
                }
                "--faults" => {
                    options.faults_path = Some(value_for("--faults")?);
                }
                "--sensor-noise" => {
                    let raw = value_for("--sensor-noise")?;
                    let sigma: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--sensor-noise",
                        value: raw.clone(),
                        expected: "a non-negative sigma in celsius",
                    })?;
                    if !(sigma >= 0.0 && sigma.is_finite()) {
                        return Err(ParseArgsError::BadValue {
                            flag: "--sensor-noise",
                            value: raw,
                            expected: "a non-negative sigma in celsius",
                        });
                    }
                    options.sensor_noise = Some(sigma);
                }
                "--trip" => {
                    let raw = value_for("--trip")?;
                    let c: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--trip",
                        value: raw.clone(),
                        expected: "a finite temperature in celsius",
                    })?;
                    if !c.is_finite() {
                        return Err(ParseArgsError::BadValue {
                            flag: "--trip",
                            value: raw,
                            expected: "a finite temperature in celsius",
                        });
                    }
                    options.trip = Some(c);
                }
                "--seed" => {
                    let raw = value_for("--seed")?;
                    options.seed = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--seed",
                        value: raw,
                        expected: "an unsigned integer",
                    })?;
                }
                "--jobs" => {
                    let raw = value_for("--jobs")?;
                    let n: usize = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--jobs",
                        value: raw.clone(),
                        expected: "a positive worker count",
                    })?;
                    if n == 0 {
                        return Err(ParseArgsError::BadValue {
                            flag: "--jobs",
                            value: raw,
                            expected: "a positive worker count",
                        });
                    }
                    options.jobs = Some(n);
                }
                "--strict" => options.strict = true,
                "--retries" => {
                    let raw = value_for("--retries")?;
                    options.retries = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--retries",
                        value: raw,
                        expected: "a non-negative attempt count",
                    })?;
                }
                "--point-deadline" => {
                    let raw = value_for("--point-deadline")?;
                    let secs: f64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--point-deadline",
                        value: raw.clone(),
                        expected: "a positive number of seconds",
                    })?;
                    if !(secs > 0.0 && secs.is_finite()) {
                        return Err(ParseArgsError::BadValue {
                            flag: "--point-deadline",
                            value: raw,
                            expected: "a positive number of seconds",
                        });
                    }
                    options.point_deadline = Some(secs);
                }
                "--fleet" => {
                    let raw = value_for("--fleet")?;
                    let n: usize = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--fleet",
                        value: raw.clone(),
                        expected: "a positive machine count",
                    })?;
                    if n == 0 {
                        return Err(ParseArgsError::BadValue {
                            flag: "--fleet",
                            value: raw,
                            expected: "a positive machine count",
                        });
                    }
                    options.fleet = Some(n);
                }
                "--fleet-policy" => {
                    let raw = value_for("--fleet-policy")?;
                    options.fleet_policy =
                        Some(PolicyKind::parse(&raw).ok_or(ParseArgsError::BadValue {
                            flag: "--fleet-policy",
                            value: raw,
                            expected: "round-robin | least-loaded | coolest-first | pinned-migrate",
                        })?);
                }
                "--chaos-plan" => {
                    options.chaos_plan_path = Some(value_for("--chaos-plan")?);
                }
                "--checkpoint-every" => {
                    let raw = value_for("--checkpoint-every")?;
                    let n: u64 = raw.parse().map_err(|_| ParseArgsError::BadValue {
                        flag: "--checkpoint-every",
                        value: raw.clone(),
                        expected: "a positive cadence",
                    })?;
                    if n == 0 {
                        return Err(ParseArgsError::BadValue {
                            flag: "--checkpoint-every",
                            value: raw,
                            expected: "a positive cadence",
                        });
                    }
                    options.checkpoint_every = Some(n);
                }
                "--no-checkpoint" => options.no_checkpoint = true,
                "--restore" => options.restore = true,
                "--help" | "-h" => return Err(ParseArgsError::HelpRequested),
                other => return Err(ParseArgsError::UnknownFlag(other.to_string())),
            }
        }
        if options.no_checkpoint && options.checkpoint_every.is_some() {
            return Err(ParseArgsError::BadValue {
                flag: "--no-checkpoint",
                value: "--checkpoint-every".into(),
                expected: "at most one of the two flags",
            });
        }
        Ok(options)
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
            Err(ParseArgsError::BadValue { flag: "--workload", .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_p() {
        assert!(matches!(
            Options::parse(["--p", "1.0"]),
            Err(ParseArgsError::BadValue { flag: "--p", .. })
        ));
        assert!(matches!(
            Options::parse(["--p", "-0.1"]),
            Err(ParseArgsError::BadValue { flag: "--p", .. })
        ));
    }

    #[test]
    fn rejects_missing_values_and_unknown_flags() {
        assert_eq!(
            Options::parse(["--p"]),
            Err(ParseArgsError::MissingValue { flag: "--p" })
        );
        assert_eq!(
            Options::parse(["--frobnicate"]),
            Err(ParseArgsError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn help_is_reported() {
        assert_eq!(Options::parse(["--help"]), Err(ParseArgsError::HelpRequested));
        assert_eq!(Options::parse(["-h"]), Err(ParseArgsError::HelpRequested));
        assert!(USAGE.contains("--workload"));
    }

    #[test]
    fn trace_and_profile_parse() {
        let o = Options::parse(["--trace", "50"]).unwrap();
        assert_eq!(o.trace, Some(50));
        assert!(matches!(
            Options::parse(["--trace", "0"]),
            Err(ParseArgsError::BadValue { flag: "--trace", .. })
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
            Err(ParseArgsError::BadValue { flag: "--sensor-noise", .. })
        ));
        assert!(matches!(
            Options::parse(["--sensor-noise", "inf"]),
            Err(ParseArgsError::BadValue { flag: "--sensor-noise", .. })
        ));
        assert!(matches!(
            Options::parse(["--trip", "nan"]),
            Err(ParseArgsError::BadValue { flag: "--trip", .. })
        ));
        assert!(USAGE.contains("--faults") && USAGE.contains("--trip"));
    }

    #[test]
    fn jobs_parses_and_rejects_zero() {
        let o = Options::parse(["--jobs", "8"]).unwrap();
        assert_eq!(o.jobs, Some(8));
        assert!(matches!(
            Options::parse(["--jobs", "0"]),
            Err(ParseArgsError::BadValue { flag: "--jobs", .. })
        ));
        assert!(USAGE.contains("--jobs"));
    }

    #[test]
    fn supervisor_flags_parse_and_validate() {
        let o = Options::parse(["--strict", "--retries", "3", "--point-deadline", "2.5"]).unwrap();
        assert!(o.strict);
        assert_eq!(o.retries, 3);
        assert_eq!(o.point_deadline, Some(2.5));
        assert!(matches!(
            Options::parse(["--retries", "-1"]),
            Err(ParseArgsError::BadValue { flag: "--retries", .. })
        ));
        assert!(matches!(
            Options::parse(["--point-deadline", "0"]),
            Err(ParseArgsError::BadValue { flag: "--point-deadline", .. })
        ));
        assert!(matches!(
            Options::parse(["--point-deadline", "inf"]),
            Err(ParseArgsError::BadValue { flag: "--point-deadline", .. })
        ));
        assert!(USAGE.contains("--strict") && USAGE.contains("--point-deadline"));
    }

    #[test]
    fn fleet_flags_parse_and_validate() {
        let o = Options::parse(["--fleet", "64", "--fleet-policy", "coolest-first"]).unwrap();
        assert_eq!(o.fleet, Some(64));
        assert_eq!(o.fleet_policy, Some(PolicyKind::CoolestFirst));
        assert_eq!(Options::parse(Vec::<String>::new()).unwrap().fleet, None);
        assert!(matches!(
            Options::parse(["--fleet", "0"]),
            Err(ParseArgsError::BadValue { flag: "--fleet", .. })
        ));
        assert!(matches!(
            Options::parse(["--fleet-policy", "hottest-first"]),
            Err(ParseArgsError::BadValue { flag: "--fleet-policy", .. })
        ));
        assert!(USAGE.contains("--fleet") && USAGE.contains("--fleet-policy"));
    }

    #[test]
    fn chaos_plan_parses() {
        let o = Options::parse(["--fleet", "8", "--chaos-plan", "chaos.txt"]).unwrap();
        assert_eq!(o.chaos_plan_path.as_deref(), Some("chaos.txt"));
        assert_eq!(
            Options::parse(Vec::<String>::new()).unwrap().chaos_plan_path,
            None
        );
        assert_eq!(
            Options::parse(["--chaos-plan"]),
            Err(ParseArgsError::MissingValue { flag: "--chaos-plan" })
        );
        assert!(USAGE.contains("--chaos-plan"));
    }

    #[test]
    fn checkpoint_flags_parse_and_validate() {
        let o = Options::parse(["--checkpoint-every", "25", "--restore"]).unwrap();
        assert_eq!(o.checkpoint_every, Some(25));
        assert!(o.restore && !o.no_checkpoint);
        let o = Options::parse(["--no-checkpoint"]).unwrap();
        assert!(o.no_checkpoint && o.checkpoint_every.is_none());
        assert!(matches!(
            Options::parse(["--checkpoint-every", "0"]),
            Err(ParseArgsError::BadValue { flag: "--checkpoint-every", .. })
        ));
        assert!(matches!(
            Options::parse(["--checkpoint-every", "5", "--no-checkpoint"]),
            Err(ParseArgsError::BadValue { flag: "--no-checkpoint", .. })
        ));
        assert!(USAGE.contains("--checkpoint-every") && USAGE.contains("--restore"));
    }

    #[test]
    fn error_display() {
        let e = ParseArgsError::BadValue {
            flag: "--p",
            value: "2".into(),
            expected: "a number in [0, 1)",
        };
        assert!(e.to_string().contains("--p"));
        assert!(ParseArgsError::MissingValue { flag: "--seed" }
            .to_string()
            .contains("--seed"));
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
