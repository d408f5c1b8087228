//! The one flag parser of every flag-taking binary: the figure and table
//! binaries in `dimetrodon-bench` and the `dimetrodon-sim` CLI.
//! [`Args::parse`] checks the whole argument list against the flags a
//! binary accepts before any value is read; the typed reads then turn
//! each value into its type or an [`ArgsError`] naming the flag, and no
//! read panics.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use crate::supervise::{PanicPolicy, SupervisorConfig};

/// A flag a binary accepts: its name and whether a value follows it.
pub type Flag = (&'static str, bool);

/// The supervision flags ([`Args::supervisor`]), accepted by the
/// binaries whose sweeps run through `run_sweep` and so under the
/// supervisor.
pub const SUPERVISION_FLAGS: &[Flag] = &[
    ("--strict", false),
    ("--retries", true),
    ("--point-deadline", true),
    ("--sweep-budget", true),
    ("--resume", false),
    ("--no-journal", false),
];

/// A usage error: the argument list does not describe a run.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgsError {
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
    /// An argument that is not one of the accepted flags.
    UnknownFlag(String),
    /// Two flags that cannot be combined were both passed.
    Exclusive(&'static str, &'static str),
    /// The first flag is accepted only together with the second.
    Requires(&'static str, &'static str),
    /// `--help` (or `-h`) was passed.
    HelpRequested,
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for {flag} (expected {expected})"),
            ArgsError::UnknownFlag(flag) => write!(f, "unknown argument `{flag}`"),
            ArgsError::Exclusive(a, b) => write!(f, "{a} and {b} are mutually exclusive"),
            ArgsError::Requires(a, b) => write!(f, "{a} requires {b}"),
            ArgsError::HelpRequested => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// An argument list checked against the flags a binary accepts.
#[derive(Debug, Clone)]
pub struct Args {
    accepted: Vec<Flag>,
    /// Every flag passed, in order, with its value when it takes one.
    passed: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Checks `argv` (program name excluded) against `accepted`: every
    /// argument must be an accepted flag, followed by its value when it
    /// takes one. A flag passed twice keeps its last value.
    ///
    /// # Errors
    ///
    /// [`ArgsError::HelpRequested`] for `--help` or `-h`, and otherwise
    /// the first unknown flag or missing value.
    pub fn parse<I, S>(argv: I, accepted: &[Flag]) -> Result<Args, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut passed = Vec::new();
        let mut rest = argv.into_iter();
        while let Some(arg) = rest.next() {
            let arg = arg.as_ref();
            if arg == "--help" || arg == "-h" {
                return Err(ArgsError::HelpRequested);
            }
            let Some(&(flag, takes_value)) = accepted.iter().find(|(name, _)| *name == arg) else {
                return Err(ArgsError::UnknownFlag(arg.to_string()));
            };
            let value = if takes_value {
                let value = rest.next().ok_or(ArgsError::MissingValue { flag })?;
                Some(value.as_ref().to_string())
            } else {
                None
            };
            passed.push((flag, value));
        }
        Ok(Args {
            accepted: accepted.to_vec(),
            passed,
        })
    }

    /// The flags this list was checked against.
    pub fn accepted(&self) -> &[Flag] {
        &self.accepted
    }

    /// Whether `flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.passed.iter().any(|(name, _)| *name == flag)
    }

    /// The last value passed for `flag`, if any.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.passed
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The last value passed for `flag`, parsed as a `T` that satisfies
    /// `valid`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`] naming `expected` when the value does not
    /// parse or fails `valid`.
    pub fn value<T: FromStr>(
        &self,
        flag: &'static str,
        expected: &'static str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, ArgsError> {
        let Some(raw) = self.text(flag) else {
            return Ok(None);
        };
        match raw.parse::<T>() {
            Ok(value) if valid(&value) => Ok(Some(value)),
            _ => Err(ArgsError::BadValue {
                flag,
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// Fails when both `a` and `b` were passed.
    ///
    /// # Errors
    ///
    /// [`ArgsError::Exclusive`] naming the two flags.
    pub fn exclusive(&self, a: &'static str, b: &'static str) -> Result<(), ArgsError> {
        if self.has(a) && self.has(b) {
            return Err(ArgsError::Exclusive(a, b));
        }
        Ok(())
    }

    /// The sweep supervisor the [`SUPERVISION_FLAGS`] select: `--strict`
    /// aborts a sweep on a panicking point instead of quarantining it,
    /// `--retries N` re-attempts a failed point with grid-derived seeds,
    /// `--point-deadline`/`--sweep-budget SECS` bound wall clock per point
    /// and per sweep, `--resume` replays completed points from the
    /// journal in `results/.journal/`, and `--no-journal` disables it.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`] for a retry count that is not a
    /// non-negative integer or a duration that is not a positive number
    /// of seconds.
    pub fn supervisor(&self) -> Result<SupervisorConfig, ArgsError> {
        let seconds = |flag| {
            let positive = |secs: &f64| secs.is_finite() && *secs > 0.0;
            let secs = self.value(flag, "a positive number of seconds", positive)?;
            Ok::<_, ArgsError>(secs.map(Duration::from_secs_f64))
        };
        Ok(SupervisorConfig {
            policy: if self.has("--strict") {
                PanicPolicy::Strict
            } else {
                PanicPolicy::Quarantine
            },
            point_deadline: seconds("--point-deadline")?,
            sweep_budget: seconds("--sweep-budget")?,
            retries: self
                .value("--retries", "a non-negative integer", |_: &u32| true)?
                .unwrap_or(0),
            journal_dir: (!self.has("--no-journal"))
                .then(|| PathBuf::from("results").join(".journal")),
            resume: self.has("--resume"),
            backoff: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN_FLAGS: &[Flag] = &[("--quick", false), ("--seed", true)];

    fn seed(args: &Args) -> Result<Option<u64>, ArgsError> {
        args.value("--seed", "an unsigned integer", |_: &u64| true)
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        let accepted: Vec<Flag> = RUN_FLAGS.iter().chain(SUPERVISION_FLAGS).copied().collect();
        assert!(Args::parse(["--quick", "--seed", "2", "--resume"], &accepted).is_ok());
        for (argv, err) in [
            (&["--quick", "--resume"][..], ArgsError::UnknownFlag("--resume".into())),
            (&["--quick", "--jbos", "2"], ArgsError::UnknownFlag("--jbos".into())),
            (&["--quick", "extra"], ArgsError::UnknownFlag("extra".into())),
            (&["--seed"], ArgsError::MissingValue { flag: "--seed" }),
            (&["--quick", "-h"], ArgsError::HelpRequested),
        ] {
            assert_eq!(Args::parse(argv, RUN_FLAGS).unwrap_err(), err, "{argv:?}");
        }
    }

    #[test]
    fn values_are_typed_and_checked_and_the_last_one_wins() {
        let args = Args::parse(["--seed", "3", "--quick", "--seed", "9"], RUN_FLAGS).unwrap();
        assert_eq!((seed(&args), args.text("--seed")), (Ok(Some(9)), Some("9")));
        assert!(args.has("--quick") && !args.has("--seed2"));
        assert_eq!(seed(&Args::parse(["--quick"], RUN_FLAGS).unwrap()), Ok(None));
        for raw in ["abc", "-1", "1.5"] {
            let bad = ArgsError::BadValue {
                flag: "--seed",
                value: raw.into(),
                expected: "an unsigned integer",
            };
            assert_eq!(seed(&Args::parse(["--seed", raw], RUN_FLAGS).unwrap()), Err(bad));
        }
        let zero = Args::parse(["--seed", "0"], RUN_FLAGS).unwrap();
        let positive = zero.value("--seed", "a positive integer", |&n: &u64| n > 0);
        assert!(matches!(positive, Err(ArgsError::BadValue { flag: "--seed", .. })));
        assert_eq!(zero.exclusive("--seed", "--quick"), Ok(()));
        let both = Args::parse(["--seed", "0", "--quick"], RUN_FLAGS).unwrap();
        assert_eq!(
            both.exclusive("--seed", "--quick"),
            Err(ArgsError::Exclusive("--seed", "--quick"))
        );
    }

    #[test]
    fn supervisor_reads_every_supervision_flag() {
        let config = Args::parse(Vec::<String>::new(), SUPERVISION_FLAGS)
            .unwrap()
            .supervisor()
            .unwrap();
        assert_eq!(config, SupervisorConfig {
            journal_dir: Some(PathBuf::from("results/.journal")),
            backoff: true,
            ..SupervisorConfig::default()
        });
        let argv = [
            "--strict", "--retries", "3", "--point-deadline", "2.5", "--sweep-budget", "60",
            "--resume", "--no-journal",
        ];
        let config = Args::parse(argv, SUPERVISION_FLAGS).unwrap().supervisor().unwrap();
        assert_eq!(config, SupervisorConfig {
            policy: PanicPolicy::Strict,
            point_deadline: Some(Duration::from_millis(2500)),
            sweep_budget: Some(Duration::from_secs(60)),
            retries: 3,
            journal_dir: None,
            resume: true,
            backoff: true,
        });
        for argv in [
            ["--retries", "-1"],
            ["--point-deadline", "0"],
            ["--point-deadline", "inf"],
            ["--sweep-budget", "x"],
        ] {
            let read = Args::parse(argv, SUPERVISION_FLAGS).unwrap().supervisor();
            assert!(
                matches!(read, Err(ArgsError::BadValue { flag, .. }) if flag == argv[0]),
                "{argv:?} must be rejected"
            );
        }
    }
}
