//! Fault schedules: *at time T, inject fault K on core C, transient or
//! permanent*.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s. Plans are pure
//! data — they carry no RNG state — so cloning one into every worker of a
//! parallel sweep is free and cannot perturb determinism. The plan is
//! queried each time a sensor is read or a scheduler hook fires; events
//! are active from their start time until their start plus duration
//! (permanent when no duration is given). When several events of the same
//! kind are active for the same core, the one latest in the schedule
//! wins, so a plan can tighten or relax an earlier fault.
//!
//! Plans can be built programmatically or parsed from a small text DSL,
//! one event per line:
//!
//! ```text
//! # time  target   kind           [for duration]
//! at 10s  core 2   stuck 85.0     for 5s
//! at 20s  all      noise 2.5
//! at 30s  core 0   dropout        for 2500ms
//! at 40s  all      drop-hooks 0.5 for 10s
//! at 50s  all      drop-ticks     for 3s
//! at 60s  core 1   wakeup-jitter 4ms
//! ```
//!
//! Times and durations accept `s`, `ms`, `us`, and `ns` suffixes; a bare
//! number means seconds. Blank lines and `#` comments are ignored.

use std::fmt;
use std::str::FromStr;

use dimetrodon_sim_core::{SimDuration, SimTime};

/// Which core(s) a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A single core, by index.
    Core(usize),
    /// Every core (and, for sensor faults, the package-level power read).
    All,
}

impl FaultTarget {
    /// Whether this target covers `core`.
    pub fn covers(self, core: usize) -> bool {
        match self {
            FaultTarget::Core(c) => c == core,
            FaultTarget::All => true,
        }
    }
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Core(c) => write!(f, "core {c}"),
            FaultTarget::All => write!(f, "all"),
        }
    }
}

/// The kind of fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The sensor latches at a fixed reading (degrees Celsius).
    StuckAt(f64),
    /// The sensor returns no reading at all (surfaces as NaN upstream).
    Dropout,
    /// Extra zero-mean Gaussian noise on top of the sensor's baseline
    /// sigma (degrees Celsius).
    NoiseBurst(f64),
    /// Each scheduler `on_schedule` consultation is dropped (the thread
    /// just runs) with this probability.
    DropHooks(f64),
    /// Controller `on_tick` invocations are suppressed entirely —
    /// models a stalled daemon / missed timer interrupts.
    DropTicks,
    /// Injected idle quanta are jittered by up to plus or minus this
    /// span — models imprecise wakeup timers.
    WakeupJitter(SimDuration),
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::StuckAt(_) => "stuck",
            FaultKind::Dropout => "dropout",
            FaultKind::NoiseBurst(_) => "noise",
            FaultKind::DropHooks(_) => "drop-hooks",
            FaultKind::DropTicks => "drop-ticks",
            FaultKind::WakeupJitter(_) => "wakeup-jitter",
        }
    }
}

/// One scheduled fault: a kind, a target, a start time, and an optional
/// duration (permanent when absent).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault becomes active.
    pub at: SimTime,
    /// Which core(s) it affects.
    pub target: FaultTarget,
    /// What it does.
    pub kind: FaultKind,
    /// How long it lasts; `None` means until the end of the run.
    pub duration: Option<SimDuration>,
}

impl FaultEvent {
    /// Whether the event is active at `now`.
    pub fn active_at(&self, now: SimTime) -> bool {
        if now < self.at {
            return false;
        }
        match self.duration {
            Some(d) => now < self.at + d,
            None => true,
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}s {} {}", self.at.as_secs_f64(), self.target, self.kind.name())?;
        match self.kind {
            FaultKind::StuckAt(v) => write!(f, " {v}")?,
            FaultKind::NoiseBurst(s) => write!(f, " {s}")?,
            FaultKind::DropHooks(p) => write!(f, " {p}")?,
            FaultKind::WakeupJitter(j) => write!(f, " {}ms", j.as_millis_f64())?,
            FaultKind::Dropout | FaultKind::DropTicks => {}
        }
        if let Some(d) = self.duration {
            write!(f, " for {}s", d.as_secs_f64())?;
        }
        Ok(())
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the plan in the DSL, one event per line, so any plan
    /// round-trips through [`FaultPlan::from_str`](std::str::FromStr).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

/// A malformed fault event or plan line.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A fault parameter was non-finite or outside its legal range.
    BadParameter {
        /// The fault kind whose parameter was rejected.
        kind: &'static str,
        /// Human-readable reason.
        reason: String,
    },
    /// A DSL line did not parse.
    BadLine {
        /// 1-based line number within the plan text.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadParameter { kind, reason } => {
                write!(f, "bad `{kind}` fault parameter: {reason}")
            }
            PlanError::BadLine { line, reason } => {
                write!(f, "fault plan line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// An ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: injects nothing, and every consumer in the
    /// workspace guarantees an empty plan is bit-identical to running
    /// without the fault layer at all.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Adds an event after validating its parameters.
    pub fn push(&mut self, event: FaultEvent) -> Result<(), PlanError> {
        let bad = |reason: String| PlanError::BadParameter { kind: event.kind.name(), reason };
        match event.kind {
            FaultKind::StuckAt(v) => {
                if !v.is_finite() {
                    return Err(bad(format!("stuck value must be finite, got {v}")));
                }
            }
            FaultKind::NoiseBurst(s) => {
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(format!("noise sigma must be finite and >= 0, got {s}")));
                }
            }
            FaultKind::DropHooks(p) => {
                if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                    return Err(bad(format!("drop probability must be in [0, 1], got {p}")));
                }
            }
            FaultKind::Dropout | FaultKind::DropTicks | FaultKind::WakeupJitter(_) => {}
        }
        if let Some(d) = event.duration {
            if d.is_zero() {
                return Err(bad("duration must be non-zero (omit `for` for permanent)".into()));
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// Builder-style [`FaultPlan::push`] that panics on invalid
    /// parameters — convenient for literal plans in tests and
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if the event's parameters are invalid.
    #[must_use]
    pub fn with(
        mut self,
        at: SimTime,
        target: FaultTarget,
        kind: FaultKind,
        duration: Option<SimDuration>,
    ) -> Self {
        let event = FaultEvent { at, target, kind, duration };
        #[expect(
            clippy::expect_used,
            reason = "literal-plan builder; programmatic callers use `push` and handle the error"
        )]
        self.push(event).expect("invalid fault event");
        self
    }

    /// The stuck-at value for `core` at `now`, if a stuck fault is
    /// active (latest matching event wins).
    pub fn stuck_value(&self, core: usize, now: SimTime) -> Option<f64> {
        self.latest(now, |e| match e.kind {
            FaultKind::StuckAt(v) if e.target.covers(core) => Some(v),
            _ => None,
        })
    }

    /// Whether a scheduled dropout is active for `core` at `now`.
    pub fn dropout_active(&self, core: usize, now: SimTime) -> bool {
        self.latest(now, |e| match e.kind {
            FaultKind::Dropout if e.target.covers(core) => Some(()),
            _ => None,
        })
        .is_some()
    }

    /// Extra Gaussian noise sigma active for `core` at `now`, if any.
    pub fn noise_sigma(&self, core: usize, now: SimTime) -> Option<f64> {
        self.latest(now, |e| match e.kind {
            FaultKind::NoiseBurst(s) if e.target.covers(core) => Some(s),
            _ => None,
        })
    }

    /// The probability of dropping an `on_schedule` consultation on
    /// `core` at `now`, if a drop-hooks fault is active.
    pub fn drop_hook_p(&self, core: usize, now: SimTime) -> Option<f64> {
        self.latest(now, |e| match e.kind {
            FaultKind::DropHooks(p) if e.target.covers(core) => Some(p),
            _ => None,
        })
    }

    /// Whether controller ticks are suppressed at `now`.
    pub fn ticks_dropped(&self, now: SimTime) -> bool {
        self.latest(now, |e| match e.kind {
            FaultKind::DropTicks => Some(()),
            _ => None,
        })
        .is_some()
    }

    /// The idle-wakeup jitter span active for `core` at `now`, if any.
    pub fn wakeup_jitter(&self, core: usize, now: SimTime) -> Option<SimDuration> {
        self.latest(now, |e| match e.kind {
            FaultKind::WakeupJitter(j) if e.target.covers(core) => Some(j),
            _ => None,
        })
    }

    /// Whether the plan contains any scheduler-side fault (drop-hooks,
    /// drop-ticks, or wakeup jitter) at any time.
    pub fn has_scheduler_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::DropHooks(_) | FaultKind::DropTicks | FaultKind::WakeupJitter(_)
            )
        })
    }

    /// Whether the plan contains any sensor-side fault (stuck-at,
    /// dropout, or noise burst) at any time.
    pub fn has_sensor_faults(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::StuckAt(_) | FaultKind::Dropout | FaultKind::NoiseBurst(_)
            )
        })
    }

    fn latest<T>(&self, now: SimTime, mut pick: impl FnMut(&FaultEvent) -> Option<T>) -> Option<T> {
        self.events
            .iter()
            .filter(|e| e.active_at(now))
            .fold(None, |acc, e| pick(e).or(acc))
    }
}

impl FromStr for FaultPlan {
    type Err = PlanError;

    fn from_str(text: &str) -> Result<Self, PlanError> {
        let mut plan = FaultPlan::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let code = raw.split('#').next().unwrap_or("").trim();
            if code.is_empty() {
                continue;
            }
            let event = parse_event(code)
                .map_err(|reason| PlanError::BadLine { line, reason })?;
            plan.push(event).map_err(|e| PlanError::BadLine { line, reason: e.to_string() })?;
        }
        Ok(plan)
    }
}

fn parse_event(code: &str) -> Result<FaultEvent, String> {
    let tokens: Vec<&str> = code.split_whitespace().collect();
    let mut cursor = 0usize;
    let mut next = |what: &str| -> Result<&str, String> {
        let tok = tokens.get(cursor).copied().ok_or_else(|| format!("expected {what}"))?;
        cursor += 1;
        Ok(tok)
    };

    let kw = next("`at`")?;
    if kw != "at" {
        return Err(format!("expected `at`, got `{kw}`"));
    }
    let at = SimTime::ZERO + parse_span(next("a start time")?)?;

    let target = match next("`core <n>` or `all`")? {
        "all" => FaultTarget::All,
        "core" => {
            let n = next("a core index")?;
            FaultTarget::Core(n.parse().map_err(|_| format!("bad core index `{n}`"))?)
        }
        other => return Err(format!("expected `core <n>` or `all`, got `{other}`")),
    };

    let kind = match next("a fault kind")? {
        "stuck" => FaultKind::StuckAt(parse_f64(next("a stuck value")?)?),
        "dropout" => FaultKind::Dropout,
        "noise" => FaultKind::NoiseBurst(parse_f64(next("a noise sigma")?)?),
        "drop-hooks" => FaultKind::DropHooks(parse_f64(next("a drop probability")?)?),
        "drop-ticks" => FaultKind::DropTicks,
        "wakeup-jitter" => FaultKind::WakeupJitter(parse_span(next("a jitter span")?)?),
        other => return Err(format!("unknown fault kind `{other}`")),
    };

    let duration = match next("end of line or `for <duration>`") {
        Err(_) => None,
        Ok("for") => Some(parse_span(next("a duration")?)?),
        Ok(other) => return Err(format!("expected `for <duration>`, got `{other}`")),
    };
    if let Ok(extra) = next("nothing") {
        return Err(format!("trailing input `{extra}`"));
    }

    Ok(FaultEvent { at, target, kind, duration })
}

pub(crate) fn parse_f64(tok: &str) -> Result<f64, String> {
    tok.parse().map_err(|_| format!("bad number `{tok}`"))
}

/// Parses `10s`, `2500ms`, `40us`, `500ns`, or a bare number of seconds.
pub(crate) fn parse_span(tok: &str) -> Result<SimDuration, String> {
    let (digits, scale_ns) = if let Some(d) = tok.strip_suffix("ms") {
        (d, 1e6)
    } else if let Some(d) = tok.strip_suffix("us") {
        (d, 1e3)
    } else if let Some(d) = tok.strip_suffix("ns") {
        (d, 1.0)
    } else if let Some(d) = tok.strip_suffix('s') {
        (d, 1e9)
    } else {
        (tok, 1e9)
    };
    let value: f64 = digits.parse().map_err(|_| format!("bad duration `{tok}`"))?;
    if !(value.is_finite() && value >= 0.0 && value * scale_ns <= u64::MAX as f64) {
        return Err(format!("duration `{tok}` out of range"));
    }
    Ok(SimDuration::from_nanos((value * scale_ns).round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn parses_the_doc_example() {
        let text = "\
            # time  target kind [for]\n\
            at 10s core 2 stuck 85.0 for 5s\n\
            at 20s all noise 2.5\n\
            at 30s core 0 dropout for 2500ms\n\
            at 40s all drop-hooks 0.5 for 10s\n\
            at 50s all drop-ticks for 3s\n\
            at 60s core 1 wakeup-jitter 4ms\n";
        let plan: FaultPlan = text.parse().expect("plan parses");
        assert_eq!(plan.events().len(), 6);

        assert_eq!(plan.stuck_value(2, secs(12)), Some(85.0));
        assert_eq!(plan.stuck_value(2, secs(15)), None, "5s transient expired");
        assert_eq!(plan.stuck_value(1, secs(12)), None, "wrong core");

        assert_eq!(plan.noise_sigma(3, secs(25)), Some(2.5));
        assert!(plan.dropout_active(0, secs(31)));
        assert!(!plan.dropout_active(0, secs(33)), "2500ms transient expired");

        assert_eq!(plan.drop_hook_p(1, secs(45)), Some(0.5));
        assert!(plan.ticks_dropped(secs(52)));
        assert!(!plan.ticks_dropped(secs(54)));
        assert_eq!(plan.wakeup_jitter(1, secs(70)), Some(SimDuration::from_millis(4)));
        assert_eq!(plan.wakeup_jitter(0, secs(70)), None);
    }

    #[test]
    fn later_events_override_earlier_ones() {
        let plan = FaultPlan::new()
            .with(secs(0), FaultTarget::All, FaultKind::NoiseBurst(1.0), None)
            .with(secs(10), FaultTarget::Core(0), FaultKind::NoiseBurst(3.0), None);
        assert_eq!(plan.noise_sigma(0, secs(5)), Some(1.0));
        assert_eq!(plan.noise_sigma(0, secs(15)), Some(3.0), "latest event wins");
        assert_eq!(plan.noise_sigma(1, secs(15)), Some(1.0), "other cores keep the broad fault");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut plan = FaultPlan::new();
        let ev = |kind| FaultEvent { at: secs(0), target: FaultTarget::All, kind, duration: None };
        assert!(plan.push(ev(FaultKind::StuckAt(f64::NAN))).is_err());
        assert!(plan.push(ev(FaultKind::NoiseBurst(-1.0))).is_err());
        assert!(plan.push(ev(FaultKind::DropHooks(1.5))).is_err());
        assert!(plan.push(ev(FaultKind::DropHooks(f64::INFINITY))).is_err());
        assert!(plan.is_empty());
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = "at 10s core 2 stuck 85.0\nat oops".parse::<FaultPlan>().unwrap_err();
        match err {
            PlanError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
        assert!("at 1s all dropout extra".parse::<FaultPlan>().is_err());
        assert!("at 1s all stuck".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn classifies_sensor_vs_scheduler_faults() {
        let sensor = FaultPlan::new().with(secs(1), FaultTarget::All, FaultKind::Dropout, None);
        assert!(sensor.has_sensor_faults());
        assert!(!sensor.has_scheduler_faults());

        let sched = FaultPlan::new().with(secs(1), FaultTarget::All, FaultKind::DropTicks, None);
        assert!(!sched.has_sensor_faults());
        assert!(sched.has_scheduler_faults());
    }

    #[test]
    fn events_round_trip_through_display() {
        let plan = FaultPlan::new()
            .with(secs(10), FaultTarget::Core(2), FaultKind::StuckAt(85.0), Some(SimDuration::from_secs(5)))
            .with(secs(20), FaultTarget::All, FaultKind::DropHooks(0.25), None);
        let text: String =
            plan.events().iter().map(|e| format!("{e}\n")).collect();
        let reparsed: FaultPlan = text.parse().expect("display output reparses");
        assert_eq!(reparsed, plan);
        // Plan-level Display is the same DSL, one event per line.
        assert_eq!(plan.to_string(), text);
        let whole: FaultPlan = plan.to_string().parse().expect("plan display reparses");
        assert_eq!(whole, plan);
    }
}
