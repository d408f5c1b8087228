//! Fleet-level chaos schedules: *at time T, crash machine M / degrade
//! rack R's cooling / wedge machine M's controller*.
//!
//! A [`FleetFaultPlan`] lifts the per-machine [`FaultPlan`](crate::FaultPlan)
//! discipline to cluster granularity. Plans are pure data — no RNG state —
//! so cloning one into every worker of a parallel comparison is free and
//! cannot perturb determinism, and the plan's canonical [`Display`]
//! rendering doubles as its byte identity for journal fingerprints.
//!
//! Plans can be built programmatically or parsed from a small text DSL,
//! one event per line plus an optional disposition directive:
//!
//! ```text
//! # what to do with a crashed machine's queued work (default: drop)
//! on-crash redistribute
//! # time   target      kind               [for duration]
//! at 30s   machine 5   crash              for 20s   # restarts cold at t=50s
//! at 40s   machine 2   crash                        # permanent
//! at 45s   rack 0      crac 2.0 3.0       for 30s   # recirc x2, inlet +3 C
//! at 60s   machine 1   wedge              for 10s   # controller stuck
//! at 80s   all         wedge              for 5s
//! ```
//!
//! Times and durations accept `s`, `ms`, `us`, and `ns` suffixes; a bare
//! number means seconds. Blank lines and `#` comments are ignored. A
//! `crash` or `wedge` may target one machine, a whole rack, or `all`; a
//! `crac` event targets a rack (or `all` racks) — machine-level cooling
//! makes no physical sense and is rejected.

use std::fmt;
use std::str::FromStr;

use dimetrodon_sim_core::{SimDuration, SimTime};

use crate::plan::{parse_f64, parse_span, PlanError};

/// Which machines (or racks) a fleet fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTarget {
    /// A single machine, by fleet index.
    Machine(usize),
    /// Every machine of one rack, by rack index.
    Rack(usize),
    /// The whole fleet (for `crac`: every rack).
    All,
}

impl FleetTarget {
    /// Whether this target covers `machine` (which lives in `rack`).
    pub fn covers_machine(self, machine: usize, rack: usize) -> bool {
        match self {
            FleetTarget::Machine(m) => m == machine,
            FleetTarget::Rack(r) => r == rack,
            FleetTarget::All => true,
        }
    }

    /// Whether this target covers `rack`.
    pub fn covers_rack(self, rack: usize) -> bool {
        match self {
            FleetTarget::Machine(_) => false,
            FleetTarget::Rack(r) => r == rack,
            FleetTarget::All => true,
        }
    }
}

impl fmt::Display for FleetTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetTarget::Machine(m) => write!(f, "machine {m}"),
            FleetTarget::Rack(r) => write!(f, "rack {r}"),
            FleetTarget::All => write!(f, "all"),
        }
    }
}

/// The kind of cluster fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultKind {
    /// The machine goes down instantly: capacity lost, backlog handled
    /// per the plan's [`CrashBacklog`] disposition. With a `for`
    /// duration the machine restarts afterwards with cold thermal state
    /// re-settled from the fleet prototype; without one it never
    /// returns.
    Crash,
    /// CRAC failure / cooling degradation for a rack: the rack's
    /// recirculation coefficient is scaled by the first parameter and
    /// its inlet boundary shifted by the second (°C) while active.
    Crac {
        /// Multiplier on the rack's recirculation coefficient.
        recirc_scale: f64,
        /// Additive inlet-boundary offset, °C.
        inlet_delta_celsius: f64,
    },
    /// The machine's Dimetrodon controller wedges: its injection
    /// proportion stays stuck at the last commanded value while active.
    Wedge,
}

impl FleetFaultKind {
    fn name(&self) -> &'static str {
        match self {
            FleetFaultKind::Crash => "crash",
            FleetFaultKind::Crac { .. } => "crac",
            FleetFaultKind::Wedge => "wedge",
        }
    }
}

/// What happens to a crashed machine's queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashBacklog {
    /// The backlog is lost; the shed accounting charges it.
    #[default]
    Drop,
    /// The backlog is split evenly over the machines still up (in fixed
    /// index order); if none are up it is shed after all.
    Redistribute,
}

impl CrashBacklog {
    /// The DSL keyword for this policy (`drop` / `redistribute`).
    pub fn name(self) -> &'static str {
        match self {
            CrashBacklog::Drop => "drop",
            CrashBacklog::Redistribute => "redistribute",
        }
    }
}

/// One scheduled cluster fault: a kind, a target, a start time, and an
/// optional duration (permanent when absent).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultEvent {
    /// When the fault becomes active.
    pub at: SimTime,
    /// Which machine(s) or rack(s) it affects.
    pub target: FleetTarget,
    /// What it does.
    pub kind: FleetFaultKind,
    /// How long it lasts; `None` means until the end of the run.
    pub duration: Option<SimDuration>,
}

impl FleetFaultEvent {
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

impl fmt::Display for FleetFaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}s {} {}", self.at.as_secs_f64(), self.target, self.kind.name())?;
        if let FleetFaultKind::Crac { recirc_scale, inlet_delta_celsius } = self.kind {
            write!(f, " {recirc_scale} {inlet_delta_celsius}")?;
        }
        if let Some(d) = self.duration {
            write!(f, " for {}s", d.as_secs_f64())?;
        }
        Ok(())
    }
}

/// An ordered schedule of cluster fault events plus the crash-backlog
/// disposition. When several events of the same kind are active for the
/// same target, the one latest in the schedule wins.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultPlan {
    events: Vec<FleetFaultEvent>,
    on_crash: CrashBacklog,
}

impl FleetFaultPlan {
    /// An empty plan: injects nothing. Every consumer guarantees an
    /// empty plan is bit-identical to running without the chaos layer.
    pub fn new() -> Self {
        FleetFaultPlan::default()
    }

    /// Whether the plan schedules no events (the disposition is
    /// irrelevant without crashes).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FleetFaultEvent] {
        &self.events
    }

    /// What happens to a crashed machine's queued work.
    pub fn on_crash(&self) -> CrashBacklog {
        self.on_crash
    }

    /// Sets the crash-backlog disposition.
    pub fn set_on_crash(&mut self, disposition: CrashBacklog) {
        self.on_crash = disposition;
    }

    /// Adds an event after validating its parameters.
    pub fn push(&mut self, event: FleetFaultEvent) -> Result<(), PlanError> {
        let bad = |reason: String| PlanError::BadParameter { kind: event.kind.name(), reason };
        match event.kind {
            FleetFaultKind::Crac { recirc_scale, inlet_delta_celsius } => {
                if !(recirc_scale.is_finite() && recirc_scale >= 0.0) {
                    return Err(bad(format!(
                        "recirc scale must be finite and >= 0, got {recirc_scale}"
                    )));
                }
                if !inlet_delta_celsius.is_finite() {
                    return Err(bad(format!(
                        "inlet delta must be finite, got {inlet_delta_celsius}"
                    )));
                }
                if matches!(event.target, FleetTarget::Machine(_)) {
                    return Err(bad("crac targets a rack or `all`, not a machine".into()));
                }
            }
            FleetFaultKind::Crash | FleetFaultKind::Wedge => {}
        }
        if let Some(d) = event.duration {
            if d.is_zero() {
                return Err(bad("duration must be non-zero (omit `for` for permanent)".into()));
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// Builder-style [`FleetFaultPlan::push`] that panics on invalid
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
        target: FleetTarget,
        kind: FleetFaultKind,
        duration: Option<SimDuration>,
    ) -> Self {
        let event = FleetFaultEvent { at, target, kind, duration };
        #[expect(
            clippy::expect_used,
            reason = "literal-plan builder; programmatic callers use `push` and handle the error"
        )]
        self.push(event).expect("invalid fleet fault event");
        self
    }

    /// Whether a crash has `machine` (living in `rack`) down at `now`.
    pub fn machine_down(&self, machine: usize, rack: usize, now: SimTime) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FleetFaultKind::Crash)
                && e.target.covers_machine(machine, rack)
                && e.active_at(now)
        })
    }

    /// Whether `machine`'s controller is wedged at `now`.
    pub fn machine_wedged(&self, machine: usize, rack: usize, now: SimTime) -> bool {
        self.events.iter().any(|e| {
            matches!(e.kind, FleetFaultKind::Wedge)
                && e.target.covers_machine(machine, rack)
                && e.active_at(now)
        })
    }

    /// The CRAC degradation active for `rack` at `now`, if any:
    /// `(recirc scale, inlet delta °C)`. The latest matching event wins,
    /// so a plan can tighten or relax an earlier degradation.
    pub fn rack_crac(&self, rack: usize, now: SimTime) -> Option<(f64, f64)> {
        self.events
            .iter()
            .filter(|e| e.active_at(now) && e.target.covers_rack(rack))
            .fold(None, |acc, e| match e.kind {
                FleetFaultKind::Crac { recirc_scale, inlet_delta_celsius } => {
                    Some((recirc_scale, inlet_delta_celsius))
                }
                _ => acc,
            })
    }

    /// The highest machine index named by any event, if one is.
    pub fn max_machine(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.target {
                FleetTarget::Machine(m) => Some(m),
                _ => None,
            })
            .max()
    }

    /// The highest rack index named by any event, if one is.
    pub fn max_rack(&self) -> Option<usize> {
        self.events
            .iter()
            .filter_map(|e| match e.target {
                FleetTarget::Rack(r) => Some(r),
                _ => None,
            })
            .max()
    }

    /// The plan's canonical byte identity: the DSL rendering, which
    /// round-trips bit-for-bit through [`FromStr`]. An empty plan
    /// contributes zero bytes, so configs without chaos keep their
    /// pre-chaos fingerprints.
    pub fn identity_bytes(&self) -> Vec<u8> {
        if self.is_empty() {
            return Vec::new();
        }
        self.to_string().into_bytes()
    }

    /// A deterministic plan scaled by `intensity` in `[0, 1]` over a
    /// fleet of `machines` machines in racks of `machines_per_rack`,
    /// running for `duration`. Zero intensity is the empty plan; growing
    /// intensity adds scattered machine crashes (each with a restart
    /// after 15 % of the run), then a mid-run CRAC degradation on rack
    /// 0, then wedged controllers. Pure arithmetic, no RNG: the same
    /// arguments always produce the identical plan.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is not finite in `[0, 1]` or the fleet
    /// shape is empty.
    pub fn synthetic(
        intensity: f64,
        machines: usize,
        machines_per_rack: usize,
        duration: SimDuration,
    ) -> FleetFaultPlan {
        assert!(
            intensity.is_finite() && (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1], got {intensity}"
        );
        assert!(machines > 0 && machines_per_rack > 0, "fleet must be non-empty");
        let mut plan = FleetFaultPlan::new();
        if intensity <= 0.0 {
            return plan;
        }
        plan.set_on_crash(CrashBacklog::Redistribute);
        let crashes = ((intensity * machines as f64 * 0.25).ceil() as usize).max(1);
        let outage = duration.mul_f64(0.15).max(SimDuration::from_secs(1));
        for k in 0..crashes {
            // Scatter crashes over machines and over the middle of the
            // run; the stride keeps victims spread across racks.
            let machine = (k * 7 + 3) % machines;
            let at = SimTime::ZERO + duration.mul_f64(0.2 + 0.5 * k as f64 / crashes as f64);
            plan = plan.with(
                at,
                FleetTarget::Machine(machine),
                FleetFaultKind::Crash,
                Some(outage),
            );
        }
        if intensity >= 0.5 {
            plan = plan.with(
                SimTime::ZERO + duration.mul_f64(0.4),
                FleetTarget::Rack(0),
                FleetFaultKind::Crac {
                    recirc_scale: 1.0 + 2.0 * intensity,
                    inlet_delta_celsius: 2.0 * intensity,
                },
                Some(duration.mul_f64(0.3).max(SimDuration::from_secs(1))),
            );
        }
        if intensity >= 0.75 {
            for machine in [0usize, 1usize.min(machines - 1)] {
                plan = plan.with(
                    SimTime::ZERO + duration.mul_f64(0.3),
                    FleetTarget::Machine(machine),
                    FleetFaultKind::Wedge,
                    Some(duration.mul_f64(0.2).max(SimDuration::from_secs(1))),
                );
            }
        }
        plan
    }
}

impl fmt::Display for FleetFaultPlan {
    /// Renders the plan in the DSL — the `on-crash` directive first when
    /// non-default, then one event per line — so any plan round-trips
    /// through [`FleetFaultPlan::from_str`](FromStr).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.on_crash != CrashBacklog::default() {
            writeln!(f, "on-crash {}", self.on_crash.name())?;
        }
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

impl FromStr for FleetFaultPlan {
    type Err = PlanError;

    fn from_str(text: &str) -> Result<Self, PlanError> {
        let mut plan = FleetFaultPlan::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let code = raw.split('#').next().unwrap_or("").trim();
            if code.is_empty() {
                continue;
            }
            if let Some(rest) = code.strip_prefix("on-crash") {
                plan.on_crash = match rest.trim() {
                    "drop" => CrashBacklog::Drop,
                    "redistribute" => CrashBacklog::Redistribute,
                    other => {
                        return Err(PlanError::BadLine {
                            line,
                            reason: format!(
                                "expected `on-crash drop` or `on-crash redistribute`, got `{other}`"
                            ),
                        })
                    }
                };
                continue;
            }
            let event = parse_fleet_event(code)
                .map_err(|reason| PlanError::BadLine { line, reason })?;
            plan.push(event).map_err(|e| PlanError::BadLine { line, reason: e.to_string() })?;
        }
        Ok(plan)
    }
}

fn parse_fleet_event(code: &str) -> Result<FleetFaultEvent, String> {
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

    let target = match next("`machine <n>`, `rack <n>`, or `all`")? {
        "all" => FleetTarget::All,
        "machine" => {
            let n = next("a machine index")?;
            FleetTarget::Machine(n.parse().map_err(|_| format!("bad machine index `{n}`"))?)
        }
        "rack" => {
            let n = next("a rack index")?;
            FleetTarget::Rack(n.parse().map_err(|_| format!("bad rack index `{n}`"))?)
        }
        other => return Err(format!("expected `machine <n>`, `rack <n>`, or `all`, got `{other}`")),
    };

    let kind = match next("a fault kind")? {
        "crash" => FleetFaultKind::Crash,
        "crac" => FleetFaultKind::Crac {
            recirc_scale: parse_f64(next("a recirc scale")?)?,
            inlet_delta_celsius: parse_f64(next("an inlet delta")?)?,
        },
        "wedge" => FleetFaultKind::Wedge,
        other => return Err(format!("unknown fleet fault kind `{other}`")),
    };

    let duration = match next("end of line or `for <duration>`") {
        Err(_) => None,
        Ok("for") => Some(parse_span(next("a duration")?)?),
        Ok(other) => return Err(format!("expected `for <duration>`, got `{other}`")),
    };
    if let Ok(extra) = next("nothing") {
        return Err(format!("trailing input `{extra}`"));
    }

    Ok(FleetFaultEvent { at, target, kind, duration })
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
            # what to do with a crashed machine's queued work\n\
            on-crash redistribute\n\
            at 30s machine 5 crash for 20s\n\
            at 40s machine 2 crash\n\
            at 45s rack 0 crac 2.0 3.0 for 30s\n\
            at 60s machine 1 wedge for 10s\n\
            at 80s all wedge for 5s\n";
        let plan: FleetFaultPlan = text.parse().expect("plan parses");
        assert_eq!(plan.events().len(), 5);
        assert_eq!(plan.on_crash(), CrashBacklog::Redistribute);

        assert!(plan.machine_down(5, 0, secs(35)));
        assert!(!plan.machine_down(5, 0, secs(55)), "20s outage expired");
        assert!(plan.machine_down(2, 0, secs(500)), "no `for` means permanent");
        assert!(!plan.machine_down(4, 0, secs(35)), "wrong machine");

        assert_eq!(plan.rack_crac(0, secs(50)), Some((2.0, 3.0)));
        assert_eq!(plan.rack_crac(1, secs(50)), None, "wrong rack");
        assert_eq!(plan.rack_crac(0, secs(80)), None, "30s transient expired");

        assert!(plan.machine_wedged(1, 0, secs(65)));
        assert!(!plan.machine_wedged(1, 0, secs(75)));
        assert!(plan.machine_wedged(3, 1, secs(82)), "`all` wedge covers everyone");
    }

    #[test]
    fn rack_crash_downs_every_machine_of_the_rack() {
        let plan = FleetFaultPlan::new().with(
            secs(10),
            FleetTarget::Rack(2),
            FleetFaultKind::Crash,
            Some(SimDuration::from_secs(5)),
        );
        assert!(plan.machine_down(40, 2, secs(12)));
        assert!(plan.machine_down(41, 2, secs(12)));
        assert!(!plan.machine_down(7, 1, secs(12)), "other racks unaffected");
    }

    #[test]
    fn later_crac_events_override_earlier_ones() {
        let plan = FleetFaultPlan::new()
            .with(
                secs(0),
                FleetTarget::All,
                FleetFaultKind::Crac { recirc_scale: 2.0, inlet_delta_celsius: 1.0 },
                None,
            )
            .with(
                secs(10),
                FleetTarget::Rack(1),
                FleetFaultKind::Crac { recirc_scale: 4.0, inlet_delta_celsius: 6.0 },
                None,
            );
        assert_eq!(plan.rack_crac(1, secs(5)), Some((2.0, 1.0)));
        assert_eq!(plan.rack_crac(1, secs(15)), Some((4.0, 6.0)), "latest event wins");
        assert_eq!(plan.rack_crac(0, secs(15)), Some((2.0, 1.0)), "other racks keep the broad event");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut plan = FleetFaultPlan::new();
        let ev = |target, kind| FleetFaultEvent { at: secs(0), target, kind, duration: None };
        assert!(plan
            .push(ev(
                FleetTarget::All,
                FleetFaultKind::Crac { recirc_scale: -1.0, inlet_delta_celsius: 0.0 }
            ))
            .is_err());
        assert!(plan
            .push(ev(
                FleetTarget::All,
                FleetFaultKind::Crac { recirc_scale: 1.0, inlet_delta_celsius: f64::NAN }
            ))
            .is_err());
        assert!(
            plan.push(ev(
                FleetTarget::Machine(0),
                FleetFaultKind::Crac { recirc_scale: 1.0, inlet_delta_celsius: 0.0 }
            ))
            .is_err(),
            "machine-level crac is rejected"
        );
        let mut zero_duration = FleetFaultEvent {
            at: secs(0),
            target: FleetTarget::All,
            kind: FleetFaultKind::Crash,
            duration: Some(SimDuration::ZERO),
        };
        assert!(plan.push(zero_duration.clone()).is_err());
        zero_duration.duration = None;
        assert!(plan.push(zero_duration).is_ok());
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = "at 10s machine 2 crash\nat oops".parse::<FleetFaultPlan>().unwrap_err();
        match err {
            PlanError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other:?}"),
        }
        assert!("at 1s all crash extra".parse::<FleetFaultPlan>().is_err());
        assert!("at 1s rack 0 crac 2.0".parse::<FleetFaultPlan>().is_err());
        assert!("at 1s core 0 crash".parse::<FleetFaultPlan>().is_err());
        assert!("on-crash sideways".parse::<FleetFaultPlan>().is_err());
    }

    #[test]
    fn plans_round_trip_through_display() {
        let plan = FleetFaultPlan::new()
            .with(secs(30), FleetTarget::Machine(5), FleetFaultKind::Crash, Some(SimDuration::from_secs(20)))
            .with(
                secs(45),
                FleetTarget::Rack(0),
                FleetFaultKind::Crac { recirc_scale: 2.5, inlet_delta_celsius: 3.0 },
                Some(SimDuration::from_secs(30)),
            )
            .with(secs(60), FleetTarget::All, FleetFaultKind::Wedge, None);
        let reparsed: FleetFaultPlan = plan.to_string().parse().expect("display reparses");
        assert_eq!(reparsed, plan);

        let mut redistributing = plan;
        redistributing.set_on_crash(CrashBacklog::Redistribute);
        let reparsed: FleetFaultPlan =
            redistributing.to_string().parse().expect("directive reparses");
        assert_eq!(reparsed, redistributing);
    }

    #[test]
    fn identity_bytes_are_empty_only_for_the_empty_plan() {
        assert!(FleetFaultPlan::new().identity_bytes().is_empty());
        let plan = FleetFaultPlan::new().with(secs(1), FleetTarget::All, FleetFaultKind::Crash, None);
        assert!(!plan.identity_bytes().is_empty());
        let other = FleetFaultPlan::new().with(secs(2), FleetTarget::All, FleetFaultKind::Crash, None);
        assert_ne!(plan.identity_bytes(), other.identity_bytes());
    }

    #[test]
    fn synthetic_scales_with_intensity_and_stays_deterministic() {
        let duration = SimDuration::from_secs(100);
        assert!(FleetFaultPlan::synthetic(0.0, 32, 16, duration).is_empty());
        let mild = FleetFaultPlan::synthetic(0.25, 32, 16, duration);
        let severe = FleetFaultPlan::synthetic(1.0, 32, 16, duration);
        assert!(!mild.is_empty());
        assert!(severe.events().len() > mild.events().len());
        assert!(severe.events().iter().any(|e| matches!(e.kind, FleetFaultKind::Crac { .. })));
        assert!(severe.events().iter().any(|e| matches!(e.kind, FleetFaultKind::Wedge)));
        assert!(mild.events().iter().all(|e| matches!(e.kind, FleetFaultKind::Crash)));
        assert_eq!(severe, FleetFaultPlan::synthetic(1.0, 32, 16, duration), "pure function");
        assert!(severe.max_machine().is_some_and(|m| m < 32));
        // Synthetic plans must survive the DSL round trip too.
        let reparsed: FleetFaultPlan = severe.to_string().parse().expect("synthetic reparses");
        assert_eq!(reparsed, severe);
    }
}
