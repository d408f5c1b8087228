//! Property tests for the fleet-level chaos DSL: *any* valid
//! [`FleetFaultPlan`] must round-trip bit-for-bit through its canonical
//! [`Display`](std::fmt::Display) rendering, overlapping events must
//! resolve the way the queries document, and every token-level
//! truncation or corruption of a valid plan must be rejected rather than
//! silently reinterpreted.

#![allow(
    clippy::expect_used,
    reason = "test code: a failed expect is a failed test"
)]

use dimetrodon_faults::{
    CrashBacklog, FleetFaultEvent, FleetFaultKind, FleetFaultPlan, FleetTarget,
};
use dimetrodon_sim_core::{SimDuration, SimTime};
use proptest::prelude::*;

fn target_strategy() -> impl Strategy<Value = FleetTarget> {
    prop_oneof![
        (0usize..64).prop_map(FleetTarget::Machine),
        (0usize..8).prop_map(FleetTarget::Rack),
        Just(FleetTarget::All),
    ]
}

/// Rack-or-all targets, for `crac` events (machine-level crac is
/// rejected by construction).
fn rack_target_strategy() -> impl Strategy<Value = FleetTarget> {
    prop_oneof![(0usize..8).prop_map(FleetTarget::Rack), Just(FleetTarget::All)]
}

fn event_strategy() -> impl Strategy<Value = FleetFaultEvent> {
    let timing = (0u64..500_000, prop::option::of(1u64..100_000));
    let crash_or_wedge = (
        target_strategy(),
        prop_oneof![Just(FleetFaultKind::Crash), Just(FleetFaultKind::Wedge)],
    );
    let crac = (rack_target_strategy(), (0.0f64..5.0, -10.0f64..10.0)).prop_map(
        |(target, (recirc_scale, inlet_delta_celsius))| {
            (target, FleetFaultKind::Crac { recirc_scale, inlet_delta_celsius })
        },
    );
    (timing, prop_oneof![crash_or_wedge, crac]).prop_map(
        |((at_ms, dur_ms), (target, kind))| FleetFaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            target,
            kind,
            duration: dur_ms.map(SimDuration::from_millis),
        },
    )
}

fn plan_strategy() -> impl Strategy<Value = FleetFaultPlan> {
    (prop::collection::vec(event_strategy(), 0..8), any::<bool>()).prop_map(
        |(events, redistribute)| {
            let mut plan = FleetFaultPlan::new();
            if redistribute {
                plan.set_on_crash(CrashBacklog::Redistribute);
            }
            for event in events {
                plan.push(event).expect("strategy only generates valid events");
            }
            plan
        },
    )
}

proptest! {
    /// Any plan the strategy can build — overlapping windows, duplicate
    /// targets, mixed kinds — renders to DSL text that reparses into an
    /// equal plan, and the rendering is a fixed point (idempotent), so
    /// it is safe to use as the journal-fingerprint byte identity.
    #[test]
    fn prop_any_plan_round_trips_through_the_dsl(plan in plan_strategy()) {
        let text = plan.to_string();
        let reparsed: FleetFaultPlan = text.parse().expect("canonical rendering must parse");
        prop_assert_eq!(&reparsed, &plan);
        prop_assert_eq!(reparsed.to_string(), text, "rendering must be a fixed point");
        prop_assert_eq!(plan.identity_bytes().is_empty(), plan.is_empty());
    }

    /// The state queries agree with a from-scratch oracle over the raw
    /// event list, including when events overlap: down/wedged are an OR
    /// over active covering events, and the *latest* active crac event
    /// wins for a rack.
    #[test]
    fn prop_overlapping_events_resolve_as_documented(
        plan in plan_strategy(),
        probe_ms in 0u64..600_000,
        machine in 0usize..64,
        rack in 0usize..8,
    ) {
        let now = SimTime::ZERO + SimDuration::from_millis(probe_ms);
        let active = |e: &FleetFaultEvent| {
            now >= e.at && e.duration.is_none_or(|d| now < e.at + d)
        };
        let expect_down = plan.events().iter().any(|e| {
            matches!(e.kind, FleetFaultKind::Crash)
                && active(e)
                && e.target.covers_machine(machine, rack)
        });
        prop_assert_eq!(plan.machine_down(machine, rack, now), expect_down);
        let expect_wedged = plan.events().iter().any(|e| {
            matches!(e.kind, FleetFaultKind::Wedge)
                && active(e)
                && e.target.covers_machine(machine, rack)
        });
        prop_assert_eq!(plan.machine_wedged(machine, rack, now), expect_wedged);
        let expect_crac = plan
            .events()
            .iter()
            .filter(|e| active(e) && e.target.covers_rack(rack))
            .filter_map(|e| match e.kind {
                FleetFaultKind::Crac { recirc_scale, inlet_delta_celsius } => {
                    Some((recirc_scale, inlet_delta_celsius))
                }
                _ => None,
            })
            .next_back();
        prop_assert_eq!(plan.rack_crac(rack, now), expect_crac);
    }

    /// Chopping the last whitespace token off any line of a valid plan
    /// leaves a malformed line; the parser must reject the mutilated
    /// text instead of guessing.
    #[test]
    fn prop_token_truncations_are_rejected(plan in plan_strategy(), victim in 0usize..8) {
        let text = plan.to_string();
        let lines: Vec<&str> = text.lines().collect();
        if lines.is_empty() {
            return Ok(()); // the empty plan renders to nothing
        }
        let victim = victim % lines.len();
        let mutated: String = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                if i == victim {
                    line.rsplit_once(' ').map_or("", |(head, _)| head).to_string()
                } else {
                    (*line).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        prop_assert!(
            mutated.parse::<FleetFaultPlan>().is_err(),
            "truncating line {} of {text:?} must not parse",
            victim + 1
        );
    }

    /// Appending a stray token to any event line is trailing garbage.
    #[test]
    fn prop_trailing_garbage_is_rejected(plan in plan_strategy(), victim in 0usize..8) {
        if plan.is_empty() && plan.on_crash() == CrashBacklog::Drop {
            return Ok(()); // nothing rendered, nothing to corrupt
        }
        let text = plan.to_string();
        let lines: Vec<&str> = text.lines().collect();
        let victim = victim % lines.len();
        let mutated: String = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                if i == victim {
                    format!("{line} sideways")
                } else {
                    (*line).to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        prop_assert!(mutated.parse::<FleetFaultPlan>().is_err());
    }

    /// Synthetic plans at any point of the intensity knob stay inside
    /// the fleet's shape, stay deterministic, and survive the DSL round
    /// trip — they are what the chaos sweep journals by identity bytes.
    #[test]
    fn prop_synthetic_plans_are_valid_and_round_trip(
        intensity in 0.0f64..=1.0,
        machines in 1usize..128,
        per_rack in 1usize..32,
        secs in 10u64..500,
    ) {
        let duration = SimDuration::from_secs(secs);
        let plan = FleetFaultPlan::synthetic(intensity, machines, per_rack, duration);
        prop_assert_eq!(
            &plan,
            &FleetFaultPlan::synthetic(intensity, machines, per_rack, duration),
            "synthetic must be a pure function"
        );
        if let Some(m) = plan.max_machine() {
            prop_assert!(m < machines);
        }
        if intensity <= 0.0 {
            prop_assert!(plan.is_empty());
        } else {
            prop_assert!(!plan.is_empty());
            prop_assert!(plan
                .events()
                .iter()
                .all(|e| e.duration.is_some()), "synthetic faults are all transient");
        }
        let reparsed: FleetFaultPlan = plan.to_string().parse().expect("synthetic reparses");
        prop_assert_eq!(reparsed, plan);
    }
}

/// An empty rendering (or pure comments/blank lines) parses to the empty
/// plan, whose identity bytes are empty — the contract that keeps
/// chaos-free fingerprints identical to the pre-chaos ones.
#[test]
fn empty_and_comment_only_texts_parse_to_the_empty_plan() {
    for text in ["", "\n\n", "# nothing\n  # to see\n\n"] {
        let plan: FleetFaultPlan = text.parse().expect("empty-ish text parses");
        assert!(plan.is_empty());
        assert_eq!(plan, FleetFaultPlan::new());
        assert!(plan.identity_bytes().is_empty());
    }
}
