//! Property tests for the fault-injection layer: *any* valid
//! [`FaultPlan`] must leave the simulation's core invariants intact, and
//! an empty plan must be bit-identical to not having the fault layer at
//! all.

#![allow(
    clippy::expect_used,
    reason = "test code: a failed expect is a failed test"
)]

use dimetrodon::{DimetrodonHook, PolicyHandle, SetpointController, TelemetryFilter};
use dimetrodon_faults::{
    FaultEvent, FaultKind, FaultPlan, FaultTarget, FaultyHook, FaultyTelemetry, SensorSpec,
};
use dimetrodon_machine::{Machine, MachineConfig, ThermalTrip};
use dimetrodon_sched::{SchedHook, Spin, System, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime, TimeSeries};
use proptest::prelude::*;

const SETPOINT: f64 = 45.0;
const CRITICAL: f64 = 52.0;
const RUN_SECS: u64 = 30;

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        (-40.0f64..140.0).prop_map(FaultKind::StuckAt),
        Just(FaultKind::Dropout),
        (0.0f64..5.0).prop_map(FaultKind::NoiseBurst),
        (0.0f64..=1.0).prop_map(FaultKind::DropHooks),
        Just(FaultKind::DropTicks),
        (1u64..10_000).prop_map(|us| FaultKind::WakeupJitter(SimDuration::from_micros(us))),
    ]
}

fn event_strategy() -> impl Strategy<Value = FaultEvent> {
    (
        0u64..RUN_SECS,
        prop_oneof![Just(FaultTarget::All), (0usize..4).prop_map(FaultTarget::Core)],
        kind_strategy(),
        prop::option::of(1u64..10),
    )
        .prop_map(|(at_s, target, kind, dur_s)| FaultEvent {
            at: SimTime::from_secs(at_s),
            target,
            kind,
            duration: dur_s.map(SimDuration::from_secs),
        })
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec(event_strategy(), 0..6).prop_map(|events| {
        let mut plan = FaultPlan::new();
        for event in events {
            plan.push(event).expect("strategy only generates valid events");
        }
        plan
    })
}

/// Builds the standard faulted closed-loop system: trip-protected
/// machine, hardened setpoint controller reading degraded telemetry, the
/// whole hook path wrapped in a `FaultyHook`, four spinning threads.
fn faulted_system(plan: &FaultPlan, seed: u64) -> (System, PolicyHandle) {
    let mut config = MachineConfig::xeon_e5520();
    config.thermal_trip = Some(ThermalTrip::prochot_at(CRITICAL));
    let mut machine = Machine::new(config).expect("valid preset");
    machine.settle_idle();

    let policy = PolicyHandle::new();
    let hook = DimetrodonHook::new(policy.clone(), seed ^ 0xD13E);
    let telemetry =
        FaultyTelemetry::new(SensorSpec::dts(), plan.clone(), seed ^ 0x5E45);
    let controller = SetpointController::new(hook, SETPOINT, SimDuration::from_millis(10))
        .with_telemetry(Box::new(telemetry))
        .with_filter(TelemetryFilter::hardened());
    let faulty: Box<dyn SchedHook> =
        Box::new(FaultyHook::new(Box::new(controller), plan.clone(), seed ^ 0xFA17));

    let mut system = System::new(machine);
    system.set_hook(faulty);
    for _ in 0..4 {
        system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
    }
    (system, policy)
}

fn assert_monotone_and_finite(series: &TimeSeries) {
    assert!(series.all_finite(), "series `{}` contains non-finite samples", series.name());
    let mut prev = None;
    for (t, _) in series.iter() {
        if let Some(p) = prev {
            assert!(t >= p, "series `{}` time went backwards: {t:?} < {p:?}", series.name());
        }
        prev = Some(t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any generated plan, any seed: event time stays monotone, every
    /// recorded series stays finite, the machine's temperatures stay
    /// finite, and the commanded p stays inside [0, p_max].
    #[test]
    fn any_plan_preserves_sim_invariants(plan in plan_strategy(), seed in 0u64..1000) {
        let (mut system, policy) = faulted_system(&plan, seed);
        system.run_until(SimTime::from_secs(RUN_SECS));

        assert_monotone_and_finite(system.mean_temp_series());
        for i in 0..4 {
            assert_monotone_and_finite(system.dispatch_temp_series(dimetrodon_machine::CoreId(i)));
            let t = system.machine().core_sensor_temperature(dimetrodon_machine::CoreId(i));
            prop_assert!(t.is_finite(), "core {i} temperature went non-finite: {t}");
        }
        if let Some(params) = policy.global() {
            let p = params.p();
            prop_assert!(
                p.is_finite() && (0.0..=SetpointController::DEFAULT_P_MAX).contains(&p),
                "commanded p escaped its bounds: {p}"
            );
        }
    }
}

/// The zero-fault guarantee at whole-system granularity: wrapping the
/// hook path with an *empty*-plan [`FaultyHook`] (telemetry semantics
/// held fixed on both sides) changes not one bit of the simulation —
/// even while injection is actively happening.
#[test]
fn empty_plan_is_bit_identical_to_no_fault_layer() {
    // A setpoint the full-load hotspot mean (~54 °C) crosses mid-run, so
    // the controller genuinely injects and the comparison is not vacuous.
    const ACTIVE_SETPOINT: f64 = 42.0;
    let build = |wrap: bool| {
        let seed = 42u64;
        let mut config = MachineConfig::xeon_e5520();
        config.thermal_trip = Some(ThermalTrip::prochot_at(CRITICAL));
        let mut machine = Machine::new(config).expect("valid preset");
        machine.settle_idle();
        let policy = PolicyHandle::new();
        let hook = DimetrodonHook::new(policy.clone(), seed ^ 0xD13E);
        let telemetry = FaultyTelemetry::new(SensorSpec::ideal(), FaultPlan::new(), 7);
        let controller =
            SetpointController::new(hook, ACTIVE_SETPOINT, SimDuration::from_millis(10))
                .with_telemetry(Box::new(telemetry));
        let installed: Box<dyn SchedHook> = if wrap {
            Box::new(FaultyHook::new(Box::new(controller), FaultPlan::new(), 9))
        } else {
            Box::new(controller)
        };
        let mut system = System::new(machine);
        system.set_hook(installed);
        for _ in 0..4 {
            system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        }
        system
    };

    let mut bare = build(false);
    let mut wrapped = build(true);
    bare.run_until(SimTime::from_secs(90));
    wrapped.run_until(SimTime::from_secs(90));

    assert!(bare.total_injected_idles() > 0, "comparison must exercise injection");
    assert_eq!(bare.total_injected_idles(), wrapped.total_injected_idles());
    let a = bare.mean_temp_series();
    let b = wrapped.mean_temp_series();
    assert_eq!(a.len(), b.len());
    for ((ta, va), (tb, vb)) in a.iter().zip(b.iter()) {
        assert_eq!(ta, tb);
        assert_eq!(va.to_bits(), vb.to_bits(), "temperature diverged at {ta:?}");
    }
}
