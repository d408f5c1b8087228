//! End-to-end acceptance tests for the fault-injection layer, driven
//! through the umbrella crate exactly as a downstream user would wire it:
//! degraded telemetry on the controller, scheduler-side faults on the
//! hook path, and the reactive thermal trip as the safety net.

#![allow(
    clippy::expect_used,
    reason = "test code: a failed expect is a failed test"
)]

use dimetrodon_repro::faults::{
    FaultEvent, FaultKind, FaultPlan, FaultTarget, FaultyHook, FaultyTelemetry, SensorSpec,
};
use dimetrodon_repro::machine::{CoreId, Machine, MachineConfig, ThermalTrip};
use dimetrodon_repro::policy::{
    DimetrodonHook, PolicyHandle, SetpointController, TelemetryFilter,
};
use dimetrodon_repro::sched::{SchedHook, Spin, System, ThreadKind};
use dimetrodon_repro::sim::{SimDuration, SimTime};

const SETPOINT: f64 = 45.0;
const CRITICAL: f64 = 51.0;

/// Full-load closed loop with the trip armed: hardened setpoint
/// controller reading DTS telemetry with the given dropout probability
/// and fault plan, hook path wrapped in a `FaultyHook`.
fn degraded_system(dropout_p: f64, plan: FaultPlan, seed: u64) -> (System, PolicyHandle) {
    let mut config = MachineConfig::xeon_e5520();
    config.thermal_trip = Some(ThermalTrip::prochot_at(CRITICAL));
    let mut machine = Machine::new(config).expect("valid preset");
    machine.settle_idle();

    let policy = PolicyHandle::new();
    let hook = DimetrodonHook::new(policy.clone(), seed ^ 0xD13E);
    let spec = SensorSpec {
        dropout_p,
        ..SensorSpec::dts()
    };
    let telemetry = FaultyTelemetry::new(spec, plan.clone(), seed ^ 0x5E45);
    let controller = SetpointController::new(hook, SETPOINT, SimDuration::from_millis(10))
        .with_telemetry(Box::new(telemetry))
        .with_filter(TelemetryFilter::hardened());
    let installed: Box<dyn SchedHook> =
        Box::new(FaultyHook::new(Box::new(controller), plan, seed ^ 0xFA17));

    let mut system = System::new(machine);
    system.set_hook(installed);
    for _ in 0..4 {
        system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
    }
    (system, policy)
}

fn dropped_reads_of(system: &System) -> u64 {
    system
        .hook()
        .as_any()
        .and_then(|any| any.downcast_ref::<FaultyHook>())
        .and_then(|faulty| faulty.inner().as_any())
        .and_then(|inner| inner.downcast_ref::<SetpointController>())
        .map_or(0, |controller| controller.telemetry().dropped_reads())
}

/// The headline acceptance criterion: with the sensor on the hottest
/// core dropping more than half its reads (50% random dropout plus a
/// permanent dropout fault), the hardened controller never diverges —
/// commanded p stays in [0, p_max], every temperature stays finite — and
/// the reactive trip keeps the peak sensor temperature bounded near the
/// critical threshold.
#[test]
fn dropout_on_hot_core_never_diverges_and_trip_bounds_peak() {
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: SimTime::from_secs(20),
        target: FaultTarget::Core(0),
        kind: FaultKind::Dropout,
        duration: None,
    })
    .expect("valid event");

    let (mut system, policy) = degraded_system(0.5, plan, 4242);
    system.run_until(SimTime::from_secs(120));

    assert!(
        dropped_reads_of(&system) > 0,
        "the scenario must actually lose sensor reads"
    );
    let mut peak = f64::MIN;
    for i in 0..4 {
        let t = system.machine().core_sensor_temperature(CoreId(i));
        assert!(t.is_finite(), "core {i} temperature went non-finite: {t}");
        for (_, v) in system.dispatch_temp_series(CoreId(i)).iter() {
            assert!(v.is_finite(), "core {i} recorded a non-finite sample");
            peak = peak.max(v);
        }
    }
    if let Some(params) = policy.global() {
        let p = params.p();
        assert!(
            p.is_finite() && (0.0..=SetpointController::DEFAULT_P_MAX).contains(&p),
            "commanded p escaped its bounds: {p}"
        );
    }
    assert!(
        peak < CRITICAL + 1.0,
        "trip failed to bound the peak: {peak:.2} C vs critical {CRITICAL} C"
    );
}

/// The fault schedule DSL drives the same end-to-end path: a plan parsed
/// from text (dropout window plus dropped scheduler hooks) runs to
/// completion, loses reads during the window, and round-trips through
/// `Display` unchanged.
#[test]
fn dsl_plan_round_trips_and_drives_the_full_stack() {
    let text = "at 10s all dropout for 20s\nat 10s all drop-hooks 0.25 for 20s\n";
    let plan: FaultPlan = text.parse().expect("valid DSL");
    let reparsed: FaultPlan = plan.to_string().parse().expect("display output re-parses");
    assert_eq!(plan.to_string(), reparsed.to_string());

    let (mut system, _policy) = degraded_system(0.0, plan, 7);
    system.run_until(SimTime::from_secs(60));
    assert!(
        dropped_reads_of(&system) > 0,
        "the dropout window must lose reads"
    );
    for i in 0..4 {
        let t = system.machine().core_sensor_temperature(CoreId(i));
        assert!(t.is_finite(), "core {i} temperature went non-finite: {t}");
    }
}
