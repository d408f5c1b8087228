//! Criterion micro-benchmarks of the simulation substrate: how fast the
//! thermal integrator, machine model, and full system run.
//! These guard the simulator's own performance (a 300 s characterisation
//! must stay interactive) rather than reproduce paper results — the
//! `experiments` bench file and the `fig*` binaries do that.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dimetrodon_machine::{Machine, MachineConfig};
use dimetrodon_power::CoreState;
use dimetrodon_sched::{Spin, System, ThreadKind};
use dimetrodon_sim_core::{SimDuration, SimTime};
use dimetrodon_thermal::ThermalNetworkBuilder;

fn bench_thermal_advance(c: &mut Criterion) {
    let mut builder = ThermalNetworkBuilder::new(25.0);
    let die = builder.add_node("die", 0.15);
    let hotspot = builder.add_node("hotspot", 0.002);
    let pkg = builder.add_node("pkg", 100.0);
    builder.connect(hotspot, die, 1.3);
    builder.connect(die, pkg, 5.0);
    builder.connect_ambient(pkg, 5.0);
    let mut network = builder.build().expect("valid network");
    network.set_power(die, 10.0);
    network.set_power(hotspot, 6.0);

    c.bench_function("thermal_advance_1s", |b| {
        b.iter(|| {
            let mut net = network.clone();
            net.advance(SimDuration::from_secs(1));
            net
        });
    });
}

fn bench_machine_advance(c: &mut Criterion) {
    let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
    for core in machine.core_ids().collect::<Vec<_>>() {
        machine.set_core_state(core, CoreState::active(1.0));
    }
    c.bench_function("machine_advance_1s", |b| {
        b.iter(|| {
            let mut m = machine.clone();
            m.advance(SimDuration::from_secs(1));
            m
        });
    });
}

fn bench_full_system_second(c: &mut Criterion) {
    c.bench_function("system_simulated_second_4x_cpuburn", |b| {
        b.iter_batched(
            || {
                let machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
                let mut system = System::new(machine);
                for _ in 0..4 {
                    system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
                }
                system
            },
            |mut system| {
                system.run_until(SimTime::from_secs(1));
                system
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    substrate,
    bench_thermal_advance,
    bench_machine_advance,
    bench_full_system_second
);
criterion_main!(substrate);
