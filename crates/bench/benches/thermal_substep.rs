//! Micro-benchmark of the thermal substep loop itself, isolated from
//! sweep orchestration: a small network shaped like the calibrated
//! platform (10 nodes) and a large synthetic one (128 nodes), each
//! advanced through many substeps in two patterns — whole substeps, as a
//! fleet epoch takes them, and event-driven intervals with recurring
//! remainders, as the Figure 3 grid makes them — so a kernel regression is
//! visible independently of the sweep engine's pool.

use criterion::{criterion_group, criterion_main, Criterion};
use dimetrodon_sim_core::SimDuration;
use dimetrodon_thermal::{ThermalNetwork, ThermalNetworkBuilder};

/// A chain-of-blocks network with `n` nodes: node 0 touches ambient,
/// each node connects to its predecessor, and every fourth node gets a
/// skip link two back — enough edge variety to exercise the packed
/// neighbour walk without leaving the sparse regime the kernel targets.
fn network(n: usize) -> ThermalNetwork {
    let mut builder = ThermalNetworkBuilder::new(25.0);
    let nodes: Vec<_> = (0..n)
        .map(|i| builder.add_node(format!("n{i}"), 0.05 + 0.01 * (i % 7) as f64))
        .collect();
    builder.connect_ambient(nodes[0], 4.0);
    for i in 1..n {
        builder.connect(nodes[i], nodes[i - 1], 0.8 + 0.1 * (i % 3) as f64);
        if i % 4 == 0 && i >= 2 {
            builder.connect(nodes[i], nodes[i - 2], 0.3);
        }
    }
    let mut network = builder.build().expect("valid network");
    for (i, &node) in nodes.iter().enumerate() {
        network.set_power(node, (i % 5) as f64 * 3.0);
    }
    network
}

/// Advances through 512 full-length substeps (the steady-state fast
/// path: precomputed decay factors, no `exp` calls).
fn advance_substeps(network: &mut ThermalNetwork) {
    let step = network.max_substep();
    for _ in 0..512 {
        network.advance(step);
    }
}

/// Full substeps per event-path advance: 48 over a cycle of eight, so
/// six on average, close to the Figure 3 grid's mean.
const EVENT_WHOLE: [u64; 8] = [3, 9, 5, 7, 6, 4, 8, 6];
/// The recurring remainders, as fractions of a substep.
const EVENT_REMAINDERS: [f64; 4] = [0.21, 0.64, 0.37, 0.9];

/// Advances by 64 event-driven intervals, each a few full substeps plus
/// one of four recurring remainders: 448 substeps, 64 of them remainders.
fn advance_events(network: &mut ThermalNetwork) {
    let step = network.max_substep().as_nanos();
    for i in 0..64 {
        let whole = EVENT_WHOLE[i % EVENT_WHOLE.len()];
        let fraction = EVENT_REMAINDERS[i % EVENT_REMAINDERS.len()];
        let remainder = (step as f64 * fraction) as u64;
        network.advance(SimDuration::from_nanos(whole * step + remainder));
    }
}

fn bench_substep(c: &mut Criterion) {
    let patterns = [
        ("", advance_substeps as fn(&mut ThermalNetwork)),
        ("_events", advance_events),
    ];
    for (label, n) in [("small_n10", 10), ("large_n128", 128)] {
        let mut group = c.benchmark_group(format!("thermal_substep_{label}"));
        // One call per sample: enough samples to average out a preempted one.
        group.sample_size(200);

        for (suffix, advance) in patterns {
            group.bench_function(&format!("scalar{suffix}"), |b| {
                let mut network = network(n);
                b.iter(|| advance(&mut network));
            });
        }

        group.finish();
    }
}

criterion_group!(benches, bench_substep);
criterion_main!(benches);
