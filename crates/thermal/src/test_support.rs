//! Network generators shared by the crate's unit tests.

use dimetrodon_sim_core::SimRng;

use crate::{NodeId, ThermalNetwork, ThermalNetworkBuilder};

/// A random grounded network: a spanning tree to node 0 (which touches
/// ambient) plus extra edges, random capacitances and powers. With `n = 1`
/// it is a lone node whose only edge is to ambient, so its CSR row is empty.
pub(crate) fn random_network(seed: u64, n: usize) -> (ThermalNetwork, Vec<NodeId>) {
    let mut rng = SimRng::new(seed);
    let mut b = ThermalNetworkBuilder::new(rng.uniform_range(15.0, 35.0));
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(format!("n{i}"), rng.uniform_range(0.1, 50.0)))
        .collect();
    b.connect_ambient(nodes[0], rng.uniform_range(0.05, 2.0));
    for i in 1..n {
        let j = ((rng.uniform() * i as f64) as usize).min(i - 1);
        b.connect(nodes[i], nodes[j], rng.uniform_range(0.05, 5.0));
        if rng.uniform() < 0.3 {
            b.connect_ambient(nodes[i], rng.uniform_range(0.05, 2.0));
        }
    }
    for _ in 0..n {
        let a = ((rng.uniform() * n as f64) as usize).min(n - 1);
        let c = ((rng.uniform() * n as f64) as usize).min(n - 1);
        if a != c {
            b.connect(nodes[a], nodes[c], rng.uniform_range(0.05, 5.0));
        }
    }
    let mut net = b.build().unwrap();
    for &node in &nodes {
        net.set_power(node, rng.uniform_range(0.0, 80.0));
    }
    (net, nodes)
}
