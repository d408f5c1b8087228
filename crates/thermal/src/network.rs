//! The lumped RC thermal network and its integrator.
//!
//! A network is a set of thermal nodes — each with a heat capacity in J/K —
//! joined by thermal conductances in W/K, plus conductances to a shared
//! boundary (ambient) node. The boundary temperature defaults to the
//! builder's ambient and can be moved between steps with
//! [`ThermalNetwork::set_boundary_celsius`] — the hook a rack model uses to
//! couple machines through their common inlet air. Power (heat) in watts is
//! injected at nodes; temperatures evolve by
//!
//! ```text
//! C_i dT_i/dt = P_i − Σ_j G_ij (T_i − T_j) − G_i,amb (T_i − T_amb)
//! ```
//!
//! The integrator is an *exponential Euler* scheme: within a step, each
//! node relaxes exactly toward the equilibrium implied by its neighbours'
//! frozen temperatures. This is unconditionally stable, exact for a single
//! node, and second-order accurate for networks at the sub-time-constant
//! steps used here — which matters because the scheduler calls the model
//! with irregular, event-driven step sizes.
//!
//! # Layout
//!
//! The immutable description of the network — node names, capacitances,
//! the conductance structure, and everything derived from it — lives in a
//! [`Topology`] behind an `Arc`. The [`ThermalNetwork`] itself carries only
//! the mutable state (temperatures, powers, integrator workspace), so
//! cloning a network copies a few small `Vec<f64>`s and bumps a reference
//! count instead of duplicating the matrix: a fleet clones its settled
//! prototype machine once per machine, and all of them share one topology.
//!
//! The conductance matrix is stored packed (compressed sparse rows, columns
//! ascending) because realistic die/hotspot/package topologies are sparse:
//! the substep cost scales with the number of edges, not `n²`.

use std::fmt;
use std::sync::Arc;

use dimetrodon_sim_core::SimDuration;

use crate::linalg::Matrix;

/// Identifies a node in a [`ThermalNetwork`].
///
/// Node ids are dense indices assigned by
/// [`ThermalNetworkBuilder::add_node`] in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors from building or using a thermal network.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A node parameter was not positive and finite.
    BadNodeParameter {
        /// The offending node's name.
        name: String,
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// A conductance was not positive and finite.
    BadConductance {
        /// Explanation of the violation.
        reason: &'static str,
    },
    /// Some node has no conduction path to ambient, so its temperature
    /// would diverge under sustained power.
    NotGroundedToAmbient {
        /// Names of the unreachable nodes.
        nodes: Vec<String>,
    },
    /// The network has no nodes.
    Empty,
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::BadNodeParameter { name, reason } => {
                write!(f, "bad parameter for thermal node `{name}`: {reason}")
            }
            ThermalError::BadConductance { reason } => {
                write!(f, "bad thermal conductance: {reason}")
            }
            ThermalError::NotGroundedToAmbient { nodes } => {
                write!(f, "thermal nodes not connected to ambient: {}", nodes.join(", "))
            }
            ThermalError::Empty => write!(f, "thermal network has no nodes"),
        }
    }
}

impl std::error::Error for ThermalError {}

/// The immutable part of a thermal network, shared between clones via `Arc`.
///
/// Everything in here is a pure function of the builder's inputs: the
/// packed conductance structure, the per-node totals, the substep bound and
/// its precomputed decay factors, and the assembled steady-state matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Topology {
    pub(crate) names: Vec<String>,
    pub(crate) capacitances: Vec<f64>,
    /// Packed symmetric conductance matrix (CSR). Row `i`'s entries live at
    /// `row_offsets[i]..row_offsets[i + 1]`, columns strictly ascending.
    pub(crate) row_offsets: Vec<u32>,
    pub(crate) cols: Vec<u32>,
    pub(crate) vals: Vec<f64>,
    pub(crate) ambient_conductance: Vec<f64>,
    /// Cached per-node sum of incident conductances.
    pub(crate) total_conductance: Vec<f64>,
    pub(crate) ambient_celsius: f64,
    pub(crate) max_substep: SimDuration,
    /// Per-node decay factors for a full-length substep, precomputed once;
    /// nearly every substep is `max_substep` long.
    pub(crate) decay_max: Vec<f64>,
    /// The assembled steady-state conductance matrix `G` of `G·T = rhs`.
    /// Assembly order matches the historical per-call construction, so
    /// solves produce bit-identical results.
    pub(crate) steady_matrix: Matrix,
}

/// Builder for a [`ThermalNetwork`].
///
/// # Examples
///
/// A die–package–ambient chain:
///
/// ```
/// use dimetrodon_thermal::ThermalNetworkBuilder;
/// use dimetrodon_sim_core::SimDuration;
///
/// # fn main() -> Result<(), dimetrodon_thermal::ThermalError> {
/// let mut builder = ThermalNetworkBuilder::new(25.0);
/// let die = builder.add_node("die", 1.0);
/// let pkg = builder.add_node("package", 50.0);
/// builder.connect(die, pkg, 0.5);
/// builder.connect_ambient(pkg, 0.4);
/// let mut network = builder.build()?;
///
/// network.set_power(die, 10.0);
/// network.advance(SimDuration::from_secs(600));
/// // After a long time the die sits well above ambient.
/// assert!(network.temperature(die) > 40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ThermalNetworkBuilder {
    ambient_celsius: f64,
    names: Vec<String>,
    capacitances: Vec<f64>,
    edges: Vec<(usize, usize, f64)>,
    ambient_edges: Vec<(usize, f64)>,
}

impl ThermalNetworkBuilder {
    /// Starts a network with the given fixed ambient temperature in °C.
    pub fn new(ambient_celsius: f64) -> Self {
        ThermalNetworkBuilder {
            ambient_celsius,
            names: Vec::new(),
            capacitances: Vec::new(),
            edges: Vec::new(),
            ambient_edges: Vec::new(),
        }
    }

    /// Adds a node with heat capacity in J/K and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, capacitance_j_per_k: f64) -> NodeId {
        self.names.push(name.into());
        self.capacitances.push(capacitance_j_per_k);
        NodeId(self.names.len() - 1)
    }

    /// Connects two nodes with a thermal conductance in W/K. Multiple
    /// connections between the same pair sum.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_per_k: f64) -> &mut Self {
        self.edges.push((a.0, b.0, conductance_w_per_k));
        self
    }

    /// Connects a node to the fixed ambient with a conductance in W/K.
    pub fn connect_ambient(&mut self, node: NodeId, conductance_w_per_k: f64) -> &mut Self {
        self.ambient_edges.push((node.0, conductance_w_per_k));
        self
    }

    /// Validates and builds the network, with all node temperatures
    /// initialised to ambient.
    ///
    /// # Errors
    ///
    /// Returns an error if the network is empty, any capacitance or
    /// conductance is non-positive or non-finite, or any node lacks a
    /// conduction path to ambient.
    pub fn build(&self) -> Result<ThermalNetwork, ThermalError> {
        let n = self.names.len();
        if n == 0 {
            return Err(ThermalError::Empty);
        }
        for (name, &c) in self.names.iter().zip(&self.capacitances) {
            if !(c > 0.0 && c.is_finite()) {
                return Err(ThermalError::BadNodeParameter {
                    name: name.clone(),
                    reason: "heat capacity must be positive and finite",
                });
            }
        }
        for &(a, b, g) in &self.edges {
            if !(g > 0.0 && g.is_finite()) {
                return Err(ThermalError::BadConductance {
                    reason: "node-to-node conductance must be positive and finite",
                });
            }
            if a == b {
                return Err(ThermalError::BadConductance {
                    reason: "self-loops are meaningless",
                });
            }
        }
        for &(_, g) in &self.ambient_edges {
            if !(g > 0.0 && g.is_finite()) {
                return Err(ThermalError::BadConductance {
                    reason: "ambient conductance must be positive and finite",
                });
            }
        }

        // Dense adjacency with summed conductances, used only at build time
        // to validate and to derive the packed structure.
        let mut conductance = vec![0.0f64; n * n];
        for &(a, b, g) in &self.edges {
            conductance[a * n + b] += g;
            conductance[b * n + a] += g;
        }
        let mut ambient_conductance = vec![0.0f64; n];
        for &(node, g) in &self.ambient_edges {
            ambient_conductance[node] += g;
        }

        // Reachability from ambient: every node must be able to shed heat.
        let mut reachable = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| ambient_conductance[i] > 0.0).collect();
        for &s in &stack {
            reachable[s] = true;
        }
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if conductance[i * n + j] > 0.0 && !reachable[j] {
                    reachable[j] = true;
                    stack.push(j);
                }
            }
        }
        let unreachable: Vec<String> = (0..n)
            .filter(|&i| !reachable[i])
            .map(|i| self.names[i].clone())
            .collect();
        if !unreachable.is_empty() {
            return Err(ThermalError::NotGroundedToAmbient { nodes: unreachable });
        }

        let total_conductance: Vec<f64> = (0..n)
            .map(|i| conductance[i * n..(i + 1) * n].iter().sum::<f64>() + ambient_conductance[i])
            .collect();

        // Pack the dense adjacency into CSR with ascending columns. The
        // substep accumulates a row's products in the same left-to-right
        // order as the old dense walk; the skipped entries were exact zeros
        // whose products contribute `±0.0`, so the packed sum is
        // bit-identical for any physical temperature vector.
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_offsets.push(0u32);
        for i in 0..n {
            for j in 0..n {
                let g = conductance[i * n + j];
                // Exact zero-skip on purpose: only entries whose product is exactly
                // ±0.0 are dropped, which keeps the packed sum bit-identical to the
                // dense walk.
                if g != 0.0 {
                    cols.push(j as u32);
                    vals.push(g);
                }
            }
            row_offsets.push(cols.len() as u32);
        }

        // The shortest local time constant bounds the internal substep.
        // Exponential Euler is unconditionally stable and exact per node;
        // a quarter of the fastest time constant keeps the coupling error
        // negligible at the temperatures we care about. At least 1 ns, so
        // `advance` always makes progress.
        let min_tau = (0..n)
            .map(|i| self.capacitances[i] / total_conductance[i])
            .fold(f64::INFINITY, f64::min);
        let max_substep =
            SimDuration::from_secs_f64(min_tau / 4.0).max(SimDuration::from_nanos(1));
        let max_substep_s = max_substep.as_secs_f64();
        let decay_max: Vec<f64> = (0..n)
            .map(|i| (-total_conductance[i] * max_substep_s / self.capacitances[i]).exp())
            .collect();

        // Assemble the steady-state matrix once; only the right-hand side
        // depends on the powers. Same element order as the historical
        // per-call assembly, so solves stay bit-identical.
        let mut steady_matrix = Matrix::zeros(n);
        for i in 0..n {
            steady_matrix.set(i, i, total_conductance[i]);
            for k in row_offsets[i] as usize..row_offsets[i + 1] as usize {
                steady_matrix.add_to(i, cols[k] as usize, -vals[k]);
            }
        }

        let topology = Topology {
            names: self.names.clone(),
            capacitances: self.capacitances.clone(),
            row_offsets,
            cols,
            vals,
            ambient_conductance,
            total_conductance,
            ambient_celsius: self.ambient_celsius,
            max_substep,
            decay_max,
            steady_matrix,
        };
        Ok(ThermalNetwork {
            topo: Arc::new(topology),
            temperatures: vec![self.ambient_celsius; n],
            powers: vec![0.0; n],
            boundary_celsius: self.ambient_celsius,
            scratch: vec![self.ambient_celsius; n],
            decay_cache: DecayCache::default(),
        })
    }
}

/// A lumped RC thermal network with a fixed-temperature ambient.
///
/// Construct with [`ThermalNetworkBuilder`]. Inject power with
/// [`set_power`](ThermalNetwork::set_power), then
/// [`advance`](ThermalNetwork::advance) the network through time; power is treated as
/// constant for the duration of each `advance` call, matching the
/// piecewise-constant power profile of a discrete-event machine model.
///
/// Cloning is cheap: the topology (names, conductance structure, derived
/// caches) is shared via `Arc`, and only the mutable state — temperatures,
/// powers, integrator workspace — is deep-copied. A checkpoint holds just
/// the observable state (temperatures, powers, boundary), through
/// [`State`](dimetrodon_ckpt::State).
#[derive(Debug, Clone)]
pub struct ThermalNetwork {
    /// Arc-shared immutable topology.
    pub(crate) topo: Arc<Topology>,
    temperatures: Vec<f64>,
    powers: Vec<f64>,
    /// The boundary (ambient/inlet) node's temperature in °C. Starts at the
    /// builder's ambient and may be moved between steps — the rack model's
    /// coupling knob. Observable state: checkpointed and compared.
    boundary_celsius: f64,
    /// Integrator workspace: the substep loop alternates between this and
    /// `temperatures`, and every substep fully overwrites the one it writes.
    scratch: Vec<f64>,
    /// Decay factors for the irregular remainder substeps; the common
    /// full-length factors live precomputed in the topology.
    decay_cache: DecayCache,
}

dimetrodon_ckpt::state! {
    ThermalNetwork {
        persisted: temperatures, powers, boundary_celsius;
        derived: topo, scratch, decay_cache;
        check: ThermalNetwork::check_restored;
    }
}

/// Remainder lengths whose decay factors one network keeps.
const DECAY_CACHE_SLOTS: usize = 8;

/// Per-node decay factors for remainder substeps (shorter than
/// `max_substep`), keyed by the remainder's length in nanoseconds and kept
/// most recently used first; a miss evicts the least recently used entry.
///
/// Each entry is a pure function of its key and the topology, never of
/// temperatures or powers, so loading a checkpoint mid-flight cannot stale
/// it. The factor table is allocated on the first miss: a network that has
/// never advanced by a remainder, such as a settled prototype being
/// cloned, carries no allocation for it.
#[derive(Debug, Clone, Default)]
struct DecayCache {
    /// `(remainder ns, slot)` of the `len` live entries, most recent first.
    order: [(u64, usize); DECAY_CACHE_SLOTS],
    len: usize,
    /// Slot `s`'s factors, one per node, at `s * n..(s + 1) * n`.
    factors: Vec<f64>,
}

impl DecayCache {
    /// The factors for a remainder of `rem_ns` nanoseconds, computed into
    /// a free or the least recently used slot on a miss.
    fn factors(&mut self, topo: &Topology, rem_ns: u64) -> &[f64] {
        let n = topo.names.len();
        match self.order[..self.len].iter().position(|&(key, _)| key == rem_ns) {
            Some(hit) => self.order[..=hit].rotate_right(1),
            None => {
                if self.len < DECAY_CACHE_SLOTS {
                    self.order[self.len].1 = self.len;
                    self.len += 1;
                    self.factors.resize(self.len * n, 0.0);
                }
                self.order[..self.len].rotate_right(1);
                self.order[0].0 = rem_ns;
                let slot = self.order[0].1;
                let dt_s = SimDuration::from_nanos(rem_ns).as_secs_f64();
                let factors = &mut self.factors[slot * n..(slot + 1) * n];
                for ((f, &g), &c) in factors
                    .iter_mut()
                    .zip(&topo.total_conductance)
                    .zip(&topo.capacitances)
                {
                    *f = (-g * dt_s / c).exp();
                }
            }
        }
        let slot = self.order[0].1;
        &self.factors[slot * n..(slot + 1) * n]
    }
}

impl PartialEq for ThermalNetwork {
    fn eq(&self, other: &Self) -> bool {
        // The integrator workspace (`scratch`, `decay_cache`) is not part
        // of the network's observable state. Topologies compare
        // by value, so independently built identical networks are equal.
        (Arc::ptr_eq(&self.topo, &other.topo) || self.topo == other.topo)
            && self.temperatures == other.temperatures
            && self.powers == other.powers
            && self.boundary_celsius.to_bits() == other.boundary_celsius.to_bits()
    }
}

impl ThermalNetwork {
    /// A restored network must cover exactly this topology's nodes.
    fn check_restored(&self) -> Result<(), dimetrodon_ckpt::CkptError> {
        let nodes = self.node_count();
        dimetrodon_ckpt::check_len("thermal temperatures", self.temperatures.len(), nodes)?;
        dimetrodon_ckpt::check_len("thermal powers", self.powers.len(), nodes)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topo.names.len()
    }

    /// The name a node was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from this network.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.topo.names[node.0]
    }

    /// Node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.topo.names.len()).map(NodeId)
    }

    /// The ambient temperature the network was built with, in °C — the
    /// boundary temperature's initial value.
    pub fn ambient_celsius(&self) -> f64 {
        self.topo.ambient_celsius
    }

    /// The current boundary (ambient/inlet) temperature in °C.
    ///
    /// Equals [`ambient_celsius`](ThermalNetwork::ambient_celsius) unless
    /// moved with [`set_boundary_celsius`](ThermalNetwork::set_boundary_celsius).
    pub fn boundary_celsius(&self) -> f64 {
        self.boundary_celsius
    }

    /// Moves the boundary (ambient/inlet) node to a new temperature in °C.
    ///
    /// Takes effect from the next `advance`; ambient conductances are
    /// unchanged, only the temperature they pull toward moves. Setting the
    /// built ambient back is bit-identical to never having called this.
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is not finite.
    pub fn set_boundary_celsius(&mut self, celsius: f64) {
        assert!(celsius.is_finite(), "boundary temperature must be finite, got {celsius}");
        self.boundary_celsius = celsius;
    }

    /// Current temperature of a node in °C.
    pub fn temperature(&self, node: NodeId) -> f64 {
        self.temperatures[node.0]
    }

    /// All node temperatures, indexed by [`NodeId::index`].
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Sets the heat injected at a node, in watts, until changed again.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn set_power(&mut self, node: NodeId, watts: f64) {
        assert!(
            watts >= 0.0 && watts.is_finite(),
            "power must be non-negative and finite, got {watts}"
        );
        self.powers[node.0] = watts;
    }

    /// Current power injection at a node, in watts.
    pub fn power(&self, node: NodeId) -> f64 {
        self.powers[node.0]
    }

    /// The integrator's internal substep bound: a quarter of the fastest
    /// local time constant.
    pub fn max_substep(&self) -> SimDuration {
        self.topo.max_substep
    }

    /// Whether two networks share one topology allocation (i.e. one was
    /// cloned from the other). Value-equal but independently built
    /// networks return `false`.
    pub fn shares_topology(&self, other: &ThermalNetwork) -> bool {
        Arc::ptr_eq(&self.topo, &other.topo)
    }

    /// Advances the network by `dt` under the currently set powers.
    ///
    /// Internally sub-steps at a quarter of the fastest local time constant
    /// so accuracy does not depend on the caller's event granularity: `k`
    /// full substeps, then one for the remainder, split in integer
    /// nanoseconds (DESIGN.md §11.1).
    pub fn advance(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        // Each substep moves every node toward an equilibrium that is at
        // least the coldest of (ambient, its neighbours), so the network
        // minimum can never drop below min(pre-step minimum, ambient) —
        // modulo float rounding, hence the tolerance. The pre-step minimum
        // matters because set_temperature may legitimately start a node
        // below ambient.
        let floor = if cfg!(debug_assertions) {
            self.temperatures
                .iter()
                .copied()
                .fold(self.boundary_celsius, f64::min)
                - 1e-6
        } else {
            f64::NEG_INFINITY
        };
        let max_ns = self.topo.max_substep.as_nanos();
        let (full, rem_ns) = (dt.as_nanos() / max_ns, dt.as_nanos() % max_ns);
        let topo = &*self.topo;
        let n = topo.names.len();
        let kernel = Kernel::new(topo, &self.powers, self.boundary_celsius);
        let decay_max = &topo.decay_max[..n];
        // Each substep reads one buffer and overwrites the other.
        let (mut old, mut new) = (&mut self.temperatures[..n], &mut self.scratch[..n]);
        for _ in 0..full {
            kernel.substep(decay_max, old, new);
            std::mem::swap(&mut old, &mut new);
        }
        if rem_ns != 0 {
            let decay = self.decay_cache.factors(topo, rem_ns);
            kernel.substep(&decay[..n], old, new);
        }
        // After an odd number of substeps the result sits in `scratch`.
        if (full + u64::from(rem_ns != 0)) % 2 == 1 {
            std::mem::swap(&mut self.temperatures, &mut self.scratch);
        }
        if cfg!(debug_assertions) {
            for (i, &t) in self.temperatures.iter().enumerate() {
                assert!(
                    t.is_finite() && t >= floor,
                    "thermal invariant violated: node {i} at {t} °C \
                     (finite, >= {floor} °C expected)"
                );
            }
        }
    }

    /// Total power currently injected across all nodes, in watts.
    ///
    /// Lets callers audit energy conservation: whatever a machine model
    /// splits across hotspot/die/package nodes must sum back to the power
    /// it drew.
    pub fn total_power(&self) -> f64 {
        self.powers.iter().sum()
    }

    /// The steady-state temperatures under the currently set powers,
    /// computed directly from the conductance matrix (no time stepping).
    ///
    /// The matrix itself depends only on the topology and is assembled once
    /// at build time; each call builds the power-dependent right-hand side
    /// and solves.
    ///
    /// # Panics
    ///
    /// Panics if the conductance matrix is singular, which
    /// [`ThermalNetworkBuilder::build`] makes impossible (every node is
    /// grounded to ambient).
    #[expect(
        clippy::expect_used,
        reason = "documented panic: a grounded network's matrix is non-singular"
    )]
    pub fn steady_state(&self) -> Vec<f64> {
        let topo = &*self.topo;
        let rhs: Vec<f64> = self
            .powers
            .iter()
            .zip(&topo.ambient_conductance)
            .map(|(&p, &g)| p + g * self.boundary_celsius)
            .collect();
        topo.steady_matrix
            .solve(&rhs)
            .expect("grounded thermal network has a non-singular conductance matrix")
    }

    /// Jumps the network directly to the steady state of the current
    /// powers. Used to start experiments from a settled condition (e.g.
    /// the idle temperature).
    pub fn settle(&mut self) {
        self.temperatures = self.steady_state();
    }

    /// Resets every node to the built ambient temperature, clears all
    /// powers, and returns the boundary to the built ambient.
    pub fn reset(&mut self) {
        for t in &mut self.temperatures {
            *t = self.topo.ambient_celsius;
        }
        for p in &mut self.powers {
            *p = 0.0;
        }
        self.boundary_celsius = self.topo.ambient_celsius;
    }

    /// Overrides a node's temperature (for tests and checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics if `celsius` is not finite.
    pub fn set_temperature(&mut self, node: NodeId, celsius: f64) {
        assert!(celsius.is_finite(), "temperature must be finite");
        self.temperatures[node.0] = celsius;
    }

    /// The local time constant `C_i / G_i,total` of a node in seconds: how
    /// fast the node relaxes toward its neighbours. The die nodes' short
    /// time constant is what makes short idle quanta disproportionately
    /// effective (paper §3.4, Figure 3).
    pub fn local_time_constant(&self, node: NodeId) -> f64 {
        self.topo.capacitances[node.0] / self.topo.total_conductance[node.0]
    }

    /// The temperature derivative `dT/dt = C⁻¹(P − G·ΔT)` evaluated at an
    /// arbitrary temperature vector (K/s per node). Exposed for reference
    /// integrators and verification tooling.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not have one entry per node.
    pub fn heat_flow_derivative(&self, temps: &[f64]) -> Vec<f64> {
        let topo = &*self.topo;
        let n = self.temperatures.len();
        assert_eq!(temps.len(), n, "temperature vector length mismatch");
        (0..n)
            .map(|i| {
                let neighbour: f64 = (topo.row_offsets[i] as usize
                    ..topo.row_offsets[i + 1] as usize)
                    .map(|k| topo.vals[k] * (temps[topo.cols[k] as usize] - temps[i]))
                    .sum();
                let ambient = topo.ambient_conductance[i] * (self.boundary_celsius - temps[i]);
                (self.powers[i] + neighbour + ambient) / topo.capacitances[i]
            })
            .collect()
    }

    /// Net heat flow out of the network into the boundary right now, in
    /// watts.
    pub fn heat_to_ambient(&self) -> f64 {
        self.temperatures
            .iter()
            .zip(&self.topo.ambient_conductance)
            .map(|(&t, &g)| g * (t - self.boundary_celsius))
            .sum()
    }

    /// Total stored thermal energy relative to the boundary, in joules.
    pub fn stored_energy(&self) -> f64 {
        self.temperatures
            .iter()
            .zip(&self.topo.capacitances)
            .map(|(&t, &c)| c * (t - self.boundary_celsius))
            .sum()
    }
}

/// What one exponential-Euler substep reads besides the temperatures and
/// decay factors, each array sliced to the node count once per `advance`.
struct Kernel<'a> {
    /// CSR row offsets, `n + 1` of them.
    offsets: &'a [u32],
    cols: &'a [u32],
    vals: &'a [f64],
    ambient: &'a [f64],
    total: &'a [f64],
    powers: &'a [f64],
    boundary: f64,
}

impl<'a> Kernel<'a> {
    fn new(topo: &'a Topology, powers: &'a [f64], boundary: f64) -> Self {
        let n = topo.names.len();
        Kernel {
            offsets: &topo.row_offsets[..=n],
            cols: &topo.cols,
            vals: &topo.vals,
            ambient: &topo.ambient_conductance[..n],
            total: &topo.total_conductance[..n],
            powers: &powers[..n],
            boundary,
        }
    }

    /// One substep from `old` into `new` with per-node `decay` factors.
    ///
    /// Accumulates each row's neighbour products left to right, exactly as
    /// the historical dense walk did minus its `±0.0` products, so results
    /// are bit-identical for physical temperatures.
    #[inline(always)]
    fn substep(&self, decay: &[f64], old: &[f64], new: &mut [f64]) {
        let n = self.total.len();
        let (decay, old, new) = (&decay[..n], &old[..n], &mut new[..n]);
        for i in 0..n {
            let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            let mut neighbour_heat = 0.0;
            for (&g, &j) in self.vals[lo..hi].iter().zip(&self.cols[lo..hi]) {
                neighbour_heat += g * old[j as usize];
            }
            let neighbour_heat = neighbour_heat + self.ambient[i] * self.boundary;
            let t_eq = (self.powers[i] + neighbour_heat) / self.total[i];
            new[i] = t_eq + (old[i] - t_eq) * decay[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_ckpt::State;
    use dimetrodon_sim_core::SimRng;
    use proptest::prelude::*;

    /// A random grounded network: a spanning tree to node 0 (which touches
    /// ambient) plus extra edges, random capacitances and powers. With
    /// `n = 1` its one CSR row is empty.
    fn random_network(seed: u64, n: usize) -> ThermalNetwork {
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
        net
    }

    /// The historical `advance` loop, kept as the oracle for the hoisted
    /// one: one `remaining.min(max_substep)` slice at a time, each a
    /// separate scalar CSR walk whose decay factors are chosen by its
    /// length in seconds (computed afresh for any irregular length).
    fn reference_advance(net: &mut ThermalNetwork, dt: SimDuration) {
        let topo = Arc::clone(&net.topo);
        let n = net.node_count();
        let mut remaining = dt;
        while !remaining.is_zero() {
            let step = remaining.min(topo.max_substep);
            let dt_s = step.as_secs_f64();
            let decay: Vec<f64> = if dt_s == topo.max_substep.as_secs_f64() {
                topo.decay_max.clone()
            } else {
                (0..n)
                    .map(|i| (-topo.total_conductance[i] * dt_s / topo.capacitances[i]).exp())
                    .collect()
            };
            let old = net.temperatures.clone();
            for (i, out) in net.temperatures.iter_mut().enumerate() {
                let g_tot = topo.total_conductance[i];
                let mut neighbour_heat = 0.0;
                for k in topo.row_offsets[i] as usize..topo.row_offsets[i + 1] as usize {
                    neighbour_heat += topo.vals[k] * old[topo.cols[k] as usize];
                }
                let neighbour_heat =
                    neighbour_heat + topo.ambient_conductance[i] * net.boundary_celsius;
                let t_eq = (net.powers[i] + neighbour_heat) / g_tot;
                *out = t_eq + (old[i] - t_eq) * decay[i];
            }
            remaining = remaining.saturating_sub(step);
        }
    }

    /// With `debug_assertions` on, advance() checks its physical envelope
    /// (finite temperatures, no dips below the pre-step floor) on every
    /// call; heat-up and cool-down paths both cross it.
    #[cfg(debug_assertions)]
    #[test]
    fn envelope_check_passes_through_transients() {
        let (mut net, die) = single_node();
        net.set_power(die, 40.0);
        for _ in 0..200 {
            net.advance(SimDuration::from_millis(500));
        }
        net.set_power(die, 0.0);
        for _ in 0..200 {
            net.advance(SimDuration::from_millis(500));
        }
        assert!((net.temperature(die) - 25.0).abs() < 0.5);
    }

    /// die(1 J/K) --0.5 W/K-- ambient, a pure single-pole system.
    fn single_node() -> (ThermalNetwork, NodeId) {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let die = b.add_node("die", 1.0);
        b.connect_ambient(die, 0.5);
        (b.build().unwrap(), die)
    }

    fn two_pole() -> (ThermalNetwork, NodeId, NodeId) {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let die = b.add_node("die", 0.5);
        let pkg = b.add_node("pkg", 100.0);
        b.connect(die, pkg, 2.0);
        b.connect_ambient(pkg, 1.0);
        (b.build().unwrap(), die, pkg)
    }

    #[test]
    fn single_node_matches_analytic_solution() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        // T(t) = T_amb + P/G * (1 - e^{-tG/C}); tau = C/G = 2 s.
        for &t_s in &[0.1, 0.5, 1.0, 2.0, 5.0, 20.0] {
            let mut n = net.clone();
            n.advance(SimDuration::from_secs_f64(t_s));
            let expected = 25.0 + 20.0 * (1.0 - (-t_s / 2.0).exp());
            let got = n.temperature(die);
            assert!(
                (got - expected).abs() < 0.02,
                "t={t_s}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_node_steady_state() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        let ss = net.steady_state();
        assert!((ss[0] - 45.0).abs() < 1e-9); // 25 + 10/0.5
    }

    #[test]
    fn advance_converges_to_steady_state() {
        let (mut net, die, pkg) = two_pole();
        net.set_power(die, 40.0);
        let ss = net.steady_state();
        net.advance(SimDuration::from_secs(2000));
        assert!((net.temperature(die) - ss[0]).abs() < 0.05);
        assert!((net.temperature(pkg) - ss[1]).abs() < 0.05);
    }

    #[test]
    fn settle_equals_steady_state() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let ss = net.steady_state();
        net.settle();
        assert_eq!(net.temperatures(), ss.as_slice());
    }

    #[test]
    fn die_cools_fast_package_cools_slow() {
        // The two-time-constant structure behind Figure 3: after a short
        // idle window the die has shed most of its excess over the package,
        // while the package has barely moved.
        let (mut net, die, pkg) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        let die_hot = net.temperature(die);
        let pkg_hot = net.temperature(pkg);
        net.set_power(die, 0.0);
        net.advance(SimDuration::from_millis(800)); // several die taus (0.2 s)
        let die_drop = die_hot - net.temperature(die);
        let pkg_drop = pkg_hot - net.temperature(pkg);
        assert!(die_drop > 15.0, "die should cool fast, dropped {die_drop}");
        assert!(pkg_drop < 1.0, "package should cool slowly, dropped {pkg_drop}");
    }

    #[test]
    fn cooling_has_diminishing_returns_in_window_length() {
        // Temperature drop per unit idle time decreases with window length:
        // the physical basis of the paper's diminishing marginal benefit.
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        let hot = net.temperature(die);
        let drop_for = |ms: u64| {
            let mut n = net.clone();
            n.set_power(die, 0.0);
            n.advance(SimDuration::from_millis(ms));
            (hot - n.temperature(die)) / ms as f64
        };
        let per_ms_short = drop_for(50);
        let per_ms_long = drop_for(1000);
        assert!(
            per_ms_short > 2.0 * per_ms_long,
            "short windows should cool more per ms: {per_ms_short} vs {per_ms_long}"
        );
    }

    #[test]
    fn local_time_constants() {
        let (net, die, pkg) = two_pole();
        assert!((net.local_time_constant(die) - 0.25).abs() < 1e-12); // 0.5/2.0
        assert!((net.local_time_constant(pkg) - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn heat_balance_at_steady_state() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        // At steady state all injected heat leaves to ambient.
        assert!((net.heat_to_ambient() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn energy_conservation_during_transient() {
        // Injected energy = stored energy change + energy shed to ambient.
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let dt = SimDuration::from_millis(10);
        let mut shed = 0.0;
        let e0 = net.stored_energy();
        for _ in 0..1000 {
            // Trapezoid on the ambient flow across the step.
            let flow_before = net.heat_to_ambient();
            net.advance(dt);
            let flow_after = net.heat_to_ambient();
            shed += 0.5 * (flow_before + flow_after) * dt.as_secs_f64();
        }
        let injected = 40.0 * 10.0; // 40 W for 10 s
        let delta_stored = net.stored_energy() - e0;
        let balance = injected - delta_stored - shed;
        assert!(
            balance.abs() < injected * 0.01,
            "energy imbalance {balance} of {injected}"
        );
    }

    #[test]
    fn reset_returns_to_ambient() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.advance(SimDuration::from_secs(10));
        net.reset();
        assert!(net.temperatures().iter().all(|&t| t == 25.0));
        assert_eq!(net.power(die), 0.0);
    }

    #[test]
    fn boundary_moves_the_equilibrium() {
        // Raising the boundary shifts every equilibrium up by the same
        // amount in a linear network: T_ss = boundary + P/G.
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(35.0);
        assert_eq!(net.boundary_celsius(), 35.0);
        assert_eq!(net.ambient_celsius(), 25.0);
        assert!((net.steady_state()[0] - 55.0).abs() < 1e-9); // 35 + 10/0.5
        net.advance(SimDuration::from_secs(60));
        assert!((net.temperature(die) - 55.0).abs() < 0.01);
    }

    #[test]
    fn boundary_at_built_ambient_is_bit_identical() {
        // Setting the boundary to the value it already has must not change
        // a single bit of the trajectory — the whole-repo determinism
        // baseline depends on this.
        let (reference, die) = single_node();
        let mut touched = reference.clone();
        let mut reference = reference;
        reference.set_power(die, 10.0);
        touched.set_power(die, 10.0);
        touched.set_boundary_celsius(25.0);
        for _ in 0..50 {
            reference.advance(SimDuration::from_millis(73));
            touched.advance(SimDuration::from_millis(73));
        }
        assert_eq!(
            reference.temperature(die).to_bits(),
            touched.temperature(die).to_bits()
        );
    }

    /// The network's checkpoint bytes.
    fn saved(net: &ThermalNetwork) -> Vec<u8> {
        let mut enc = dimetrodon_ckpt::Enc::new();
        net.save(&mut enc);
        enc.into_bytes()
    }

    /// Loads checkpoint bytes in place, keeping the integrator caches.
    fn load(net: &mut ThermalNetwork, bytes: &[u8]) {
        let mut dec = dimetrodon_ckpt::Dec::new(bytes);
        net.load(&mut dec).unwrap();
        dec.finish().unwrap();
    }

    #[test]
    fn checkpoint_round_trips_the_boundary() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(31.5);
        net.advance(SimDuration::from_secs(2));
        let checkpoint = saved(&net);
        let at_checkpoint = net.clone();
        net.set_boundary_celsius(18.0);
        net.advance(SimDuration::from_secs(2));
        assert_ne!(net, at_checkpoint);
        load(&mut net, &checkpoint);
        assert_eq!(net, at_checkpoint);
        assert_eq!(net.boundary_celsius(), 31.5);
        // Advancing after the restore follows the checkpointed boundary.
        let mut replay = at_checkpoint;
        replay.advance(SimDuration::from_secs(2));
        net.advance(SimDuration::from_secs(2));
        assert_eq!(net.temperature(die).to_bits(), replay.temperature(die).to_bits());
    }

    #[test]
    fn reset_returns_the_boundary_to_built_ambient() {
        let (mut net, die) = single_node();
        net.set_power(die, 10.0);
        net.set_boundary_celsius(40.0);
        net.reset();
        assert_eq!(net.boundary_celsius(), 25.0);
        assert_eq!(net.temperature(die), 25.0);
    }

    #[test]
    #[should_panic(expected = "boundary temperature must be finite")]
    fn boundary_rejects_non_finite() {
        let (mut net, _) = single_node();
        net.set_boundary_celsius(f64::NAN);
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(ThermalNetworkBuilder::new(25.0).build(), Err(ThermalError::Empty));
    }

    #[test]
    fn build_rejects_bad_capacitance() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        b.add_node("die", 0.0);
        assert!(matches!(
            b.build(),
            Err(ThermalError::BadNodeParameter { .. })
        ));
    }

    #[test]
    fn build_rejects_ungrounded_node() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        let c = b.add_node("floating", 1.0);
        b.connect_ambient(a, 1.0);
        let _ = c;
        match b.build() {
            Err(ThermalError::NotGroundedToAmbient { nodes }) => {
                assert_eq!(nodes, vec!["floating".to_string()]);
            }
            other => panic!("expected NotGroundedToAmbient, got {other:?}"),
        }
    }

    #[test]
    fn build_rejects_self_loop() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        b.connect(a, a, 1.0);
        b.connect_ambient(a, 1.0);
        assert!(matches!(b.build(), Err(ThermalError::BadConductance { .. })));
    }

    #[test]
    fn build_rejects_nonpositive_conductance() {
        let mut b = ThermalNetworkBuilder::new(25.0);
        let a = b.add_node("a", 1.0);
        b.connect_ambient(a, -1.0);
        assert!(matches!(b.build(), Err(ThermalError::BadConductance { .. })));
    }

    #[test]
    fn error_display_is_informative() {
        let err = ThermalError::NotGroundedToAmbient {
            nodes: vec!["die0".into()],
        };
        assert!(err.to_string().contains("die0"));
    }

    #[test]
    fn advance_zero_is_noop() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        let before = net.temperatures().to_vec();
        net.advance(SimDuration::ZERO);
        assert_eq!(net.temperatures(), before.as_slice());
    }

    #[test]
    fn step_size_independence() {
        // Advancing 10 s in one call or in 1000 calls must agree (the
        // scheduler produces irregular event-driven step sizes).
        let (mut a, die, _) = two_pole();
        a.set_power(die, 40.0);
        let mut b = a.clone();
        a.advance(SimDuration::from_secs(10));
        for _ in 0..1000 {
            b.advance(SimDuration::from_millis(10));
        }
        // The exponential-Euler coupling error differs slightly between
        // step patterns; a few hundredths of a degree on a ~25 degree rise
        // is far below anything the experiments resolve.
        for (x, y) in a.temperatures().iter().zip(b.temperatures()) {
            assert!((x - y).abs() < 0.05, "{x} vs {y}");
        }
    }

    #[test]
    fn clone_shares_topology() {
        let (net, _, _) = two_pole();
        let copy = net.clone();
        assert!(net.shares_topology(&copy));
        assert_eq!(net, copy);
        // Independently built twins are value-equal but not shared.
        let (twin, _, _) = two_pole();
        assert!(!net.shares_topology(&twin));
        assert_eq!(net, twin);
    }

    #[test]
    fn packed_rows_mirror_dense_structure() {
        // two_pole: die--pkg edge only => each row has exactly one entry.
        let (net, _, _) = two_pole();
        let topo = &*net.topo;
        assert_eq!(topo.row_offsets, vec![0, 1, 2]);
        assert_eq!(topo.cols, vec![1, 0]);
        assert_eq!(topo.vals, vec![2.0, 2.0]);
    }

    #[test]
    fn checkpoint_load_roundtrip_is_bit_exact() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.advance(SimDuration::from_secs(3));
        let snap = saved(&net);

        // Run forward from the checkpoint and record the trajectory.
        let mut first = net.clone();
        first.advance(SimDuration::from_secs(5));

        // Diverge (different power, different substep remainders, which
        // also pollutes the decay cache), then rewind and replay.
        net.set_power(die, 5.0);
        net.advance(SimDuration::from_secs_f64(1.2345));
        load(&mut net, &snap);
        net.advance(SimDuration::from_secs(5));

        for (a, b) in net.temperatures().iter().zip(first.temperatures()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn decay_cache_invalidated_across_substep_lengths() {
        // Interleave advances whose remainders require different decay
        // factors; a stale cache would reuse the wrong exp(). Compare
        // against fresh clones that compute each length cold.
        let (mut warm, die, _) = two_pole();
        warm.set_power(die, 40.0);
        let base = warm.clone();
        // two_pole's substep is 62.5 ms. Thirteen distinct remainders
        // overflow the eight-entry cache, and the last two revisit lengths
        // it has evicted by then.
        let durations = [
            0.017, 0.003, 0.017, 0.0501, 0.003, 0.0011, 0.0023, 0.0037, 0.0041, 0.0059, 0.0067,
            0.0071, 0.0083, 0.1, 0.2003, 0.017, 0.0501,
        ];
        let mut elapsed = Vec::new();
        for &secs in &durations {
            elapsed.push(secs);
            warm.advance(SimDuration::from_secs_f64(secs));
            // A cold network replaying the same sequence from scratch must
            // land on identical bits even though its cache history differs.
            let mut cold = base.clone();
            for &s in &elapsed {
                cold.advance(SimDuration::from_secs_f64(s));
            }
            for (a, b) in warm.temperatures().iter().zip(cold.temperatures()) {
                assert_eq!(a.to_bits(), b.to_bits(), "after {elapsed:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn decay_cache_keeps_the_eight_most_recent_remainders() {
        let (mut net, die, _) = two_pole();
        net.set_power(die, 40.0);
        net.settle();
        // A settled network that never advanced by a remainder carries no
        // factor table, and neither do its clones.
        assert_eq!(net.clone().decay_cache.factors.capacity(), 0);
        let keys = |net: &ThermalNetwork| -> Vec<u64> {
            let cache = &net.decay_cache;
            cache.order[..cache.len].iter().map(|&(key, _)| key).collect()
        };
        let ms = |ms: u64| SimDuration::from_millis(ms).as_nanos();
        for l in 1..=10 {
            net.advance(SimDuration::from_millis(l));
        }
        assert_eq!(keys(&net), (3..=10).rev().map(ms).collect::<Vec<_>>());
        assert_eq!(net.decay_cache.factors.len(), DECAY_CACHE_SLOTS * net.node_count());
        // A hit moves to the front; a whole substep leaves the cache alone.
        net.advance(SimDuration::from_millis(5));
        net.advance(net.max_substep());
        assert_eq!(keys(&net), [5, 10, 9, 8, 7, 6, 4, 3].map(ms));
        // A miss takes the least recently used slot.
        net.advance(SimDuration::from_millis(2));
        assert_eq!(keys(&net), [2, 5, 10, 9, 8, 7, 6, 4].map(ms));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hoisted loop lands on the historical loop's bits after every
        /// advance: random grounded networks of 1–24 nodes (a lone node
        /// with an empty CSR row included), random powers and boundary, and
        /// advances that mix whole substeps, bare remainders and both, over
        /// twelve distinct remainders — more than the cache holds, so
        /// evicted lengths come back.
        #[test]
        fn prop_advance_matches_reference_loop(
            seed in any::<u64>(),
            n in 1usize..25,
            boundary in -10.0f64..60.0,
            strata in prop::collection::vec(0.0f64..1.0, 12),
            plan in prop::collection::vec((0u64..3, 0u64..40, 0usize..12), 1..=40),
        ) {
            let mut net = random_network(seed, n);
            net.set_boundary_celsius(boundary);
            let mut oracle = net.clone();
            let max_ns = net.max_substep().as_nanos();
            // One remainder in each twelfth of (0, max_substep): distinct.
            let width = (max_ns - 1) / 12;
            let pool: Vec<u64> = strata
                .iter()
                .enumerate()
                .map(|(i, &f)| 1 + i as u64 * width + (f * width as f64) as u64)
                .collect();
            for &(kind, whole, r) in &plan {
                let ns = match kind {
                    0 => (whole + 1) * max_ns,
                    1 => pool[r],
                    _ => whole * max_ns + pool[r],
                };
                let dt = SimDuration::from_nanos(ns);
                net.advance(dt);
                reference_advance(&mut oracle, dt);
                for (a, b) in net.temperatures().iter().zip(oracle.temperatures()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "advance by {} ns", ns);
                }
            }
        }
    }

    proptest! {
        // The integration proptests advance hundreds of simulated seconds
        // per case; a few dozen cases give the coverage without minutes of
        // wall clock.
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Temperatures never escape the [ambient, max steady state]
        /// envelope when heating from ambient.
        #[test]
        fn prop_temperatures_bounded(power in 0.0f64..200.0, secs in 0u64..500) {
            let (mut net, die, _) = two_pole();
            net.set_power(die, power);
            let ss_max = net.steady_state().iter().copied().fold(f64::MIN, f64::max);
            net.advance(SimDuration::from_secs(secs));
            for &t in net.temperatures() {
                prop_assert!(t >= 25.0 - 1e-9);
                prop_assert!(t <= ss_max + 1e-6);
            }
        }

        /// More power never produces lower temperatures (monotonicity).
        #[test]
        fn prop_monotone_in_power(p1 in 0.0f64..100.0, extra in 0.1f64..100.0, secs in 1u64..200) {
            let (mut low, die, _) = two_pole();
            let mut high = low.clone();
            low.set_power(die, p1);
            high.set_power(die, p1 + extra);
            low.advance(SimDuration::from_secs(secs));
            high.advance(SimDuration::from_secs(secs));
            for (&l, &h) in low.temperatures().iter().zip(high.temperatures()) {
                prop_assert!(h >= l - 1e-9, "power monotonicity violated: {} vs {}", l, h);
            }
        }

        /// Steady state is invariant to how you reach it.
        #[test]
        fn prop_steady_state_is_attractor(power in 1.0f64..100.0, init in -20.0f64..150.0) {
            let (mut net, die, pkg) = two_pole();
            net.set_power(die, power);
            net.set_temperature(die, init);
            net.set_temperature(pkg, init);
            let ss = net.steady_state();
            net.advance(SimDuration::from_secs(3000));
            prop_assert!((net.temperature(die) - ss[0]).abs() < 0.1);
            prop_assert!((net.temperature(pkg) - ss[1]).abs() < 0.1);
        }

        /// Save → load → advance matches an uninterrupted run
        /// bit-for-bit for arbitrary power/duration splits.
        #[test]
        fn prop_load_then_advance_is_bit_identical(
            power in 0.0f64..150.0,
            pre_ms in 1u64..5_000,
            post_ms in 1u64..5_000,
            detour_ms in 1u64..5_000,
        ) {
            let (mut net, die, _) = two_pole();
            net.set_power(die, power);
            net.advance(SimDuration::from_millis(pre_ms));
            let snap = saved(&net);

            let mut straight = net.clone();
            straight.advance(SimDuration::from_millis(post_ms));

            net.set_power(die, power * 0.5);
            net.advance(SimDuration::from_millis(detour_ms));
            load(&mut net, &snap);
            net.advance(SimDuration::from_millis(post_ms));

            for (a, b) in net.temperatures().iter().zip(straight.temperatures()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
