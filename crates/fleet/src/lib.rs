//! Cluster-scale fleet simulation: hundreds of [`Machine`]s coupled
//! through shared rack inlets, behind a cluster-level request router.
//!
//! The paper treats one processor; this crate asks the datacenter-shaped
//! question its §6 gestures at — what preventive thermal management buys
//! when *placement* is also a control knob. A [`Fleet`] holds an arena of
//! identical machines (struct-of-arrays hot state beside them), runs an
//! open-loop web-style request stream through a pluggable
//! [`RoutePolicy`], and advances every machine's thermal/power model one
//! control epoch at a time:
//!
//! * requests arrive tenant-attributed with exponential CPU demands and
//!   are routed one at a time; a fluid FIFO queue per machine converts
//!   backlog into latency, scored against the web workload's QoS
//!   thresholds per rack;
//! * each machine runs its own Dimetrodon-style integral controller,
//!   converting sensor temperature above the setpoint into an idle-cycle
//!   injection proportion that shrinks its service capacity;
//! * machines in a rack share an inlet: the heat every machine rejects
//!   recirculates into the next epoch's boundary temperature for the
//!   whole rack (via
//!   [`Machine::set_inlet_celsius`](dimetrodon_machine::Machine::set_inlet_celsius)),
//!   so a hot neighbour really does make your cooling worse.
//!
//! Everything is deterministic from [`FleetConfig::seed`]: the arrival
//! stream is drawn before routing consults any policy, so every policy
//! variant faces the *same* offered load, and
//! [`fleet_comparison_checkpointed`] shards policy variants across worker
//! threads with bit-identical results at every worker count. Completed
//! variants append to a checksummed frame journal keyed by a config
//! fingerprint, so a killed comparison resumes byte-identically.

#![cfg_attr(test, allow(clippy::float_cmp, reason = "tests assert exact, deterministic values"))]

mod chaos;
mod ckpt;
mod config;
mod experiment;
mod health;
mod journal;
mod policy;
mod sim;

pub use chaos::{
    chaos_comparison, chaos_comparison_with, chaos_table, ChaosGrid, ChaosOutcome,
    DEFAULT_INTENSITIES, QUICK_INTENSITIES, RECOVERY_HYSTERESIS_EPOCHS,
};
pub use ckpt::{
    run_fleet_checkpointed, CheckpointSpec, DEFAULT_CHECKPOINT_EVERY, DEFAULT_CHECKPOINT_KEEP,
};
pub use config::FleetConfig;
pub use experiment::{
    fleet_comparison_checkpointed, fleet_comparison_with, fleet_table, FleetOutcome,
};
pub use health::{HealthModel, HealthState};
pub use journal::{ChaosJournal, FleetJournal};
pub use policy::{
    CoolestFirst, FailoverPolicy, FleetView, LeastLoaded, PinnedMigrate, PolicyKind, RoundRobin,
    RoutePolicy,
};
pub use sim::{
    run_fleet, ChaosMetrics, Fleet, RackReport, MAX_CRAC_FAILURE_INLET_CELSIUS, MAX_INJECT_P,
    ROUTE_RETRIES,
};
