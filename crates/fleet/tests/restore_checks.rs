//! Every check on decoded checkpoint content, fed a payload whose frame
//! would verify but whose content is wrong: each case must restore into a
//! typed `CkptError`, never a value that panics later. The payloads are
//! built through the public API — `Fleet::checkpoint_encode` and
//! `RoutePolicy::save_state` — and then edited at offsets found by walking
//! the payload layout.

#![allow(
    clippy::unwrap_used,
    reason = "test code: a failed unwrap is a failed test"
)]

use dimetrodon_ckpt::{CkptError, Dec, Enc};
use dimetrodon_fleet::{Fleet, FleetConfig, PolicyKind};

const MACHINES: usize = 16;

fn config() -> FleetConfig {
    FleetConfig::rack_scale(MACHINES, 5)
}

/// A fleet stepped a few epochs, so its cores are busy and its queues,
/// QoS accumulators and health log are populated.
fn stepped_payload(config: &FleetConfig) -> Vec<u8> {
    let mut policy = PolicyKind::RoundRobin.build(config);
    let mut fleet = Fleet::new(config.clone());
    for _ in 0..3 {
        fleet.step(policy.as_mut());
    }
    fleet.checkpoint_encode()
}

fn restore(config: &FleetConfig, payload: &[u8]) -> Result<(), CkptError> {
    Fleet::checkpoint_restore(config, payload).map(|_| ())
}

fn assert_malformed(result: Result<(), CkptError>, case: &str) {
    assert!(
        matches!(result, Err(CkptError::Malformed(_))),
        "{case}: expected a typed Malformed error, got {result:?}"
    );
}

/// Offsets into a fleet checkpoint payload. The layout is the fleet's
/// persisted fields in order; a machine is its thermal vectors, core
/// states, P-states, DTM latches, clock and energy meter.
struct Offsets {
    /// Length word of machine 0's core-state list.
    core_states: usize,
    /// Machine 0's chip-wide P-state word.
    pstate: usize,
    /// Length word of machine 0's per-core P-state overrides.
    core_pstates: usize,
    /// Rack 0's request count, followed by its good count and the length
    /// word of its latency tail.
    rack0_qos: usize,
    /// Length word of the health model's advertised states.
    health_states: usize,
}

struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Walk<'_> {
    fn u64(&mut self) -> usize {
        let word = self.bytes[self.pos..self.pos + 8].try_into().unwrap();
        self.pos += 8;
        u64::from_le_bytes(word) as usize
    }

    /// A length, then `n` elements of `size` bytes.
    fn list(&mut self, size: usize) {
        let n = self.u64();
        self.pos += n * size;
    }

    /// A length, then tag bytes, each followed by `size` bytes when it
    /// equals `with`.
    fn tagged(&mut self, with: u8, size: usize) {
        for _ in 0..self.u64() {
            let tag = self.bytes[self.pos];
            self.pos += 1;
            if tag == with {
                self.pos += size;
            }
        }
    }

    /// One `Option` whose `Some` carries `size` bytes.
    fn option(&mut self, size: usize) {
        let tag = self.bytes[self.pos];
        self.pos += 1;
        if tag == 1 {
            self.pos += size;
        }
    }

    /// One machine, returning the offsets of its core states, P-state and
    /// per-core overrides.
    fn machine(&mut self) -> (usize, usize, usize) {
        self.list(8); // temperatures
        self.list(8); // powers
        self.pos += 8; // boundary
        let core_states = self.pos;
        self.tagged(0, 8); // Active carries its activity factor
        let pstate = self.pos;
        self.pos += 8;
        let core_pstates = self.pos;
        self.tagged(1, 8); // Some carries the id
                           // tcc duty, throttled, tripped, trips, clock, tripped-at, joules,
                           // elapsed.
        self.pos += 8 + 1 + 1 + 8 + 8 + 8 + 8 + 8;
        (core_states, pstate, core_pstates)
    }
}

fn offsets(payload: &[u8]) -> Offsets {
    let mut walk = Walk {
        bytes: payload,
        pos: 0,
    };
    let machines = walk.u64();
    let (core_states, pstate, core_pstates) = walk.machine();
    for _ in 1..machines {
        walk.machine();
    }
    for _ in 0..5 {
        walk.list(8); // backlog, inject_p, temps, tenant weights and demand
    }
    let racks = walk.u64();
    let rack0_qos = walk.pos;
    for _ in 0..racks {
        walk.pos += 8 + 8; // requests, good
        walk.list(8); // the latency tail, ascending
    }
    for _ in 0..3 {
        walk.list(8); // rack peaks, temperature squares, sample counts
    }
    walk.pos += 4 * 8; // rng words
    walk.option(8); // Box–Muller spare
    walk.pos += 8 + 8; // epochs run, heartbeat timeout
    walk.list(8); // heartbeat ages
    let offsets = Offsets {
        core_states,
        pstate,
        core_pstates,
        rack0_qos,
        health_states: walk.pos,
    };
    // The walk is aligned: each word it found holds what it should.
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    assert_eq!(word(offsets.core_states), 4, "four logical CPUs");
    assert_eq!(word(offsets.pstate), 0, "the fastest P-state");
    assert_eq!(word(offsets.core_pstates), 4, "four physical cores");
    assert_eq!(word(offsets.health_states), MACHINES as u64);
    offsets
}

fn write_u64(payload: &mut [u8], at: usize, value: u64) {
    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn a_pstate_outside_the_machine_table_is_a_typed_error() {
    let config = config();
    let mut payload = stepped_payload(&config);
    let at = offsets(&payload).pstate;
    write_u64(&mut payload, at, 99);
    assert_malformed(restore(&config, &payload), "P-state 99");
}

#[test]
fn a_pinned_migrate_home_outside_the_fleet_is_a_typed_error() {
    let config = config();
    let mut enc = Enc::new();
    PolicyKind::PinnedMigrate
        .build(&config)
        .save_state(&mut enc);
    let mut payload = enc.into_bytes();
    // The tenant count, then one home per tenant.
    write_u64(&mut payload, 8, 10_000);
    let mut fresh = PolicyKind::PinnedMigrate.build(&config);
    let result = fresh.restore_state(&mut Dec::new(&payload));
    assert_malformed(result, "home 10 000");
}

#[test]
fn an_unknown_core_state_tag_is_a_typed_error() {
    let config = config();
    let mut payload = stepped_payload(&config);
    let at = offsets(&payload).core_states + 8;
    payload[at] = 9;
    assert_malformed(restore(&config, &payload), "core-state tag 9");
}

#[test]
fn an_unknown_option_tag_is_a_typed_error() {
    let config = config();
    let mut payload = stepped_payload(&config);
    let at = offsets(&payload).core_pstates + 8;
    payload[at] = 7;
    assert_malformed(restore(&config, &payload), "option tag 7");
}

#[test]
fn an_unknown_health_state_tag_is_a_typed_error() {
    let config = config();
    let mut payload = stepped_payload(&config);
    let at = offsets(&payload).health_states + 8;
    payload[at] = 9;
    assert_malformed(restore(&config, &payload), "health-state tag 9");
}

#[test]
fn an_activity_factor_above_one_is_a_typed_error() {
    let config = config();
    let payload = stepped_payload(&config);
    let at = offsets(&payload).core_states + 8;
    // Replace core 0's state, busy or idle, with Active at 1.5.
    let old_len = if payload[at] == 0 { 9 } else { 1 };
    let mut active = vec![0u8];
    active.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
    let mut spliced = payload[..at].to_vec();
    spliced.extend_from_slice(&active);
    spliced.extend_from_slice(&payload[at + old_len..]);
    assert_malformed(restore(&config, &spliced), "activity 1.5");
}

/// The run's request budget; a rack's tail keeps `budget / 100 + 1`.
fn budget(config: &FleetConfig) -> u64 {
    config.requests_per_epoch as u64 * config.epochs()
}

fn read_u64(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

#[test]
fn qos_counters_that_miss_the_latency_count_are_a_typed_error() {
    let config = config();
    let payload = stepped_payload(&config);
    let requests = offsets(&payload).rack0_qos;
    let (good, tail) = (requests + 8, requests + 16);
    let bound = budget(&config) / 100 + 1;
    assert_eq!(read_u64(&payload, tail), bound, "three epochs fill the tail");

    // Fewer requests than the tail holds.
    let mut fewer = payload.clone();
    write_u64(&mut fewer, requests, bound - 1);
    assert_malformed(restore(&config, &fewer), "one request fewer than the tail");

    // More good requests than requests.
    let mut good_over = payload.clone();
    write_u64(&mut good_over, good, read_u64(&payload, requests) + 1);
    assert_malformed(restore(&config, &good_over), "one good request too many");

    // More requests than the run can route: the tail could not answer
    // their p99.
    let mut over_budget = payload;
    write_u64(&mut over_budget, requests, budget(&config) + 1);
    assert_malformed(restore(&config, &over_budget), "requests over the budget");
}

#[test]
fn a_qos_tail_longer_than_its_bound_is_a_typed_error() {
    let config = config();
    let payload = stepped_payload(&config);
    let tail = offsets(&payload).rack0_qos + 16;
    let len = read_u64(&payload, tail);
    let end = tail + 8 + 8 * len as usize;
    // One more latency, as large as the largest, so the tail stays
    // ascending and only its length is wrong.
    let mut spliced = payload[..tail].to_vec();
    spliced.extend_from_slice(&(len + 1).to_le_bytes());
    spliced.extend_from_slice(&payload[tail + 8..end]);
    spliced.extend_from_slice(&payload[end - 8..]);
    assert_malformed(restore(&config, &spliced), "a tail one over the bound");
}

#[test]
fn a_qos_tail_out_of_ascending_order_is_a_typed_error() {
    let config = config();
    let mut payload = stepped_payload(&config);
    let tail = offsets(&payload).rack0_qos + 16;
    let len = read_u64(&payload, tail) as usize;
    let (first, last) = (tail + 8, tail + 8 * len);
    let (smallest, largest) = (read_u64(&payload, first), read_u64(&payload, last));
    assert!(smallest < largest, "a loaded rack's tail spans several latencies");
    write_u64(&mut payload, first, largest);
    write_u64(&mut payload, last, smallest);
    assert_malformed(restore(&config, &payload), "a descending tail");
}

#[test]
fn health_vectors_of_unequal_length_are_a_typed_error() {
    let config = config();
    let payload = stepped_payload(&config);
    let at = offsets(&payload).health_states;
    // Drop the last advertised state: one fewer than the heartbeat ages.
    let mut spliced = payload[..at].to_vec();
    spliced.extend_from_slice(&(MACHINES as u64 - 1).to_le_bytes());
    spliced.extend_from_slice(&payload[at + 8..at + 8 + MACHINES - 1]);
    spliced.extend_from_slice(&payload[at + 8 + MACHINES..]);
    assert_malformed(restore(&config, &spliced), "15 states for 16 ages");
}

#[test]
fn a_machine_rack_or_tenant_count_mismatch_is_a_typed_error() {
    let config = config();
    let payload = stepped_payload(&config);

    let fewer_machines = FleetConfig::rack_scale(MACHINES - 1, 5);
    assert_eq!(fewer_machines.racks(), config.racks());
    assert_malformed(restore(&fewer_machines, &payload), "machine count");

    let mut more_racks = config.clone();
    more_racks.machines_per_rack = MACHINES / 2;
    assert_malformed(restore(&more_racks, &payload), "rack count");

    let mut more_tenants = config.clone();
    more_tenants.tenants += 1;
    assert_malformed(restore(&more_tenants, &payload), "tenant count");
}
