//! Durable mid-run checkpointing for long single-machine runs.
//!
//! The fleet crate checkpoints *full* state and restores without
//! re-simulating, because everything a [`Fleet`](dimetrodon_fleet) holds
//! is plain data. A [`System`] is not: its threads, scheduler, and hook
//! are trait objects (`Box<dyn ThreadBody>` and friends) with no general
//! byte serialization, so the runner uses the other honest design —
//! **verified deterministic replay**. A checkpoint records the event
//! count, the simulated clock, and the machine model's exact state
//! bytes (its [`State`] codec); restore rebuilds the system from its
//! config (a pure function),
//! replays the recorded number of events through the same
//! pop/advance/dispatch loop, and then *proves* the trajectory matches
//! by comparing the live machine state against the checkpoint bit for
//! bit. Divergence — a changed binary, a perturbed config, cosmic-ray
//! luck — is a typed [`CkptError::StateMismatch`], never a silently
//! different result.
//!
//! The CLI's scenario runs drive [`run_until_checkpointed`] directly
//! with their own [`RunCheckpointSpec`]; characterisation sweeps never
//! checkpoint.

use std::path::PathBuf;

use dimetrodon_ckpt::{schema_fold, CheckpointStore, CkptError, Dec, Enc, State};
use dimetrodon_machine::Machine;
use dimetrodon_sched::System;
use dimetrodon_sim_core::SimTime;

/// Default events between checkpoints when the caller does not say.
pub const DEFAULT_CHECKPOINT_EVERY_EVENTS: u64 = 250_000;

/// Default checkpoint files retained per run.
pub const DEFAULT_CHECKPOINT_KEEP: usize = 2;

/// Where and how often single-machine runs checkpoint, and whether they
/// first try to restore (verify-replay) from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCheckpointSpec {
    /// Directory holding the checkpoint files (created on first save).
    pub dir: PathBuf,
    /// Events between checkpoints; `0` disables periodic saving.
    pub every_events: u64,
    /// Checkpoint files retained per run store (min 1).
    pub keep: usize,
    /// Whether to verify-replay the newest verifiable checkpoint before
    /// continuing. With no checkpoint on disk the run starts fresh.
    pub restore: bool,
}

impl RunCheckpointSpec {
    /// A spec with the default cadence and retention, restore off.
    pub fn new(dir: PathBuf) -> RunCheckpointSpec {
        RunCheckpointSpec {
            dir,
            every_events: DEFAULT_CHECKPOINT_EVERY_EVENTS,
            keep: DEFAULT_CHECKPOINT_KEEP,
            restore: false,
        }
    }
}

/// What [`run_until_checkpointed`] did, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCkptReport {
    /// Events replayed and verified against a restored checkpoint.
    pub verified_events: u64,
    /// Checkpoints written during this span.
    pub checkpoints_written: u64,
}

/// One checkpoint's bytes: the event count, the simulated clock, and
/// the machine model's exact state.
fn frames(events: u64, system: &System) -> Vec<Vec<u8>> {
    let mut meta = Enc::new();
    meta.u64(events);
    meta.u64(system.now().as_nanos());
    let mut machine = Enc::new();
    system.machine().save(&mut machine);
    vec![meta.into_bytes(), machine.into_bytes()]
}

/// Drives `system` to `deadline` exactly like
/// [`System::run_until`](dimetrodon_sched::System::run_until), but in
/// event-count chunks with a durable checkpoint after each chunk, under
/// `spec`. `key` must identify everything the run is a function of
/// (machine config, workload, actuation, run config); the store folds in
/// the machine's declared [`State::SCHEMA`], so a checkpoint written
/// under another field set is never a candidate. `label` names the
/// checkpoint files.
///
/// With `spec.restore` set and a verifiable checkpoint on disk, the
/// span starts by replaying the recorded event count and comparing the
/// machine state bit-for-bit against the checkpoint.
///
/// # Errors
///
/// Returns a [`CkptError`] from the restore path only: checkpoint files
/// exist but none verifies, or the replayed trajectory does not
/// reproduce the checkpointed machine state
/// ([`CkptError::StateMismatch`]). Save failures degrade to a stderr
/// warning and disable further saving.
pub fn run_until_checkpointed(
    system: &mut System,
    deadline: SimTime,
    key: u64,
    label: &str,
    spec: &RunCheckpointSpec,
) -> Result<RunCkptReport, CkptError> {
    let store = CheckpointStore::new(
        &spec.dir,
        &format!("run-{label}"),
        schema_fold(key, Machine::SCHEMA),
        spec.keep,
    );
    let mut report = RunCkptReport::default();
    let mut events_done: u64 = 0;

    if spec.restore {
        if let Some(loaded) = store.load_latest()? {
            if loaded.skipped > 0 {
                eprintln!(
                    "warning: skipped {} corrupt checkpoint(s), verifying from event {}",
                    loaded.skipped, loaded.seq
                );
            }
            if loaded.frames.len() != 2 {
                return Err(CkptError::Malformed(format!(
                    "run checkpoint holds {} frames, expected 2",
                    loaded.frames.len()
                )));
            }
            let mut meta = Dec::new(&loaded.frames[0]);
            let events = meta.u64()?;
            let now_nanos = meta.u64()?;
            meta.finish()?;
            if events != loaded.seq {
                return Err(CkptError::Malformed(format!(
                    "checkpoint seq {} disagrees with recorded event count {events}",
                    loaded.seq
                )));
            }
            let replayed = system.run_events(events, deadline);
            if replayed != events || system.now().as_nanos() != now_nanos {
                return Err(CkptError::StateMismatch);
            }
            let mut live = Enc::new();
            system.machine().save(&mut live);
            if live.into_bytes() != loaded.frames[1] {
                return Err(CkptError::StateMismatch);
            }
            events_done = events;
            report.verified_events = events;
        }
    }

    let mut saving = spec.every_events > 0;
    loop {
        let n = system.run_events(spec.every_events.max(1), deadline);
        events_done += n;
        if n < spec.every_events.max(1) {
            break;
        }
        if saving {
            match store.save(events_done, &frames(events_done, system)) {
                Ok(()) => report.checkpoints_written += 1,
                Err(err) => {
                    eprintln!("warning: checkpoint save failed ({err}); checkpointing disabled");
                    saving = false;
                }
            }
        }
    }
    // The queue holds nothing at or before the deadline; this is
    // run_until's closing advance (plus its series reservation, now a
    // no-op for the drained span).
    system.run_until(deadline);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_machine::{Machine, MachineConfig};
    use dimetrodon_sched::{ThreadKind};
    use dimetrodon_sim_core::SimDuration;
    use dimetrodon_workload::CpuBurn;

    fn build() -> System {
        let mut machine = Machine::new(MachineConfig::xeon_e5520()).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        for _ in 0..machine_cores() {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        system
    }

    fn machine_cores() -> usize {
        MachineConfig::xeon_e5520().num_cores
    }

    fn spec_in(tag: &str) -> RunCheckpointSpec {
        let dir = std::env::temp_dir().join(format!("run-ckpt-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = RunCheckpointSpec::new(dir);
        spec.every_events = 40;
        spec
    }

    fn machine_bytes(system: &System) -> Vec<u8> {
        let mut enc = Enc::new();
        system.machine().save(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn chunked_run_is_bit_identical_to_run_until() {
        let deadline = SimTime::ZERO + SimDuration::from_secs(5);
        let mut plain = build();
        plain.run_until(deadline);

        let spec = spec_in("chunked");
        let mut chunked = build();
        let report =
            run_until_checkpointed(&mut chunked, deadline, 0xC0FFEE, "test", &spec).expect("run");
        assert!(report.checkpoints_written > 0, "span long enough to checkpoint");
        assert_eq!(machine_bytes(&plain), machine_bytes(&chunked));
        assert_eq!(plain.now(), chunked.now());
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn restore_verifies_replay_and_continues_identically() {
        let deadline = SimTime::ZERO + SimDuration::from_secs(5);
        let mut plain = build();
        plain.run_until(deadline);

        // First attempt "dies" mid-run, leaving checkpoints behind.
        let spec = spec_in("restore");
        {
            let mut system = build();
            let half = SimTime::ZERO + SimDuration::from_millis(2_500);
            run_until_checkpointed(&mut system, half, 0xBEEF, "test", &spec).expect("first run");
        }

        let mut restore = spec.clone();
        restore.restore = true;
        let mut system = build();
        let report =
            run_until_checkpointed(&mut system, deadline, 0xBEEF, "test", &restore).expect("restore");
        assert!(report.verified_events > 0, "restore verified a checkpoint");
        assert_eq!(machine_bytes(&plain), machine_bytes(&system));
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn replay_divergence_is_a_typed_state_mismatch() {
        let spec = spec_in("diverge");
        let deadline = SimTime::ZERO + SimDuration::from_secs(2);
        {
            let mut system = build();
            run_until_checkpointed(&mut system, deadline, 0xD1CE, "test", &spec).expect("run");
        }
        // Restore into a *different* system (hotter machine): the replay
        // cannot reproduce the checkpointed machine bytes.
        let mut restore = spec.clone();
        restore.restore = true;
        let mut machine =
            Machine::new(MachineConfig::xeon_e5520().with_fan_speed(0.5)).expect("preset");
        machine.settle_idle();
        let mut system = System::new(machine);
        for _ in 0..machine_cores() {
            system.spawn(ThreadKind::User, Box::new(CpuBurn::infinite()));
        }
        let err = run_until_checkpointed(
            &mut system,
            SimTime::ZERO + SimDuration::from_secs(4),
            0xD1CE,
            "test",
            &restore,
        )
        .expect_err("divergent replay must fail");
        assert!(matches!(err, CkptError::StateMismatch), "got {err}");
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn no_files_means_fresh_start() {
        let spec = spec_in("fresh");
        let mut restore = spec.clone();
        restore.restore = true;
        let mut system = build();
        let report = run_until_checkpointed(
            &mut system,
            SimTime::ZERO + SimDuration::from_secs(1),
            0xFEED,
            "test",
            &restore,
        )
        .expect("fresh start");
        assert_eq!(report.verified_events, 0);
        std::fs::remove_dir_all(&spec.dir).ok();
    }
}
