//! Durable mid-run fleet checkpointing: periodic, checksummed state
//! persistence so a killed run resumes instead of restarting.
//!
//! A checkpoint is two frames in one [`CheckpointStore`] file — the
//! fleet's full mutable state ([`Fleet::checkpoint_encode`]) and the
//! routing policy's state ([`RoutePolicy::save_state`]) — keyed by the
//! config fingerprint folded with the declared [`State::SCHEMA`] of the
//! fleet and every policy, so a checkpoint from a different experiment,
//! or one written under another field set, is never a restore candidate.
//! Because the fleet draws each epoch's arrivals from its own checkpointed
//! RNG, a restored fleet's remaining epochs are bit-identical to the
//! uninterrupted run's: the final reports (and any CSV rendered from them)
//! match byte for byte.
//!
//! Save failures never kill a run: the first I/O error prints a warning
//! to stderr and disables further checkpointing, exactly the journal
//! crate's degradation discipline. Restore failures are the opposite —
//! [`CheckpointStore::load_latest`] silently skips corrupt files and
//! falls back to the newest one that verifies, but when *no* file
//! verifies the typed [`CkptError`] propagates so the caller exits
//! nonzero instead of silently recomputing.

use std::path::{Path, PathBuf};

use dimetrodon_ckpt::{schema_fold, CheckpointStore, CkptError, Dec, Enc, State};

use crate::config::FleetConfig;
use crate::policy::{RoutePolicy, POLICY_SCHEMA};
use crate::sim::{Fleet, RackReport};

/// How many epochs between checkpoints when the caller does not say.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50;

/// How many checkpoint files to retain per (config, policy) pair.
pub const DEFAULT_CHECKPOINT_KEEP: usize = 2;

/// Where and how often a fleet run checkpoints, and whether it first
/// tries to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding the checkpoint files (created on first save).
    pub dir: PathBuf,
    /// Epochs between checkpoints; `0` disables periodic saving (the
    /// spec then only controls restore).
    pub every_epochs: u64,
    /// Checkpoint files retained per store, newest first (min 1).
    pub keep: usize,
    /// Whether to resume from the newest verifiable checkpoint before
    /// running. With no checkpoint on disk the run starts fresh.
    pub restore: bool,
}

impl CheckpointSpec {
    /// A spec with the default cadence and retention, restore off.
    pub fn new(dir: &Path) -> CheckpointSpec {
        CheckpointSpec {
            dir: dir.to_path_buf(),
            every_epochs: DEFAULT_CHECKPOINT_EVERY,
            keep: DEFAULT_CHECKPOINT_KEEP,
            restore: false,
        }
    }

    /// The store for one (config, policy) pair: the stem carries the
    /// policy name, the fingerprint the full config identity and the
    /// declared layout of both frames.
    pub fn store(&self, config: &FleetConfig, policy_name: &str) -> CheckpointStore {
        CheckpointStore::new(
            &self.dir,
            &format!("fleet-{policy_name}"),
            schema_fold(schema_fold(config.fingerprint(), Fleet::SCHEMA), POLICY_SCHEMA),
            self.keep,
        )
    }
}

/// Encodes the two checkpoint frames for the current instant of a run.
fn frames(fleet: &Fleet, policy: &dyn RoutePolicy) -> Vec<Vec<u8>> {
    let mut policy_enc = Enc::new();
    policy.save_state(&mut policy_enc);
    vec![fleet.checkpoint_encode(), policy_enc.into_bytes()]
}

/// Rebuilds the fleet and policy state from a loaded checkpoint's
/// frames. The policy must be freshly built for `config` (the same kind
/// that wrote the checkpoint); its in-place restore is validated against
/// that fresh shape.
fn restore_frames(
    config: &FleetConfig,
    policy: &mut dyn RoutePolicy,
    frames: &[Vec<u8>],
) -> Result<Fleet, CkptError> {
    if frames.len() != 2 {
        return Err(CkptError::Malformed(format!(
            "fleet checkpoint holds {} frames, expected 2",
            frames.len()
        )));
    }
    let fleet = Fleet::checkpoint_restore(config, &frames[0])?;
    let mut dec = Dec::new(&frames[1]);
    policy.restore_state(&mut dec)?;
    dec.finish()?;
    Ok(fleet)
}

/// [`run_fleet`](crate::run_fleet) with durable mid-run checkpoints:
/// builds (or restores) a fleet, runs the remaining epochs saving every
/// [`CheckpointSpec::every_epochs`], and returns the per-rack reports.
///
/// # Errors
///
/// Returns a [`CkptError`] only from the restore path — when
/// `spec.restore` is set and checkpoint files exist but none verifies,
/// or the newest verifiable one does not match this config and policy.
/// Save failures degrade to a stderr warning instead.
pub fn run_fleet_checkpointed(
    config: &FleetConfig,
    policy: &mut dyn RoutePolicy,
    spec: &CheckpointSpec,
) -> Result<Vec<RackReport>, CkptError> {
    let store = spec.store(config, policy.name());
    let mut fleet = match spec.restore {
        true => match store.load_latest()? {
            Some(loaded) => {
                if loaded.skipped > 0 {
                    eprintln!(
                        "warning: skipped {} corrupt checkpoint(s), resuming from epoch {}",
                        loaded.skipped, loaded.seq
                    );
                }
                let fleet = restore_frames(config, policy, &loaded.frames)?;
                if fleet.epochs_run() != loaded.seq {
                    return Err(CkptError::Malformed(format!(
                        "checkpoint seq {} disagrees with encoded epoch count {}",
                        loaded.seq,
                        fleet.epochs_run()
                    )));
                }
                fleet
            }
            None => Fleet::new(config.clone()),
        },
        false => Fleet::new(config.clone()),
    };

    let mut saving = spec.every_epochs > 0;
    while fleet.epochs_run() < config.epochs() {
        fleet.step(&mut *policy);
        let epoch = fleet.epochs_run();
        if saving && epoch % spec.every_epochs == 0 && epoch < config.epochs() {
            if let Err(err) = store.save(epoch, &frames(&fleet, policy)) {
                eprintln!("warning: checkpoint save failed ({err}); checkpointing disabled");
                saving = false;
            }
        }
    }
    Ok(fleet.reports())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::RECOVERY_HYSTERESIS_EPOCHS;
    use crate::policy::{FailoverPolicy, PolicyKind};
    use crate::sim::run_fleet;
    use dimetrodon_ckpt::fnv1a64;
    use dimetrodon_sim_core::SimDuration;

    fn tiny_config(seed: u64) -> FleetConfig {
        let mut config = FleetConfig::rack_scale(6, seed);
        config.machines_per_rack = 3;
        config.duration = SimDuration::from_secs(120);
        config
    }

    fn temp_spec(tag: &str) -> CheckpointSpec {
        let dir = std::env::temp_dir().join(format!(
            "fleet-ckpt-test-{}-{tag}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut spec = CheckpointSpec::new(&dir);
        spec.every_epochs = 3;
        spec
    }

    #[test]
    fn checkpointed_run_matches_the_plain_run_bit_for_bit() {
        let config = tiny_config(41);
        for kind in PolicyKind::ALL {
            let spec = temp_spec(&format!("plain-{}", kind.name()));
            let mut policy = kind.build(&config);
            let checkpointed =
                run_fleet_checkpointed(&config, policy.as_mut(), &spec).expect("fresh run");
            let mut policy = kind.build(&config);
            let plain = run_fleet(&config, policy.as_mut());
            assert_eq!(checkpointed, plain, "{} diverged", kind.name());
            std::fs::remove_dir_all(&spec.dir).ok();
        }
    }

    #[test]
    fn restore_continues_bit_identically_after_a_mid_run_kill() {
        let config = tiny_config(43);
        for kind in PolicyKind::ALL {
            let spec = temp_spec(&format!("kill-{}", kind.name()));

            // The uninterrupted run.
            let mut policy = kind.build(&config);
            let uninterrupted = run_fleet(&config, policy.as_mut());

            // A "killed" run: step half the epochs with checkpoints on,
            // then drop everything — only the files survive.
            {
                let store = spec.store(&config, kind.name());
                let mut policy = kind.build(&config);
                let mut fleet = Fleet::new(config.clone());
                for _ in 0..config.epochs() / 2 {
                    fleet.step(policy.as_mut());
                    if fleet.epochs_run().is_multiple_of(spec.every_epochs) {
                        store
                            .save(fleet.epochs_run(), &frames(&fleet, policy.as_ref()))
                            .expect("save");
                    }
                }
            }

            // The restored run finishes from the newest checkpoint.
            let mut restore = spec.clone();
            restore.restore = true;
            let mut policy = kind.build(&config);
            let restored =
                run_fleet_checkpointed(&config, policy.as_mut(), &restore).expect("restore");
            assert_eq!(restored, uninterrupted, "{} diverged after restore", kind.name());
            std::fs::remove_dir_all(&spec.dir).ok();
        }
    }

    #[test]
    fn restore_survives_a_failover_wrapped_policy() {
        let config = tiny_config(47);
        let spec = temp_spec("failover");
        let build = || {
            FailoverPolicy::new(
                crate::policy::RoundRobin::default(),
                RECOVERY_HYSTERESIS_EPOCHS,
            )
        };

        let mut policy = build();
        let uninterrupted = run_fleet(&config, &mut policy);

        {
            let store = spec.store(&config, policy.name());
            let mut policy = build();
            let mut fleet = Fleet::new(config.clone());
            for _ in 0..config.epochs() / 2 {
                fleet.step(&mut policy);
            }
            store
                .save(fleet.epochs_run(), &frames(&fleet, &policy))
                .expect("save");
        }

        let mut restore = spec.clone();
        restore.restore = true;
        let mut policy = build();
        let restored = run_fleet_checkpointed(&config, &mut policy, &restore).expect("restore");
        assert_eq!(restored, uninterrupted);
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_and_all_corrupt_is_a_typed_error() {
        let config = tiny_config(53);
        let spec = temp_spec("corrupt");
        let kind = PolicyKind::RoundRobin;

        let mut policy = kind.build(&config);
        let uninterrupted = run_fleet(&config, policy.as_mut());

        let store = spec.store(&config, kind.name());
        {
            let mut policy = kind.build(&config);
            let mut fleet = Fleet::new(config.clone());
            for _ in 0..6 {
                fleet.step(policy.as_mut());
                store
                    .save(fleet.epochs_run(), &frames(&fleet, policy.as_ref()))
                    .expect("save");
            }
        }
        let candidates = store.candidates();
        assert_eq!(candidates.len(), DEFAULT_CHECKPOINT_KEEP, "retention pruned");

        // Bit-flip the newest file's payload: restore falls back to the
        // older checkpoint and still finishes bit-identically.
        let newest = &candidates[0].1;
        let mut bytes = std::fs::read(newest).expect("read newest");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(newest, &bytes).expect("rewrite newest");

        let mut restore = spec.clone();
        restore.every_epochs = 0;
        restore.restore = true;
        let mut policy = kind.build(&config);
        let restored =
            run_fleet_checkpointed(&config, policy.as_mut(), &restore).expect("fallback restore");
        assert_eq!(restored, uninterrupted, "fallback restore diverged");

        // Corrupt every file: restore must surface a typed error, not
        // panic and not silently recompute. A different bit than above,
        // so the already-corrupt newest file is not flipped back clean.
        for (_, path) in store.candidates() {
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).expect("rewrite");
        }
        let mut policy = kind.build(&config);
        let err = run_fleet_checkpointed(&config, policy.as_mut(), &restore)
            .expect_err("all-corrupt restore must fail");
        assert!(
            matches!(err, CkptError::NoVerifiable { tried: 2 }),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn a_checkpoint_keyed_without_the_declared_schemas_is_never_a_candidate() {
        let config = tiny_config(61);
        let spec = temp_spec("schema");
        let kind = PolicyKind::RoundRobin;
        let mut policy = kind.build(&config);
        let mut fleet = Fleet::new(config.clone());
        fleet.step(policy.as_mut());
        // Keyed by the config alone, as a build with another field set
        // would key it.
        let other = CheckpointStore::new(
            &spec.dir,
            &format!("fleet-{}", kind.name()),
            config.fingerprint(),
            spec.keep,
        );
        other.save(1, &frames(&fleet, policy.as_ref())).expect("save");
        let store = spec.store(&config, kind.name());
        assert!(matches!(store.load_latest(), Ok(None)), "never a candidate");
        assert!(matches!(
            store.load_file(&other.path_for(1)),
            Err(CkptError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&spec.dir).ok();
    }

    #[test]
    fn fleet_state_round_trips_bit_for_bit_mid_run() {
        let config = tiny_config(59);
        let mut policy = PolicyKind::PinnedMigrate.build(&config);
        let mut fleet = Fleet::new(config.clone());
        for _ in 0..7 {
            fleet.step(policy.as_mut());
        }
        let encoded = fleet.checkpoint_encode();
        let restored = Fleet::checkpoint_restore(&config, &encoded).expect("restore");
        assert_eq!(
            fnv1a64(&restored.checkpoint_encode()),
            fnv1a64(&encoded),
            "re-encoding the restored fleet must reproduce the exact bytes"
        );
    }
}
