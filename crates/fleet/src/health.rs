//! The fleet's health model: what the router is *told* about each
//! machine, as opposed to what is true.
//!
//! Real clusters never observe a crash directly — they notice a
//! heartbeat stop arriving. The [`HealthModel`] reproduces that gap:
//! every epoch each live machine refreshes its heartbeat, and a machine
//! is advertised [`Down`](HealthState::Down) only once its heartbeat age
//! exceeds the configured timeout. Between the crash and the detection
//! the router keeps sending requests at a corpse; the epoch loop's
//! bounded retry (and ultimately the shed counter) absorbs them, which
//! is exactly the window availability metrics must charge for.
//!
//! A live machine with an impaired substrate — a latched thermal trip or
//! a wedged controller — is advertised [`Degraded`](HealthState::Degraded):
//! still routable, but health-aware wrappers may steer around it and the
//! QoS split accounts its epochs separately.
//!
//! The model is pure bookkeeping over booleans handed in by the epoch
//! loop, so it derives `Clone`, forks with the fleet, and checkpoints
//! through its declared [`State`](dimetrodon_ckpt::State).

/// What a machine advertises to the router this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Heartbeating and unimpaired.
    #[default]
    Up,
    /// Heartbeating, but tripped or wedged: routable at reduced trust.
    Degraded,
    /// Heartbeat timed out: excluded from routing.
    Down,
}

/// Per-machine advertised health, driven by heartbeat age and impairment
/// flags, plus the time-to-recover log the availability metrics consume.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthModel {
    /// Epochs a machine may miss heartbeats before it is advertised
    /// down. The detection lag is `timeout` epochs after the crash.
    timeout_epochs: u64,
    /// Epochs since each machine's last heartbeat (0 = beat this epoch).
    heartbeat_age: Vec<u64>,
    /// Advertised state, recomputed each observation.
    states: Vec<HealthState>,
    /// Epoch at which each machine was advertised down, while it is.
    down_since: Vec<Option<u64>>,
    /// Completed outages, as advertised-down → advertised-up epochs.
    recovery_epochs: Vec<u64>,
    /// Observations made so far (the health model's own epoch clock).
    epoch: u64,
}

dimetrodon_ckpt::state! {
    HealthModel {
        persisted: timeout_epochs, heartbeat_age, states, down_since, recovery_epochs, epoch;
        derived: ;
        check: HealthModel::check_restored;
    }
}

/// One tag byte: 0 up, 1 degraded, 2 down.
impl dimetrodon_ckpt::State for HealthState {
    const SCHEMA: u64 = dimetrodon_ckpt::fnv1a64(b"HealthState Up Degraded Down");

    fn save(&self, enc: &mut dimetrodon_ckpt::Enc) {
        enc.u8(match self {
            HealthState::Up => 0,
            HealthState::Degraded => 1,
            HealthState::Down => 2,
        });
    }

    fn load(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        *self = match dec.u8()? {
            0 => HealthState::Up,
            1 => HealthState::Degraded,
            2 => HealthState::Down,
            tag => {
                return Err(dimetrodon_ckpt::CkptError::Malformed(format!(
                    "unknown health-state tag {tag}"
                )))
            }
        };
        Ok(())
    }
}

impl HealthModel {
    /// A model for `machines` machines, all initially up.
    pub fn new(machines: usize, timeout_epochs: u64) -> HealthModel {
        HealthModel {
            timeout_epochs,
            heartbeat_age: vec![0; machines],
            states: vec![HealthState::Up; machines],
            down_since: vec![None; machines],
            recovery_epochs: Vec::new(),
            epoch: 0,
        }
    }

    /// The restored per-machine vectors must agree in length.
    fn check_restored(&self) -> Result<(), dimetrodon_ckpt::CkptError> {
        let machines = self.heartbeat_age.len();
        dimetrodon_ckpt::check_len("health states", self.states.len(), machines)?;
        dimetrodon_ckpt::check_len("health down-since entries", self.down_since.len(), machines)
    }

    /// Feeds one epoch's ground truth: `alive[m]` is whether machine `m`
    /// heartbeats this epoch, `impaired[m]` whether a live machine should
    /// advertise degraded. Call once per epoch, before routing.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not cover every machine.
    pub fn observe(&mut self, alive: &[bool], impaired: &[bool]) {
        assert_eq!(alive.len(), self.states.len(), "alive slice must cover the fleet");
        assert_eq!(impaired.len(), self.states.len(), "impaired slice must cover the fleet");
        for m in 0..self.states.len() {
            if alive[m] {
                self.heartbeat_age[m] = 0;
            } else {
                self.heartbeat_age[m] += 1;
            }
            let next = if self.heartbeat_age[m] > self.timeout_epochs {
                HealthState::Down
            } else if impaired[m] && alive[m] {
                HealthState::Degraded
            } else {
                HealthState::Up
            };
            match (self.states[m], next) {
                (HealthState::Down, HealthState::Down) => {}
                (_, HealthState::Down) => self.down_since[m] = Some(self.epoch),
                (HealthState::Down, _) => {
                    if let Some(since) = self.down_since[m].take() {
                        self.recovery_epochs.push(self.epoch - since);
                    }
                }
                _ => {}
            }
            self.states[m] = next;
        }
        self.epoch += 1;
    }

    /// The advertised state of every machine, indexed by machine.
    pub fn states(&self) -> &[HealthState] {
        &self.states
    }

    /// Whether any machine advertises something other than up — the
    /// epoch-class flag the QoS split keys on.
    pub fn any_not_up(&self) -> bool {
        self.states.iter().any(|&s| s != HealthState::Up)
    }

    /// Machines currently advertised up or degraded (routable).
    pub fn routable(&self) -> usize {
        self.states.iter().filter(|&&s| s != HealthState::Down).count()
    }

    /// Completed outages so far, each as whole epochs from
    /// advertised-down to advertised-up.
    pub fn recovery_epochs(&self) -> &[u64] {
        &self.recovery_epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_lags_the_crash_by_the_timeout() {
        let mut h = HealthModel::new(2, 1);
        let quiet = [false, false];
        h.observe(&[true, false], &quiet);
        assert_eq!(
            h.states(),
            &[HealthState::Up, HealthState::Up],
            "one missed heartbeat is within the timeout"
        );
        h.observe(&[true, false], &quiet);
        assert_eq!(
            h.states(),
            &[HealthState::Up, HealthState::Down],
            "the second missed heartbeat exceeds a 1-epoch timeout"
        );
        assert_eq!(h.routable(), 1);
        assert!(h.any_not_up());
    }

    #[test]
    fn recovery_is_logged_from_advertised_down_to_advertised_up() {
        let mut h = HealthModel::new(1, 0);
        h.observe(&[false], &[false]); // epoch 0: down immediately (timeout 0)
        h.observe(&[false], &[false]); // epoch 1: still down
        assert_eq!(h.states(), &[HealthState::Down]);
        assert!(h.recovery_epochs().is_empty(), "no recovery while down");
        h.observe(&[true], &[false]); // epoch 2: back
        assert_eq!(h.states(), &[HealthState::Up]);
        assert_eq!(h.recovery_epochs(), &[2], "down at epoch 0, up at epoch 2");
    }

    #[test]
    fn impairment_degrades_only_live_machines() {
        let mut h = HealthModel::new(2, 0);
        h.observe(&[true, false], &[true, true]);
        assert_eq!(h.states(), &[HealthState::Degraded, HealthState::Down]);
        assert_eq!(h.routable(), 1, "degraded machines stay routable");
        h.observe(&[true, true], &[false, false]);
        assert_eq!(h.states(), &[HealthState::Up, HealthState::Up]);
    }
}
