//! Core execution states and activity factors.

use std::fmt;

/// An activity factor in `[0, 1]`: the fraction of peak switching activity
/// a running workload exercises.
///
/// `cpuburn` is by construction ≈ 1.0; the SPEC-like workloads sit lower
/// (astar, the coolest in Table 1, around 0.6 of cpuburn's heat).
///
/// # Examples
///
/// ```
/// use dimetrodon_power::Activity;
///
/// let a = Activity::new(0.8);
/// assert_eq!(a.value(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Activity(f64);

impl Activity {
    /// Peak activity (cpuburn-class).
    pub const MAX: Activity = Activity(1.0);

    /// Creates an activity factor.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside `[0, 1]` or not finite.
    pub fn new(value: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&value),
            "activity must be in [0, 1], got {value}"
        );
        Activity(value)
    }

    /// The raw factor.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Default for Activity {
    /// A moderate default activity (0.5).
    fn default() -> Self {
        Activity(0.5)
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

/// What a hardware core is doing, for power purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoreState {
    /// Executing instructions with the given activity factor.
    Active {
        /// Switching activity of the running code.
        activity: Activity,
    },
    /// Halted in the C1E low-power state: clocks stopped, voltage dropped.
    /// This is what running the kernel idle thread reaches on the paper's
    /// machine (and C1E "does not flush the processor cache", §3.2, so
    /// there is no wake-up performance penalty to model beyond the
    /// microsecond-scale transition).
    IdleC1e,
    /// Halted in a deep C6-class state: power gated, caches flushed.
    /// Nearly free to hold but expensive to leave — §2.2 flags exactly
    /// this trade ("microarchitectural state may play a larger role
    /// (e.g., if a low power state flushes cache lines)"). Not available
    /// on the paper's platform; used by the deep-idle extension.
    IdleC6,
    /// Spinning in a `nop` loop: the §2.1 fallback for processors without
    /// usable low-power idle states. Clocks keep running; only functional
    /// unit activity drops.
    IdleNop,
}

impl CoreState {
    /// Shorthand for an active state.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn active(activity: f64) -> Self {
        CoreState::Active {
            activity: Activity::new(activity),
        }
    }

    /// Whether the core is executing instructions.
    pub fn is_active(self) -> bool {
        matches!(self, CoreState::Active { .. })
    }
}

/// A tag byte, plus the activity factor's IEEE-754 bits for `Active`.
/// Loading rejects an unknown tag and an activity outside `[0, 1]`.
impl dimetrodon_ckpt::State for CoreState {
    const SCHEMA: u64 = dimetrodon_ckpt::fnv1a64(b"CoreState Active(f64) IdleC1e IdleC6 IdleNop");

    fn save(&self, enc: &mut dimetrodon_ckpt::Enc) {
        match *self {
            CoreState::Active { activity } => {
                enc.u8(0);
                enc.f64(activity.value());
            }
            CoreState::IdleC1e => enc.u8(1),
            CoreState::IdleC6 => enc.u8(2),
            CoreState::IdleNop => enc.u8(3),
        }
    }

    fn load(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        use dimetrodon_ckpt::CkptError::Malformed;
        *self = match dec.u8()? {
            0 => {
                let value = dec.f64()?;
                if !(0.0..=1.0).contains(&value) {
                    return Err(Malformed(format!("activity factor {value} outside [0, 1]")));
                }
                CoreState::Active {
                    activity: Activity(value),
                }
            }
            1 => CoreState::IdleC1e,
            2 => CoreState::IdleC6,
            3 => CoreState::IdleNop,
            tag => return Err(Malformed(format!("unknown core-state tag {tag}"))),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_bounds() {
        assert_eq!(Activity::new(0.0).value(), 0.0);
        assert_eq!(Activity::new(1.0).value(), 1.0);
        assert_eq!(Activity::MAX.value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "activity must be in [0, 1]")]
    fn activity_rejects_out_of_range() {
        Activity::new(1.01);
    }

    #[test]
    #[should_panic(expected = "activity must be in [0, 1]")]
    fn activity_rejects_nan() {
        Activity::new(f64::NAN);
    }

    #[test]
    fn core_state_queries() {
        assert!(CoreState::active(0.5).is_active());
        assert!(!CoreState::IdleC1e.is_active());
        assert!(!CoreState::IdleC6.is_active());
        assert!(!CoreState::IdleNop.is_active());
    }

    #[test]
    fn display_is_percent() {
        assert_eq!(Activity::new(0.75).to_string(), "75%");
    }
}
