//! Availability-under-failure accounting: how much of a cluster was
//! actually there, and how fast it came back.
//!
//! The accumulator is deliberately dumb — push one capacity sample per
//! control epoch and one duration per completed recovery, read summary
//! statistics at the end — so the simulation layer stays the only place
//! that decides *what* counts as capacity or recovery. Everything is
//! plain arithmetic over the pushed samples; two accumulators fed the
//! same samples in the same order report bit-identical summaries.

/// Accumulates per-epoch available-capacity samples and completed
/// recovery durations for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Availability {
    capacity_sum: f64,
    capacity_min: Option<f64>,
    epochs: u64,
    recoveries_s: Vec<f64>,
}

dimetrodon_ckpt::state! {
    Availability { persisted: capacity_sum, capacity_min, epochs, recoveries_s; derived: ; }
}

impl Availability {
    /// A fresh accumulator with no samples.
    pub fn new() -> Availability {
        Availability::default()
    }

    /// Records one epoch's available capacity as a fraction of nominal
    /// (1.0 = every machine up and unthrottled by failures).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is not finite in `[0, 1]`.
    pub fn record_capacity(&mut self, fraction: f64) {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "capacity fraction must be in [0, 1], got {fraction}"
        );
        self.capacity_sum += fraction;
        self.capacity_min = Some(match self.capacity_min {
            Some(min) => min.min(fraction),
            None => fraction,
        });
        self.epochs += 1;
    }

    /// Records one completed outage: the time from a machine being
    /// declared down to it being declared up again, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not finite and non-negative.
    pub fn record_recovery_secs(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "recovery duration must be finite and non-negative, got {seconds}"
        );
        self.recoveries_s.push(seconds);
    }

    /// Epochs sampled so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Mean available-capacity fraction over the sampled epochs; `None`
    /// before any sample.
    pub fn capacity_mean(&self) -> Option<f64> {
        (self.epochs > 0).then(|| self.capacity_sum / self.epochs as f64)
    }

    /// Worst single-epoch capacity fraction; `None` before any sample.
    pub fn capacity_min(&self) -> Option<f64> {
        self.capacity_min
    }

    /// Completed recoveries recorded so far.
    pub fn recoveries(&self) -> u64 {
        self.recoveries_s.len() as u64
    }

    /// Mean time-to-recover, seconds; `None` when nothing recovered.
    pub fn recovery_mean_s(&self) -> Option<f64> {
        if self.recoveries_s.is_empty() {
            return None;
        }
        Some(self.recoveries_s.iter().sum::<f64>() / self.recoveries_s.len() as f64)
    }

    /// Longest time-to-recover, seconds; `None` when nothing recovered.
    pub fn recovery_max_s(&self) -> Option<f64> {
        self.recoveries_s
            .iter()
            .copied()
            .fold(None, |acc: Option<f64>, v| Some(acc.map_or(v, |a| a.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_reports_nothing() {
        let a = Availability::new();
        assert_eq!(a.epochs(), 0);
        assert_eq!(a.capacity_mean(), None);
        assert_eq!(a.capacity_min(), None);
        assert_eq!(a.recoveries(), 0);
        assert_eq!(a.recovery_mean_s(), None);
        assert_eq!(a.recovery_max_s(), None);
    }

    #[test]
    fn capacity_mean_and_min_track_samples() {
        let mut a = Availability::new();
        for f in [1.0, 0.5, 0.75, 1.0] {
            a.record_capacity(f);
        }
        assert_eq!(a.epochs(), 4);
        assert_eq!(a.capacity_mean(), Some(0.8125));
        assert_eq!(a.capacity_min(), Some(0.5));
    }

    #[test]
    fn recovery_stats_track_durations() {
        let mut a = Availability::new();
        a.record_recovery_secs(10.0);
        a.record_recovery_secs(4.0);
        a.record_recovery_secs(16.0);
        assert_eq!(a.recoveries(), 3);
        assert_eq!(a.recovery_mean_s(), Some(10.0));
        assert_eq!(a.recovery_max_s(), Some(16.0));
    }

    #[test]
    #[should_panic(expected = "capacity fraction")]
    fn out_of_range_capacity_panics() {
        Availability::new().record_capacity(1.5);
    }
}
