//! Degradation-aware telemetry conditioning for the closed-loop
//! controllers.
//!
//! Real digital thermal sensors are noisy, quantized, occasionally stuck,
//! and intermittently absent; a feedback regulator fed raw readings can
//! chatter, wind up, or chase a latched register into the ground. The
//! [`TelemetryFilter`] sits between a [`Telemetry`](dimetrodon_faults::Telemetry)
//! source and a controller's integrator and classifies every raw reading
//! into one of three [`Signal`]s:
//!
//! * [`Signal::Reading`] — a conditioned value (median-of-N over the
//!   recent accepted window) the integrator may act on;
//! * [`Signal::Hold`] — the reading was non-finite or an outlier; the
//!   integrator must *freeze* (anti-windup: no motion on bad data);
//! * [`Signal::Lost`] — too many consecutive bad readings; telemetry is
//!   gone and the controller must fall back from preventive injection to
//!   the reactive thermal trip.
//!
//! The default configuration ([`TelemetryFilter::passthrough`]) has a
//! window of one, no outlier bound, and an unreachable dropout limit: it
//! reproduces the raw reading bit-for-bit and never holds or loses, so
//! un-hardened controllers behave exactly as before the fault layer
//! existed.

/// What a conditioned telemetry sample means for the control law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// A trustworthy (filtered) value; the integrator may move.
    Reading(f64),
    /// Bad sample — freeze the integrator this tick (anti-windup).
    Hold,
    /// Telemetry lost — fall back to the reactive safety net.
    Lost,
}

/// Median-of-N filtering, non-finite/outlier rejection, and a
/// consecutive-failure escalation counter.
#[derive(Debug, Clone)]
pub struct TelemetryFilter {
    /// Recent accepted readings, oldest first, at most `window_len` long.
    window: Vec<f64>,
    window_len: usize,
    /// Largest credible change versus the last filtered output; readings
    /// further away are rejected as outliers. `INFINITY` disables.
    max_step: f64,
    /// Consecutive bad readings before [`Signal::Lost`] is reported.
    dropout_limit: u32,
    bad_streak: u32,
    last_output: Option<f64>,
    rejected_outliers: u64,
    dropped_samples: u64,
}

impl TelemetryFilter {
    /// The transparent filter: window of 1, no outlier bound, dropout
    /// never escalates. Reproduces every finite reading bit-for-bit —
    /// the default for un-hardened controllers and the reason the
    /// zero-fault configuration stays bit-identical to the pre-fault
    /// code.
    pub fn passthrough() -> Self {
        TelemetryFilter {
            window: Vec::new(),
            window_len: 1,
            max_step: f64::INFINITY,
            dropout_limit: u32::MAX,
            bad_streak: 0,
            last_output: None,
            rejected_outliers: 0,
            dropped_samples: 0,
        }
    }

    /// The hardened profile used by the robustness experiment:
    /// median-of-5, 5 °C/tick outlier bound, loss declared after 5
    /// consecutive bad samples.
    pub fn hardened() -> Self {
        TelemetryFilter::passthrough().with_window(5).with_max_step(5.0).with_dropout_limit(5)
    }

    /// Overrides the median window length.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn with_window(mut self, len: usize) -> Self {
        assert!(len >= 1, "median window must be at least 1, got {len}");
        self.window_len = len;
        self
    }

    /// Overrides the outlier bound (maximum credible change per sample).
    ///
    /// # Panics
    ///
    /// Panics if `max_step` is NaN or not positive. `INFINITY` disables
    /// rejection.
    #[must_use]
    pub fn with_max_step(mut self, max_step: f64) -> Self {
        assert!(max_step > 0.0 && !max_step.is_nan(), "max step must be positive, got {max_step}");
        self.max_step = max_step;
        self
    }

    /// Overrides the consecutive-failure limit before loss is declared.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn with_dropout_limit(mut self, limit: u32) -> Self {
        assert!(limit >= 1, "dropout limit must be at least 1, got {limit}");
        self.dropout_limit = limit;
        self
    }

    /// Samples rejected as outliers so far.
    pub fn rejected_outliers(&self) -> u64 {
        self.rejected_outliers
    }

    /// Non-finite samples seen so far.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples
    }

    /// Whether the filter is currently in the lost state.
    pub fn is_lost(&self) -> bool {
        self.bad_streak >= self.dropout_limit
    }

    /// Classifies and conditions one raw reading.
    pub fn ingest(&mut self, raw: f64) -> Signal {
        if !raw.is_finite() {
            self.dropped_samples += 1;
            return self.bad_sample();
        }
        if let Some(last) = self.last_output {
            // A persistent level shift is a new truth, not an outlier:
            // once the streak reaches the dropout limit, finite readings
            // are accepted again rather than rejected forever.
            if (raw - last).abs() > self.max_step && self.bad_streak < self.dropout_limit {
                self.rejected_outliers += 1;
                return self.bad_sample();
            }
        }
        self.bad_streak = 0;
        self.window.push(raw);
        if self.window.len() > self.window_len {
            self.window.remove(0);
        }
        let filtered = median(&self.window);
        debug_assert!(
            filtered.is_finite(),
            "median of finite window must be finite"
        );
        self.last_output = Some(filtered);
        Signal::Reading(filtered)
    }

    fn bad_sample(&mut self) -> Signal {
        self.bad_streak = self.bad_streak.saturating_add(1);
        if self.bad_streak >= self.dropout_limit {
            Signal::Lost
        } else {
            Signal::Hold
        }
    }
}

impl Default for TelemetryFilter {
    fn default() -> Self {
        TelemetryFilter::passthrough()
    }
}

/// Median of a non-empty slice of finite values. For a window of one —
/// the passthrough configuration — this returns the sole element
/// untouched, preserving bit-identity.
fn median(values: &[f64]) -> f64 {
    if values.len() == 1 {
        return values[0];
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_reproduces_readings_bit_for_bit() {
        let mut f = TelemetryFilter::passthrough();
        for &v in &[42.0f64, 41.9, 100.0, -3.25, 0.1 + 0.2] {
            match f.ingest(v) {
                Signal::Reading(out) => assert_eq!(out.to_bits(), v.to_bits()),
                other => panic!("passthrough must never hold/lose, got {other:?}"),
            }
        }
        assert_eq!(f.rejected_outliers(), 0);
    }

    #[test]
    fn median_of_five_suppresses_a_spike() {
        let mut f = TelemetryFilter::passthrough().with_window(5);
        for v in [40.0, 40.2, 39.8, 40.1] {
            f.ingest(v);
        }
        // A single wild sample moves the median barely at all.
        match f.ingest(80.0) {
            Signal::Reading(out) => assert!((out - 40.1).abs() < 0.2, "median {out}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_finite_holds_then_escalates_to_lost() {
        let mut f = TelemetryFilter::passthrough().with_dropout_limit(3);
        assert_eq!(f.ingest(40.0), Signal::Reading(40.0));
        assert_eq!(f.ingest(f64::NAN), Signal::Hold);
        assert_eq!(f.ingest(f64::NAN), Signal::Hold);
        assert_eq!(f.ingest(f64::NAN), Signal::Lost);
        assert!(f.is_lost());
        assert_eq!(f.ingest(f64::INFINITY), Signal::Lost, "stays lost while data is bad");
        // Recovery: a finite reading re-arms the filter.
        assert_eq!(f.ingest(41.0), Signal::Reading(41.0));
        assert!(!f.is_lost());
        assert_eq!(f.dropped_samples(), 4);
    }

    #[test]
    fn outliers_are_held_but_level_shifts_are_eventually_accepted() {
        let mut f =
            TelemetryFilter::passthrough().with_max_step(5.0).with_dropout_limit(3);
        assert_eq!(f.ingest(40.0), Signal::Reading(40.0));
        // A 30-degree jump is first treated as a glitch...
        assert_eq!(f.ingest(70.0), Signal::Hold);
        assert_eq!(f.ingest(70.0), Signal::Hold);
        assert_eq!(f.ingest(70.0), Signal::Lost);
        // ...but if it persists past the limit it becomes the new truth.
        assert_eq!(f.ingest(70.0), Signal::Reading(70.0));
        assert_eq!(f.rejected_outliers(), 3);
    }

    #[test]
    fn builder_validation() {
        assert!(std::panic::catch_unwind(|| TelemetryFilter::passthrough().with_window(0)).is_err());
        assert!(std::panic::catch_unwind(|| TelemetryFilter::passthrough().with_max_step(0.0))
            .is_err());
        assert!(std::panic::catch_unwind(|| TelemetryFilter::passthrough().with_max_step(f64::NAN))
            .is_err());
        assert!(
            std::panic::catch_unwind(|| TelemetryFilter::passthrough().with_dropout_limit(0))
                .is_err()
        );
    }

    #[test]
    fn even_window_averages_the_middle_pair() {
        let mut f = TelemetryFilter::passthrough().with_window(4);
        f.ingest(1.0);
        f.ingest(2.0);
        f.ingest(3.0);
        match f.ingest(4.0) {
            Signal::Reading(out) => assert_eq!(out, 2.5),
            other => panic!("unexpected {other:?}"),
        }
    }
}
