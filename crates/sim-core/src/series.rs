//! Time-series recording and reduction.
//!
//! Experiments observe the simulated machine through sampled traces —
//! temperature three hundred times a second, power three times a
//! millisecond. [`TimeSeries`] stores `(time, value)` samples and provides
//! the reductions the paper's methodology needs: the mean over the last 30
//! seconds of a run (§3.4's steady-state measurement) and time-weighted
//! integration (energy from a power trace).

use crate::time::{SimDuration, SimTime};

/// An append-only series of `(time, value)` samples with non-decreasing
/// timestamps.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::{SimTime, TimeSeries};
///
/// let mut power = TimeSeries::new("power_w");
/// power.push(SimTime::from_millis(0), 10.0);
/// power.push(SimTime::from_millis(500), 20.0);
/// power.push(SimTime::from_millis(1000), 20.0);
/// // 10 W for 0.5 s, then 20 W for 0.5 s = 15 J.
/// assert!((power.integrate_step() - 15.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

// A journaled series is checked to be one that `push` could have built.
dimetrodon_ckpt::state! {
    TimeSeries {
        persisted: name, times, values;
        derived: ;
        check: TimeSeries::check_loaded;
    }
}

impl TimeSeries {
    /// Creates an empty series with a descriptive name (used in reports).
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an empty series with room for `capacity` samples, for
    /// callers that know the sampling schedule up front.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// Reserves room for at least `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.values.reserve(additional);
    }

    /// `Malformed` unless every time has a value, times never decrease
    /// and no value is NaN.
    fn check_loaded(&self) -> Result<(), dimetrodon_ckpt::CkptError> {
        let paired = self.times.len() == self.values.len();
        let ordered = self.times.windows(2).all(|pair| pair[0] <= pair[1]);
        if paired && ordered && !self.values.iter().any(|v| v.is_nan()) {
            Ok(())
        } else {
            Err(dimetrodon_ckpt::CkptError::Malformed(
                "unpaired, unordered or NaN series sample".into(),
            ))
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the last sample's time or `value` is NaN,
    /// and, in builds with `debug_assertions` (debug and test builds), if
    /// `value` is infinite.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(at >= last, "sample at {at} precedes last sample at {last}");
        }
        assert!(!value.is_nan(), "NaN sample in series {}", self.name);
        debug_assert!(
            value.is_finite(),
            "non-finite sample {value} in series {}",
            self.name
        );
        self.times.push(at);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        Some((*self.times.last()?, *self.values.last()?))
    }

    /// The unweighted mean of all sample values.
    ///
    /// Use [`TimeSeries::mean_over`] for the measurement-window semantics
    /// of the paper; this plain mean is appropriate for uniformly sampled
    /// series.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// The minimum sample value.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// The maximum sample value.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Whether every sample value is finite (no NaN or infinities).
    ///
    /// [`TimeSeries::push`] already rejects NaN unconditionally and all
    /// non-finite values in builds with `debug_assertions`; this check lets
    /// release-mode consumers — the fault-injection property tests in
    /// particular — assert the "finite series" invariant explicitly.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// The unweighted mean of samples with `time >= from`.
    ///
    /// This is the paper's §3.4 measurement: "the average temperature over
    /// the last 30 seconds of a 300 second execution" is
    /// `mean_over(SimTime::from_secs(270))`.
    pub fn mean_over(&self, from: SimTime) -> Option<f64> {
        let tail = &self.values[self.start_of(from)..];
        if tail.is_empty() {
            return None;
        }
        Some(tail.iter().sum::<f64>() / tail.len() as f64)
    }

    /// The samples with `time >= from`, in order, as a series of the same
    /// name: the window [`TimeSeries::mean_over`] averages, so the copy's
    /// `mean_over(from)` is bit-identical to this series'.
    pub fn since(&self, from: SimTime) -> TimeSeries {
        let start = self.start_of(from);
        TimeSeries {
            name: self.name.clone(),
            times: self.times[start..].to_vec(),
            values: self.values[start..].to_vec(),
        }
    }

    /// Index of the first sample with `time >= from`.
    fn start_of(&self, from: SimTime) -> usize {
        self.times.partition_point(|&t| t < from)
    }

    /// Integrates the series as a step function (each value holds until the
    /// next sample). For a power trace in watts this yields joules.
    ///
    /// Returns `0.0` for series with fewer than two samples.
    pub fn integrate_step(&self) -> f64 {
        self.iter()
            .zip(self.times.iter().skip(1))
            .map(|((t0, v), &t1)| v * (t1 - t0).as_secs_f64())
            .sum()
    }

    /// Duration covered by the series (first to last sample).
    pub fn span(&self) -> SimDuration {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn series(samples: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("test");
        for &(ms, v) in samples {
            s.push(SimTime::from_millis(ms), v);
        }
        s
    }

    #[test]
    fn mean_over_window() {
        let s = series(&[(0, 1.0), (100, 2.0), (200, 3.0), (300, 4.0)]);
        assert_eq!(s.mean_over(SimTime::from_millis(200)), Some(3.5));
        assert_eq!(s.mean_over(SimTime::from_millis(0)), Some(2.5));
        assert_eq!(s.mean_over(SimTime::from_millis(301)), None);
    }

    #[test]
    fn all_finite_flags_infinities() {
        let s = series(&[(0, 1.0), (100, 2.0)]);
        assert!(s.all_finite());
        assert!(TimeSeries::new("empty").all_finite(), "vacuously true");
        let mut s = series(&[(0, 1.0)]);
        let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.push(SimTime::from_millis(100), f64::INFINITY);
        }));
        if cfg!(debug_assertions) {
            // Armed: push rejects the infinity before storing it.
            assert!(pushed.is_err(), "debug push must reject infinity");
            assert!(s.all_finite() && s.len() == 1);
        } else {
            // Infinity slips past the release-mode push (only NaN is
            // rejected unconditionally); all_finite must still catch it.
            assert!(pushed.is_ok());
            assert!(!s.all_finite());
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite sample")]
    fn infinite_sample_is_rejected() {
        TimeSeries::new("t").push(SimTime::ZERO, f64::INFINITY);
    }

    #[test]
    fn step_integration_is_left_rectangle() {
        let s = series(&[(0, 10.0), (500, 20.0), (1000, 0.0)]);
        assert!((s.integrate_step() - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "precedes last sample")]
    fn push_rejects_time_travel() {
        let mut s = TimeSeries::new("t");
        s.push(SimTime::from_millis(10), 0.0);
        s.push(SimTime::from_millis(5), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn push_rejects_nan() {
        TimeSeries::new("t").push(SimTime::ZERO, f64::NAN);
    }

    #[test]
    fn min_max_last_span() {
        let s = series(&[(0, 3.0), (100, 1.0), (200, 2.0)]);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.last(), Some((SimTime::from_millis(200), 2.0)));
        assert_eq!(s.span(), SimDuration::from_millis(200));
    }

    #[test]
    fn empty_series_reductions() {
        let s = TimeSeries::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.integrate_step(), 0.0);
        assert_eq!(s.span(), SimDuration::ZERO);
    }

    #[test]
    fn a_saved_series_loads_back_and_one_push_would_reject_is_typed() {
        use dimetrodon_ckpt::{CkptError, Dec, Enc, State};
        let round_trip = |saved: &TimeSeries| {
            let mut enc = Enc::new();
            saved.save(&mut enc);
            let mut loaded = TimeSeries::default();
            loaded
                .load(&mut Dec::new(&enc.into_bytes()))
                .map(|()| loaded)
        };
        let saved = series(&[(0, 1.0), (100, -0.5), (100, 3.5)]);
        assert_eq!(round_trip(&saved), Ok(saved.clone()));
        // An unpaired, an out-of-order and a NaN sample.
        let forgeries: [fn(&mut TimeSeries); 3] = [
            |s| s.values.truncate(2),
            |s| s.times.swap(0, 1),
            |s| s.values[0] = f64::NAN,
        ];
        for forge in forgeries {
            let mut forged = saved.clone();
            forge(&mut forged);
            assert!(matches!(round_trip(&forged), Err(CkptError::Malformed(_))));
        }
    }

    proptest! {
        /// Step integral of a constant series equals constant * span.
        #[test]
        fn prop_constant_integral(v in -1e3f64..1e3, n in 2usize..50) {
            let mut s = TimeSeries::new("c");
            for i in 0..n {
                s.push(SimTime::from_millis(i as u64 * 100), v);
            }
            let expected = v * s.span().as_secs_f64();
            prop_assert!((s.integrate_step() - expected).abs() < 1e-9);
        }

        /// mean_over(first sample time) equals the plain mean.
        #[test]
        fn prop_mean_over_start_is_mean(values in prop::collection::vec(-1e3f64..1e3, 1..50)) {
            let mut s = TimeSeries::new("m");
            for (i, &v) in values.iter().enumerate() {
                s.push(SimTime::from_millis(i as u64), v);
            }
            let a = s.mean().unwrap();
            let b = s.mean_over(SimTime::ZERO).unwrap();
            prop_assert!((a - b).abs() < 1e-9);
        }

        /// since(from) keeps exactly the samples at or after `from`, in
        /// order and under the same name, and averages them bit for bit
        /// as mean_over(from) does on the whole series.
        #[test]
        fn prop_since_is_the_mean_over_window(
            values in prop::collection::vec(-1e3f64..1e3, 1..50),
            cut_ms in 0u64..60,
        ) {
            let mut s = TimeSeries::new("w");
            for (i, &v) in values.iter().enumerate() {
                s.push(SimTime::from_millis(i as u64), v);
            }
            let from = SimTime::from_millis(cut_ms);
            let window = s.since(from);
            prop_assert_eq!(window.name(), "w");
            let kept: Vec<_> = s.iter().filter(|&(t, _)| t >= from).collect();
            prop_assert_eq!(window.iter().collect::<Vec<_>>(), kept);
            prop_assert_eq!(
                window.mean_over(from).map(f64::to_bits),
                s.mean_over(from).map(f64::to_bits)
            );
        }

        /// min <= mean <= max for any non-empty series.
        #[test]
        fn prop_mean_between_extremes(values in prop::collection::vec(-1e3f64..1e3, 1..50)) {
            let mut s = TimeSeries::new("m");
            for (i, &v) in values.iter().enumerate() {
                s.push(SimTime::from_millis(i as u64), v);
            }
            let (mean, min, max) = (s.mean().unwrap(), s.min().unwrap(), s.max().unwrap());
            prop_assert!(min <= mean + 1e-12 && mean <= max + 1e-12);
        }
    }
}
