//! Energy accounting and the simulated current-clamp power meter.
//!
//! The paper instruments the processor power leads with a Fluke i410
//! current clamp read by a Keithley 2701 at three samples per millisecond,
//! with roughly 3.5 % clamp accuracy (§3.2–3.3). [`EnergyMeter`] is the
//! exact ground truth the simulator knows; [`PowerMeter`] is the noisy
//! instrument the §3.3 energy-validation experiment reads, with a per-trial
//! calibration bias plus per-sample noise so that repeated trials scatter
//! the way the paper's do (97.6 %–103.7 % of race-to-idle energy).

use dimetrodon_sim_core::{SimDuration, SimRng, SimTime, TimeSeries};

/// Exact integrator of piecewise-constant power.
///
/// # Examples
///
/// ```
/// use dimetrodon_power::EnergyMeter;
/// use dimetrodon_sim_core::SimDuration;
///
/// let mut meter = EnergyMeter::new();
/// meter.accumulate(50.0, SimDuration::from_secs(2));
/// assert_eq!(meter.joules(), 100.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    joules: f64,
    elapsed: SimDuration,
}

dimetrodon_ckpt::state! { EnergyMeter { persisted: joules, elapsed; derived: ; } }

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `watts` held for `dt` to the total.
    ///
    /// # Panics
    ///
    /// Panics if `watts` is negative or not finite.
    pub fn accumulate(&mut self, watts: f64, dt: SimDuration) {
        assert!(watts >= 0.0 && watts.is_finite(), "bad power {watts}");
        self.joules += watts * dt.as_secs_f64();
        self.elapsed += dt;
    }

    /// Total accumulated energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total accumulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Mean power over the accumulated interval, in watts (zero if no time
    /// has accumulated).
    pub fn mean_watts(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.joules / secs
        }
    }

    /// Resets the meter to zero.
    pub fn reset(&mut self) {
        *self = EnergyMeter::default();
    }
}

/// A simulated clamp-style power meter: periodic samples of the true
/// power with a fixed per-trial gain error and small per-sample noise.
///
/// Create one per trial; the gain error is drawn at construction, which is
/// how clamp miscalibration behaves (constant within a trial, varying
/// across setups).
#[derive(Debug, Clone)]
pub struct PowerMeter {
    series: TimeSeries,
    gain: f64,
    sample_noise_std: f64,
    interval: SimDuration,
    next_sample_at: SimTime,
    rng: SimRng,
}

impl PowerMeter {
    /// The paper's sampling interval: three samples per millisecond.
    pub const PAPER_INTERVAL: SimDuration = SimDuration::from_nanos(333_333);

    /// Creates a meter sampling every `interval`.
    ///
    /// `gain_std` is the standard deviation of the per-trial multiplicative
    /// calibration error (the paper's "clamp accuracy (approximately
    /// 3.5%)" corresponds to `gain_std ≈ 0.0175`, a ±2σ band of ±3.5 %).
    /// `sample_noise_std` is the per-sample multiplicative noise.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or either noise parameter is negative.
    pub fn new(interval: SimDuration, gain_std: f64, sample_noise_std: f64, rng: &mut SimRng) -> Self {
        assert!(!interval.is_zero(), "sample interval must be positive");
        assert!(gain_std >= 0.0 && sample_noise_std >= 0.0, "noise must be non-negative");
        let mut rng = rng.fork(0x4d45_5445);
        let gain = 1.0 + rng.normal(0.0, gain_std);
        PowerMeter {
            series: TimeSeries::new("package_power_w"),
            gain,
            sample_noise_std,
            interval,
            next_sample_at: SimTime::ZERO,
            rng,
        }
    }

    /// A meter with the paper's instrumentation characteristics.
    pub fn paper_instrument(rng: &mut SimRng) -> Self {
        PowerMeter::new(Self::PAPER_INTERVAL, 0.0175, 0.004, rng)
    }

    /// An ideal meter: no gain error, no sample noise (useful in tests and
    /// for ground-truth traces like Figure 1).
    pub fn ideal(interval: SimDuration, rng: &mut SimRng) -> Self {
        PowerMeter::new(interval, 0.0, 0.0, rng)
    }

    /// Observes the true power `watts` being constant over
    /// `[now, now + dt)`, recording any samples that fall in the window.
    pub fn observe(&mut self, now: SimTime, dt: SimDuration, watts: f64) {
        let end = now + dt;
        while self.next_sample_at < end {
            if self.next_sample_at >= now {
                let noise = 1.0 + self.rng.normal(0.0, self.sample_noise_std);
                let reading = (watts * self.gain * noise).max(0.0);
                self.series.push(self.next_sample_at, reading);
            }
            self.next_sample_at += self.interval;
        }
    }

    /// The recorded samples.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Energy estimate from the samples: mean sample power × sampled span,
    /// which is how the paper's instrumentation integrates.
    pub fn measured_joules(&self) -> f64 {
        match self.series.mean() {
            Some(mean) => {
                // Samples are uniform, so span + one interval covers the
                // observation window.
                let span = self.series.span() + self.interval;
                mean * span.as_secs_f64()
            }
            None => 0.0,
        }
    }

    /// The per-trial gain error this meter was constructed with
    /// (diagnostic; a real experimenter cannot see this).
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn energy_meter_accumulates() {
        let mut m = EnergyMeter::new();
        m.accumulate(10.0, SimDuration::from_secs(1));
        m.accumulate(20.0, SimDuration::from_millis(500));
        assert!((m.joules() - 20.0).abs() < 1e-12);
        assert_eq!(m.elapsed(), SimDuration::from_millis(1500));
        assert!((m.mean_watts() - 20.0 / 1.5).abs() < 1e-12);
        m.reset();
        assert_eq!(m.joules(), 0.0);
        assert_eq!(m.mean_watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "bad power")]
    fn energy_meter_rejects_negative() {
        EnergyMeter::new().accumulate(-1.0, SimDuration::from_secs(1));
    }

    #[test]
    fn ideal_meter_measures_exactly() {
        let mut rng = SimRng::new(1);
        let mut meter = PowerMeter::ideal(SimDuration::from_millis(1), &mut rng);
        // 50 W for 1 s.
        meter.observe(SimTime::ZERO, SimDuration::from_secs(1), 50.0);
        assert!((meter.measured_joules() - 50.0).abs() < 0.2);
    }

    #[test]
    fn ideal_meter_tracks_steps() {
        let mut rng = SimRng::new(2);
        let mut meter = PowerMeter::ideal(SimDuration::from_millis(1), &mut rng);
        meter.observe(SimTime::ZERO, SimDuration::from_secs(1), 10.0);
        meter.observe(SimTime::from_secs(1), SimDuration::from_secs(1), 30.0);
        // 10 J + 30 J.
        assert!((meter.measured_joules() - 40.0).abs() < 0.2);
    }

    #[test]
    fn paper_meter_sample_rate() {
        let mut rng = SimRng::new(3);
        let mut meter = PowerMeter::paper_instrument(&mut rng);
        meter.observe(SimTime::ZERO, SimDuration::from_millis(10), 50.0);
        // Three samples per millisecond for 10 ms.
        assert!((28..=32).contains(&meter.series().len()), "{}", meter.series().len());
    }

    #[test]
    fn gain_error_is_fixed_within_trial() {
        let mut rng = SimRng::new(4);
        let mut meter = PowerMeter::new(SimDuration::from_millis(1), 0.05, 0.0, &mut rng);
        meter.observe(SimTime::ZERO, SimDuration::from_millis(100), 100.0);
        let values: Vec<f64> = meter.series().iter().map(|(_, v)| v).collect();
        // No per-sample noise, so every reading equals 100 * gain.
        assert!(values.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        assert!((values[0] - 100.0 * meter.gain()).abs() < 1e-9);
    }

    #[test]
    fn gain_error_varies_across_trials() {
        let mut rng = SimRng::new(5);
        let gains: Vec<f64> = (0..8)
            .map(|_| PowerMeter::paper_instrument(&mut rng).gain())
            .collect();
        let distinct = gains
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-12)
            .count();
        assert!(distinct >= 6, "gains should differ across trials: {gains:?}");
    }

    #[test]
    fn observe_ignores_window_before_first_sample() {
        let mut rng = SimRng::new(6);
        let mut meter = PowerMeter::ideal(SimDuration::from_millis(10), &mut rng);
        // Window entirely between samples produces no readings but must
        // not panic or mis-order.
        meter.observe(SimTime::ZERO, SimDuration::from_millis(5), 10.0);
        meter.observe(SimTime::from_millis(5), SimDuration::from_millis(5), 20.0);
        meter.observe(SimTime::from_millis(10), SimDuration::from_millis(10), 30.0);
        assert_eq!(meter.series().len(), 2); // samples at 0 and 10 ms
    }

    #[test]
    fn observe_spanning_many_intervals_samples_each() {
        let mut rng = SimRng::new(7);
        let mut meter = PowerMeter::ideal(SimDuration::from_millis(1), &mut rng);
        // One long observation window covers many sample instants.
        meter.observe(SimTime::ZERO, SimDuration::from_millis(50), 42.0);
        assert_eq!(meter.series().len(), 50);
        assert!(meter.series().iter().all(|(_, v)| v == 42.0));
    }

    #[test]
    fn negative_reading_is_clamped_to_zero() {
        // Heavy noise on a near-zero signal must never produce negative
        // power readings.
        let mut rng = SimRng::new(8);
        let mut meter = PowerMeter::new(SimDuration::from_millis(1), 0.0, 5.0, &mut rng);
        meter.observe(SimTime::ZERO, SimDuration::from_secs(1), 0.01);
        assert!(meter.series().iter().all(|(_, v)| v >= 0.0));
    }

    proptest! {
        /// The measured energy of a constant signal is within the noise
        /// envelope of truth.
        #[test]
        fn prop_measured_energy_close(watts in 1.0f64..200.0, seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            let mut meter = PowerMeter::paper_instrument(&mut rng);
            meter.observe(SimTime::ZERO, SimDuration::from_secs(1), watts);
            let truth = watts * 1.0;
            let measured = meter.measured_joules();
            // Gain std 1.75% -> 5 sigma bound ~ 9%.
            prop_assert!((measured - truth).abs() < truth * 0.09,
                "measured {} vs truth {}", measured, truth);
        }

        /// EnergyMeter is additive: splitting an interval changes nothing.
        #[test]
        fn prop_energy_additive(watts in 0.0f64..500.0, ms in 1u64..10_000) {
            let mut a = EnergyMeter::new();
            a.accumulate(watts, SimDuration::from_millis(ms));
            let mut b = EnergyMeter::new();
            let half = SimDuration::from_millis(ms) / 2;
            b.accumulate(watts, half);
            b.accumulate(watts, SimDuration::from_millis(ms) - half);
            prop_assert!((a.joules() - b.joules()).abs() < 1e-9);
        }
    }
}
