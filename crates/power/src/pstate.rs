//! Voltage/frequency operating points (P-states).
//!
//! The paper's baseline comparison sweeps DVFS setpoints on a Xeon E5520:
//! "DVFS scaling settings every 133 MHz with a minimum frequency of 1.6 GHz
//! (71% of maximum)" (§3.2). A [`PStateTable`] captures that ladder, with
//! voltage assumed linear in frequency across the ladder — the standard
//! first-order model that yields the quadratic power benefit VFS enjoys at
//! large temperature reductions (§3.4, Figure 4).

use std::fmt;

/// One voltage/frequency operating point.
///
/// # Examples
///
/// ```
/// use dimetrodon_power::PState;
///
/// let p0 = PState::new(2266, 1.10);
/// assert_eq!(p0.frequency_mhz(), 2266);
/// assert!((p0.frequency_ghz() - 2.266).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    frequency_mhz: u32,
    voltage: f64,
}

impl PState {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if frequency is zero or voltage is not positive and finite.
    pub fn new(frequency_mhz: u32, voltage: f64) -> Self {
        assert!(frequency_mhz > 0, "frequency must be positive");
        assert!(
            voltage > 0.0 && voltage.is_finite(),
            "voltage must be positive and finite, got {voltage}"
        );
        PState {
            frequency_mhz,
            voltage,
        }
    }

    /// Clock frequency in MHz.
    pub fn frequency_mhz(self) -> u32 {
        self.frequency_mhz
    }

    /// Clock frequency in GHz.
    pub fn frequency_ghz(self) -> f64 {
        self.frequency_mhz as f64 / 1000.0
    }

    /// Core supply voltage in volts.
    pub fn voltage(self) -> f64 {
        self.voltage
    }
}

impl fmt::Display for PState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz @ {:.3} V", self.frequency_mhz, self.voltage)
    }
}

/// Index of a P-state within a [`PStateTable`]; 0 is the fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PStateId(pub usize);

/// Checkpointed as its index. The owning machine checks the index against
/// its table after loading.
impl dimetrodon_ckpt::State for PStateId {
    const SCHEMA: u64 = dimetrodon_ckpt::fnv1a64(b"PStateId");
    fn save(&self, enc: &mut dimetrodon_ckpt::Enc) {
        self.0.save(enc);
    }
    fn load(
        &mut self,
        dec: &mut dimetrodon_ckpt::Dec<'_>,
    ) -> Result<(), dimetrodon_ckpt::CkptError> {
        self.0.load(dec)
    }
}

/// An ordered ladder of operating points, fastest first.
///
/// # Examples
///
/// ```
/// use dimetrodon_power::PStateTable;
///
/// let table = PStateTable::xeon_e5520();
/// assert_eq!(table.fastest().frequency_mhz(), 2266);
/// assert_eq!(table.slowest().frequency_mhz(), 1600);
/// // The paper: minimum frequency is 71% of maximum.
/// let ratio = table.slowest().frequency_ghz() / table.fastest().frequency_ghz();
/// assert!((ratio - 0.71).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
}

impl PStateTable {
    /// Creates a table from operating points.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or not strictly descending in both
    /// frequency and voltage.
    pub fn new(states: Vec<PState>) -> Self {
        assert!(!states.is_empty(), "P-state table cannot be empty");
        for pair in states.windows(2) {
            assert!(
                pair[0].frequency_mhz > pair[1].frequency_mhz,
                "P-states must be strictly descending in frequency"
            );
            assert!(
                pair[0].voltage >= pair[1].voltage,
                "P-states must be non-increasing in voltage"
            );
        }
        PStateTable { states }
    }

    /// The E5520 ladder from the paper's test machine: 2.26 GHz down to
    /// 1.60 GHz in 133 MHz steps, with voltage scaling linearly from
    /// 1.10 V to 0.85 V.
    pub fn xeon_e5520() -> Self {
        let freqs = [2266u32, 2133, 2000, 1866, 1733, 1600];
        let (f_max, f_min) = (2266.0, 1600.0);
        let (v_max, v_min) = (1.10, 0.85);
        let states = freqs
            .iter()
            .map(|&f| {
                let frac = (f as f64 - f_min) / (f_max - f_min);
                PState::new(f, v_min + frac * (v_max - v_min))
            })
            .collect();
        PStateTable::new(states)
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the table is empty (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The operating point at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: PStateId) -> PState {
        self.states[id.0]
    }

    /// The fastest (index 0) operating point.
    pub fn fastest(&self) -> PState {
        self.states[0]
    }

    /// The slowest operating point.
    #[expect(
        clippy::expect_used,
        reason = "the builder rejects empty tables, so a built table has a last entry"
    )]
    pub fn slowest(&self) -> PState {
        *self.states.last().expect("table is non-empty")
    }

    /// Iterates over `(id, state)` pairs, fastest first.
    pub fn iter(&self) -> impl Iterator<Item = (PStateId, PState)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, &s)| (PStateId(i), s))
    }

    /// Execution speed of `id` relative to the fastest state, in `(0, 1]`.
    /// CPU-bound work scales linearly with clock frequency.
    pub fn relative_speed(&self, id: PStateId) -> f64 {
        self.state(id).frequency_ghz() / self.fastest().frequency_ghz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5520_table_matches_paper() {
        let t = PStateTable::xeon_e5520();
        assert_eq!(t.len(), 6);
        assert_eq!(t.fastest().frequency_mhz(), 2266);
        assert_eq!(t.slowest().frequency_mhz(), 1600);
        // Steps of ~133 MHz.
        let freqs: Vec<u32> = t.iter().map(|(_, s)| s.frequency_mhz()).collect();
        for pair in freqs.windows(2) {
            let step = pair[0] - pair[1];
            assert!((132..=134).contains(&step), "step {step}");
        }
    }

    #[test]
    fn voltage_scales_with_frequency() {
        let t = PStateTable::xeon_e5520();
        assert!((t.fastest().voltage() - 1.10).abs() < 1e-9);
        assert!((t.slowest().voltage() - 0.85).abs() < 1e-9);
        let volts: Vec<f64> = t.iter().map(|(_, s)| s.voltage()).collect();
        assert!(volts.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn relative_speed_is_frequency_ratio() {
        let t = PStateTable::xeon_e5520();
        assert_eq!(t.relative_speed(PStateId(0)), 1.0);
        let slowest_id = PStateId(t.len() - 1);
        assert!((t.relative_speed(slowest_id) - 1600.0 / 2266.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_table_panics() {
        PStateTable::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "descending in frequency")]
    fn unsorted_table_panics() {
        PStateTable::new(vec![PState::new(1000, 0.9), PState::new(2000, 1.1)]);
    }

    #[test]
    #[should_panic(expected = "voltage must be positive")]
    fn bad_voltage_panics() {
        PState::new(1000, 0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PState::new(2266, 1.1).to_string(), "2266 MHz @ 1.100 V");
    }
}
