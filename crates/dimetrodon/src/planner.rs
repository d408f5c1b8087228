//! Policy planning: choose `(p, L)` for a target (beyond-the-paper
//! convenience built from the paper's own models).
//!
//! The paper gives operators two quantitative handles: the throughput
//! model `D(t)` (§2.2) and the fitted trade-off `T(r) = α·r^β` (§3.4).
//! [`PolicyPlanner`] inverts them: given a *throughput budget* or a
//! *temperature-reduction target*, it returns concrete
//! [`InjectionParams`], preferring the shortest idle quantum that keeps
//! the injection rate sane — the paper's own guidance, since short quanta
//! trade best and `100·p/L > 1` held on every pareto-boundary
//! configuration it measured.

use dimetrodon_sim_core::SimDuration;

use crate::model::p_for_throughput_reduction;
use crate::policy::InjectionParams;

/// Plans injection parameters from operator-level targets.
///
/// # Examples
///
/// ```
/// use dimetrodon::{PolicyPlanner, PowerLawTradeoff};
/// use dimetrodon_sim_core::SimDuration;
///
/// // The paper's cpuburn fit (Table 1): T(r) = 1.092 * r^1.541.
/// let planner = PolicyPlanner::new(SimDuration::from_millis(100))
///     .with_tradeoff(PowerLawTradeoff { alpha: 1.092, beta: 1.541 });
///
/// // "Cool by 20%": the planner picks the throughput budget the fitted
/// // law predicts, then the (p, L) pair that spends it.
/// let params = planner.for_temperature_reduction(0.2).unwrap();
/// assert!(params.p() > 0.0 && params.p() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPlanner {
    /// The scheduler's average quantum `q`.
    quantum: SimDuration,
    /// Shortest idle quantum the planner will emit.
    min_idle: SimDuration,
    /// Fitted trade-off, if calibrated.
    tradeoff: Option<PowerLawTradeoff>,
}

/// A calibrated `T(r) = α·r^β` trade-off law (Table 1's parameters, or a
/// fit from `dimetrodon-analysis`-style sweeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawTradeoff {
    /// The multiplier α.
    pub alpha: f64,
    /// The exponent β.
    pub beta: f64,
}

impl PowerLawTradeoff {
    /// Throughput reduction the law predicts for temperature reduction
    /// `r`.
    pub fn throughput_cost(&self, r: f64) -> f64 {
        self.alpha * r.powf(self.beta)
    }
}

/// Errors from planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// The requested target is outside `[0, 1)`.
    TargetOutOfRange,
    /// The target needs an injection probability beyond the planner's cap
    /// even at the minimum idle quantum.
    Infeasible,
    /// A temperature target was requested but no trade-off law is
    /// calibrated.
    NotCalibrated,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TargetOutOfRange => write!(f, "target must be in [0, 1)"),
            PlanError::Infeasible => {
                write!(f, "target unreachable within the planner's probability cap")
            }
            PlanError::NotCalibrated => {
                write!(f, "temperature planning needs a calibrated trade-off law")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl PolicyPlanner {
    /// The probability cap: the largest injection probability the
    /// planner will emit.
    pub const DEFAULT_MAX_P: f64 = 0.95;
    /// Default shortest idle quantum (1 ms — the paper's observed
    /// efficiency optimum "closer to the order of one ms").
    pub const DEFAULT_MIN_IDLE: SimDuration = SimDuration::from_millis(1);

    /// Creates a planner for a scheduler with average quantum `quantum`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: SimDuration) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        PolicyPlanner {
            quantum,
            min_idle: Self::DEFAULT_MIN_IDLE,
            tradeoff: None,
        }
    }

    /// Calibrates the planner with a fitted trade-off law, enabling
    /// [`for_temperature_reduction`](Self::for_temperature_reduction).
    pub fn with_tradeoff(mut self, tradeoff: PowerLawTradeoff) -> Self {
        self.tradeoff = Some(tradeoff);
        self
    }

    /// Plans the `(p, L)` that spends exactly `budget` of throughput
    /// (e.g. `0.05` = give up 5 % of throughput), preferring the shortest
    /// idle quantum. The paper's efficiency results make short-L/high-p
    /// strictly preferable to long-L/low-p at equal budget.
    ///
    /// # Errors
    ///
    /// [`PlanError::TargetOutOfRange`] for budgets outside `[0, 1)`;
    /// [`PlanError::Infeasible`] if even `L = min_idle` needs `p` beyond
    /// the cap.
    pub fn for_throughput_budget(&self, budget: f64) -> Result<InjectionParams, PlanError> {
        if !(0.0..1.0).contains(&budget) {
            return Err(PlanError::TargetOutOfRange);
        }
        let budget = budget.max(1e-6);
        // At a fixed budget, p/(1-p) = budget' * q/L: shorter quanta
        // need higher probabilities. Walk candidate quanta from the
        // shortest up and take the first whose required p fits under the
        // cap.
        let mut l = self.min_idle;
        loop {
            let l_over_q = l.as_secs_f64() / self.quantum.as_secs_f64();
            #[expect(
                clippy::expect_used,
                reason = "budget is clamped into (0, 1) above, where a solution always exists"
            )]
            let p =
                p_for_throughput_reduction(budget, l_over_q).expect("budget < 1 always solvable");
            if p <= Self::DEFAULT_MAX_P {
                return Ok(InjectionParams::new(p, l));
            }
            let next = l * 2;
            if next > self.quantum * 4 {
                return Err(PlanError::Infeasible);
            }
            l = next;
        }
    }

    /// Plans the `(p, L)` for a temperature-reduction target `r`, using
    /// the calibrated trade-off law to convert it into a throughput
    /// budget.
    ///
    /// # Errors
    ///
    /// [`PlanError::NotCalibrated`] without a law; otherwise as
    /// [`for_throughput_budget`](Self::for_throughput_budget).
    pub fn for_temperature_reduction(&self, r: f64) -> Result<InjectionParams, PlanError> {
        if !(0.0..1.0).contains(&r) {
            return Err(PlanError::TargetOutOfRange);
        }
        let law = self.tradeoff.ok_or(PlanError::NotCalibrated)?;
        let budget = law.throughput_cost(r).min(0.99);
        self.for_throughput_budget(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::predicted_throughput_reduction;
    use proptest::prelude::*;

    fn planner() -> PolicyPlanner {
        PolicyPlanner::new(SimDuration::from_millis(100))
    }

    fn paper_law() -> PowerLawTradeoff {
        PowerLawTradeoff {
            alpha: 1.092,
            beta: 1.541,
        }
    }

    #[test]
    fn budget_plan_spends_the_budget() {
        let params = planner().for_throughput_budget(0.05).unwrap();
        let spent = predicted_throughput_reduction(
            0.1,
            params.p(),
            params.quantum().as_secs_f64(),
        );
        assert!((spent - 0.05).abs() < 1e-9, "spent {spent}");
    }

    #[test]
    fn planner_prefers_short_quanta() {
        // A small budget fits at the minimum quantum.
        let small = planner().for_throughput_budget(0.02).unwrap();
        assert_eq!(small.quantum(), PolicyPlanner::DEFAULT_MIN_IDLE);
        // A huge budget forces longer quanta (p capped).
        let big = planner().for_throughput_budget(0.9).unwrap();
        assert!(big.quantum() > small.quantum());
        assert!(big.p() <= PolicyPlanner::DEFAULT_MAX_P + 1e-12);
    }

    #[test]
    fn pareto_heuristic_holds() {
        // The paper: 100·p/L(ms) > 1 for pareto configurations — the
        // planner's short-quantum preference satisfies it for ordinary
        // budgets.
        for budget in [0.01, 0.05, 0.1, 0.3] {
            let params = planner().for_throughput_budget(budget).unwrap();
            let ratio = 100.0 * params.p() / params.quantum().as_millis_f64();
            assert!(ratio > 1.0, "budget {budget}: ratio {ratio}");
        }
    }

    #[test]
    fn temperature_target_uses_the_law() {
        let planner = planner().with_tradeoff(paper_law());
        let params = planner.for_temperature_reduction(0.2).unwrap();
        // T(0.2) = 1.092 * 0.2^1.541 ~ 9.1% throughput budget.
        let spent = predicted_throughput_reduction(
            0.1,
            params.p(),
            params.quantum().as_secs_f64(),
        );
        assert!((spent - paper_law().throughput_cost(0.2)).abs() < 1e-9);
    }

    #[test]
    fn uncalibrated_temperature_target_errors() {
        assert_eq!(
            planner().for_temperature_reduction(0.2),
            Err(PlanError::NotCalibrated)
        );
    }

    #[test]
    fn out_of_range_targets_error() {
        assert_eq!(
            planner().for_throughput_budget(1.0),
            Err(PlanError::TargetOutOfRange)
        );
        assert_eq!(
            planner().for_throughput_budget(-0.1),
            Err(PlanError::TargetOutOfRange)
        );
        let calibrated = planner().with_tradeoff(paper_law());
        assert_eq!(
            calibrated.for_temperature_reduction(1.5),
            Err(PlanError::TargetOutOfRange)
        );
    }

    #[test]
    fn error_display() {
        assert!(PlanError::Infeasible.to_string().contains("unreachable"));
        assert!(PlanError::NotCalibrated.to_string().contains("calibrated"));
    }

    proptest! {
        /// Plans are always valid parameters that spend within the
        /// budget's neighbourhood.
        #[test]
        fn prop_plans_are_consistent(budget in 0.001f64..0.95) {
            if let Ok(params) = planner().for_throughput_budget(budget) {
                prop_assert!((0.0..1.0).contains(&params.p()));
                let spent = predicted_throughput_reduction(
                    0.1,
                    params.p(),
                    params.quantum().as_secs_f64(),
                );
                prop_assert!((spent - budget.max(1e-6)).abs() < 1e-6);
            }
        }
    }
}
