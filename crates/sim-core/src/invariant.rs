//! Runtime invariant checking behind the `invariants` Cargo feature.
//!
//! The determinism lints (DESIGN.md §8.1) keep nondeterminism out of the sources;
//! this layer checks the *dynamic* contracts the paper's argument rests on
//! — monotone event time, finite bounded temperatures, conserved energy
//! accounting — at simulation time. The checks are read-only observations,
//! so enabling them cannot perturb results: the fig3 bit-identity
//! regression runs with the feature on to prove it.
//!
//! Because [`sim_invariant!`] tests `cfg!(feature = "invariants")` at its
//! expansion site, every crate that uses the macro must declare its own
//! `invariants` feature (each forwards to its dependencies' features, so
//! enabling it at any level turns on the whole stack below).

/// Asserts a simulation invariant when the expanding crate's `invariants`
/// feature is enabled; compiles to nothing otherwise.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::sim_invariant;
///
/// let temperature: f64 = 42.0;
/// sim_invariant!(
///     temperature.is_finite(),
///     "temperature must stay finite, got {temperature}"
/// );
/// ```
#[macro_export]
macro_rules! sim_invariant {
    ($cond:expr $(, $($arg:tt)+)?) => {
        if cfg!(feature = "invariants") {
            assert!($cond $(, $($arg)+)?);
        }
    };
}

#[cfg(all(test, feature = "invariants"))]
mod tests {
    #[test]
    fn passing_invariant_is_silent() {
        sim_invariant!(1 + 1 == 2, "arithmetic holds");
    }

    #[test]
    #[should_panic(expected = "violated")]
    fn failing_invariant_panics_when_enabled() {
        sim_invariant!(false, "violated");
    }
}
