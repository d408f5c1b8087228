//! A minimal, self-contained property-testing shim.
//!
//! The workspace's tests are written against the `proptest` 1.x API, but
//! the build environment is fully offline, so this crate provides the
//! subset of that API the tests actually use: the [`proptest!`] macro with
//! an optional `proptest_config` attribute, numeric range strategies,
//! `any::<T>()`, tuple, [`prop_oneof!`], `prop::option::of`, and
//! `prop::collection::vec` combinators, [`strategy::Just`], `.prop_map`,
//! and the `prop_assert!`/`prop_assert_eq!` macros.
//!
//! Semantics are simplified relative to upstream: inputs are drawn
//! uniformly from the strategies (no edge-case bias) and failing cases are
//! reported but not shrunk. Generation is deterministic per test (seeded
//! from the test name), so failures reproduce run-to-run.

#![allow(
    clippy::disallowed_types,
    reason = "vendored shim: mirrors the f32 strategies"
)]

/// Test-runner configuration and failure plumbing.
pub mod test_runner {
    /// Controls how many random cases each property runs.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion, produced by `prop_assert!` and
    /// friends.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// The deterministic source of randomness behind every strategy:
    /// a SplitMix64 stream seeded from the test name.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded deterministically from `name` (FNV-1a).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform integer in `[0, n)`; `n = 0` means the full 64-bit
        /// range.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                return self.next_u64();
            }
            // Widening multiply maps 64 uniform bits onto [0, n) with
            // negligible bias for the small ranges tests use.
            (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
        }
    }
}

/// The [`Strategy`] trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values with `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// A strategy that always yields clones of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One boxed alternative of a [`OneOf`] choice: a generator drawing
    /// a value from the arm's underlying strategy.
    pub type OneOfArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

    /// A uniform choice between boxed alternatives, built by the
    /// [`prop_oneof!`](crate::prop_oneof) macro. Unlike upstream, arms
    /// are unweighted.
    pub struct OneOf<V> {
        arms: Vec<OneOfArm<V>>,
    }

    impl<V> OneOf<V> {
        /// Builds a choice over `arms`; at least one is required.
        pub fn new(arms: Vec<OneOfArm<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<V> std::fmt::Debug for OneOf<V> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("OneOf").field("arms", &self.arms.len()).finish()
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Boxes one [`prop_oneof!`](crate::prop_oneof) arm. A function
    /// rather than an `as` cast so the arms' value types unify cleanly.
    pub fn one_of_arm<S>(s: S) -> OneOfArm<S::Value>
    where
        S: Strategy + 'static,
    {
        Box::new(move |rng| s.generate(rng))
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span =
                        (*self.end() as u64).wrapping_sub(*self.start() as u64).wrapping_add(1);
                    self.start().wrapping_add(rng.below(span) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let x = self.start + (self.end - self.start) * rng.unit_f64();
            // Guard against rounding up to the excluded endpoint.
            if x >= self.end {
                self.start
            } else {
                x
            }
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start() <= self.end(), "empty range strategy");
            // The exact upper endpoint is drawn with negligible (not
            // upstream-faithful) probability; tests only rely on bounds.
            self.start() + (self.end() - self.start()) * rng.unit_f64()
        }
    }

    impl Strategy for std::ops::Range<f32> {
        type Value = f32;

        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            let x = self.start + (self.end - self.start) * rng.unit_f64() as f32;
            if x >= self.end {
                self.start
            } else {
                x
            }
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
        (A, B, C, D, E, F, G)
        (A, B, C, D, E, F, G, H)
    }
}

/// `any::<T>()` and the [`Arbitrary`] trait behind it.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A range of collection sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    /// The strategy returned by [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// Optional-value strategies (`prop::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`of`].
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // `None` one time in four, roughly matching upstream's
            // default weighting.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// A strategy producing `Some` of `inner` most of the time, `None`
    /// otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// The usual glob import: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced access to strategy modules (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// A strategy choosing uniformly among its arms each draw. All arms must
/// generate the same value type. Unlike upstream, arms cannot carry
/// weights.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        $crate::strategy::OneOf::new(vec![
            $($crate::strategy::one_of_arm($strat)),+
        ])
    }};
}

/// Defines property tests: each `fn` runs its body over `config.cases`
/// generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let described = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e,
                        described
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {:?} == {:?}", left, right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("{}: {:?} != {:?}", format!($($fmt)+), left, right),
            ));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {:?} != {:?}", left, right),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn generation_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -2.0f64..2.0, k in 0usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!(k <= 4);
        }

        #[test]
        fn vec_sizes_respect_bounds(v in prop::collection::vec(any::<bool>(), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6, "len {}", v.len());
        }

        #[test]
        fn prop_map_composes(s in (1u8..5, 0.0f64..1.0).prop_map(|(n, f)| n as f64 + f)) {
            prop_assert!((1.0..5.0).contains(&s));
        }

        #[test]
        fn oneof_draws_every_arm_type(
            v in prop_oneof![Just(-1i64), 10i64..20, (0i64..3).prop_map(|x| x * 100)]
        ) {
            prop_assert!(
                v == -1 || (10..20).contains(&v) || [0, 100, 200].contains(&v),
                "unexpected value {v}"
            );
        }

        #[test]
        fn option_of_respects_inner_bounds(o in prop::option::of(5u32..8)) {
            if let Some(v) = o {
                prop_assert!((5..8).contains(&v));
            }
        }

        #[test]
        fn inclusive_f64_range_stays_in_bounds(x in 0.0f64..=1.0) {
            prop_assert!((0.0..=1.0).contains(&x));
        }
    }
}
