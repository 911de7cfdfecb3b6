//! A small, dependency-free stand-in for the `proptest` crate.
//!
//! The CI containers for this workspace have **no crates.io access**, so
//! the real `proptest` cannot be resolved. This crate reimplements the
//! subset of its API our property tests use — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `prop_oneof!`, range/tuple/`Just`
//! strategies, `prop::collection::vec`, `prop::option::of`,
//! `prop::bool::ANY`, `.prop_map(..)` and `ProptestConfig::with_cases` —
//! on top of a deterministic splitmix64 generator seeded from the test
//! name, so every run explores the same cases and failures reproduce
//! exactly.
//!
//! Differences from the real crate (deliberate, for size): no shrinking —
//! a failing case panics with the deterministic seed instead of a
//! minimized input — and no persistence/regression files.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each test executes.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps fully offline CI fast
        // while still exercising a meaningful slice of the input space.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic generator driving strategy sampling (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from the test's name.
    pub fn for_test(name: &str) -> TestRng {
        // FNV-1a over the name gives a stable per-test seed.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// A source of random values of one type.
///
/// Unlike the real crate there is no value tree: `sample` directly
/// produces a value (no shrinking).
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// A heap-allocated, type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

/// Box a strategy (used by `prop_oneof!` to unify branch types).
pub fn boxed<S>(s: S) -> BoxedStrategy<S::Value>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, usize, i32, i64);

impl Strategy for Range<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        assert!(self.start < self.end, "empty range strategy");
        let span = self.end - self.start;
        self.start + rng.below(span)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct OneOf<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// A strategy choosing uniformly among `options`.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> OneOf<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { options }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].sample(rng)
    }
}

/// Sub-modules mirroring the real crate's `prop::*` namespace.
pub mod strategies {
    /// `prop::collection`: sized containers of sub-strategy values.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// A `Vec` whose length is drawn from `size` and whose elements
        /// come from `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            assert!(size.start < size.end, "empty vec size range");
            VecStrategy { element, size }
        }

        /// The strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start) as u64;
                let n = self.size.start + rng.below(span) as usize;
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    /// `prop::option`: optional values.
    pub mod option {
        use super::super::{Strategy, TestRng};

        /// `Some` three times out of four, `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// The strategy returned by [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.below(4) == 0 {
                    None
                } else {
                    Some(self.inner.sample(rng))
                }
            }
        }
    }

    /// `prop::bool`: boolean values.
    pub mod bool {
        use super::super::{Strategy, TestRng};

        /// Fair coin flip.
        #[derive(Debug, Clone, Copy)]
        pub struct BoolAny;

        /// Either boolean with equal probability.
        pub const ANY: BoolAny = BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;
            fn sample(&self, rng: &mut TestRng) -> bool {
                rng.below(2) == 1
            }
        }
    }
}

/// The conventional `use proptest::prelude::*;` import surface.
pub mod prelude {
    pub use crate::strategies as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

/// The `proptest! { ... }` test-definition macro.
///
/// Accepts an optional leading `#![proptest_config(expr)]` followed by
/// any number of `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal: expands each `fn` item of a `proptest!` block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr;) => {};
    (cfg = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..config.cases {
                let _ = __case;
                $(let $pat = $crate::Strategy::sample(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
}

/// Assertion macro matching the real crate's name (no shrinking, so it is
/// a plain `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tok:tt)*) => { assert!($($tok)*) };
}

/// Equality assertion matching the real crate's name.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tok:tt)*) => { assert_eq!($($tok)*) };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_test("ranges");
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u32..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::sample(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let mut c = TestRng::for_test("y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn vec_and_option_and_oneof_compose() {
        let strat = prop::collection::vec((prop::option::of(1u32..5), prop::bool::ANY), 2..6);
        let mut rng = TestRng::for_test("compose");
        for _ in 0..200 {
            let v = Strategy::sample(&strat, &mut rng);
            assert!((2..6).contains(&v.len()));
        }
        let choice = prop_oneof![Just(0u32), (10u32..20).prop_map(|x| x * 2)];
        for _ in 0..200 {
            let v = Strategy::sample(&choice, &mut rng);
            assert!(v == 0 || (20..40).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: sampled args obey their strategies.
        #[test]
        fn macro_samples_args(x in 1u64..100, mut v in prop::collection::vec(0i32..10, 1..4)) {
            prop_assert!((1..100).contains(&x));
            v.push(0);
            prop_assert!(v.len() >= 2);
            prop_assert_eq!(v[v.len() - 1], 0);
        }
    }
}
