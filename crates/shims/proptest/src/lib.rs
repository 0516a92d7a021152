//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no access to crates.io, so this workspace-local shim
//! implements the pieces the property tests use: the [`Strategy`] trait with
//! `prop_map`, range/tuple/`Just`/`any` strategies, `prop::collection::vec`,
//! `prop_oneof!`, and the `proptest!` test macro with `ProptestConfig::with_cases`.
//! Generation is deterministic per test name; there is no shrinking — a failing case
//! panics with `property <name> failed at case <k> of <n>: ` ahead of its own
//! message. Cases count from 0, so case `k` is replayed by generating `k` cases
//! from the name's seed and running the next one.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::Range;

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed deterministically from a test name so every run generates the same cases.
    pub fn deterministic(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` generated inputs per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator. The subset of proptest's `Strategy` this workspace uses.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erase the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of its value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between type-erased alternatives (the [`prop_oneof!`] backend).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from a non-empty list of alternatives.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(
            !options.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for an unconstrained value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for vectors with element strategy `S` and a length range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Uniformly choose between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $($crate::Strategy::boxed($strat)),+ ])
    };
}

/// Assert inside a property (maps to `assert!`; failures panic, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Assert equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }` becomes a
/// test that runs `body` over `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let run = ::std::panic::AssertUnwindSafe(|| $body);
                    if let Err(cause) = ::std::panic::catch_unwind(run) {
                        $crate::fail(stringify!($name), case, config.cases, cause);
                    }
                }
            }
        )*
    };
}

/// Panic with the failing case's name and index ahead of the message its body
/// panicked with.
#[doc(hidden)]
pub fn fail(name: &str, case: u32, cases: u32, cause: Box<dyn std::any::Any + Send>) -> ! {
    let message = cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a panic without a message");
    panic!("property {name} failed at case {case} of {cases}: {message}")
}

/// Everything a property-test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..17, y in 0u64..1000) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 1000);
        }

        #[test]
        fn vec_lengths_respect_range(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u8..4).prop_map(|x| x as u64),
            Just(99u64),
            any::<u64>(),
        ]) {
            let _ = v;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Passes its first three cases and fails its fourth.
        #[test]
        #[should_panic(expected = "property the_fourth_case_fails failed at case 3 of 8: \
                                   case 3 was reached")]
        fn the_fourth_case_fails(_x in any::<u8>()) {
            static CASES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
            let case = CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            prop_assert!(case < 3, "case {case} was reached");
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = crate::TestRng::deterministic("t");
        let mut b = crate::TestRng::deterministic("t");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
