//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate: the strategy combinators and macros this workspace's property
//! tests use, without shrinking. A failing case panics with the ordinary
//! assertion message; re-running is deterministic (case seeds are fixed),
//! so failures reproduce exactly.
//!
//! Supported surface: [`Strategy`] (with `prop_map` and `boxed`), ranges
//! and tuples as strategies, [`any`], [`Just`], `proptest::collection::vec`,
//! the [`proptest!`], [`prop_oneof!`], [`prop_assert!`] and
//! [`prop_assert_eq!`] macros, and [`ProptestConfig::with_cases`].

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The generator handed to strategies.
pub type TestRng = StdRng;

/// Per-case deterministic generator. `case` is the 0-based case index.
pub fn test_rng(case: u32) -> TestRng {
    TestRng::seed_from_u64(
        0x5EED_CAFE_F00Du64 ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Test-runner configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The `prop_map` combinator.
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

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Uniform sampling over a type's whole domain (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy for [`Arbitrary`] types.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Weighted choice between type-erased strategies (see [`prop_oneof!`]).
pub struct OneOf<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> OneOf<T> {
    pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        let total_weight = options.iter().map(|(w, _)| *w as u64).sum::<u64>();
        assert!(total_weight > 0, "prop_oneof! weights must not all be zero");
        OneOf { options, total_weight }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.gen_range(0..self.total_weight);
        for (w, s) in &self.options {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weight accounting covered the whole range")
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// A number-of-elements specification for [`vec()`].
    pub trait SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    /// Strategy yielding `Vec`s of values from `element`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// A failed test case: the `Err` payload of a property body.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    pub fn fail(reason: impl Into<String>) -> TestCaseError {
        TestCaseError(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, BoxedStrategy,
        Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Weighted (`w => strategy`) or unweighted choice between strategies of
/// one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq failed: `{}` != `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq failed ({}):\n  left: {:?}\n right: {:?}",
                format_args!($($fmt)+),
                l,
                r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_ne failed: both sides equal\n value: {:?}",
                l
            )));
        }
    }};
}

/// The test-definition macro. Each `fn name(arg in strategy, ...) { body }`
/// becomes an ordinary test running `body` for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..cfg.cases {
                let mut __rng = $crate::test_rng(__case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body Ok(()) })();
                if let Err(e) = __result {
                    panic!("proptest case {} of {} failed: {}", __case + 1, cfg.cases, e);
                }
            }
        }
        $crate::__proptest_fns!{ ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Get(u16),
        Put(u16, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            2 => any::<u16>().prop_map(Op::Get),
            1 => (any::<u16>(), 0u8..10).prop_map(|(k, v)| Op::Put(k, v)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..7, y in 0usize..=4, z in 10u64..1000) {
            prop_assert!((3..7).contains(&x));
            prop_assert!(y <= 4, "y was {}", y);
            prop_assert!((10..1000).contains(&z));
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9);
        }

        #[test]
        fn oneof_and_map_compose(ops in crate::collection::vec(op(), 1..40)) {
            for o in &ops {
                if let Op::Put(_, v) = o {
                    prop_assert!(*v < 10);
                }
            }
            prop_assert_eq!(ops.clone(), ops);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..5)
            .map(|c| crate::Strategy::generate(&(0u64..100), &mut crate::test_rng(c)))
            .collect();
        let b: Vec<u64> = (0..5)
            .map(|c| crate::Strategy::generate(&(0u64..100), &mut crate::test_rng(c)))
            .collect();
        assert_eq!(a, b);
        // Different cases see different values somewhere.
        assert!(a.windows(2).any(|w| w[0] != w[1]), "{a:?}");
    }

    #[test]
    #[should_panic(expected = "prop_assert failed")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 200);
            }
        }
        always_fails();
    }
}
