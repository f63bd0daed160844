//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of proptest's API its property tests use: the
//! [`strategy::Strategy`] trait with `prop_map` / `prop_recursive` /
//! `boxed`, [`collection::vec`], `any::<T>()`, tuple and integer-range
//! strategies, and the `proptest!` / `prop_assert*` / `prop_oneof!` /
//! `prop_assume!` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   left in the assertion message; it is not minimised.
//! * **Deterministic seeding.** Each test function derives its RNG seed
//!   from its own name, so failures reproduce exactly on re-run.
//! * Integer `any::<T>()` biases ~1/8 of samples toward the boundary
//!   values `0`, `1`, `MAX` to keep edge-case coverage comparable.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Deterministic generator used by all strategies (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw from `0..n` (`n > 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }
    }

    /// FNV-1a, used to derive per-test seeds from the test's name.
    pub fn fnv(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Mirror of `proptest::test_runner::Config` (as `ProptestConfig`).
    #[derive(Clone, Debug)]
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
            ProptestConfig { cases: 256 }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A value generator. Unlike real proptest there is no value tree and
    /// no shrinking: a strategy simply produces a value from an RNG.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter { inner: self, f, reason }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
        {
            BoxedStrategy(Rc::new(move |rng| self.generate(rng)))
        }

        /// Recursive strategies. `depth` bounds nesting; the size and
        /// branching hints are accepted for signature compatibility but
        /// unused (generation is bounded by construction).
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let mut strat = self.boxed();
            for _ in 0..depth {
                let deeper = recurse(strat.clone()).boxed();
                strat = Union::new(vec![strat, deeper]).boxed();
            }
            strat
        }
    }

    /// Type-erased strategy; cheap to clone.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

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

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct Filter<S, F> {
        inner: S,
        f: F,
        reason: &'static str,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter: no value satisfied {:?} in 1000 draws", self.reason)
        }
    }

    /// Uniform choice between strategies of a common value type
    /// (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    /// `Just(v)` — always produces a clone of `v`.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! tuple_strategy {
        ($($s:ident / $i:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A / 0);
    tuple_strategy!(A / 0, B / 1);
    tuple_strategy!(A / 0, B / 1, C / 2);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "strategy range is empty");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "strategy range is empty");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let off = (rng.next_u64() as u128) % span;
                    (lo as i128 + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — the canonical strategy for a type.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Bias ~1/8 of draws to boundary values for edge
                    // coverage (proptest's value trees shrink toward
                    // these; we sample them directly instead).
                    if rng.below(8) == 0 {
                        match rng.below(3) {
                            0 => 0 as $t,
                            1 => 1 as $t,
                            _ => <$t>::MAX,
                        }
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Sizes accepted by [`vec()`] (mirrors proptest's `SizeRange` inputs).
    pub trait IntoSizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "vec size range is empty");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    pub struct VecStrategy<S, R> {
        elem: S,
        size: R,
    }

    /// `prop::collection::vec(elem, size)`.
    pub fn vec<S: Strategy, R: IntoSizeRange>(elem: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy, R: IntoSizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop` namespace (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
///         prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let seed =
                    $crate::test_runner::fnv(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let mut __rng = $crate::test_runner::TestRng::new(
                        seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    $(
                        let $pat =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )*
                    // A closure so `prop_assume!` can skip the case with
                    // `return`; assertion failures panic through it.
                    let __case = || -> () { $body };
                    __case();
                }
            }
        )*
    };
}

/// Panics (failing the case) unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 3u32..10, y in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn maps_and_tuples(v in prop::collection::vec((any::<u8>(), 0u8..4).prop_map(|(a, b)| a as u16 + b as u16), 1..5)) {
            prop_assert!(!v.is_empty() && v.len() < 5);
        }

        #[test]
        fn assume_skips(n in any::<u32>()) {
            prop_assume!(n.is_multiple_of(2));
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn oneof_and_recursive_generate() {
        #[derive(Clone, Debug)]
        enum E {
            #[allow(dead_code)]
            Leaf(u8),
            Pair(Box<E>, Box<E>),
        }
        fn depth(e: &E) -> u32 {
            match e {
                E::Leaf(_) => 0,
                E::Pair(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u8..4).prop_map(E::Leaf).prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| E::Pair(Box::new(e.clone()), Box::new(e))),
                (inner.clone(), inner).prop_map(|(a, b)| E::Pair(Box::new(a), Box::new(b))),
            ]
        });
        let mut rng = crate::test_runner::TestRng::new(42);
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&strat.generate(&mut rng)));
        }
        assert!(max_depth >= 1, "recursion must sometimes nest");
        assert!(max_depth <= 3, "recursion depth is bounded");
    }
}
