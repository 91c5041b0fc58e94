//! A deterministic, dependency-free stand-in for the subset of the
//! `proptest` API this workspace uses.
//!
//! The build environment has no access to crates.io, so the real `proptest`
//! cannot be vendored. Rather than rewrite every property test, this crate
//! provides the same surface — `proptest!`, `prop_assert!`, strategies over
//! ranges/tuples/collections, `prop_oneof!`, `Just`, `prop::sample::select` —
//! backed by a fixed-seed xoshiro256** generator, so the existing tests run
//! unchanged as deterministic randomized tests.
//!
//! Differences from the real crate (accepted for this environment):
//! - no shrinking: a failing case reports its inputs but is not minimized;
//! - the case seed derives from the test's module path + name, so runs are
//!   bit-identical across invocations and platforms;
//! - collection strategies draw exactly `len` candidates, so hash-backed
//!   collections may end up smaller than `len` when duplicates collide
//!   (the real crate behaves the same way).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::ops::Range;

/// Error type returned by `prop_assert!`-style macros inside a test body.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runner configuration; only `cases` is consulted.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Accepted for API compatibility with upstream proptest; this shim
    /// does not shrink failing inputs.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_shrink_iters: 1024,
        }
    }
}

/// Deterministic xoshiro256** generator seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Seeds the generator from an arbitrary string (the test's full path).
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name, expanded through SplitMix64.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut sm = h;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Advances the state and returns the next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. The real crate's strategies also know how to shrink;
/// here generation is all there is.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// Strategy returning a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_uint_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64) - (self.start as u64);
                self.start + (rng.below(span) as $t)
            }
        }
    )*};
}

impl_uint_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
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

impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// Uniform choice between boxed alternative strategies; built by
/// [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// Starts an empty union.
    pub fn new() -> Self {
        Union { arms: Vec::new() }
    }

    /// Adds an alternative.
    pub fn or(mut self, arm: impl Strategy<Value = V> + 'static) -> Self {
        self.arms.push(Box::new(arm));
        self
    }
}

impl<V> Default for Union<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "prop_oneof! with no arms");
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Collection strategies (`prop::collection::*`).
pub mod collection {
    use super::*;

    fn draw_len(size: &Range<usize>, rng: &mut TestRng) -> usize {
        if size.start >= size.end {
            size.start
        } else {
            size.start + rng.below((size.end - size.start) as u64) as usize
        }
    }

    /// Vec of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Hash map with up to `size` entries (duplicate keys collapse).
    pub fn hash_map<K, V>(keys: K, values: V, size: Range<usize>) -> HashMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Hash + Eq,
    {
        HashMapStrategy { keys, values, size }
    }

    /// Hash set with up to `size` elements (duplicates collapse).
    pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { element, size }
    }

    /// Result of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = draw_len(&self.size, rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Result of [`hash_map`].
    pub struct HashMapStrategy<K, V> {
        keys: K,
        values: V,
        size: Range<usize>,
    }

    impl<K, V> Strategy for HashMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Hash + Eq,
    {
        type Value = HashMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = draw_len(&self.size, rng);
            (0..len)
                .map(|_| (self.keys.generate(rng), self.values.generate(rng)))
                .collect()
        }
    }

    /// Result of [`hash_set`].
    pub struct HashSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = draw_len(&self.size, rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies (`prop::sample::*`).
pub mod sample {
    use super::*;

    /// Uniform choice from a fixed, non-empty list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over empty options");
        Select { options }
    }

    /// Result of [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

/// Boolean strategies (`prop::bool::*`).
pub mod bool {
    use super::*;

    /// Fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    /// A strategy producing `true` and `false` with equal probability.
    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = ::core::primitive::bool;
        fn generate(&self, rng: &mut TestRng) -> ::core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a property test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// Mirror of the real crate's `prop` path (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Asserts a condition inside a `proptest!` body, failing the case (with its
/// inputs reported) rather than unwinding immediately.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                left,
                right,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new()$(.or($arm))+
    };
}

/// Declares deterministic property tests; mirrors `proptest::proptest!`.
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
    ( ($cfg:expr) $( #[test] fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    // The closure gives `prop_assert!` a `?`-style early
                    // return out of $body, so it must be called in place.
                    #[allow(clippy::redundant_closure_call)]
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || { $body; ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(err) = outcome {
                        panic!(
                            "property failed at case {}/{}: {}\n    inputs: {}",
                            case + 1,
                            config.cases,
                            err,
                            inputs
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::from_name("y");
        let diverges = (0..100).any(|_| a.next_u64() != c.next_u64());
        assert!(diverges);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 1usize..4, f in 0.5f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..4).contains(&y));
            prop_assert!((0.5..2.0).contains(&f));
        }

        #[test]
        fn collections_respect_size(
            v in prop::collection::vec(0u32..10, 2..6),
            s in prop::collection::hash_set(0u64..100, 0..8),
            m in prop::collection::hash_map(0u64..100, 0u32..5, 1..8),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(s.len() < 8);
            prop_assert!(m.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 10));
        }

        #[test]
        fn oneof_and_map_compose(v in prop::collection::vec(
            prop_oneof![
                (0u8..4).prop_map(|x| x as u16),
                Just(9u16),
            ],
            1..50,
        )) {
            prop_assert!(v.iter().all(|&x| x < 4 || x == 9));
        }

        #[test]
        fn select_only_yields_options(pick in prop::sample::select(vec![2u8, 5, 7])) {
            prop_assert!(pick == 2 || pick == 5 || pick == 7);
        }

        #[test]
        fn bool_any_yields_bools(b in prop::bool::ANY) {
            // Exercises the bool strategy end-to-end; the value itself is
            // unconstrained, so just consume it.
            let _: bool = b;
        }
    }

    #[test]
    fn union_covers_all_arms() {
        let u = prop_oneof![Just(0u8), Just(1u8), Just(2u8)];
        let mut rng = TestRng::from_name("union_covers_all_arms");
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[crate::Strategy::generate(&u, &mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn prop_assert_macros_return_errors() {
        let check = |x: u64| -> Result<(), TestCaseError> {
            prop_assert!(x > 100, "x was {x}");
            prop_assert_eq!(x % 2, 1);
            Ok(())
        };
        let err = check(3).expect_err("assertion must fail");
        assert!(err.to_string().contains("x was 3"));
        assert!(check(102).is_err());
        assert!(check(101).is_ok());
    }
}
