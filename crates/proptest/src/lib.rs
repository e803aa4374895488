//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the subset its property tests use: integer-range / string-pattern /
//! tuple / collection strategies, `prop_map`, `prop_oneof!`, `any::<T>()`,
//! and the `proptest!` / `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream, deliberately accepted:
//! - **No shrinking.** A failing case reports its deterministic seed and
//!   the `prop_assert*` message instead of a minimized input.
//! - **Deterministic seeding** from the test name and case index, so runs
//!   are reproducible and tier-1 cannot flake on generator luck.
//! - String strategies accept only the `[class]{m,n}` regex shape the
//!   tests use, not full regex syntax.

#![deny(unsafe_code)]

pub mod strategy;
pub mod test_runner;

pub use strategy::{any, Just, Strategy};

/// Collection strategies (`vec`, `btree_map`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeMap;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `elem` and a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.range(self.size.start as u64, self.size.end as u64) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `BTreeMap`s: keys from `key`, values from `value`,
    /// target size drawn from `size` (best-effort when the key domain is
    /// smaller than the requested size).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        assert!(size.start < size.end, "empty btree_map size range");
        BTreeMapStrategy { key, value, size }
    }

    /// See [`btree_map`].
    #[derive(Debug, Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let target = rng.range(self.size.start as u64, self.size.end as u64) as usize;
            let mut map = BTreeMap::new();
            // Duplicate keys collapse; bound the retries so a small key
            // domain cannot loop forever.
            for _ in 0..target.saturating_mul(10).max(16) {
                if map.len() >= target {
                    break;
                }
                map.insert(self.key.generate(rng), self.value.generate(rng));
            }
            map
        }
    }
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform `true`/`false`.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy (`proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Assert a condition inside a `proptest!` body; failure reports the
/// condition (or a custom message) without aborting other shrink-free
/// machinery.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} at {}:{}",
                    ::std::stringify!($cond),
                    ::std::file!(),
                    ::std::line!()
                ),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{} at {}:{}",
                    ::std::format_args!($($fmt)+),
                    ::std::file!(),
                    ::std::line!()
                ),
            ));
        }
    };
}

/// `prop_assert!` for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}\n at {}:{}",
                    ::std::stringify!($left),
                    ::std::stringify!($right),
                    left,
                    right,
                    ::std::file!(),
                    ::std::line!()
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "{}\n  left: {:?}\n right: {:?}\n at {}:{}",
                    ::std::format_args!($($fmt)+),
                    left,
                    right,
                    ::std::file!(),
                    ::std::line!()
                ),
            ));
        }
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} != {}\n  both: {:?}\n at {}:{}",
                    ::std::stringify!($left),
                    ::std::stringify!($right),
                    left,
                    ::std::file!(),
                    ::std::line!()
                ),
            ));
        }
    }};
}

/// Discard the current case (does not count toward the case budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::std::stringify!($cond),
            ));
        }
    };
}

/// Uniform choice between strategies that share a value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let strategies = ($($strat,)+);
            $crate::test_runner::run(::std::stringify!($name), &config, |rng| {
                let ($($arg,)+) = $crate::strategy::Strategy::generate(&strategies, rng);
                (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
    )*};
}
