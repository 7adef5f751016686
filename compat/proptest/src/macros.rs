//! The `proptest!` / `prop_assert*` / `prop_assume!` / `prop_oneof!`
//! macro family.

/// Defines property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a function running the body over many generated inputs.
///
/// As in `proptest` itself, the macro passes the function's attributes
/// through and adds none: mark each property `#[test]`. Adding one here
/// as well would register every property twice under the same name,
/// and the two copies — generating identical inputs — would run
/// concurrently.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($config:expr)) => {};
    (($config:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_case!(($config) (stringify!($name)) [] [] ($($params)*) $body);
        }
        $crate::__proptest_tests!(($config) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // Done munching: build the tuple strategy and run.
    (($config:expr) ($name:expr) [$($pats:tt)*] [$($strats:tt)*] () $body:block) => {
        $crate::test_runner::run_cases(
            $config,
            ($($strats)*),
            $name,
            |__proptest_value| {
                let ($($pats)*) = __proptest_value;
                $body
                ::core::result::Result::Ok(())
            },
        )
    };
    // Munch one `pat in strategy` with more parameters following.
    (($config:expr) ($name:expr) [$($pats:tt)*] [$($strats:tt)*]
     ($pat:pat in $strat:expr, $($rest:tt)*) $body:block) => {
        $crate::__proptest_case!(
            ($config) ($name) [$($pats)* $pat,] [$($strats)* ($strat),] ($($rest)*) $body
        )
    };
    // Munch the final `pat in strategy` (no trailing comma).
    (($config:expr) ($name:expr) [$($pats:tt)*] [$($strats:tt)*]
     ($pat:pat in $strat:expr) $body:block) => {
        $crate::__proptest_case!(
            ($config) ($name) [$($pats)* $pat,] [$($strats)* ($strat),] () $body
        )
    };
}

/// Asserts a condition inside a `proptest!` body; on failure the case
/// fails (without panicking mid-generation).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "{}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)+), __l, __r
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: `{} != {}`\n  both: `{:?}`",
            stringify!($left), stringify!($right), __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "{}\n  both: `{:?}`",
            format!($($fmt)+), __l
        );
    }};
}

/// Rejects the current case as inapplicable (does not count as a
/// failure; another input is generated instead).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::reject(format!($($fmt)+)),
            );
        }
    };
}

/// Uniform (or weighted, `weight => strategy`) choice between strategies
/// producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(::std::vec![
            $(($weight, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
