//! Error type for simulation inputs.
//!
//! Every simulation entry point — the per-layer simulators and the
//! end-to-end [`crate::network`] harness — has a `try_` variant
//! returning `Result<_, SimError>` so drivers (fuzzers, batch validation
//! campaigns, services) can reject malformed inputs without unwinding;
//! the panicking functions remain as thin wrappers for tests and
//! examples where a malformed input is a programming error.

use std::error::Error;
use std::fmt;

use hem_analysis::Priority;

/// A malformed simulation input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A duration that must be at least one tick was zero or negative.
    /// `what` names the offending input, e.g. ``transmission time of
    /// `F` ``.
    NonPositiveTime {
        /// Description of the offending input.
        what: String,
    },
    /// An event trace that must be non-decreasing was not. `what` names
    /// the offending trace, e.g. ``queue of `F` ``.
    UnsortedTrace {
        /// Description of the offending trace.
        what: String,
    },
    /// Two frames on one bus share an arbitration priority.
    DuplicatePriority {
        /// The colliding priority.
        priority: Priority,
    },
    /// A reference to an entity that does not exist. `what` names the
    /// dangling reference, e.g. ``delivery source `F/s` ``.
    UnknownReference {
        /// Description of the dangling reference.
        what: String,
    },
    /// The network's resources cannot be ordered into dependency waves
    /// (a gateway loop without an external source, or a same-CPU task
    /// chain).
    DependencyCycle {
        /// The resources that never became ready.
        remaining: String,
    },
}

impl SimError {
    pub(crate) fn non_positive(what: impl Into<String>) -> Self {
        SimError::NonPositiveTime { what: what.into() }
    }

    pub(crate) fn unsorted(what: impl Into<String>) -> Self {
        SimError::UnsortedTrace { what: what.into() }
    }

    pub(crate) fn unknown(what: impl Into<String>) -> Self {
        SimError::UnknownReference { what: what.into() }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NonPositiveTime { what } => write!(f, "{what} must be positive"),
            SimError::UnsortedTrace { what } => write!(f, "{what} must be sorted"),
            SimError::DuplicatePriority { priority } => {
                write!(f, "duplicate priority {priority} on the bus")
            }
            SimError::UnknownReference { what } => write!(f, "unknown {what}"),
            SimError::DependencyCycle { remaining } => {
                write!(f, "network contains a dependency cycle: {remaining}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_legacy_panic_messages() {
        // The panicking wrappers format these errors; tests that assert
        // on panic substrings rely on the exact phrasing.
        assert_eq!(
            SimError::non_positive("transmission time of `F`").to_string(),
            "transmission time of `F` must be positive"
        );
        assert_eq!(
            SimError::unsorted("queue of `F`").to_string(),
            "queue of `F` must be sorted"
        );
        assert_eq!(
            SimError::DuplicatePriority {
                priority: Priority::new(3)
            }
            .to_string(),
            "duplicate priority P3 on the bus"
        );
        assert_eq!(
            SimError::unknown("delivery source `F/s`").to_string(),
            "unknown delivery source `F/s`"
        );
        let e = SimError::DependencyCycle {
            remaining: "remaining buses [], cpus [\"cpu0\"]".into(),
        };
        assert!(e.to_string().contains("dependency cycle"));
    }
}
