//! Error type for model construction and validation.

use core::fmt;

use crate::ProcessId;

/// Errors produced when constructing or mutating model values.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A probability value was NaN, infinite, or outside `[0, 1]`.
    InvalidProbability(f64),
    /// A link from a process to itself was requested; the model has no
    /// self-loops.
    SelfLoop(ProcessId),
    /// An operation required a non-empty topology.
    EmptyTopology,
    /// An operation required a connected topology, and some process
    /// cannot reach another.
    Disconnected,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidProbability(v) => {
                write!(f, "probability {v} is not a finite value in [0, 1]")
            }
            ModelError::SelfLoop(p) => write!(f, "link from {p} to itself is not allowed"),
            ModelError::EmptyTopology => write!(f, "operation requires a non-empty topology"),
            ModelError::Disconnected => write!(f, "operation requires a connected topology"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let p = ProcessId::new(1);
        for (err, needle) in [
            (ModelError::InvalidProbability(2.0), "probability"),
            (ModelError::SelfLoop(p), "itself"),
            (ModelError::EmptyTopology, "non-empty"),
            (ModelError::Disconnected, "connected"),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<ModelError>();
    }
}
