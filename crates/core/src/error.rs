//! Error type for the core protocols.

use core::fmt;

use diffuse_graph::GraphError;
use diffuse_model::{ModelError, ProcessId};

/// Errors produced by the broadcast protocols and their optimization
/// machinery.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The target reliability `K` is not a probability in `[0, 1)`.
    ///
    /// `K = 1` is rejected because a lossy link can never guarantee
    /// certain delivery with finitely many messages.
    InvalidTarget(f64),
    /// The target reliability cannot be reached: some tree link has
    /// `λ = 1` (zero reliability), or the optimizer hit its iteration
    /// budget.
    TargetUnreachable {
        /// Best reach achieved before giving up.
        best_reach: f64,
    },
    /// A message budget below the number of tree links was supplied to the
    /// budget-constrained optimizer (every link needs at least one
    /// message).
    BudgetTooSmall {
        /// Supplied budget.
        budget: u64,
        /// Number of tree links.
        links: usize,
    },
    /// The local topology knowledge does not yet connect every known
    /// process, so no spanning tree exists (adaptive protocols hit this
    /// before their first heartbeats propagate).
    KnowledgeIncomplete,
    /// A wire-encoded tree was malformed (wrong lengths, unknown parent
    /// indices, out-of-range probabilities, or nodes out of canonical
    /// order).
    MalformedWireTree(&'static str),
    /// The process is not part of the tree it was asked to forward.
    NotInTree(ProcessId),
    /// An underlying graph operation failed.
    Graph(GraphError),
    /// An underlying model operation failed.
    Model(ModelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidTarget(k) => {
                write!(f, "target reliability {k} must lie in [0, 1)")
            }
            CoreError::TargetUnreachable { best_reach } => write!(
                f,
                "target reliability unreachable; best achievable reach was {best_reach}"
            ),
            CoreError::BudgetTooSmall { budget, links } => write!(
                f,
                "message budget {budget} is below the {links} tree links (one message each)"
            ),
            CoreError::KnowledgeIncomplete => {
                write!(
                    f,
                    "local topology knowledge does not yet span all known processes"
                )
            }
            CoreError::MalformedWireTree(reason) => {
                write!(f, "malformed wire tree: {reason}")
            }
            CoreError::NotInTree(p) => write!(f, "process {p} is not part of the tree"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CoreError::InvalidTarget(1.5).to_string().contains("1.5"));
        assert!(CoreError::BudgetTooSmall {
            budget: 3,
            links: 9
        }
        .to_string()
        .contains("9 tree links"));
        assert!(CoreError::TargetUnreachable { best_reach: 0.5 }
            .to_string()
            .contains("0.5"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let err: CoreError = GraphError::ConnectivityUnreachable.into();
        assert!(std::error::Error::source(&err).is_some());
        let err: CoreError = ModelError::EmptyTopology.into();
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
    }
}
