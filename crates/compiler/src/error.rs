//! Compiler error type.

use std::error::Error;
use std::fmt;

use datamaestro::ConfigError;

/// Errors raised while lowering a workload onto the evaluation system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// An operand did not fit its assigned bank-group region.
    Placement {
        /// What failed.
        reason: String,
    },
    /// The workload shape cannot be mapped (e.g. an output plane with no
    /// valid pixel tiling).
    Unsupported {
        /// Why the mapping failed.
        reason: String,
    },
    /// A generated streamer configuration was rejected downstream.
    Config(ConfigError),
    /// An input tensor does not hold the number of values its workload
    /// shape needs.
    InputLength {
        /// Values the shape needs.
        expected: usize,
        /// Values given.
        got: usize,
    },
    /// A pre-pass plan needs a read or gather index beyond its 32-bit
    /// index tables.
    PlanIndex {
        /// The index that does not fit.
        index: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Placement { reason } => write!(f, "placement failed: {reason}"),
            CompileError::Unsupported { reason } => write!(f, "unsupported workload: {reason}"),
            CompileError::Config(e) => write!(f, "configuration rejected: {e}"),
            CompileError::InputLength { expected, got } => {
                write!(f, "input holds {got} values, the shape needs {expected}")
            }
            CompileError::PlanIndex { index } => {
                write!(
                    f,
                    "pre-pass plan index {index} exceeds the 32-bit plan tables"
                )
            }
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CompileError {
    fn from(e: ConfigError) -> Self {
        CompileError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CompileError::Placement {
            reason: "too big".into(),
        };
        assert_eq!(e.to_string(), "placement failed: too big");
        assert!(e.source().is_none());
        let e = CompileError::from(ConfigError::ZeroBound { what: "bounds" });
        assert!(e.source().is_some());
    }
}
