//! System-level error type.

use std::error::Error;
use std::fmt;

use datamaestro::ConfigError;
use dm_compiler::CompileError;
use dm_mem::MemError;

/// Errors raised while building or running the evaluation system.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// Workload lowering failed.
    Compile(CompileError),
    /// A streamer rejected its configuration.
    Config(ConfigError),
    /// The memory subsystem rejected an operation.
    Mem(MemError),
    /// The system configuration asks for something the simulator does not
    /// model.
    Unsupported {
        /// The offending [`SystemConfig`](crate::SystemConfig) field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// The simulation made no forward progress within its cycle budget —
    /// always a modelling bug, never a legitimate outcome.
    Deadlock {
        /// Which phase hung.
        phase: &'static str,
        /// Cycles executed before giving up.
        cycles: u64,
    },
    /// A phase of the program writes a word it also reads. The functional
    /// executor reads each word in program order, not at its grant, which
    /// is only sound when every phase's read and write footprints are
    /// disjoint.
    FootprintOverlap {
        /// The phase: `compute`, `pool` or `prepass:<name>`.
        phase: String,
        /// Bank of the first word both read and written.
        bank: usize,
        /// Row of that word.
        row: usize,
    },
    /// The cycle loop's PE fires for an output tile consumed or produced
    /// different words than the functional executor's fires for that tile
    /// — always a modelling bug.
    StreamMismatch {
        /// Index of the first mismatching output tile.
        tile: u64,
    },
    /// The simulated output did not match the golden reference.
    OutputMismatch {
        /// Byte offset of the first difference within the output region.
        first_diff: usize,
        /// Expected byte.
        expected: u8,
        /// Byte the simulation produced.
        got: u8,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Compile(e) => write!(f, "compile error: {e}"),
            SystemError::Config(e) => write!(f, "configuration error: {e}"),
            SystemError::Mem(e) => write!(f, "memory error: {e}"),
            SystemError::Unsupported { field, reason } => {
                write!(f, "unsupported configuration: {field}: {reason}")
            }
            SystemError::Deadlock { phase, cycles } => {
                write!(f, "simulation deadlock in {phase} after {cycles} cycles")
            }
            SystemError::FootprintOverlap { phase, bank, row } => write!(
                f,
                "{phase} reads and writes bank {bank} row {row}: \
                 read and write footprints must be disjoint"
            ),
            SystemError::StreamMismatch { tile } => write!(
                f,
                "the PE fires of output tile {tile} moved other words than \
                 the functional executor"
            ),
            SystemError::OutputMismatch {
                first_diff,
                expected,
                got,
            } => write!(
                f,
                "output mismatch at byte {first_diff}: expected {expected:#04x}, got {got:#04x}"
            ),
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::Compile(e) => Some(e),
            SystemError::Config(e) => Some(e),
            SystemError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for SystemError {
    fn from(e: CompileError) -> Self {
        SystemError::Compile(e)
    }
}

impl From<ConfigError> for SystemError {
    fn from(e: ConfigError) -> Self {
        SystemError::Config(e)
    }
}

impl From<MemError> for SystemError {
    fn from(e: MemError) -> Self {
        SystemError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = SystemError::Deadlock {
            phase: "compute",
            cycles: 99,
        };
        assert!(e.to_string().contains("compute"));
        assert!(e.source().is_none());
        let e: SystemError = MemError::UnknownRequester { requester: 1 }.into();
        assert!(e.source().is_some());
        let e = SystemError::OutputMismatch {
            first_diff: 4,
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("byte 4"));
    }
}
