//! Error type for the memory subsystem.

use std::error::Error;
use std::fmt;

/// Errors raised while configuring or accessing the scratchpad memory.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemError {
    /// A size parameter (bank count, bank width, group size) must be a
    /// non-zero power of two to be realizable as a bit permutation.
    NotPowerOfTwo {
        /// Which parameter was invalid.
        parameter: &'static str,
        /// The offending value.
        value: usize,
    },
    /// The GIMA group size must divide the total bank count.
    GroupTooLarge {
        /// Banks per group requested.
        group: usize,
        /// Total banks available.
        banks: usize,
    },
    /// A byte address was not aligned to the bank word width.
    Misaligned {
        /// The offending byte address.
        addr: u64,
        /// Required alignment in bytes.
        alignment: u64,
    },
    /// An address fell outside the scratchpad capacity.
    OutOfBounds {
        /// The offending byte address.
        addr: u64,
        /// Scratchpad capacity in bytes.
        capacity: u64,
    },
    /// A requester identifier was not registered with the subsystem.
    UnknownRequester {
        /// The offending requester index.
        requester: usize,
    },
    /// A requester submitted more than one request in a single cycle.
    DuplicateRequest {
        /// The offending requester index.
        requester: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::NotPowerOfTwo { parameter, value } => {
                write!(
                    f,
                    "{parameter} must be a non-zero power of two, got {value}"
                )
            }
            MemError::GroupTooLarge { group, banks } => {
                write!(f, "bank group of {group} does not divide {banks} banks")
            }
            MemError::Misaligned { addr, alignment } => {
                write!(f, "address 0x{addr:x} not aligned to {alignment} bytes")
            }
            MemError::OutOfBounds { addr, capacity } => {
                write!(f, "address 0x{addr:x} beyond capacity of {capacity} bytes")
            }
            MemError::UnknownRequester { requester } => {
                write!(f, "requester {requester} is not registered")
            }
            MemError::DuplicateRequest { requester } => {
                write!(f, "requester {requester} submitted twice in one cycle")
            }
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = MemError::NotPowerOfTwo {
            parameter: "num_banks",
            value: 3,
        };
        assert_eq!(
            e.to_string(),
            "num_banks must be a non-zero power of two, got 3"
        );
        let e = MemError::Misaligned {
            addr: 0x11,
            alignment: 8,
        };
        assert!(e.to_string().contains("0x11"));
        let e = MemError::OutOfBounds {
            addr: 0x100,
            capacity: 0x80,
        };
        assert!(e.to_string().contains("capacity"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<MemError>();
    }
}
