//! Multi-banked scratchpad memory subsystem for the DataMaestro simulator.
//!
//! This crate models the memory side of Fig. 2(a) of the DataMaestro paper
//! (DAC 2025): an `N_BF`-banked scratchpad providing one `W_B`-byte word per
//! bank per cycle, reached through an interleaved crossbar with per-bank
//! round-robin arbitration. Bank conflicts — several requesters targeting
//! the same bank in the same cycle — are the *only* source of stalls in the
//! whole simulator, exactly as in the modelled hardware.
//!
//! The crate also implements the paper's §III-D **address remapper**: the
//! runtime-selectable bit permutation that maps a linear word address onto a
//! `(bank, row)` location under one of three addressing modes
//! ([`AddressingMode`]): fully interleaved (FIMA), grouped-interleaved
//! (GIMA) and non-interleaved (NIMA).
//!
//! # Examples
//!
//! ```
//! use dm_mem::{AddressingMode, AddressRemapper, MemConfig};
//!
//! let cfg = MemConfig::new(32, 8, 1024)?;
//! let remap = AddressRemapper::new(&cfg, AddressingMode::FullyInterleaved)?;
//! // Consecutive words land in consecutive banks under FIMA.
//! assert_eq!(remap.map_word(0).bank, 0);
//! assert_eq!(remap.map_word(1).bank, 1);
//! # Ok::<(), dm_mem::MemError>(())
//! ```

// The cycle kernel lives here: performance lints are errors, not hints.

pub mod addr;
pub mod error;
pub mod remap;
pub mod scratchpad;
pub mod subsystem;

pub use addr::{Addr, BankLocation};
pub use error::MemError;
pub use remap::{AddressRemapper, AddressingMode, BankMap};
pub use scratchpad::{MemConfig, Scratchpad};
pub use subsystem::{
    LatencyTelemetry, MemOp, MemRequest, MemResponse, MemStats, MemorySubsystem, RequesterId,
};
