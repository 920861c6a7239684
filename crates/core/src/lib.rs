//! # DataMaestro — a versatile data streaming engine (simulated)
//!
//! This crate is the core of a Rust reproduction of *DataMaestro: A
//! Versatile and Efficient Data Streaming Engine Bringing Decoupled Memory
//! Access To Dataflow Accelerators* (DAC 2025). It models, at cycle level,
//! the paper's streaming engine:
//!
//! * an **N-dimensional affine AGU** ([`agu`]) with the paper's dual-counter
//!   microarchitecture: programmable temporal loop nests plus a
//!   multi-channel spatial fan-out (§III-B);
//! * per-channel **Memory Interface Controllers** with outstanding-request
//!   management for fine-grained prefetch ([`channel`], §III-C);
//! * **read and write streamers** ([`ReadStreamer`], [`WriteStreamer`])
//!   gathering channel FIFOs into wide accelerator words and back (Fig. 2);
//! * cascadable **datapath extensions** — Transposer and Broadcaster — with
//!   runtime bypass ([`extension`], §III-E);
//! * the **design-time / runtime configuration split** of Table II
//!   ([`DesignConfig`], [`RuntimeConfig`]).
//!
//! Addressing-mode remapping (§III-D) lives in the [`dm_mem`] crate and is
//! selected per streamer through [`RuntimeConfig::addressing_mode`].
//!
//! # Examples
//!
//! Stream four 32-byte wide words out of a banked scratchpad:
//!
//! ```
//! use datamaestro::{DesignConfig, ReadStreamer, RuntimeConfig, StreamerMode};
//! use dm_mem::{Addr, AddressRemapper, AddressingMode, MemConfig, MemorySubsystem};
//!
//! let mem_cfg = MemConfig::new(8, 8, 64)?;
//! let mut mem = MemorySubsystem::new(mem_cfg);
//! // Preload 128 bytes of ascending values.
//! let view = AddressRemapper::new(&mem_cfg, AddressingMode::FullyInterleaved)?;
//! let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
//! mem.scratchpad_mut().host_write(&view, Addr::ZERO, &data)?;
//!
//! let design = DesignConfig::builder("A", StreamerMode::Read)
//!     .spatial_bounds([4])
//!     .temporal_dims(1)
//!     .build()?;
//! let runtime = RuntimeConfig::builder()
//!     .temporal([4], [32])
//!     .spatial_strides([8])
//!     .build();
//! let mut streamer = ReadStreamer::new(&design, &runtime, &mut mem)?;
//!
//! let mut words = Vec::new();
//! while !streamer.is_done() {
//!     streamer.begin_cycle();
//!     mem.drain_responses(|resp| streamer.accept_response(resp));
//!     if streamer.can_pop_wide() {
//!         words.push(streamer.pop_wide().to_vec());
//!     }
//!     streamer.generate_and_issue(&mut mem);
//!     let grants = mem.arbitrate().to_vec();
//!     streamer.handle_grants(&grants);
//! }
//! assert_eq!(words.len(), 4);
//! assert_eq!(words[0], data[0..32]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// The cycle kernel lives here: performance lints are errors, not hints.

pub mod agu;
pub mod channel;
pub mod config;
pub mod csr;
pub mod error;
pub mod extension;
pub mod reader;
pub mod writer;

pub use config::{
    DesignConfig, DesignConfigBuilder, RuntimeConfig, RuntimeConfigBuilder, StreamerMode,
};
pub use csr::{decode_runtime, encode_runtime, CsrMap};
pub use error::ConfigError;
pub use extension::{ExtensionChain, ExtensionKind, ExtensionScratch};
pub use reader::{ReadStreamer, StreamerStats};
pub use writer::WriteStreamer;
