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
//!   management for fine-grained prefetch ([`channel`], §III-C), whose
//!   data FIFOs are in [`fifo`];
//! * **read and write streamers** ([`ReadStreamer`], [`WriteStreamer`])
//!   gathering channel FIFOs into wide accelerator words and back (Fig. 2):
//!   two sides of one [`Streamer`] front end ([`streamer`]) that owns the
//!   pattern binding, the AGU fan-out, the grant tally and the metrics;
//! * cascadable **datapath extensions** — Transposer and Broadcaster — with
//!   runtime bypass ([`extension`], §III-E);
//! * the **design-time / runtime configuration split** of Table II
//!   ([`DesignConfig`], [`RuntimeConfig`]).
//!
//! Addressing-mode remapping (§III-D) lives in the [`dm_mem`] crate and is
//! selected per streamer through [`RuntimeConfig::addressing_mode`].
//!
//! Streamers model timing: simulated timing never depends on data, so the
//! crossbar and the channel FIFOs carry request headers and word addresses
//! only. The bytes come from walking the same [`StreamBinding`] in program
//! order over a [`Scratchpad`](dm_mem::Scratchpad), as the system's
//! functional executor does.
//!
//! # Examples
//!
//! Time a stream of four 32-byte wide words, then read the same words
//! functionally:
//!
//! ```
//! use datamaestro::{bind_pattern, DesignConfig, ReadStreamer, RuntimeConfig, StreamerMode};
//! use dm_mem::{Addr, MemConfig, MemorySubsystem, Scratchpad};
//!
//! let mem_cfg = MemConfig::new(8, 8, 64)?;
//! let design = DesignConfig::builder("A", StreamerMode::Read)
//!     .spatial_bounds([4])
//!     .temporal_dims(1)
//!     .build()?;
//! let runtime = RuntimeConfig::builder()
//!     .temporal([4], [32])
//!     .spatial_strides([8])
//!     .build();
//!
//! // Timing: the cycle loop moves headers and records the word addresses
//! // each wide pop consumes.
//! let mut mem = MemorySubsystem::new(mem_cfg);
//! let mut streamer = ReadStreamer::new(&design, &runtime, &mut mem)?;
//! let mut popped = Vec::new();
//! while !streamer.is_done() {
//!     streamer.begin_cycle();
//!     mem.drain_responses(|resp| streamer.accept_response(resp));
//!     if streamer.can_pop_wide() {
//!         streamer.pop_wide(|addr| popped.push(addr));
//!     }
//!     streamer.generate_and_issue(&mut mem)?;
//!     let grants = mem.arbitrate();
//!     streamer.handle_grants(grants);
//! }
//! assert_eq!(mem.stats().reads.get(), 16);
//!
//! // Data: the same binding walked in program order over a scratchpad
//! // preloaded with 128 ascending bytes.
//! let mut pad = Scratchpad::new(mem_cfg);
//! let mut binding = bind_pattern(&design, &runtime, &mem_cfg)?;
//! let data: Vec<u8> = (0..128).map(|i| i as u8).collect();
//! pad.host_write(&binding.remapper, Addr::ZERO, &data)?;
//! let mut walked = Vec::new();
//! let mut words = Vec::new();
//! while let Some(ta) = binding.temporal.next_address() {
//!     let mut word = Vec::new();
//!     for c in 0..binding.spatial.num_channels() {
//!         let addr = binding.spatial.channel_address(ta, c);
//!         walked.push(addr);
//!         word.extend_from_slice(pad.read_row(binding.remapper.map_byte(Addr::new(addr))?));
//!     }
//!     words.push(binding.chain.process(&word));
//! }
//! assert_eq!(popped, walked, "the loop consumed the words the walk reads");
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
pub mod fifo;
pub mod reader;
pub mod streamer;
pub mod writer;

pub use config::{
    DesignConfig, DesignConfigBuilder, RuntimeConfig, RuntimeConfigBuilder, StreamerMode,
};
pub use csr::{decode_runtime, encode_runtime, CsrMap};
pub use error::ConfigError;
pub use extension::{ExtensionChain, ExtensionKind, ExtensionScratch};
pub use reader::{ReadSide, ReadStreamer};
pub use streamer::{bind_pattern, Side, StreamBinding, Streamer, StreamerStats, WordCursor};
pub use writer::{WriteSide, WriteStreamer};
