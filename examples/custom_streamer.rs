//! Reusability scenario: drive a single DataMaestro directly, without the
//! GeMM system around it — the paper's "reusable design" claim in action.
//!
//! We instantiate one read streamer against a banked scratchpad and program
//! it, purely through runtime CSRs, to stream a strided 2-D tile pattern
//! out of a matrix — the kind of access a pooling or stencil accelerator
//! would need. No code in the streamer knows anything about GeMM.
//!
//! The run has the simulator's two halves. The timing loop moves request
//! headers through the crossbar and records the word address of every
//! wide pop; the functional walk binds the same pattern and reads the
//! bytes in program order. The two must agree word for word.
//!
//! ```text
//! cargo run --release --example custom_streamer
//! ```

use datamaestro_repro::mem::{Addr, MemConfig, MemorySubsystem, Scratchpad};
use datamaestro_repro::streamer::{
    bind_pattern, DesignConfig, ReadStreamer, RuntimeConfig, StreamerMode,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small memory: 8 banks × 64 bit.
    let mem_cfg = MemConfig::new(8, 8, 1024)?;

    // Design time: a 4-channel reader with a 2-D temporal AGU.
    let design = DesignConfig::builder("stencil", StreamerMode::Read)
        .spatial_bounds([2, 2])
        .temporal_dims(2)
        .build()?;

    // Runtime: stream 2×2 blocks of 8-byte rows — every block covers rows
    // (r, r+1) at columns (c, c+8): spatial strides {row pitch, 8}, and the
    // temporal nest hops 2 rows down then to the next block row.
    let runtime = RuntimeConfig::builder()
        .base(0)
        .temporal([8], [32]) // 8 steps of 2 row-pairs (2 rows × 16 B)
        .spatial_strides([8, 16]) // channel grid: col halves × row pair
        .build();

    // Timing: one streamer against the crossbar.
    let mut mem = MemorySubsystem::new(mem_cfg);
    let mut streamer = ReadStreamer::new(&design, &runtime, &mut mem)?;
    println!(
        "streaming {} wide words of {} bytes each…",
        streamer.total_wide_words(),
        streamer.output_width()
    );
    let mut popped = Vec::new();
    let mut cycles = 0;
    while !streamer.is_done() {
        streamer.begin_cycle();
        mem.drain_responses(|resp| streamer.accept_response(resp));
        if streamer.can_pop_wide() {
            let mut word = Vec::new();
            streamer.pop_wide(|addr| word.push(addr));
            popped.push(word);
        }
        streamer.generate_and_issue(&mut mem)?;
        let grants = mem.arbitrate();
        streamer.handle_grants(grants);
        cycles += 1;
    }
    println!("timed in {cycles} cycles ({} wide words)", popped.len());

    // Data: host-preload a 16×16 byte matrix, row-major, value = r*16 + c,
    // then walk the same binding in program order.
    let mut binding = bind_pattern(&design, &runtime, &mem_cfg)?;
    let mut pad = Scratchpad::new(mem_cfg);
    let matrix: Vec<u8> = (0..256).map(|i| i as u8).collect();
    pad.host_write(&binding.remapper, Addr::ZERO, &matrix)?;
    let mut words = Vec::new();
    while let Some(ta) = binding.temporal.next_address() {
        let channels = binding.spatial.num_channels();
        let addrs: Vec<u64> = (0..channels)
            .map(|c| binding.spatial.channel_address(ta, c))
            .collect();
        assert_eq!(addrs, popped[words.len()], "timing and data walk agree");
        let mut word = Vec::new();
        for &addr in &addrs {
            word.extend_from_slice(pad.read_row(binding.remapper.map_byte(Addr::new(addr))?));
        }
        words.push(binding.chain.process(&word));
    }
    for (i, word) in words.iter().take(3).enumerate() {
        println!("word {i}: first bytes {:?}…", &word[..8]);
    }
    // Each wide word gathers the four channels: base row, same row +8 B,
    // next row, next row +8 B — i.e. one full 2-row stripe.
    assert_eq!(&words[0][0..8], &matrix[0..8]);
    assert_eq!(&words[0][8..16], &matrix[8..16]);
    assert_eq!(&words[0][16..24], &matrix[16..24]);
    assert_eq!(&words[1][0..8], &matrix[32..40]);
    println!("pattern verified: the streamer delivered the stencil stripes in order");
    Ok(())
}
