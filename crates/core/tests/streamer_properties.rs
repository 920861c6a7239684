//! Property tests of the full read/write streamers against direct
//! address-arithmetic references: for arbitrary (small) affine
//! configurations, the stream delivered to / absorbed from the accelerator
//! port must be exactly the words the pattern addresses, in order, and the
//! crossbar must see them at their remapped banks — under every addressing
//! mode, with and without fine-grained prefetch.

use datamaestro::{DesignConfig, ReadStreamer, RuntimeConfig, StreamerMode, WriteStreamer};
use dm_mem::{Addr, AddressRemapper, AddressingMode, MemConfig, MemorySubsystem};
use dm_sim::SplitMix64;

const WORD: u64 = 8;

fn mem_cfg() -> MemConfig {
    MemConfig::new(8, 8, 256).expect("valid geometry")
}

/// A generated affine pattern: bounds/strides for a 2-D temporal nest and a
/// 3-channel-ish spatial fan-out, all word-aligned and in bounds.
#[derive(Debug, Clone)]
struct Pattern {
    base: u64,
    t_bounds: Vec<u64>,
    t_strides: Vec<i64>,
    s_bounds: Vec<usize>,
    s_strides: Vec<i64>,
    mode: AddressingMode,
    fine_grained: bool,
}

fn random_pattern(rng: &mut SplitMix64) -> Pattern {
    let base = WORD * rng.below(8);
    let (t_bounds, t_strides) = (0..1 + rng.below(2))
        .map(|_| (1 + rng.below(3), WORD as i64 * rng.between(0, 5)))
        .unzip();
    let (s_bounds, s_strides) = (0..1 + rng.below(2))
        .map(|_| (1 + rng.below(2) as usize, WORD as i64 * rng.between(0, 3)))
        .unzip();
    let mode = [
        AddressingMode::FullyInterleaved,
        AddressingMode::GroupedInterleaved { group_banks: 2 },
        AddressingMode::GroupedInterleaved { group_banks: 4 },
        AddressingMode::NonInterleaved,
    ][rng.below(4) as usize];
    Pattern {
        base,
        t_bounds,
        t_strides,
        s_bounds,
        s_strides,
        mode,
        fine_grained: rng.below(2) == 1,
    }
}

/// All channel addresses of the pattern, in (temporal, channel) order.
fn reference_addresses(p: &Pattern) -> Vec<Vec<u64>> {
    let mut tagu = datamaestro::agu::TemporalAgu::new(p.base, &p.t_bounds, &p.t_strides);
    let sagu = datamaestro::agu::SpatialAgu::new(&p.s_bounds, &p.s_strides);
    let mut out = Vec::new();
    while let Some(ta) = tagu.next_address() {
        out.push(
            (0..sagu.num_channels())
                .map(|c| sagu.channel_address(ta, c))
                .collect(),
        );
    }
    out
}

/// Granted accesses per bank that `addrs` make under `view`.
fn bank_histogram(cfg: &MemConfig, view: &AddressRemapper, addrs: &[u64]) -> Vec<u64> {
    let mut banks = vec![0; cfg.num_banks()];
    for &addr in addrs {
        banks[view.map_byte(Addr::new(addr)).unwrap().bank] += 1;
    }
    banks
}

/// The read streamer delivers, wide word by wide word, exactly the words its
/// affine pattern addresses.
#[test]
fn read_stream_matches_reference() {
    let mut rng = SplitMix64::new(0x4ead);
    let mut streamed = 0;
    for case in 0..256 {
        let p = random_pattern(&mut rng);
        let cfg = mem_cfg();
        let mut mem = MemorySubsystem::new(cfg);
        let view = AddressRemapper::new(&cfg, p.mode).unwrap();
        let design = DesignConfig::builder("p", StreamerMode::Read)
            .spatial_bounds(p.s_bounds.clone())
            .temporal_dims(p.t_bounds.len())
            .fine_grained_prefetch(p.fine_grained)
            .build()
            .unwrap();
        let runtime = RuntimeConfig::builder()
            .base(p.base)
            .temporal(p.t_bounds.clone(), p.t_strides.clone())
            .spatial_strides(p.s_strides.clone())
            .addressing_mode(p.mode)
            .build();
        let mut streamer = match ReadStreamer::new(&design, &runtime, &mut mem) {
            Ok(s) => s,
            // Out-of-bounds patterns are correctly rejected; nothing to test.
            Err(_) => continue,
        };
        streamed += 1;
        let expected = reference_addresses(&p);
        let mut got = Vec::new();
        let mut guard = 0;
        while !streamer.is_done() {
            streamer.begin_cycle();
            mem.drain_responses(|resp| streamer.accept_response(resp));
            if streamer.can_pop_wide() {
                let mut word = Vec::new();
                streamer.pop_wide(|addr| word.push(addr));
                got.push(word);
            }
            streamer.generate_and_issue(&mut mem).unwrap();
            let grants = mem.arbitrate();
            streamer.handle_grants(grants);
            guard += 1;
            assert!(guard < 100_000, "case {case}: streamer hung");
        }
        assert!(!streamer.can_pop_wide(), "case {case}: done means drained");
        assert_eq!(got, expected, "case {case}");
        let all: Vec<u64> = expected.concat();
        assert_eq!(
            mem.per_bank_accesses(),
            bank_histogram(&cfg, &view, &all),
            "case {case}"
        );
    }
    assert!(streamed >= 128, "only {streamed} of 256 patterns streamed");
}

/// The write streamer scatters pushed wide words to exactly the addresses of
/// its affine pattern.
#[test]
fn write_stream_matches_reference() {
    let mut rng = SplitMix64::new(0x3417e);
    let mut streamed = 0;
    for case in 0..256 {
        let p = random_pattern(&mut rng);
        let cfg = mem_cfg();
        let mut mem = MemorySubsystem::new(cfg);
        let design = DesignConfig::builder("p", StreamerMode::Write)
            .spatial_bounds(p.s_bounds.clone())
            .temporal_dims(p.t_bounds.len())
            .fine_grained_prefetch(p.fine_grained)
            .build()
            .unwrap();
        let runtime = RuntimeConfig::builder()
            .base(p.base)
            .temporal(p.t_bounds.clone(), p.t_strides.clone())
            .spatial_strides(p.s_strides.clone())
            .addressing_mode(p.mode)
            .build();
        let mut streamer = match WriteStreamer::new(&design, &runtime, &mut mem) {
            Ok(s) => s,
            Err(_) => continue,
        };
        streamed += 1;
        let expected = reference_addresses(&p);
        let all: Vec<u64> = expected.concat();

        let total_words = streamer.total_wide_words();
        let mut pushed = Vec::new();
        let mut guard = 0;
        while !streamer.is_done() {
            if (pushed.len() as u64) < total_words && streamer.can_push_wide() {
                let mut word = Vec::new();
                streamer.push_wide(|addr| word.push(addr));
                pushed.push(word);
            }
            streamer.generate_and_issue(&mut mem).unwrap();
            let grants = mem.arbitrate();
            streamer.handle_grants(grants);
            guard += 1;
            assert!(guard < 100_000, "case {case}: writer hung");
        }
        assert_eq!(pushed, expected, "case {case}");
        let view = AddressRemapper::new(&cfg, p.mode).unwrap();
        assert_eq!(
            mem.per_bank_accesses(),
            bank_histogram(&cfg, &view, &all),
            "case {case}"
        );
        assert_eq!(mem.stats().writes.get(), all.len() as u64, "case {case}");
    }
    assert!(streamed >= 64, "only {streamed} of 256 patterns streamed");
}
