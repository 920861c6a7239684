//! On-the-fly datapath extensions (§III-E, Fig. 2c).
//!
//! Extensions sit between a DataMaestro's FIFO gather point and the
//! accelerator port, cascaded: the output of one feeds the next. Each has an
//! automatically inserted runtime bypass. The paper's evaluation system
//! instantiates two:
//!
//! * **Transposer** — transposes a `rows × cols` element tile inside the
//!   wide word, enabling transposed-GeMM without an explicit transpose pass;
//! * **Broadcaster** — duplicates the wide word across channels, serving
//!   per-output-channel constants (bias, quantization scales) from a single
//!   narrow fetch instead of a materialized full matrix.
//!
//! Extensions are modelled as single-cycle (combinational) transforms on one
//! wide word, matching their hardware cost profile: they change *what* moves
//! through the port, never *when*.

use crate::error::ConfigError;

/// A design-time datapath extension descriptor (`DP_ext` in Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtensionKind {
    /// Transpose a `rows × cols` tile of `elem_bytes`-sized elements.
    Transposer {
        /// Tile rows at the input.
        rows: usize,
        /// Tile columns at the input.
        cols: usize,
        /// Element size in bytes.
        elem_bytes: usize,
    },
    /// Duplicate the incoming word `factor` times.
    Broadcaster {
        /// Number of copies at the output.
        factor: usize,
    },
}

impl ExtensionKind {
    /// Output width in bytes for a given input width.
    #[must_use]
    pub fn output_width(&self, input_width: usize) -> usize {
        match self {
            ExtensionKind::Transposer { .. } => input_width,
            ExtensionKind::Broadcaster { factor } => input_width * factor,
        }
    }

    /// Validates the extension against the wide-word width it will receive.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] if the geometry does not
    /// match the width (e.g. a transposer tile that is not exactly one wide
    /// word).
    pub fn validate(&self, input_width: usize) -> Result<(), ConfigError> {
        match self {
            ExtensionKind::Transposer {
                rows,
                cols,
                elem_bytes,
            } => {
                if *rows == 0 || *cols == 0 || *elem_bytes == 0 {
                    return Err(ConfigError::InvalidParameter {
                        parameter: "transposer",
                        reason: "rows, cols and elem_bytes must be non-zero".into(),
                    });
                }
                if rows * cols * elem_bytes != input_width {
                    return Err(ConfigError::InvalidParameter {
                        parameter: "transposer",
                        reason: format!(
                            "tile of {rows}x{cols}x{elem_bytes}B does not fill a {input_width}B word"
                        ),
                    });
                }
                Ok(())
            }
            ExtensionKind::Broadcaster { factor } => {
                if *factor == 0 {
                    return Err(ConfigError::InvalidParameter {
                        parameter: "broadcaster",
                        reason: "factor must be non-zero".into(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Applies the transform to one wide word.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the validated geometry.
    #[must_use]
    pub fn apply(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.apply_into(input, &mut out);
        out
    }

    /// Applies the transform, writing the result into `out` (cleared first).
    ///
    /// The buffer retains its capacity across calls, so a warm buffer makes
    /// the transform allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the validated geometry.
    pub fn apply_into(&self, input: &[u8], out: &mut Vec<u8>) {
        out.clear();
        match self {
            ExtensionKind::Transposer {
                rows,
                cols,
                elem_bytes,
            } => {
                assert_eq!(input.len(), rows * cols * elem_bytes);
                out.resize(input.len(), 0);
                for r in 0..*rows {
                    for c in 0..*cols {
                        let src = (r * cols + c) * elem_bytes;
                        let dst = (c * rows + r) * elem_bytes;
                        out[dst..dst + elem_bytes].copy_from_slice(&input[src..src + elem_bytes]);
                    }
                }
            }
            ExtensionKind::Broadcaster { factor } => {
                out.reserve(input.len() * factor);
                for _ in 0..*factor {
                    out.extend_from_slice(input);
                }
            }
        }
    }

    /// Short name for traces and reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ExtensionKind::Transposer { .. } => "transposer",
            ExtensionKind::Broadcaster { .. } => "broadcaster",
        }
    }
}

impl std::fmt::Display for ExtensionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtensionKind::Transposer {
                rows,
                cols,
                elem_bytes,
            } => write!(f, "transposer({rows}x{cols}x{elem_bytes}B)"),
            ExtensionKind::Broadcaster { factor } => write!(f, "broadcaster(x{factor})"),
        }
    }
}

/// A cascade of extensions with per-extension bypass, as instantiated inside
/// one DataMaestro.
///
/// # Examples
///
/// ```
/// use datamaestro::extension::{ExtensionChain, ExtensionKind};
///
/// let chain = ExtensionChain::new(
///     &[ExtensionKind::Broadcaster { factor: 2 }],
///     &[false],
///     4,
/// )?;
/// assert_eq!(chain.output_width(), 8);
/// assert_eq!(chain.process(&[1, 2, 3, 4]), vec![1, 2, 3, 4, 1, 2, 3, 4]);
/// # Ok::<(), datamaestro::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionChain {
    stages: Vec<(ExtensionKind, bool)>,
    input_width: usize,
    output_width: usize,
}

impl ExtensionChain {
    /// Builds and validates a cascade.
    ///
    /// `bypass[i]` disables stage `i` at runtime. Missing flags default to
    /// active.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any active stage's geometry mismatches the
    /// width flowing into it.
    pub fn new(
        kinds: &[ExtensionKind],
        bypass: &[bool],
        input_width: usize,
    ) -> Result<Self, ConfigError> {
        let mut width = input_width;
        let mut stages = Vec::with_capacity(kinds.len());
        for (i, kind) in kinds.iter().enumerate() {
            let bypassed = bypass.get(i).copied().unwrap_or(false);
            if !bypassed {
                kind.validate(width)?;
                width = kind.output_width(width);
            }
            stages.push((*kind, bypassed));
        }
        Ok(ExtensionChain {
            stages,
            input_width,
            output_width: width,
        })
    }

    /// Width of wide words entering the chain.
    #[must_use]
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Width of wide words leaving the chain.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.output_width
    }

    /// Runs one wide word through the cascade.
    ///
    /// Allocates a fresh output; the hot path is
    /// [`process_into`](Self::process_into).
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the configured width.
    #[must_use]
    pub fn process(&self, input: &[u8]) -> Vec<u8> {
        let mut scratch = ExtensionScratch::default();
        self.process_into(input, &mut scratch).to_vec()
    }

    /// Runs one wide word through the cascade using caller-owned scratch
    /// buffers, avoiding per-word allocation.
    ///
    /// With every stage bypassed (or no stages) the input slice is returned
    /// unchanged — a fully zero-copy path. Otherwise the result lives in
    /// `scratch` until the next call.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the configured width.
    pub fn process_into<'a>(&self, input: &'a [u8], scratch: &'a mut ExtensionScratch) -> &'a [u8] {
        assert_eq!(input.len(), self.input_width, "wide word width mismatch");
        let mut active = self.stages.iter().filter(|(_, b)| !b).map(|(k, _)| k);
        let Some(first) = active.next() else {
            return input;
        };
        first.apply_into(input, &mut scratch.next);
        std::mem::swap(&mut scratch.cur, &mut scratch.next);
        for kind in active {
            kind.apply_into(&scratch.cur, &mut scratch.next);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }
}

/// Reusable ping-pong buffers for [`ExtensionChain::process_into`].
///
/// Each active stage writes into one buffer while reading the other; the
/// buffers keep their capacity across wide words, so a streamer processing a
/// long pattern allocates only on the first few words.
#[derive(Debug, Default, Clone)]
pub struct ExtensionScratch {
    cur: Vec<u8>,
    next: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_sim::SplitMix64;

    #[test]
    fn transposer_transposes_i8_tile() {
        let t = ExtensionKind::Transposer {
            rows: 2,
            cols: 3,
            elem_bytes: 1,
        };
        // [[1,2,3],[4,5,6]] → [[1,4],[2,5],[3,6]]
        assert_eq!(t.apply(&[1, 2, 3, 4, 5, 6]), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transposer_respects_element_size() {
        let t = ExtensionKind::Transposer {
            rows: 2,
            cols: 2,
            elem_bytes: 2,
        };
        // Elements: a=[1,2] b=[3,4] / c=[5,6] d=[7,8] → a c b d.
        assert_eq!(
            t.apply(&[1, 2, 3, 4, 5, 6, 7, 8]),
            vec![1, 2, 5, 6, 3, 4, 7, 8]
        );
    }

    #[test]
    fn square_transpose_is_involution() {
        let t = ExtensionKind::Transposer {
            rows: 8,
            cols: 8,
            elem_bytes: 1,
        };
        let input: Vec<u8> = (0..64).collect();
        assert_eq!(t.apply(&t.apply(&input)), input);
    }

    #[test]
    fn broadcaster_duplicates() {
        let b = ExtensionKind::Broadcaster { factor: 3 };
        assert_eq!(b.apply(&[7, 8]), vec![7, 8, 7, 8, 7, 8]);
        assert_eq!(b.output_width(2), 6);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let t = ExtensionKind::Transposer {
            rows: 2,
            cols: 3,
            elem_bytes: 1,
        };
        assert!(t.validate(6).is_ok());
        assert!(t.validate(8).is_err());
        assert!(ExtensionKind::Broadcaster { factor: 0 }
            .validate(4)
            .is_err());
        assert!(ExtensionKind::Transposer {
            rows: 0,
            cols: 3,
            elem_bytes: 1
        }
        .validate(0)
        .is_err());
    }

    #[test]
    fn chain_cascades_widths() {
        let chain = ExtensionChain::new(
            &[
                ExtensionKind::Transposer {
                    rows: 2,
                    cols: 2,
                    elem_bytes: 1,
                },
                ExtensionKind::Broadcaster { factor: 2 },
            ],
            &[],
            4,
        )
        .unwrap();
        assert_eq!(chain.input_width(), 4);
        assert_eq!(chain.output_width(), 8);
        // [[1,2],[3,4]] → transpose [1,3,2,4] → duplicate.
        assert_eq!(chain.process(&[1, 2, 3, 4]), vec![1, 3, 2, 4, 1, 3, 2, 4]);
    }

    #[test]
    fn bypass_skips_stage_and_width() {
        let chain =
            ExtensionChain::new(&[ExtensionKind::Broadcaster { factor: 4 }], &[true], 4).unwrap();
        assert_eq!(chain.output_width(), 4);
        assert_eq!(chain.process(&[9, 9, 9, 9]), vec![9, 9, 9, 9]);
    }

    #[test]
    fn bypassed_stage_geometry_not_validated() {
        // A transposer that would not fit the width is fine while bypassed —
        // the hardware mux routes around it.
        let chain = ExtensionChain::new(
            &[ExtensionKind::Transposer {
                rows: 8,
                cols: 8,
                elem_bytes: 1,
            }],
            &[true],
            4,
        );
        assert!(chain.is_ok());
    }

    #[test]
    fn empty_chain_is_identity() {
        let chain = ExtensionChain::new(&[], &[], 8).unwrap();
        assert_eq!(chain.output_width(), 8);
        assert_eq!(chain.process(&[1; 8]), vec![1; 8]);
    }

    #[test]
    fn process_into_matches_process() {
        let chain = ExtensionChain::new(
            &[
                ExtensionKind::Transposer {
                    rows: 2,
                    cols: 2,
                    elem_bytes: 1,
                },
                ExtensionKind::Broadcaster { factor: 2 },
            ],
            &[],
            4,
        )
        .unwrap();
        let mut scratch = ExtensionScratch::default();
        for word in [[1u8, 2, 3, 4], [9, 8, 7, 6], [0, 0, 1, 1]] {
            let expected = chain.process(&word);
            assert_eq!(chain.process_into(&word, &mut scratch), &expected[..]);
        }
    }

    #[test]
    fn process_into_identity_is_zero_copy() {
        let chain =
            ExtensionChain::new(&[ExtensionKind::Broadcaster { factor: 4 }], &[true], 4).unwrap();
        let input = [5u8; 4];
        let mut scratch = ExtensionScratch::default();
        let out = chain.process_into(&input, &mut scratch);
        assert_eq!(out.as_ptr(), input.as_ptr(), "bypassed chain must not copy");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_input_panics() {
        let chain = ExtensionChain::new(&[], &[], 8).unwrap();
        let _ = chain.process(&[0; 4]);
    }

    #[test]
    fn display_names() {
        assert_eq!(
            ExtensionKind::Transposer {
                rows: 8,
                cols: 8,
                elem_bytes: 1
            }
            .to_string(),
            "transposer(8x8x1B)"
        );
        assert_eq!(
            ExtensionKind::Broadcaster { factor: 8 }.to_string(),
            "broadcaster(x8)"
        );
    }

    /// Transposing twice returns the original for every tile shape up to
    /// 5×5 (rows ↔ cols swap on the second application).
    #[test]
    fn transpose_involution() {
        for rows in 1..6 {
            for cols in 1..6 {
                for elem_bytes in 1..3 {
                    let data: Vec<u8> = (0..rows * cols * elem_bytes).map(|i| i as u8).collect();
                    let t1 = ExtensionKind::Transposer {
                        rows,
                        cols,
                        elem_bytes,
                    };
                    let t2 = ExtensionKind::Transposer {
                        rows: cols,
                        cols: rows,
                        elem_bytes,
                    };
                    assert_eq!(
                        t2.apply(&t1.apply(&data)),
                        data,
                        "{rows}x{cols}x{elem_bytes}"
                    );
                }
            }
        }
    }

    /// Broadcast output is `factor` concatenated copies of the input.
    #[test]
    fn broadcast_copies() {
        let mut rng = SplitMix64::new(0xb4c);
        for case in 0..256 {
            let data: Vec<u8> = (0..1 + rng.below(31))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let factor = 1 + rng.below(4) as usize;
            let out = ExtensionKind::Broadcaster { factor }.apply(&data);
            assert_eq!(out.len(), data.len() * factor, "case {case}");
            for chunk in out.chunks(data.len()) {
                assert_eq!(chunk, &data[..], "case {case}");
            }
        }
    }
}
