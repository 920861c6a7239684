//! Minimal-period detection over digest sequences.
//!
//! Shared between the static performance prover (`dm-analyze`), which
//! proves the per-step bank-signature stream of an affine AGU periodic,
//! and the differential soundness tests, which compare that proof against
//! the fire-cycle digest of a simulated run (the cycles of the `PeFire`
//! events on its traced `system` track).
//!
//! The period returned is the *weak* (prefix) period: the smallest `p ≥ 1`
//! with `seq[i] == seq[i + p]` for every valid `i`, computed in O(n) via
//! the KMP failure function (`p = n − border(n)`). For a sequence that is
//! a whole number of repetitions this coincides with the strong period;
//! either way, any longer sequence extending `seq` periodically has `p`
//! among its periods, which is the direction the soundness argument needs.
//! Conversely, every period of a sequence is a period of each of its
//! prefixes, so a prefix's minimal period never exceeds the whole
//! sequence's. The prover relies on that: it runs the failure function
//! over a growing prefix ([`Borders`]) and takes the prefix's period as
//! the candidate it then proves for the whole stream.

/// The KMP failure function of a sequence that grows at its end, so that
/// the minimal weak period of every prefix costs only the new elements.
///
/// Kept as `u32`, four bytes per element.
#[derive(Debug, Clone, Default)]
pub struct Borders {
    /// `border[i]`: length of the longest proper border (prefix that is
    /// also a suffix) of `seq[..=i]`.
    border: Vec<u32>,
}

impl Borders {
    /// Extends the failure function over `seq`, whose first elements are
    /// the ones it was extended over before (a sequence only grows).
    ///
    /// # Panics
    ///
    /// If `seq` is longer than `u32::MAX`.
    pub fn extend<T: Eq>(&mut self, seq: &[T]) {
        assert!(
            u32::try_from(seq.len()).is_ok(),
            "sequence length fits the u32 failure function"
        );
        debug_assert!(self.border.len() <= seq.len(), "a sequence only grows");
        self.border
            .reserve(seq.len().saturating_sub(self.border.len()));
        let mut k = self.border.last().copied().unwrap_or(0);
        for i in self.border.len()..seq.len() {
            if i > 0 {
                while k > 0 && seq[i] != seq[k as usize] {
                    k = self.border[k as usize - 1];
                }
                if seq[i] == seq[k as usize] {
                    k += 1;
                }
            }
            self.border.push(k);
        }
    }

    /// The minimal weak period of the sequence extended over so far;
    /// sequences of length ≤ 1 are trivially `1`-periodic.
    #[must_use]
    pub fn period(&self) -> u64 {
        match self.border.last() {
            Some(&b) => (self.border.len() - b as usize) as u64,
            None => 1,
        }
    }
}

/// The minimal (weak) period of `seq`: the smallest `p ≥ 1` such that
/// `seq[i] == seq[i + p]` whenever both indices are in range. Sequences of
/// length ≤ 1 are trivially `1`-periodic. [`Borders`] gives the same for
/// each prefix of a growing sequence.
///
/// # Panics
///
/// If `seq` is longer than `u32::MAX`: the failure function is kept as
/// `u32`, four bytes per element.
#[must_use]
pub fn minimal_period<T: Eq>(seq: &[T]) -> u64 {
    let mut borders = Borders::default();
    borders.extend(seq);
    borders.period()
}

/// `true` when `p` is a (weak) period of `seq`: `seq[i] == seq[i + p]`
/// for every `i` with `i + p < seq.len()`. `p == 0` is never a period.
#[must_use]
pub fn is_periodic_with<T: Eq>(seq: &[T], p: u64) -> bool {
    if p == 0 {
        return false;
    }
    let Ok(p) = usize::try_from(p) else {
        // A period beyond the sequence length constrains nothing.
        return true;
    };
    seq.len() <= p || (0..seq.len() - p).all(|i| seq[i] == seq[i + p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_sequences_are_trivially_periodic() {
        assert_eq!(minimal_period::<u64>(&[]), 1);
        assert_eq!(minimal_period(&[7u64]), 1);
        assert_eq!(minimal_period(&[3u64; 100]), 1);
    }

    #[test]
    fn repeating_patterns_find_the_fundamental_period() {
        assert_eq!(minimal_period(b"abcabcabc"), 3);
        assert_eq!(minimal_period(b"abab"), 2);
        assert_eq!(minimal_period(b"abcd"), 4);
        // Weak period: a partial final repetition still counts.
        assert_eq!(minimal_period(b"abcabcab"), 3);
    }

    #[test]
    fn minimal_period_is_minimal_and_valid() {
        for seq in [
            vec![1u64, 2, 1, 2, 1, 2, 1],
            vec![0, 0, 1, 0, 0, 1],
            vec![5, 4, 3, 2, 1],
            vec![1, 1, 2, 1, 1, 2, 1, 1],
        ] {
            let p = minimal_period(&seq);
            assert!(is_periodic_with(&seq, p), "{seq:?} not {p}-periodic");
            for q in 1..p {
                assert!(!is_periodic_with(&seq, q), "{seq:?} has period {q} < {p}");
            }
        }
    }

    #[test]
    fn any_multiple_of_the_period_is_a_period_of_full_repetitions() {
        let seq: Vec<u64> = (0..60).map(|i| i % 5).collect();
        assert_eq!(minimal_period(&seq), 5);
        for k in 1..6 {
            assert!(is_periodic_with(&seq, 5 * k));
        }
        assert!(!is_periodic_with(&seq, 3));
        assert!(!is_periodic_with(&seq, 0));
    }

    #[test]
    fn growing_borders_give_every_prefix_period() {
        let seq = b"abaabaabaabbabaab";
        let mut borders = Borders::default();
        assert_eq!(borders.period(), 1);
        for len in [1, 2, 3, 5, 8, 11, 12, 17] {
            borders.extend(&seq[..len]);
            assert_eq!(
                borders.period(),
                minimal_period(&seq[..len]),
                "prefix {len}"
            );
        }
        // A prefix's period never exceeds the whole sequence's.
        let whole = minimal_period(seq);
        assert!((1..=seq.len()).all(|n| minimal_period(&seq[..n]) <= whole));
    }

    #[test]
    fn oversized_periods_constrain_nothing() {
        assert!(is_periodic_with(&[1u64, 2, 3], 3));
        assert!(is_periodic_with(&[1u64, 2, 3], u64::MAX));
    }
}
