//! Strongly typed clock-cycle counts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A count of clock cycles.
///
/// `Cycle` is a transparent newtype over `u64` ([C-NEWTYPE]); it exists so
/// that cycle counts cannot be confused with byte counts, element counts or
/// addresses anywhere in the simulator.
///
/// # Examples
///
/// ```
/// use dm_sim::Cycle;
///
/// let start = Cycle::new(10);
/// let end = start + 5;
/// assert_eq!(end - start, Cycle::new(5));
/// assert_eq!(end.get(), 15);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// The zeroth cycle.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        Cycle(value)
    }

    /// Returns the raw count.
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Advances by one cycle.
    pub fn advance(&mut self) {
        self.0 += 1;
    }

    /// Saturating subtraction; useful for latencies that may be measured
    /// across a wrap-less but unordered pair of stamps.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

impl From<Cycle> for u64 {
    fn from(value: Cycle) -> Self {
        value.0
    }
}

impl Add for Cycle {
    type Output = Cycle;

    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;

    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_u64() {
        let a = Cycle::new(7);
        let b = Cycle::new(3);
        assert_eq!(a + b, Cycle::new(10));
        assert_eq!(a - b, Cycle::new(4));
        assert_eq!(a + 1, Cycle::new(8));
    }

    #[test]
    fn advance_increments() {
        let mut c = Cycle::ZERO;
        c.advance();
        c.advance();
        assert_eq!(c, Cycle::new(2));
    }

    #[test]
    fn saturating_sub_clamps_at_zero() {
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(5)), Cycle::ZERO);
        assert_eq!(Cycle::new(5).saturating_sub(Cycle::new(3)), Cycle::new(2));
    }

    #[test]
    fn display_and_conversions() {
        let c = Cycle::from(42u64);
        assert_eq!(c.to_string(), "42 cycles");
        assert_eq!(u64::from(c), 42);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [Cycle::new(1), Cycle::new(2), Cycle::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycle::new(6));
    }

    #[test]
    fn add_assign_variants() {
        let mut c = Cycle::new(1);
        c += Cycle::new(2);
        c += 3;
        assert_eq!(c, Cycle::new(6));
        c -= Cycle::new(4);
        assert_eq!(c, Cycle::new(2));
    }
}
