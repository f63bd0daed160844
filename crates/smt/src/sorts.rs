//! Sorts (types) of SMT terms.
//!
//! The VMN encoder needs two: booleans and fixed-width bit-vectors
//! (addresses, ports, node indices, header fields).

use std::fmt;

/// The sort of a term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Propositional booleans.
    Bool,
    /// Bit-vectors of the given positive width (≤ 64).
    BitVec(u32),
}

impl Sort {
    /// Bit-vector sort of width `w`. Panics if `w` is zero or above 64;
    /// VMN header fields all fit in 64 bits.
    pub fn bitvec(w: u32) -> Sort {
        assert!((1..=64).contains(&w), "bit-vector width must be in 1..=64, got {w}");
        Sort::BitVec(w)
    }

    pub fn is_bool(self) -> bool {
        matches!(self, Sort::Bool)
    }

    pub fn bv_width(self) -> Option<u32> {
        match self {
            Sort::BitVec(w) => Some(w),
            _ => None,
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(w) => write!(f, "(BitVec {w})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_widths() {
        assert_eq!(Sort::bitvec(32).bv_width(), Some(32));
        assert_eq!(Sort::Bool.bv_width(), None);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        Sort::bitvec(0);
    }
}
