//! Bulk logical operations on [`BitVec`].
//!
//! These are the physical counterparts of the Boolean connectives in the
//! paper's retrieval functions: `x AND y` (`&`), `x OR y` (`+` in the
//! paper, `|` here), `x'` (negation, [`BitVec::negated`]), and bitwise XOR
//! (`⊕`, used by the binary-distance definition and footnote 3's
//! don't-care rewrite).
//!
//! All binary operations require equal lengths and panic otherwise —
//! bitmap vectors over the same table always have identical length, so a
//! mismatch is a logic error, not a recoverable condition.

use crate::core::BitVec;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

impl BitVec {
    /// In-place `self &= other`.
    pub fn and_assign(&mut self, other: &Self) {
        self.check_len(other, "AND");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place `self |= other`.
    pub fn or_assign(&mut self, other: &Self) {
        self.check_len(other, "OR");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place `self ^= other`.
    pub fn xor_assign(&mut self, other: &Self) {
        self.check_len(other, "XOR");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place `self &= !other` ("and not", i.e. set difference).
    pub fn and_not_assign(&mut self, other: &Self) {
        self.check_len(other, "AND NOT");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Returns `self & !other` (set difference).
    #[must_use]
    pub fn and_not(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_not_assign(other);
        out
    }

    /// In-place bitwise complement (the paper's `B'`). The tail invariant
    /// is restored so bits beyond `len()` stay zero.
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns the bitwise complement (the paper's `B'`).
    #[must_use]
    pub fn negated(&self) -> Self {
        let mut out = self.clone();
        out.negate();
        out
    }

    /// `true` if `self & other` has no set bit, without materialising the
    /// intersection.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.check_len(other, "is_disjoint");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Population count of `self & other` without materialising it.
    #[must_use]
    pub fn and_count(&self, other: &Self) -> usize {
        self.check_len(other, "and_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $assign:ident) => {
        impl $trait<&BitVec> for &BitVec {
            type Output = BitVec;
            fn $method(self, rhs: &BitVec) -> BitVec {
                let mut out = self.clone();
                out.$assign(rhs);
                out
            }
        }
        impl $trait<&BitVec> for BitVec {
            type Output = BitVec;
            fn $method(mut self, rhs: &BitVec) -> BitVec {
                self.$assign(rhs);
                self
            }
        }
    };
}

binop!(BitAnd, bitand, and_assign);
binop!(BitOr, bitor, or_assign);
binop!(BitXor, bitxor, xor_assign);

impl BitAndAssign<&BitVec> for BitVec {
    fn bitand_assign(&mut self, rhs: &BitVec) {
        self.and_assign(rhs);
    }
}
impl BitOrAssign<&BitVec> for BitVec {
    fn bitor_assign(&mut self, rhs: &BitVec) {
        self.or_assign(rhs);
    }
}
impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}
impl Not for &BitVec {
    type Output = BitVec;
    fn not(self) -> BitVec {
        self.negated()
    }
}
impl Not for BitVec {
    type Output = BitVec;
    fn not(mut self) -> BitVec {
        self.negate();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (BitVec, BitVec) {
        let a: BitVec = (0..150).map(|i| i % 2 == 0).collect();
        let b: BitVec = (0..150).map(|i| i % 3 == 0).collect();
        (a, b)
    }

    #[test]
    fn and_keeps_common_bits() {
        let (a, b) = sample();
        let c = &a & &b;
        for i in 0..150 {
            assert_eq!(c.bit(i), i % 2 == 0 && i % 3 == 0, "bit {i}");
        }
        assert_eq!(c.count_ones(), 25); // multiples of 6 in 0..150
    }

    #[test]
    fn or_keeps_union() {
        let (a, b) = sample();
        let c = &a | &b;
        for i in 0..150 {
            assert_eq!(c.bit(i), i % 2 == 0 || i % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn xor_keeps_symmetric_difference() {
        let (a, b) = sample();
        let c = &a ^ &b;
        for i in 0..150 {
            assert_eq!(c.bit(i), (i % 2 == 0) != (i % 3 == 0), "bit {i}");
        }
    }

    #[test]
    fn negation_preserves_tail_invariant() {
        let a: BitVec = (0..70).map(|i| i < 35).collect();
        let n = a.negated();
        assert_eq!(n.count_ones(), 35);
        assert_eq!(n.len(), 70);
        // Double negation is identity.
        assert_eq!(n.negated(), a);
        // Tail bits beyond len stayed zero: count via words.
        assert_eq!(n.words().iter().map(|w| w.count_ones()).sum::<u32>(), 35);
    }

    #[test]
    fn and_not_is_set_difference() {
        let (a, b) = sample();
        let c = a.and_not(&b);
        for i in 0..150 {
            assert_eq!(c.bit(i), i % 2 == 0 && i % 3 != 0, "bit {i}");
        }
    }

    #[test]
    fn demorgan_laws_hold() {
        let (a, b) = sample();
        assert_eq!((&a & &b).negated(), &a.negated() | &b.negated());
        assert_eq!((&a | &b).negated(), &a.negated() & &b.negated());
    }

    #[test]
    fn xor_equals_or_minus_and() {
        // Footnote 3 of the paper: for {b, c} with don't-care 11,
        // B1 ⊕ B0 and B1 + B0 agree except on the don't-care rows.
        let (a, b) = sample();
        let x = &a ^ &b;
        let expected = (&a | &b).and_not(&(&a & &b));
        assert_eq!(x, expected);
    }

    #[test]
    fn disjoint_and_intersection_count() {
        let a = BitVec::from_positions(100, &[1, 5, 9]);
        let b = BitVec::from_positions(100, &[1, 5, 9, 50]);
        let c = BitVec::from_positions(100, &[2, 6]);
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.and_count(&b), 3);
        assert_eq!(a.and_count(&c), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        let _ = &a & &b;
    }

    #[test]
    fn assign_operator_forms() {
        let (a, b) = sample();
        let mut c = a.clone();
        c &= &b;
        assert_eq!(c, &a & &b);
        let mut d = a.clone();
        d |= &b;
        assert_eq!(d, &a | &b);
        let mut e = a.clone();
        e ^= &b;
        assert_eq!(e, &a ^ &b);
        assert_eq!(!a.clone(), a.negated());
    }
}
