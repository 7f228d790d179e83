//! Implicants (product terms) over bitmap-slice variables.

use std::fmt;

/// Maximum number of Boolean variables (bitmap slices) supported.
///
/// `k = ceil(log2 |A|)`, so 63 slices covers attribute cardinalities far
/// beyond anything a warehouse dimension reaches (2^63 distinct values).
pub const MAX_VARS: u32 = 63;

/// A product term (implicant) over `k` Boolean variables.
///
/// Variable `i` corresponds to bitmap slice `B_i` (LSB-first, matching the
/// paper's `B_0 … B_{k-1}`). A cube fixes some variables to a polarity and
/// leaves the rest absent:
///
/// * `mask` bit `i` = 1 ⇒ variable `i` appears in the product;
/// * `value` bit `i` (only meaningful where `mask` is set) ⇒ the variable
///   appears positively (`B_i`) if 1, negated (`B_i'`) if 0.
///
/// A full-mask cube over `k` variables is a *min-term* — the paper's
/// fundamental conjunction of Definition 2.1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    value: u64,
    mask: u64,
}

impl Cube {
    /// Creates a cube from fixed-variable `mask` and polarity `value`.
    ///
    /// Bits of `value` outside `mask` are cleared, so equal cubes compare
    /// equal regardless of how the caller set don't-care value bits.
    #[must_use]
    pub fn new(value: u64, mask: u64) -> Self {
        Self {
            value: value & mask,
            mask,
        }
    }

    /// The min-term for `code` over `k` variables: every variable fixed.
    ///
    /// This is the retrieval function `f_v` of Definition 2.1 for a value
    /// encoded as `code`.
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_VARS` or `code` does not fit in `k` bits.
    #[must_use]
    pub fn minterm(code: u64, k: u32) -> Self {
        assert!(k <= MAX_VARS, "k={k} exceeds MAX_VARS");
        let mask = if k == 0 { 0 } else { (1u64 << k) - 1 };
        assert!(code & !mask == 0, "code {code:#b} does not fit in {k} bits");
        Self::new(code, mask)
    }

    /// The always-true cube (empty product).
    #[must_use]
    pub fn tautology() -> Self {
        Self { value: 0, mask: 0 }
    }

    /// Polarity bits (meaningful where [`Cube::mask`] is set).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Fixed-variable mask.
    #[must_use]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of literals in the product term.
    #[must_use]
    pub fn literal_count(&self) -> u32 {
        self.mask.count_ones()
    }

    /// `true` if this cube's truth set contains min-term `code`.
    #[must_use]
    pub fn covers(&self, code: u64) -> bool {
        code & self.mask == self.value
    }

    /// `true` if every min-term covered by `other` is covered by `self`.
    #[must_use]
    pub fn subsumes(&self, other: &Cube) -> bool {
        // self's fixed vars must be a subset of other's, with equal polarity.
        self.mask & !other.mask == 0 && other.value & self.mask == self.value
    }

    /// Attempts the Quine–McCluskey merge: if the cubes fix the same
    /// variables and differ in exactly one polarity bit, returns the merged
    /// cube with that variable dropped.
    #[must_use]
    pub fn combine(&self, other: &Cube) -> Option<Cube> {
        if self.mask != other.mask {
            return None;
        }
        let diff = self.value ^ other.value;
        if diff.count_ones() != 1 {
            return None;
        }
        Some(Cube::new(self.value & !diff, self.mask & !diff))
    }

    /// Enumerates the min-terms (over `k` variables) covered by this cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube fixes variables at positions `>= k`.
    pub fn expand(&self, k: u32) -> Vec<u64> {
        let universe = if k == 0 { 0 } else { (1u64 << k) - 1 };
        assert!(self.mask & !universe == 0, "cube uses variables >= k");
        let free = universe & !self.mask;
        // Iterate all subsets of the free positions.
        let mut out = Vec::with_capacity(1 << free.count_ones());
        let mut sub = 0u64;
        loop {
            out.push(self.value | sub);
            if sub == free {
                break;
            }
            sub = (sub.wrapping_sub(free)) & free;
        }
        out.sort_unstable();
        out
    }

    /// Renders in the paper's notation: `B2'B1B0`, MSB-first; the empty
    /// product renders as `1`.
    #[must_use]
    pub fn display(&self) -> String {
        self.to_string()
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({})", self.display())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask == 0 {
            return f.write_str("1");
        }
        // The cube is built here and handed over in one write (an
        // expression is rendered per request): at most 64 literals of at
        // most 4 bytes each, `B63'`.
        let mut text = [0u8; 256];
        let mut len = 0;
        let mut push = |byte: u8| {
            text[len] = byte;
            len += 1;
        };
        let mut rest = self.mask;
        while rest != 0 {
            let i = 63 - rest.leading_zeros();
            rest &= !(1 << i);
            push(b'B');
            if i >= 10 {
                push(b'0' + (i / 10) as u8);
            }
            push(b'0' + (i % 10) as u8);
            if self.value >> i & 1 == 0 {
                push(b'\'');
            }
        }
        f.write_str(std::str::from_utf8(&text[..len]).expect("ASCII literals"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_fixes_all_variables() {
        let m = Cube::minterm(0b101, 3);
        assert_eq!(m.literal_count(), 3);
        assert!(m.covers(0b101));
        assert!(!m.covers(0b100));
        assert_eq!(m.display(), "B2B1'B0");
    }

    #[test]
    fn value_bits_outside_mask_are_normalised() {
        let a = Cube::new(0b111, 0b101);
        let b = Cube::new(0b101, 0b101);
        assert_eq!(a, b);
    }

    #[test]
    fn combine_merges_distance_one_cubes() {
        // B1'B0' + B1'B0 -> B1'  (Figure 1's reduction for {a, b}).
        let a = Cube::minterm(0b00, 2);
        let b = Cube::minterm(0b01, 2);
        let merged = a.combine(&b).unwrap();
        assert_eq!(merged.display(), "B1'");
        assert!(merged.covers(0b00) && merged.covers(0b01));
        assert!(!merged.covers(0b10));
    }

    #[test]
    fn combine_rejects_distance_two_or_mask_mismatch() {
        let a = Cube::minterm(0b00, 2);
        let c = Cube::minterm(0b11, 2);
        assert_eq!(a.combine(&c), None);
        let wide = Cube::new(0b0, 0b01);
        assert_eq!(a.combine(&wide), None);
    }

    #[test]
    fn subsumes_orders_by_generality() {
        let general = Cube::new(0b00, 0b10); // B1'
        let specific = Cube::minterm(0b01, 2); // B1'B0
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        assert!(general.subsumes(&general));
        assert!(Cube::tautology().subsumes(&specific));
    }

    #[test]
    fn expand_enumerates_covered_minterms() {
        let c = Cube::new(0b00, 0b10); // B1' over k=3 leaves vars 0 and 2 free
        assert_eq!(c.expand(3), vec![0b000, 0b001, 0b100, 0b101]);
        assert_eq!(Cube::tautology().expand(2), vec![0, 1, 2, 3]);
        assert_eq!(Cube::minterm(0b11, 2).expand(2), vec![3]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Cube::minterm(0b000, 3).display(), "B2'B1'B0'");
        assert_eq!(Cube::new(0b100, 0b110).display(), "B2B1'");
        assert_eq!(Cube::tautology().display(), "1");
        // Two-digit slice indices, up to the last bit a mask can hold.
        let wide = Cube::new(1 << 10, 1 << 63 | 1 << 10 | 1 << 9);
        assert_eq!(wide.display(), "B63'B10B9'");
        assert_eq!(format!("{wide:?}"), "Cube(B63'B10B9')");
        // The longest cube there is: every literal negated.
        let all = Cube::new(0, u64::MAX).display();
        assert_eq!(all.len(), 10 * 3 + 54 * 4);
        assert!(all.starts_with("B63'B62'") && all.ends_with("B10'B9'B8'B7'B6'B5'B4'B3'B2'B1'B0'"));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn minterm_rejects_oversized_code() {
        let _ = Cube::minterm(0b100, 2);
    }
}
