//! Disjunctive-normal-form expressions over bitmap-slice variables.

use crate::cube::Cube;
use std::fmt;

/// A sum (OR) of product terms over `k` bitmap-slice variables.
///
/// This is the shape of every retrieval Boolean expression in the paper:
/// the raw form is a sum of min-terms (one per selected value); the reduced
/// form is whatever [`crate::qm::minimize`] produces.
///
/// A cover written by [`crate::interval::cover`] also carries the code
/// interval it selects ([`DnfExpr::interval`]). That is a note on how
/// the expression may be evaluated, not part of what it is: equality,
/// hashing and the text ignore it.
#[derive(Clone)]
pub struct DnfExpr {
    cubes: Vec<Cube>,
    k: u32,
    interval: Option<(u64, u64)>,
}

impl PartialEq for DnfExpr {
    fn eq(&self, other: &Self) -> bool {
        (self.k, &self.cubes) == (other.k, &other.cubes)
    }
}

impl Eq for DnfExpr {}

impl std::hash::Hash for DnfExpr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.cubes.hash(state);
        self.k.hash(state);
    }
}

/// Error from [`DnfExpr::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse DNF expression: {}", self.detail)
    }
}

impl std::error::Error for ParseExprError {}

impl DnfExpr {
    /// The constant-false expression (empty sum).
    #[must_use]
    pub fn empty(k: u32) -> Self {
        Self {
            cubes: Vec::new(),
            k,
            interval: None,
        }
    }

    /// Builds an expression from cubes, normalising order and duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any cube fixes a variable at position `>= k`.
    #[must_use]
    pub fn from_cubes(mut cubes: Vec<Cube>, k: u32) -> Self {
        let universe = if k == 0 { 0 } else { (1u64 << k) - 1 };
        for c in &cubes {
            assert!(
                c.mask() & !universe == 0,
                "cube {c} uses variables beyond k={k}"
            );
        }
        cubes.sort_unstable();
        cubes.dedup();
        Self {
            cubes,
            k,
            interval: None,
        }
    }

    /// The sum of min-terms for `codes` — the *unreduced* retrieval
    /// expression for the selection `A IN {values encoded as codes}`.
    #[must_use]
    pub fn minterm_sum(codes: &[u64], k: u32) -> Self {
        Self::from_cubes(codes.iter().map(|&c| Cube::minterm(c, k)).collect(), k)
    }

    /// The code interval `[L, H]` this cover selects, where
    /// [`crate::interval::cover`] wrote it: the widest run of selected or
    /// free codes around the selection. On every code that is not free
    /// the cubes hold exactly inside it; on a free code the two may
    /// differ, and no row holds one. `None` for every other expression.
    #[must_use]
    pub fn interval(&self) -> Option<(u64, u64)> {
        self.interval
    }

    /// `self`, noted as the cover of the code interval `lo..=hi`.
    pub(crate) fn with_interval(self, lo: u64, hi: u64) -> Self {
        Self {
            interval: Some((lo, hi)),
            ..self
        }
    }

    /// Number of variables (bitmap slices) in scope.
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The product terms, sorted.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// `true` if the expression is the empty sum (constant false).
    #[must_use]
    pub fn is_false(&self) -> bool {
        self.cubes.is_empty()
    }

    /// `true` if some cube is the empty product (constant true).
    #[must_use]
    pub fn is_true(&self) -> bool {
        self.cubes.iter().any(|c| c.mask() == 0)
    }

    /// Union of fixed-variable masks: which bitmap slices the expression
    /// reads.
    #[must_use]
    pub fn support(&self) -> u64 {
        self.cubes.iter().fold(0, |acc, c| acc | c.mask())
    }

    /// Number of *distinct bitmap vectors accessed* when evaluating this
    /// expression — the paper's cost metric `c_e` (footnote 4): a vector
    /// is read once whether it appears positively, negated, or both.
    #[must_use]
    pub fn vectors_accessed(&self) -> usize {
        self.support().count_ones() as usize
    }

    /// Total literal count across all product terms (a secondary cost
    /// measure: number of word-level AND/NOT operations).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(|c| c.literal_count() as usize).sum()
    }

    /// `true` if the expression is satisfied by min-term `code`.
    #[must_use]
    pub fn covers(&self, code: u64) -> bool {
        self.cubes.iter().any(|c| c.covers(code))
    }

    /// Enumerates all satisfying codes in `0..2^k`, ascending.
    ///
    /// Intended for verification; cost is `O(cubes · 2^k)` in the worst
    /// case but proportional to the covered set via cube expansion.
    #[must_use]
    pub fn truth_set(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.cubes.iter().flat_map(|c| c.expand(self.k)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Semantic equivalence: identical truth sets.
    #[must_use]
    pub fn equivalent(&self, other: &Self) -> bool {
        self.k == other.k && self.truth_set() == other.truth_set()
    }

    /// Parses the paper's notation: product terms of `B<i>` literals with
    /// optional `'` for negation, joined by `+`. `"0"` parses as the empty
    /// sum and `"1"` as the tautology.
    ///
    /// ```
    /// use ebi_boolean::DnfExpr;
    /// let e = DnfExpr::parse("B2'B1'B0 + B2B1'B0", 3).unwrap();
    /// assert_eq!(e.vectors_accessed(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseExprError`] on malformed input or variables `>= k`.
    pub fn parse(text: &str, k: u32) -> Result<Self, ParseExprError> {
        let trimmed = text.trim();
        if trimmed == "0" {
            return Ok(Self::empty(k));
        }
        let mut cubes = Vec::new();
        for term in trimmed.split('+') {
            let term = term.trim();
            if term == "1" {
                cubes.push(Cube::tautology());
                continue;
            }
            if term.is_empty() {
                return Err(ParseExprError {
                    detail: "empty product term".into(),
                });
            }
            let mut mask = 0u64;
            let mut value = 0u64;
            let mut chars = term.chars().peekable();
            while let Some(ch) = chars.next() {
                if ch.is_whitespace() {
                    continue;
                }
                if ch != 'B' {
                    return Err(ParseExprError {
                        detail: format!("expected 'B', found {ch:?} in {term:?}"),
                    });
                }
                let mut digits = String::new();
                while let Some(d) = chars.peek().filter(|d| d.is_ascii_digit()) {
                    digits.push(*d);
                    chars.next();
                }
                if digits.is_empty() {
                    return Err(ParseExprError {
                        detail: format!("'B' without index in {term:?}"),
                    });
                }
                let idx: u32 = digits.parse().map_err(|_| ParseExprError {
                    detail: format!("bad index {digits:?}"),
                })?;
                if idx >= k {
                    return Err(ParseExprError {
                        detail: format!("variable B{idx} out of range for k={k}"),
                    });
                }
                let negated = chars.peek() == Some(&'\'');
                if negated {
                    chars.next();
                }
                if mask >> idx & 1 == 1 {
                    return Err(ParseExprError {
                        detail: format!("variable B{idx} repeated in {term:?}"),
                    });
                }
                mask |= 1 << idx;
                if !negated {
                    value |= 1 << idx;
                }
            }
            cubes.push(Cube::new(value, mask));
        }
        Ok(Self::from_cubes(cubes, k))
    }
}

impl fmt::Display for DnfExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return f.write_str("0");
        }
        for (i, cube) in self.cubes.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            fmt::Display::fmt(cube, f)?;
        }
        Ok(())
    }
}

impl fmt::Debug for DnfExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DnfExpr[k={}]({self})", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minterm_sum_covers_exactly_its_codes() {
        let e = DnfExpr::minterm_sum(&[0b00, 0b10], 2);
        assert_eq!(e.truth_set(), vec![0b00, 0b10]);
        assert!(e.covers(0b10));
        assert!(!e.covers(0b01));
        assert_eq!(e.vectors_accessed(), 2);
        assert_eq!(e.literal_count(), 4);
    }

    #[test]
    fn parse_roundtrips_display() {
        for text in ["B1'", "B2'B1'B0 + B2B1'", "B0", "1", "0"] {
            let e = DnfExpr::parse(text, 3).unwrap();
            let again = DnfExpr::parse(&e.to_string(), 3).unwrap();
            assert_eq!(e, again, "{text}");
        }
    }

    #[test]
    fn display_renders_constants_and_wide_indices() {
        assert_eq!(DnfExpr::empty(3).to_string(), "0");
        assert_eq!(
            DnfExpr::from_cubes(vec![Cube::tautology()], 3).to_string(),
            "1"
        );
        let wide = DnfExpr::from_cubes(
            vec![
                Cube::new(1 << 10, 1 << 62 | 1 << 10 | 1 << 9),
                Cube::new(1 << 12, 1 << 12),
            ],
            63,
        );
        assert_eq!(wide.to_string(), "B62'B10B9' + B12");
        assert_eq!(format!("{wide:?}"), "DnfExpr[k=63](B62'B10B9' + B12)");
    }

    #[test]
    fn parse_inverts_display_on_seeded_expressions() {
        // xorshift64: 200 expressions of 0..=12 cubes over k = 1..=63,
        // the tautology and the empty sum among them.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut constants = [false, false];
        for case in 0..200u32 {
            let k = 1 + case % 63;
            let universe = (1u64 << k) - 1;
            let cubes = (0..next() % 13)
                .map(|_| Cube::new(next(), next() & next() & universe))
                .collect();
            let e = DnfExpr::from_cubes(cubes, k);
            constants[0] |= e.is_false();
            constants[1] |= e.is_true();
            assert_eq!(DnfExpr::parse(&e.to_string(), k), Ok(e));
        }
        assert_eq!(constants, [true, true]);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(DnfExpr::parse("X1", 2).is_err());
        assert!(DnfExpr::parse("B", 2).is_err());
        assert!(DnfExpr::parse("B5", 2).is_err(), "variable out of range");
        assert!(DnfExpr::parse("B1B1", 2).is_err(), "repeated variable");
        assert!(DnfExpr::parse("B1 + ", 2).is_err(), "trailing +");
    }

    #[test]
    fn parse_accepts_whitespace_and_multidigit_indices() {
        let e = DnfExpr::parse("B13' B2", 14).unwrap();
        assert_eq!(e.support(), (1 << 13) | (1 << 2));
    }

    #[test]
    fn constants_behave() {
        let f = DnfExpr::empty(3);
        assert!(f.is_false() && !f.is_true());
        assert!(f.truth_set().is_empty());
        let t = DnfExpr::parse("1", 3).unwrap();
        assert!(t.is_true() && !t.is_false());
        assert_eq!(t.truth_set().len(), 8);
        assert_eq!(t.vectors_accessed(), 0);
    }

    #[test]
    fn equivalence_is_semantic_not_syntactic() {
        // B1'B0' + B1'B0  ≡  B1'
        let raw = DnfExpr::minterm_sum(&[0b00, 0b01], 2);
        let reduced = DnfExpr::parse("B1'", 2).unwrap();
        assert!(raw.equivalent(&reduced));
        assert_ne!(raw, reduced);
        let other = DnfExpr::parse("B0'", 2).unwrap();
        assert!(!raw.equivalent(&other));
    }

    #[test]
    fn duplicate_cubes_are_normalised_away() {
        let e = DnfExpr::from_cubes(
            vec![
                Cube::minterm(1, 2),
                Cube::minterm(1, 2),
                Cube::minterm(2, 2),
            ],
            2,
        );
        assert_eq!(e.cubes().len(), 2);
    }

    #[test]
    fn support_counts_negated_variables_too() {
        // Reading B2' still requires fetching bitmap vector B2.
        let e = DnfExpr::parse("B2'B0", 3).unwrap();
        assert_eq!(e.vectors_accessed(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond k")]
    fn from_cubes_rejects_out_of_scope_variables() {
        let _ = DnfExpr::from_cubes(vec![Cube::minterm(0b100, 3)], 2);
    }
}
