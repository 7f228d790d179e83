//! Identity and Gray-code encodings.

use super::{EncodingProblem, EncodingStrategy};
use crate::error::CoreError;
use crate::mapping::Mapping;

/// Codes assigned in ascending value order — the trivial encoding that
/// makes the EBI coincide with Sarawagi's *dynamic bitmaps* (§4) and, on
/// integer domains, with a bit-sliced index.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityEncoding;

impl EncodingStrategy for IdentityEncoding {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn encode(&self, problem: &EncodingProblem<'_>) -> Result<Mapping, CoreError> {
        problem.validate()?;
        let mut values = problem.values.to_vec();
        values.sort_unstable();
        let allowed = problem.allowed_codes();
        let mut mapping = Mapping::new(problem.width);
        for (v, c) in values.into_iter().zip(allowed) {
            mapping.insert(v, c)?;
        }
        Ok(mapping)
    }
}

/// Codes assigned along the reflected Gray cycle: consecutive values
/// differ in exactly one bit, so contiguous value ranges tend to tile
/// subcubes and reduce to few vectors.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrayEncoding;

/// The `i`-th reflected Gray code.
#[must_use]
pub(crate) fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

impl EncodingStrategy for GrayEncoding {
    fn name(&self) -> &'static str {
        "gray"
    }

    fn encode(&self, problem: &EncodingProblem<'_>) -> Result<Mapping, CoreError> {
        problem.validate()?;
        let mut values = problem.values.to_vec();
        values.sort_unstable();
        let codes = (0..(1u64 << problem.width))
            .map(gray)
            .filter(|c| !problem.forbidden_codes.contains(c));
        Mapping::with_pairs(problem.width, values.into_iter().zip(codes).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::binary_distance;
    use crate::well_defined::achieved_cost;

    fn problem<'a>(
        values: &'a [u64],
        predicates: &'a [Vec<u64>],
        width: u32,
    ) -> EncodingProblem<'a> {
        EncodingProblem {
            values,
            predicates,
            width,
            forbidden_codes: &[],
        }
    }

    #[test]
    fn identity_is_order_preserving() {
        let values = [30u64, 10, 20];
        let preds: Vec<Vec<u64>> = vec![];
        let m = IdentityEncoding
            .encode(&problem(&values, &preds, 2))
            .unwrap();
        assert_eq!(m.code_of(10), Some(0));
        assert_eq!(m.code_of(20), Some(1));
        assert_eq!(m.code_of(30), Some(2));
        assert!(m.is_total_order_preserving());
    }

    #[test]
    fn gray_neighbours_differ_in_one_bit() {
        let values: Vec<u64> = (0..16).collect();
        let preds: Vec<Vec<u64>> = vec![];
        let m = GrayEncoding.encode(&problem(&values, &preds, 4)).unwrap();
        for v in 0..15u64 {
            let d = binary_distance(m.code_of(v).unwrap(), m.code_of(v + 1).unwrap());
            assert_eq!(d, 1, "values {v},{} are Gray neighbours", v + 1);
        }
    }

    #[test]
    fn gray_helps_aligned_even_ranges() {
        // Values 0..8; predicate {2,3,4,5}: identity codes {010,011,100,
        // 101} reduce to B2'B1 + B2B1' (2 vectors); Gray codes
        // {011,010,110,111} tile the subcube x1x and reduce to B1 alone.
        let values: Vec<u64> = (0..8).collect();
        let preds = vec![vec![2u64, 3, 4, 5]];
        let id = IdentityEncoding
            .encode(&problem(&values, &preds, 3))
            .unwrap();
        let gr = GrayEncoding.encode(&problem(&values, &preds, 3)).unwrap();
        let id_cost = achieved_cost(&id, &preds[0]);
        let gray_cost = achieved_cost(&gr, &preds[0]);
        assert_eq!(id_cost, 2);
        assert_eq!(gray_cost, 1, "gray {gray_cost} vs identity {id_cost}");
    }

    #[test]
    fn forbidden_codes_stay_free() {
        let values = [5u64, 6, 7];
        let preds: Vec<Vec<u64>> = vec![];
        for strategy in [&IdentityEncoding as &dyn EncodingStrategy, &GrayEncoding] {
            let p = EncodingProblem {
                values: &values,
                predicates: &preds,
                width: 2,
                forbidden_codes: &[0],
            };
            let m = strategy.encode(&p).unwrap();
            assert_eq!(m.value_of(0), None, "{}", strategy.name());
            assert_eq!(m.len(), 3);
        }
    }

    #[test]
    fn gray_sequence_is_the_reflected_code() {
        let first8: Vec<u64> = (0..8).map(gray).collect();
        assert_eq!(
            first8,
            vec![0b000, 0b001, 0b011, 0b010, 0b110, 0b111, 0b101, 0b100]
        );
    }
}
