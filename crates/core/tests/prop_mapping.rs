//! `Mapping` against a model built on two `BTreeMap`s: random inserts
//! in shuffled order (with repeated values, repeated codes and codes too
//! wide for the width), widening, the bulk constructors over shuffled
//! input and a round trip through the serialised image. After every
//! step both must answer every read alike, and a step must fail on
//! one exactly when it fails on the other.

use ebi_core::Mapping;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The reference: value → code and code → value, each a `BTreeMap`.
#[derive(Debug, Clone)]
struct Model {
    width: u32,
    code_of: BTreeMap<u64, u64>,
    value_of: BTreeMap<u64, u64>,
}

impl Model {
    fn new(width: u32) -> Self {
        Self {
            width,
            code_of: BTreeMap::new(),
            value_of: BTreeMap::new(),
        }
    }

    fn insert(&mut self, value: u64, code: u64) -> Result<(), ()> {
        if code >> self.width != 0
            || self.code_of.contains_key(&value)
            || self.value_of.contains_key(&code)
        {
            return Err(());
        }
        self.code_of.insert(value, code);
        self.value_of.insert(code, value);
        Ok(())
    }

    fn from_pairs(width: u32, pairs: &[(u64, u64)]) -> Result<Self, ()> {
        let mut model = Self::new(width);
        for &(v, c) in pairs {
            model.insert(v, c)?;
        }
        Ok(model)
    }

    fn values_between(&self, lo: u64, hi: u64) -> Vec<u64> {
        if lo > hi {
            return Vec::new();
        }
        self.code_of.range(lo..=hi).map(|(&v, _)| v).collect()
    }

    fn assigned_between(&self, lo: u64, hi: u64) -> usize {
        if lo > hi {
            return 0;
        }
        self.value_of.range(lo..=hi).count()
    }

    fn free_runs(&self) -> Vec<(u64, u64)> {
        let end = 1u64 << self.width;
        let mut runs = Vec::new();
        let mut run_start = None;
        for code in 0..end {
            match (self.value_of.contains_key(&code), run_start) {
                (false, None) => run_start = Some(code),
                (true, Some(start)) => {
                    runs.push((start, code - 1));
                    run_start = None;
                }
                _ => {}
            }
        }
        if let Some(start) = run_start {
            runs.push((start, end - 1));
        }
        runs
    }

    fn is_total_order_preserving(&self) -> bool {
        let codes: Vec<u64> = self.code_of.values().copied().collect();
        codes.windows(2).all(|w| w[0] < w[1])
    }

    fn to_bytes(&self) -> Vec<u8> {
        image(self.width, self.code_of.iter().map(|(&v, &c)| (v, c)))
    }
}

/// The serialised layout: width, entry count, then `(value, code)` pairs.
fn image(width: u32, pairs: impl ExactSizeIterator<Item = (u64, u64)>) -> Vec<u8> {
    let mut out = width.to_le_bytes().to_vec();
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    for (v, c) in pairs {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// A value from a small domain, so that repeats are common, or now and
/// then one near the top of `u64`.
fn value(rng: &mut StdRng) -> u64 {
    if rng.random_ratio(1, 16) {
        u64::MAX - rng.random_range(0..3u64)
    } else {
        rng.random_range(0..48u64)
    }
}

/// A code up to twice the code space: about half do not fit.
fn code(width: u32, rng: &mut StdRng) -> u64 {
    rng.random_range(0..2u64 << width)
}

/// Bounds for range reads: mapped keys, their neighbours, the ends of
/// `u64`, and random ones, in both orders.
fn bounds(keys: &[u64], rng: &mut StdRng) -> Vec<(u64, u64)> {
    let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &k in keys {
        probes.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    for _ in 0..8 {
        probes.push(rng.random_range(0..64u64));
    }
    (0..24)
        .map(|_| {
            let lo = probes[rng.random_range(0..probes.len())];
            let hi = probes[rng.random_range(0..probes.len())];
            (lo, hi)
        })
        .collect()
}

/// Every read of `m` agrees with `model`.
fn agree(m: &Mapping, model: &Model, rng: &mut StdRng, step: &str) {
    assert_eq!(m.width(), model.width, "{step}: width");
    assert_eq!(m.len(), model.code_of.len(), "{step}: len");
    let pairs: Vec<(u64, u64)> = model.code_of.iter().map(|(&v, &c)| (v, c)).collect();
    assert_eq!(m.iter().collect::<Vec<_>>(), pairs, "{step}: iter");
    assert_eq!(m.to_bytes(), model.to_bytes(), "{step}: to_bytes");
    assert_eq!(
        m.is_total_order_preserving(),
        model.is_total_order_preserving(),
        "{step}: is_total_order_preserving"
    );
    assert_eq!(m.free_runs(), model.free_runs(), "{step}: free_runs");
    assert_eq!(
        m.is_full(),
        model.code_of.len() as u64 == 1 << model.width,
        "{step}: is_full"
    );

    let values: Vec<u64> = model.code_of.keys().copied().collect();
    let codes: Vec<u64> = model.value_of.keys().copied().collect();
    let mut value_probes = values.clone();
    value_probes.extend((0..8).map(|_| value(rng)));
    for v in value_probes {
        for v in [v.saturating_sub(1), v, v.saturating_add(1)] {
            let want = model.code_of.get(&v).copied();
            assert_eq!(m.code_of(v), want, "{step}: code_of({v})");
        }
    }
    for c in 0..2u64 << model.width {
        let want = model.value_of.get(&c).copied();
        assert_eq!(m.value_of(c), want, "{step}: value_of({c})");
    }
    for (lo, hi) in bounds(&values, rng) {
        let want = model.values_between(lo, hi);
        assert_eq!(
            m.values_between(lo, hi),
            want,
            "{step}: values_between({lo}, {hi})"
        );
    }
    for (lo, hi) in bounds(&codes, rng) {
        let want = model.assigned_between(lo, hi);
        assert_eq!(
            m.assigned_between(lo, hi),
            want,
            "{step}: assigned_between({lo}, {hi})"
        );
    }
}

/// `from_pairs` over shuffled entries of `model`, sometimes with one
/// entry repeated or given a taken code, against the model built the
/// same way.
fn rebuild_from_pairs(model: &Model, rng: &mut StdRng) -> (Result<Mapping, ()>, Result<Model, ()>) {
    let mut pairs: Vec<(u64, u64)> = model.code_of.iter().map(|(&v, &c)| (v, c)).collect();
    if !pairs.is_empty() && rng.random_ratio(1, 3) {
        let (v, c) = pairs[rng.random_range(0..pairs.len())];
        pairs.push(if rng.random_bool(0.5) {
            (v, c)
        } else {
            (value(rng), c)
        });
    }
    shuffle(&mut pairs, rng);
    let max_code = pairs.iter().map(|&(_, c)| c).max().unwrap_or(0);
    let width = Mapping::width_for((max_code + 1) as usize);
    (
        Mapping::from_pairs(&pairs).map_err(|_| ()),
        Model::from_pairs(width, &pairs),
    )
}

/// `from_values` over a shuffled list, sometimes with a value repeated.
fn rebuild_from_values(rng: &mut StdRng) -> (Result<Mapping, ()>, Result<Model, ()>) {
    let mut values: Vec<u64> = (0..rng.random_range(0..40)).map(|_| value(rng)).collect();
    values.sort_unstable();
    values.dedup();
    if !values.is_empty() && rng.random_ratio(1, 3) {
        values.push(values[rng.random_range(0..values.len())]);
    }
    shuffle(&mut values, rng);
    let pairs: Vec<(u64, u64)> = values.iter().copied().zip(0..).collect();
    (
        Mapping::from_values(&values).map_err(|_| ()),
        Model::from_pairs(Mapping::width_for(values.len()), &pairs),
    )
}

/// `from_bytes` over an image of `model`'s entries in shuffled order,
/// sometimes with an entry repeated.
fn rebuild_from_bytes(model: &Model, rng: &mut StdRng) -> (Result<Mapping, ()>, Result<Model, ()>) {
    let mut pairs: Vec<(u64, u64)> = model.code_of.iter().map(|(&v, &c)| (v, c)).collect();
    if !pairs.is_empty() && rng.random_ratio(1, 4) {
        pairs.push(pairs[rng.random_range(0..pairs.len())]);
    }
    shuffle(&mut pairs, rng);
    let raw = image(model.width, pairs.iter().copied());
    (
        Mapping::from_bytes(&raw).map_err(|_| ()),
        Model::from_pairs(model.width, &pairs),
    )
}

#[test]
fn mapping_answers_as_the_btreemap_model_does() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x3A9 + seed);
        let width = rng.random_range(1..=4u32);
        let (mut m, mut model) = (Mapping::new(width), Model::new(width));
        agree(&m, &model, &mut rng, &format!("seed {seed}: new({width})"));
        for i in 0..120 {
            let step = format!("seed {seed} step {i}");
            match rng.random_range(0..16u32) {
                0 if model.width < 7 => {
                    m.widen();
                    model.width += 1;
                }
                1 => {
                    let (got, want) = rebuild_from_pairs(&model, &mut rng);
                    assert_eq!(got.is_err(), want.is_err(), "{step}: from_pairs");
                    if let (Ok(got), Ok(want)) = (got, want) {
                        (m, model) = (got, want);
                    }
                }
                2 => {
                    let (got, want) = rebuild_from_values(&mut rng);
                    assert_eq!(got.is_err(), want.is_err(), "{step}: from_values");
                    if let (Ok(got), Ok(want)) = (got, want) {
                        (m, model) = (got, want);
                    }
                }
                3 => {
                    let n = rng.random_range(0..40usize);
                    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, v)).collect();
                    m = Mapping::sequential(n);
                    model = Model::from_pairs(Mapping::width_for(n), &pairs).expect("distinct");
                }
                4 => {
                    let (got, want) = rebuild_from_bytes(&model, &mut rng);
                    assert_eq!(got.is_err(), want.is_err(), "{step}: from_bytes");
                    if let (Ok(got), Ok(want)) = (got, want) {
                        (m, model) = (got, want);
                    }
                }
                5 => {
                    let restored = Mapping::from_bytes(&m.to_bytes()).expect("own image");
                    assert_eq!(restored, m, "{step}: from_bytes(to_bytes())");
                    m = restored;
                }
                _ => {
                    // A mapped value or code now and then, so that both
                    // kinds of collision come up.
                    let v = match model.code_of.keys().next() {
                        Some(&taken) if rng.random_ratio(1, 4) => taken,
                        _ => value(&mut rng),
                    };
                    let c = match model.value_of.keys().last() {
                        Some(&taken) if rng.random_ratio(1, 4) => taken,
                        _ => code(model.width, &mut rng),
                    };
                    let got = m.insert(v, c);
                    let want = model.insert(v, c);
                    assert_eq!(got.is_err(), want.is_err(), "{step}: insert({v}, {c})");
                }
            }
            agree(&m, &model, &mut rng, &step);
        }
    }
}
