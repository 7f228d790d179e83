//! Everything the program under test is given, made from the seed:
//! the served table's columns and the operation scripts of the three
//! `serve_*` workloads. The program sees only the cells and the
//! request text.

use crate::stats::Fnv;
use ebi_storage::Cell;
use ebi_warehouse::generator::{generate_column, ColumnSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cardinalities of the served columns `a`, `b`, `c`, `e`.
pub const M_A: u64 = 7;
pub const M_B: u64 = 13;
pub const M_C: u64 = 1000;
pub const M_E: u64 = 61;

/// Distinct queries cycled by `serve_point` and `serve_range`.
pub const POOL: usize = 256;
/// Hot IN-lists that `serve_inlist` repeats on every odd op.
pub const HOT_LISTS: usize = 16;

/// A sub-seed per purpose, so columns and scripts do not share a stream.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(purpose.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Raw cells of the served table.
pub struct Columns {
    pub a: Vec<Cell>,
    pub b: Vec<Cell>,
    pub c: Vec<Cell>,
    pub e: Vec<Cell>,
}

/// `a` uniform m=7, `b` uniform m=13 with 1 % NULLs, `c` Zipf(1.0)
/// m=1000 (k=10, 24 don't-care codes), `e` uniform m=61 (k=6).
pub fn columns(rows: usize, seed: u64) -> Columns {
    Columns {
        a: generate_column(&ColumnSpec::uniform(M_A), rows, sub_seed(seed, 1)),
        b: generate_column(
            &ColumnSpec::uniform(M_B).with_nulls_ppm(10_000),
            rows,
            sub_seed(seed, 2),
        ),
        c: generate_column(&ColumnSpec::zipf(M_C, 1.0), rows, sub_seed(seed, 3)),
        e: generate_column(&ColumnSpec::uniform(M_E), rows, sub_seed(seed, 4)),
    }
}

impl Columns {
    pub fn hash_into(&self, h: &mut Fnv) {
        for col in [&self.a, &self.b, &self.c, &self.e] {
            for cell in col {
                h.u64(cell.value().map_or(u64::MAX, |v| v));
            }
        }
    }
}

/// One query, as the oracle understands it.
#[derive(Debug, Clone)]
pub enum Pred {
    /// `a=x AND b=y AND e=z`
    Point(u64, u64, u64),
    /// `c BETWEEN lo hi`
    Range(u64, u64),
    /// `c IN v1,…,vs`
    InList(Vec<u64>),
}

impl Pred {
    /// The request line sent to the service (without the newline).
    pub fn request(&self) -> String {
        match self {
            Self::Point(x, y, z) => format!("COUNT a={x} AND b={y} AND e={z}"),
            Self::Range(lo, hi) => format!("COUNT c BETWEEN {lo} {hi}"),
            Self::InList(vs) => {
                let list: Vec<String> = vs.iter().map(u64::to_string).collect();
                format!("COUNT c IN {}", list.join(","))
            }
        }
    }
}

/// A fixed operation script: op `i` runs `queries[ops[i]]`.
///
/// Draws are stratified: every seed's script holds the same amount of
/// work (the same point values per column, range widths and list
/// lengths, each equally often) and seeds differ only in which values
/// are asked, so a metric differs between seeds by what the program
/// does with them and not by what the script happened to draw.
pub struct Script {
    pub queries: Vec<Pred>,
    pub ops: Vec<u32>,
    /// Ops of one group repeat the same work: the same query, or on
    /// `serve_inlist` a list of the same length drawn for one op alone.
    /// `stats::quiet` takes the fastest of a group as what its ops cost
    /// when the host is quiet.
    pub groups: Vec<u32>,
    /// `queries[..warm]` are sent once before the window (the cold
    /// pass that is part of `setup_s`): the whole pool, or on
    /// `serve_inlist` the hot lists only.
    pub warm: usize,
}

impl Script {
    pub fn hash_into(&self, h: &mut Fnv) {
        for &q in &self.ops {
            h.bytes(self.queries[q as usize].request().as_bytes());
            h.bytes(b"\n");
        }
    }
}

/// `0..n` in a seeded order.
pub fn permutation(n: u64, rng: &mut StdRng) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.random_range(0..=i));
    }
    p
}

/// `POOL` distinct point queries, cycled. Query `i` takes the `i`-th
/// value of each column's seeded order, wrapping: the three
/// cardinalities are coprime, so the queries are distinct and every
/// value of a column is asked equally often (to within one query).
pub fn point_script(ops: usize, seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 11));
    let (a, b, e) = (
        permutation(M_A, &mut rng),
        permutation(M_B, &mut rng),
        permutation(M_E, &mut rng),
    );
    let queries = (0..POOL)
        .map(|i| Pred::Point(a[i % a.len()], b[i % b.len()], e[i % e.len()]))
        .collect();
    cycled(queries, ops)
}

/// `POOL` distinct ranges, cycled: the widths are 50..=400 in equal
/// steps, in a seeded order, each at a drawn place.
pub fn range_script(ops: usize, seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 12));
    let queries = permutation(POOL as u64, &mut rng)
        .into_iter()
        .map(|step| {
            let delta = 50 + step * 350 / (POOL as u64 - 1);
            let lo = rng.random_range(0..M_C - delta);
            Pred::Range(lo, lo + delta)
        })
        .collect();
    cycled(queries, ops)
}

fn cycled(queries: Vec<Pred>, ops: usize) -> Script {
    let n = queries.len();
    let ops: Vec<u32> = (0..ops).map(|i| (i % n) as u32).collect();
    Script {
        groups: ops.clone(),
        ops,
        warm: n,
        queries,
    }
}

/// Shortest IN-list, and how many lengths there are (8..=64).
const MIN_LIST: u64 = 8;
const LIST_LENGTHS: u64 = 57;

/// Odd ops cycle `HOT_LISTS` lists; every even op is a list drawn for
/// that op alone (a 50 % repeat share). The hot lists' lengths are
/// 8..=64 in equal steps, and the other lists go through all 57
/// lengths over and over, both in a seeded order.
pub fn inlist_script(ops: usize, seed: u64) -> Script {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 13));
    let mut queries: Vec<Pred> = permutation(HOT_LISTS as u64, &mut rng)
        .into_iter()
        .map(|step| {
            let s = MIN_LIST + step * (LIST_LENGTHS - 1) / (HOT_LISTS as u64 - 1);
            scattered_list(s as usize, &mut rng)
        })
        .collect();
    let lengths = permutation(LIST_LENGTHS, &mut rng);
    let mut script = Vec::with_capacity(ops);
    let mut groups = Vec::with_capacity(ops);
    for i in 0..ops {
        if i % 2 == 1 {
            let hot = ((i / 2) % HOT_LISTS) as u32;
            script.push(hot);
            groups.push(hot);
        } else {
            let step = lengths[(i / 2) % lengths.len()];
            script.push(queries.len() as u32);
            groups.push(HOT_LISTS as u32 + step as u32);
            queries.push(scattered_list((MIN_LIST + step) as usize, &mut rng));
        }
    }
    Script {
        queries,
        ops: script,
        groups,
        warm: HOT_LISTS,
    }
}

/// `s` distinct values scattered over the domain of `c`.
fn scattered_list(s: usize, rng: &mut StdRng) -> Pred {
    let mut vs = std::collections::BTreeSet::new();
    while vs.len() < s {
        vs.insert(rng.random_range(0..M_C));
    }
    Pred::InList(vs.into_iter().collect())
}
