//! The expected answer of every served query, from one naive scan of
//! the raw generated cells. No index, kernel or service code is
//! involved, so a wrong bitmap cannot agree with it by construction.

use crate::inputs::{Columns, Pred, M_A, M_B, M_C, M_E};
use ebi_storage::Cell;

pub struct Oracle {
    /// Rows with `(a, b, e) = (x, y, z)`, at `(x * M_B + y) * M_E + z`.
    /// A NULL in any of the three matches no equality, so is not counted.
    joint: Vec<u32>,
    /// Rows with `c = z`.
    c_hist: Vec<u64>,
}

impl Oracle {
    pub fn scan(cols: &Columns) -> Self {
        let mut joint = vec![0u32; (M_A * M_B * M_E) as usize];
        let mut c_hist = vec![0u64; M_C as usize];
        for c in &cols.c {
            if let Cell::Value(z) = c {
                c_hist[*z as usize] += 1;
            }
        }
        for ((a, b), e) in cols.a.iter().zip(&cols.b).zip(&cols.e) {
            if let (Cell::Value(x), Cell::Value(y), Cell::Value(z)) = (a, b, e) {
                joint[((x * M_B + y) * M_E + z) as usize] += 1;
            }
        }
        Self { joint, c_hist }
    }

    /// `COUNT` of `pred` over the scanned rows.
    pub fn count(&self, pred: &Pred) -> u64 {
        match pred {
            Pred::Point(x, y, z) => u64::from(self.joint[((x * M_B + y) * M_E + z) as usize]),
            Pred::Range(lo, hi) => self.c_hist[*lo as usize..=*hi as usize].iter().sum(),
            Pred::InList(vs) => vs.iter().map(|v| self.c_hist[*v as usize]).sum(),
        }
    }
}
