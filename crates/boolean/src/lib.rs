//! Boolean-function machinery for encoded bitmap indexing.
//!
//! Wu & Buchmann's encoded bitmap index answers a selection by evaluating a
//! *retrieval Boolean function* — a sum of `k`-variable min-terms, one per
//! selected value — over the `k` bitmap slices. The whole performance story
//! of the paper rests on **logical reduction**: `B1'B0' + B1'B0` collapses
//! to `B1'`, and the number of *distinct bitmap vectors* referenced after
//! reduction is the dominant query cost (footnote 4 of the paper).
//!
//! This crate provides:
//!
//! * [`Cube`] — an implicant (product term) over up to 63 variables;
//! * [`DnfExpr`] — a sum of cubes, with evaluation over bitmap slices,
//!   truth-set enumeration, and a small parser for paper-style formulas
//!   (`"B2'B1 + B2B1'"`);
//! * [`qm`] — Quine–McCluskey prime-implicant generation with don't-cares
//!   plus Petrick/greedy cover selection (the "logical reduction" whose
//!   brute-force cost the paper calls exponential);
//! * [`interval`] — the cover of a code interval written down from its
//!   two ends, which is what a value range is under an order-preserving
//!   encoding: no min-terms, no prime-implicant generation;
//! * [`support`] — the *exact* minimum number of bitmap vectors any
//!   expression for the selection must read, computed as a minimum hitting
//!   set (used to verify Theorems 2.2/2.3 and generate Figure 9's
//!   best-case curve);
//! * [`eval`] — expression evaluation over bitmap slices in any
//!   container, with a vectors-accessed tracker implementing the paper's
//!   cost metric;
//! * [`dontcare`] — footnote 3's don't-care optimisation;
//! * [`algebra`] — AND/OR/NOT composition of reduced expressions for
//!   compound single-attribute selections.
//!
//! # Example
//!
//! ```
//! use ebi_boolean::{qm, DnfExpr};
//!
//! // Figure 1: select A=a (code 00) OR A=b (code 01) over k=2 slices.
//! let reduced = qm::minimize(&[0b00, 0b01], &[], 2);
//! // The sum of min-terms B1'B0' + B1'B0 reduces to B1'.
//! assert_eq!(reduced, DnfExpr::parse("B1'", 2).unwrap());
//! assert_eq!(reduced.vectors_accessed(), 1);
//! ```

pub mod algebra;
pub mod cube;
pub mod dontcare;
pub mod eval;
pub mod expr;
pub mod interval;
pub mod qm;
pub mod support;

pub use cube::Cube;
pub use eval::{
    eval_expr, eval_expr_naive, eval_expr_tracked, record_access, AccessTracker, EvalError,
};
pub use expr::DnfExpr;
pub use qm::{CoverMethod, ReduceStats};
