//! Baseline warehouse indexes — every comparator the paper discusses.
//!
//! | type | paper section | idea |
//! |---|---|---|
//! | [`SimpleBitmapIndex`] | §2.1 | one bitmap vector per distinct value (O'Neil, Model 204) |
//! | [`BitSlicedIndex`] | §4 | bit slices of the raw numeric value (O'Neil & Quass), with their direct range-evaluation algorithm |
//! | [`ProjectionIndex`] | §4 | the column materialised in tuple-id order; queries scan |
//! | [`ValueListIndex`] | §4 | B+tree of RID lists (the classic value-list index) |
//! | [`DynamicBitmapIndex`] | §4 | Sarawagi's dynamic bitmaps — an EBI with the trivial continuous-integer encoding |
//! | [`RangeBasedBitmapIndex`] | §4 | Wu & Yu equal-population range bitmaps for skewed high-cardinality attributes |
//! | [`HybridBTreeBitmapIndex`] | §3.2/§4 | B-tree over values whose leaves hold bitmaps, degrading to RID lists when sparse |
//! | [`CompressedEncodedIndex`] | §2.1/§4 (extension) | the EBI with every slice a Roaring container — skew compresses, uniform does not |
//! | [`MultiComponentIndex`] | §4 | non-binary-base bit slicing (O'Neil & Quass): base b interpolates between bit-sliced (b=2) and simple (b≥m) |
//!
//! All of them — and [`ebi_core::EncodedBitmapIndex`] itself — implement
//! [`SelectionIndex`], so the executor and every experiment can swap
//! index types freely and compare the paper's cost metrics apples to
//! apples.
//!
//! [`wah`] is the run-length codec the paper cites as the remedy for
//! simple bitmaps' sparsity (§2.1, §4): the sparsity experiment applies
//! it to [`SimpleBitmapIndex`] vectors and, for contrast, to encoded
//! slices. No index here stores its vectors in it.

mod bit_sliced;
mod compressed;
mod dynamic;
mod hybrid;
mod multi_component;
mod projection;
mod range_based;
mod simple;
mod traits;
mod value_list;
pub mod wah;

pub use bit_sliced::BitSlicedIndex;
pub use compressed::CompressedEncodedIndex;
pub use dynamic::DynamicBitmapIndex;
pub use hybrid::{HybridBTreeBitmapIndex, HybridLeaf};
pub use multi_component::MultiComponentIndex;
pub use projection::ProjectionIndex;
pub use range_based::RangeBasedBitmapIndex;
pub use simple::SimpleBitmapIndex;
pub use traits::SelectionIndex;
pub use value_list::ValueListIndex;
