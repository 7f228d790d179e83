//! Format stability: the persisted byte layouts, pinned as literals.
//!
//! Round-trip tests cannot see a layout change that `to_bytes` and
//! `from_bytes` make together. Each image below was printed by the code
//! at commit e559bfa (before the decoders moved onto one reader); today's
//! `to_bytes` must reproduce it byte for byte and `from_bytes` must
//! decode it to the same value, so an index saved then still loads.

use ebi::bitvec::roaring::RoaringBitmap;
use ebi::core::persist::{load_index, save_index};
use ebi::prelude::*;
use ebi::storage::pager::Pager;
use ebi::storage::segment::{read_segment, write_segment};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s
        .bytes()
        .map(|c| (c as char).to_digit(16).unwrap() as u8)
        .collect();
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// 130 bits, sparse enough to be a Roaring array container.
fn pattern() -> BitVec {
    BitVec::from_positions(130, &[0, 3, 62, 126, 129])
}

#[test]
fn bitvec_image_is_stable() {
    let golden = "8200000000000000090000000000004000000000000000400200000000000000";
    assert_eq!(hex(&pattern().to_bytes()), golden);
    assert_eq!(BitVec::from_bytes(&unhex(golden)).unwrap(), pattern());
}

#[test]
fn roaring_images_are_stable_in_every_container_kind() {
    let runs: BitVec = (0..130)
        .map(|i| (2..=100).contains(&i) || i >= 120)
        .collect();
    let alternating: BitVec = (0..1 << 16).map(|i| i % 2 == 0).collect();
    let bitmap_golden = format!(
        "000001000000000001000000000000000100040000{}",
        "5555555555555555".repeat(1024)
    );
    for (kind, bits, golden) in [
        (
            "array",
            pattern(),
            "820000000000000001000000000000000005000000000003003e007e008100",
        ),
        (
            "run",
            runs,
            "8200000000000000010000000000000002020000000200640078008100",
        ),
        ("bitmap", alternating, bitmap_golden.as_str()),
    ] {
        let image = RoaringBitmap::from_bitvec(&bits).to_bytes();
        assert_eq!(hex(&image), golden, "{kind}");
        let decoded = RoaringBitmap::from_bytes(&unhex(golden)).unwrap();
        assert_eq!(decoded.to_bitvec(), bits, "{kind}");
    }
}

#[test]
fn mapping_and_permutation_images_are_stable() {
    let mapping = Mapping::from_pairs(&[(10, 3), (20, 0), (30, 5), (40, 1), (50, 6)]).unwrap();
    let golden = concat!(
        "03000000",         // width
        "0500000000000000", // entries, then (value, code) by ascending value
        "0a00000000000000",
        "0300000000000000",
        "1400000000000000",
        "0000000000000000",
        "1e00000000000000",
        "0500000000000000",
        "2800000000000000",
        "0100000000000000",
        "3200000000000000",
        "0600000000000000",
    );
    assert_eq!(hex(&mapping.to_bytes()), golden);
    assert_eq!(Mapping::from_bytes(&unhex(golden)).unwrap(), mapping);

    let permutation = RowPermutation::from_original_of(vec![2, 0, 3, 1]).unwrap();
    let golden = "040000000000000002000000000000000300000001000000";
    assert_eq!(hex(&permutation.to_bytes()), golden);
    assert_eq!(
        RowPermutation::from_bytes(&unhex(golden)).unwrap(),
        permutation
    );
}

/// The metadata blob has no public encoder; it is what `save_index`
/// writes to the `meta` segment. Six rows, reserved-code NULLs (NULL
/// code 1, codes 0 and 1 reserved) and a lexicographic row order fill
/// every field of the layout.
#[test]
fn meta_image_is_stable() {
    let cells = [3u64, 1, 2, 1, 3, 0].map(|v| if v == 0 { Cell::Null } else { Cell::Value(v) });
    let options = BuildOptions {
        policy: NullPolicy::EncodedReserved,
        row_order: RowOrder::Lexicographic,
        ..Default::default()
    };
    let index = EncodedBitmapIndex::build_with(cells, options).unwrap();
    let pager = Pager::new();
    let mut handle = save_index(&index, &pager).unwrap();
    let golden = concat!(
        "0600000000000000", // rows
        "01",               // policy: reserved codes
        "01",               // has a NULL code
        "0100000000000000", // the NULL code
        "0200000000000000", // reserved codes, then each
        "0000000000000000",
        "0100000000000000",
        "01", // row order: lexicographic
    );
    assert_eq!(hex(&read_segment(&pager, &handle.meta).unwrap()), golden);
    handle.meta = write_segment(&pager, &unhex(golden)).unwrap();
    let loaded = load_index(&pager, &handle).unwrap();
    assert_eq!(loaded.policy(), NullPolicy::EncodedReserved);
    assert_eq!(loaded.row_order(), RowOrder::Lexicographic);
    assert_eq!(loaded.is_null().bitmap, index.is_null().bitmap);
}
