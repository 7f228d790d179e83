//! Seeded mutation sweep over the bytes the program takes from outside:
//! persisted index images and service requests.
//!
//! For one saved index per physical shape, every segment of the image
//! is truncated and bit-flipped — exhaustively near its header, where
//! the length and count fields live, and at seeded positions beyond —
//! and `load_index` must answer each mutant with an `Err` or with an
//! index whose vectors all have `rows()` bits. The request parsers get
//! the same mutants of valid TCP lines and HTTP requests, pipelined and
//! carrying a `traceparent`, and must answer each with a request or an
//! error reply. Nothing may panic (debug arithmetic checks) or size an
//! allocation by a corrupted header (release wrap-around), so CI runs
//! this file in both profiles.

use ebi::bitvec::{StorageKind, StoragePolicy};
use ebi::core::persist::{load_index, save_index, IndexHandle};
use ebi::core::CoreError;
use ebi::obs::TraceContext;
use ebi::prelude::*;
use ebi::storage::pager::Pager;
use ebi::storage::segment::{read_segment, write_segment, SegmentHandle};
use ebi_service::{http, protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mostly value 0, every 50th row one of 39 others, optionally a NULL
/// every 97th: a skewed 6-slice column.
fn skewed(rows: usize, nulls: bool) -> Vec<Cell> {
    (0..rows)
        .map(|i| {
            if nulls && i % 97 == 0 {
                Cell::Null
            } else if i % 50 == 0 {
                Cell::Value((i / 50 % 39 + 1) as u64)
            } else {
                Cell::Value(0)
            }
        })
        .collect()
}

/// Three Roaring chunks of rows whose four slices land, under the
/// adaptive policy, in a dense vector (bit 0 alternates), array
/// containers (bit 1 is rare), run containers (bit 2 is one long
/// stretch) and a bitmap container (bit 3 is half set in the first
/// chunk only, so the slice as a whole is sparse enough to compress).
fn one_container_kind_per_slice() -> EncodedBitmapIndex {
    let rows = 3 << 16;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let cells = (0..rows).map(|i: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b1 = u64::from(i.is_multiple_of(1000));
        let b2 = u64::from((40_000..150_000).contains(&i));
        let b3 = u64::from(i < 1 << 16 && state >> 63 == 1);
        Cell::Value((i % 2) | (b1 << 1) | (b2 << 2) | (b3 << 3))
    });
    let options = BuildOptions {
        mapping: Some(Mapping::sequential(16)),
        ..Default::default()
    };
    EncodedBitmapIndex::build_with(cells, options).unwrap()
}

/// The skewed 5 000-row column with every slice a Roaring container.
fn all_roaring() -> EncodedBitmapIndex {
    let mut index = EncodedBitmapIndex::build(skewed(5_000, false)).unwrap();
    index.set_storage_policy(StoragePolicy::Roaring);
    assert!(index
        .slices()
        .iter()
        .all(|s| s.kind() == StorageKind::Roaring));
    index
}

fn shapes() -> Vec<(&'static str, EncodedBitmapIndex)> {
    let adaptive = one_container_kind_per_slice();
    let kinds: Vec<_> = adaptive.slices().iter().map(|s| s.kind()).collect();
    assert!(kinds.contains(&StorageKind::Dense), "{kinds:?}");
    assert!(kinds.contains(&StorageKind::Roaring), "{kinds:?}");

    // Adaptive keeps every slice of a table this small dense; forcing
    // Roaring gives a small image with no dense slice at all.
    let roaring = all_roaring();

    let mut separate = EncodedBitmapIndex::build(skewed(3_000, true)).unwrap();
    separate.delete(7).unwrap();

    let reserved = EncodedBitmapIndex::build_with(
        skewed(3_000, true),
        BuildOptions {
            policy: NullPolicy::EncodedReserved,
            ..Default::default()
        },
    )
    .unwrap();
    vec![
        ("adaptive", adaptive),
        ("roaring", roaring),
        ("separate", separate),
        ("reserved", reserved),
    ]
}

/// Every segment the handle names, in a fixed order, swappable in place.
fn segments(handle: &mut IndexHandle) -> Vec<(String, &mut SegmentHandle)> {
    let slices = handle.slices.iter_mut().enumerate();
    let mut out: Vec<_> = slices.map(|(i, s)| (format!("slice {i}"), s)).collect();
    out.push(("mapping".into(), &mut handle.mapping));
    out.push(("meta".into(), &mut handle.meta));
    out.extend(
        handle
            .b_not_exist
            .as_mut()
            .map(|s| ("b_not_exist".into(), s)),
    );
    out.extend(handle.b_null.as_mut().map(|s| ("b_null".into(), s)));
    out
}

/// The mutants of one blob, each with a description for the report.
fn mutants(blob: &[u8], rng: &mut StdRng) -> Vec<(String, Vec<u8>)> {
    let len = blob.len();
    let mut out = Vec::new();
    let cuts = (0..len.min(64)).chain((0..32).map(|_| rng.random_range(0..len)));
    for keep in cuts.collect::<Vec<_>>() {
        out.push((
            format!("truncated to {keep} of {len} bytes"),
            blob[..keep].to_vec(),
        ));
    }
    let header = (0..len.min(32)).flat_map(|byte| (0..8).map(move |bit| (byte, bit)));
    let seeded = (0..256).map(|_| (rng.random_range(0..len), rng.random_range(0..8)));
    for (byte, bit) in header.chain(seeded).collect::<Vec<_>>() {
        let mut flipped = blob.to_vec();
        flipped[byte] ^= 1 << bit;
        out.push((format!("bit {bit} of byte {byte} flipped"), flipped));
    }
    out
}

#[test]
fn no_mutated_image_panics_or_loads_inconsistent() {
    let mut rng = StdRng::seed_from_u64(1998);
    let mut failures = Vec::new();
    let mut cases = 0usize;
    for (shape, index) in shapes() {
        let mut seen = Vec::new();
        let n_segments = segments(&mut save_index(&index, &Pager::new()).unwrap()).len();
        for n in 0..n_segments {
            // A pager per segment: the mutants pile up in it.
            let pager = Pager::new();
            let mut handle = save_index(&index, &pager).unwrap();
            let (name, original) = segments(&mut handle).swap_remove(n);
            let blob = read_segment(&pager, original).unwrap();
            for (what, mutant) in mutants(&blob, &mut rng) {
                *segments(&mut handle).swap_remove(n).1 = write_segment(&pager, &mutant).unwrap();
                cases += 1;
                let verdict = match catch_unwind(AssertUnwindSafe(|| load_index(&pager, &handle))) {
                    Err(_) => "panicked",
                    Ok(Ok(idx)) if idx.slices().iter().any(|s| s.len() != idx.rows()) => {
                        "loaded with a vector that is not rows() long"
                    }
                    Ok(_) => continue,
                };
                failures.push(format!("{shape} / {name}: {what}: {verdict}"));
            }
            seen.push(name);
        }
        if shape == "separate" {
            assert!(seen.iter().any(|s| s == "b_null"), "{seen:?}");
        }
    }
    assert!(cases > 10_000, "only {cases} mutants tried");
    assert!(
        failures.is_empty(),
        "{} of {cases} mutants:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn a_slice_with_tag_2_is_refused() {
    // Only tags 0 (dense) and 1 (Roaring) name a slice container.
    let index = all_roaring();
    let pager = Pager::new();
    let mut handle = save_index(&index, &pager).unwrap();
    let mut blob = read_segment(&pager, &handle.slices[0]).unwrap();
    assert_eq!(blob[0], 1, "a Roaring slice is tagged 1");
    blob[0] = 2;
    handle.slices[0] = write_segment(&pager, &blob).unwrap();
    let verdict = catch_unwind(AssertUnwindSafe(|| load_index(&pager, &handle)));
    assert!(
        matches!(verdict, Ok(Err(CoreError::InvalidCode { .. }))),
        "{verdict:?}"
    );
}

const TRACEPARENT: &str = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";

/// Valid line-protocol buffers: single requests of every verb, one
/// carrying a `TRACEPARENT` field, and pipelined lines.
fn tcp_seeds() -> Vec<Vec<u8>> {
    [
        "PING\n".to_string(),
        "TRACES 5\n".into(),
        "COUNT a=1 AND b IN 2,3,5\n".into(),
        "QUERY c BETWEEN 2 7 OR a=5 LIMIT 10\n".into(),
        "EXPLAIN a IN 1,2,3 AND c BETWEEN 0 99 OR b=4\n".into(),
        format!("TRACEPARENT {TRACEPARENT} COUNT a=1 OR b BETWEEN 3 9\n"),
        format!("COUNT a=1\nTRACEPARENT {TRACEPARENT} QUERY b=2 LIMIT 5\nSLOW 2\nPING\n"),
    ]
    .map(String::into_bytes)
    .to_vec()
}

/// Valid HTTP buffers: a GET, a POST with a text body and one with a
/// JSON body, both with a `traceparent` header, and pipelined requests.
fn http_seeds() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: ebi\r\ntraceparent: {TRACEPARENT}\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let get = "GET /count?q=a%3D1+AND+b+IN+2%2C3 HTTP/1.1\r\nHost: ebi\r\n\r\n";
    [
        get.to_string(),
        post("/query?limit=3", "c BETWEEN 2 7 OR a=5"),
        post("/explain", r#"{"q": "a IN 1,2 AND b=4"}"#),
        format!(
            "{get}{}GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            post("/count", "a=1")
        ),
    ]
    .map(String::into_bytes)
    .to_vec()
}

/// Frames and parses every request at the front of `buf` the way the
/// server's connection loop does, until a prefix is incomplete or
/// refused. `Err` names a framing that overran or stalled its buffer.
fn drive(buf: &[u8], tcp: bool) -> Result<(), String> {
    let mut rest = buf;
    loop {
        let consumed = if tcp {
            let Ok(Some((line, consumed))) = protocol::frame_line(rest) else {
                return Ok(());
            };
            let (traceparent, line) = protocol::split_traceparent(line);
            let _ = traceparent.and_then(TraceContext::parse);
            let _ = protocol::parse_request(line);
            let body = line.split_once(' ').map_or("", |(_, body)| body);
            let _ = protocol::parse_dnf(body);
            consumed
        } else {
            let Ok(Some((request, consumed))) = http::parse_request(rest) else {
                return Ok(());
            };
            let _ = request.traceparent.as_deref().and_then(TraceContext::parse);
            let _ = http::to_request(&request);
            consumed
        };
        if consumed == 0 || consumed > rest.len() {
            return Err(format!("framed {consumed} of {} bytes", rest.len()));
        }
        rest = &rest[consumed..];
    }
}

#[test]
fn no_mutated_request_panics_or_overruns_its_buffer() {
    let mut rng = StdRng::seed_from_u64(1998);
    let mut failures = Vec::new();
    let mut cases = 0usize;
    let seeds = tcp_seeds().into_iter().map(|s| (true, s));
    for (tcp, seed) in seeds.chain(http_seeds().into_iter().map(|s| (false, s))) {
        drive(&seed, tcp).expect("a valid seed frames cleanly");
        let proto = if tcp { "tcp" } else { "http" };
        for (what, mut mutant) in mutants(&seed, &mut rng) {
            if tcp {
                // A truncated line has lost its `\n` and the seeds hold
                // no byte one flip away from one: end every mutant so
                // its last line frames and reaches the parsers.
                mutant.push(b'\n');
            }
            cases += 1;
            let verdict = match catch_unwind(AssertUnwindSafe(|| drive(&mutant, tcp))) {
                Err(_) => "panicked".to_string(),
                Ok(Err(overrun)) => overrun,
                Ok(Ok(())) => continue,
            };
            let head = String::from_utf8_lossy(&seed[..seed.len().min(24)]).into_owned();
            failures.push(format!("{proto} {head:?}: {what}: {verdict}"));
        }
    }
    assert!(cases > 5_000, "only {cases} mutants tried");
    assert!(
        failures.is_empty(),
        "{} of {cases} mutants:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
