//! Vectorised word passes behind the fused evaluation kernels.
//!
//! Every hot loop in [`crate::kernels`] reduces to one of a handful of
//! *word passes* over at most [`crate::kernels::SEGMENT_WORDS`] 64-bit
//! words: AND two (optionally complemented) operands into a product
//! row, AND a further operand in, OR a finished product into the
//! destination (the pass Roaring's chunk expansion borrows), AND the
//! last two operands straight into the destination, or run two
//! bit-sliced comparison chains into the destination
//! ([`compare_pass`]). Two counting passes sit beside them: the
//! population count ([`count_ones`]) and the count of runs of ones
//! ([`count_runs`]) that bitmaps, summaries and Roaring's sizing read.
//!
//! Each pass is written once, as a safe word-at-a-time loop, and
//! compiled twice (function multiversioning):
//!
//! * **scalar** — for the target baseline, which the compiler
//!   auto-vectorises for whatever it offers (SSE2 on vanilla `x86_64`,
//!   NEON on aarch64). Always compiled, always executable.
//! * **avx2** — the same source inlined into a
//!   `#[target_feature(enable = "avx2")]` wrapper, so the compiler
//!   vectorises it for 256-bit registers. Compiled on every `x86_64`
//!   build and reached only when `is_x86_feature_detected!("avx2")`
//!   says the host has the instructions.
//!
//! The loops are shaped for the vectoriser: `compare_pass` reads each
//! operand's block as a fixed-size array and runs one chain at a time,
//! in blocks as wide as the compilation's registers hold (its one
//! parameter), and `count_runs` reads each word beside the word before
//! it instead of carrying a bit. The `prop_simd` suite checks the two
//! compilations against each other.
//!
//! Negation is folded into every pass as an XOR mask (`x ^ 0 = x`,
//! `x ^ !0 = !x`), so a single implementation covers all operand
//! polarities, including the `!(a | b) = !a & !b` fused case.
//!
//! # Dispatch
//!
//! [`selected_path`] resolves, in order: a thread-local override
//! ([`with_forced_path`], used by the differential tests and
//! benchmarks), the `EBI_KERNEL` environment variable (`scalar`, or
//! anything else, which means auto), and finally runtime CPU detection.
//! Forcing a path the build or host cannot execute clamps down to the
//! best available path, never up, so the selected path is always
//! executable. The kernels resolve the path once per evaluation; the
//! tier is a process constant, so no per-query record carries it.

// The workspace denies `unsafe_code`; this module is the one sanctioned
// exception. Calling a `#[target_feature]` function is unsafe (the host
// must have the feature), so the AVX2 wrappers are `unsafe fn` and the
// dispatch calls into them are the only `unsafe` blocks. Clippy denies
// an unsafe block without a SAFETY comment and an unsafe fn without a
// `# Safety` section.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Which compilation of the word passes ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum KernelPath {
    /// Compiled for the target baseline — the always-executable fallback.
    Scalar = 0,
    /// The same passes compiled for AVX2 (runtime-detected, x86_64 only).
    Avx2 = 1,
}

impl KernelPath {
    /// Stable lowercase name for stats, JSON, and span attributes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::Scalar),
            1 => Some(Self::Avx2),
            _ => None,
        }
    }
}

/// Sentinel for "no override".
const AUTO: u8 = u8::MAX;

thread_local! {
    static TLS_FORCE: Cell<u8> = const { Cell::new(AUTO) };
}

/// The best path this build + host can execute, detected once.
///
/// [`KernelPath::Avx2`] when the x86_64 host reports the feature and
/// `EBI_KERNEL=scalar` does not veto it, else [`KernelPath::Scalar`].
/// Under Miri, runtime CPU detection is unavailable, so detection falls
/// back to compile-time target features.
#[must_use]
pub fn detected_path() -> KernelPath {
    static DETECTED: AtomicU8 = AtomicU8::new(AUTO);
    if let Some(p) = KernelPath::from_u8(DETECTED.load(Ordering::Relaxed)) {
        return p;
    }
    let p = detect();
    DETECTED.store(p as u8, Ordering::Relaxed);
    p
}

fn detect() -> KernelPath {
    resolve_env(std::env::var("EBI_KERNEL").ok().as_deref(), hardware_best())
}

/// `EBI_KERNEL=scalar` vetoes the vector tier; any other value (or
/// none) leaves the choice to the hardware.
fn resolve_env(env: Option<&str>, hw: KernelPath) -> KernelPath {
    if env == Some("scalar") {
        KernelPath::Scalar
    } else {
        hw
    }
}

/// Best path the hardware supports, ignoring overrides.
fn hardware_best() -> KernelPath {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelPath::Avx2;
        }
    }
    #[cfg(all(target_arch = "x86_64", miri))]
    {
        // Miri cannot run CPUID; trust the compile-time target set so
        // `RUSTFLAGS=-Ctarget-feature=+avx2 cargo miri test` runs the
        // AVX2 compilation through its dispatch.
        if cfg!(target_feature = "avx2") {
            return KernelPath::Avx2;
        }
    }
    KernelPath::Scalar
}

/// Every path executable on this build + host, worst first. The
/// differential tests iterate this to prove all tiers agree bit-for-bit.
#[must_use]
pub fn available_paths() -> Vec<KernelPath> {
    let best = detected_path();
    [KernelPath::Scalar, KernelPath::Avx2]
        .into_iter()
        .filter(|p| *p <= best)
        .collect()
}

/// Resolves the path the next kernel invocation will run: the
/// thread-local override, then detection. The override is clamped to
/// [`detected_path`] so the result is always executable.
#[must_use]
pub fn selected_path() -> KernelPath {
    let best = detected_path();
    let tls = TLS_FORCE.with(Cell::get);
    if let Some(p) = KernelPath::from_u8(tls) {
        return p.min(best);
    }
    best
}

/// Runs `f` with the *calling thread* forced onto `path` (clamped to
/// what the host can run), restoring the previous override afterwards —
/// even on panic. Threads spawned inside `f` are not affected.
pub fn with_forced_path<R>(path: KernelPath, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            TLS_FORCE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TLS_FORCE.with(|c| c.replace(path as u8)));
    f()
}

/// XOR mask implementing optional complement: `x ^ polarity(neg)` is
/// `x` or `!x`.
#[inline]
fn polarity(negated: bool) -> u64 {
    if negated {
        u64::MAX
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Public passes: dispatch on `path`, which callers resolve once per
// evaluation via `selected_path()`.
// ---------------------------------------------------------------------------

/// `acc[i] = (s1[i] ^ ¬?) & (s2[i] ^ ¬?)` — the fused first-two-literal
/// pass. Returns `true` if any output word is non-zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn fused_pass2(
    path: KernelPath,
    acc: &mut [u64],
    s1: &[u64],
    s2: &[u64],
    neg1: bool,
    neg2: bool,
) -> bool {
    assert_eq!(acc.len(), s1.len());
    assert_eq!(acc.len(), s2.len());
    let (m1, m2) = (polarity(neg1), polarity(neg2));
    match path {
        KernelPath::Scalar => scalar::fused_pass2(acc, s1, s2, m1, m2),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `path` is clamped to `detected_path()`, which only
        // reports Avx2 after runtime (or, under Miri, compile-time)
        // feature detection.
        KernelPath::Avx2 => unsafe { avx2::fused_pass2(acc, s1, s2, m1, m2) },
        #[allow(unreachable_patterns)]
        _ => scalar::fused_pass2(acc, s1, s2, m1, m2),
    }
}

/// `acc[i] &= src[i] ^ ¬?` — fold one more literal into the
/// accumulator. Returns `true` if the accumulator is still non-zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn and_pass(path: KernelPath, acc: &mut [u64], src: &[u64], negated: bool) -> bool {
    assert_eq!(acc.len(), src.len());
    let m = polarity(negated);
    match path {
        KernelPath::Scalar => scalar::and_pass(acc, src, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::and_pass(acc, src, m) },
        #[allow(unreachable_patterns)]
        _ => scalar::and_pass(acc, src, m),
    }
}

/// `dst[i] |= src[i]` — OR a finished term into the destination.
/// Returns `true` if every destination word is now all-ones (the
/// segment-saturation break).
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn or_into(path: KernelPath, dst: &mut [u64], src: &[u64]) -> bool {
    assert_eq!(dst.len(), src.len());
    match path {
        KernelPath::Scalar => scalar::or_into(dst, src),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::or_into(dst, src) },
        #[allow(unreachable_patterns)]
        _ => scalar::or_into(dst, src),
    }
}

/// `dst[i] |= (s1[i] ^ ¬?) & (s2[i] ^ ¬?)` — AND the last two operands
/// of a term straight into the destination, with no product row in
/// between. Returns `true` if every destination word is now all-ones.
/// Passing one operand twice ORs in that operand alone, complemented or
/// not.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn or_and_into(
    path: KernelPath,
    dst: &mut [u64],
    s1: &[u64],
    s2: &[u64],
    neg1: bool,
    neg2: bool,
) -> bool {
    assert_eq!(dst.len(), s1.len());
    assert_eq!(dst.len(), s2.len());
    let (m1, m2) = (polarity(neg1), polarity(neg2));
    match path {
        KernelPath::Scalar => scalar::or_and_into(dst, s1, s2, m1, m2),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::or_and_into(dst, s1, s2, m1, m2) },
        #[allow(unreachable_patterns)]
        _ => scalar::or_and_into(dst, s1, s2, m1, m2),
    }
}

/// One bit-sliced comparison `x ≥ b` (O'Neil & Quass's range
/// evaluation) over a window, as [`compare_pass`] reads it: the running
/// value starts as the window of the lowest slice the comparison reads
/// (`b`'s lowest one-bit), and each slice above it is ANDed in where
/// `b` has a one and ORed in where it has a zero.
#[derive(Debug, Clone, Copy)]
pub struct Chain<'a> {
    /// The window the running value starts from.
    pub start: &'a [u64],
    /// The windows of the slices above it, lowest first: at most 63.
    pub ops: &'a [&'a [u64]],
    /// Bit `t` set: `ops[t]` is ANDed in; clear: ORed in.
    pub ands: u64,
}

/// `dst[i] = ge[i] & !gt[i]`, where `ge` and `gt` are comparison
/// chains (`x ≥ L` and `x ≥ H + 1`, so the result is `L ≤ x ≤ H`),
/// each evaluated word by word with its running value kept in
/// registers: every operand word is read once. `None` for `ge` is
/// all-ones, `None` for `gt` all-zeros.
///
/// # Panics
///
/// Panics if an operand's length differs from `dst`'s, or a chain has
/// more than 63 operands above its start.
#[inline]
pub fn compare_pass(path: KernelPath, dst: &mut [u64], ge: Option<Chain>, gt: Option<Chain>) {
    for chain in ge.iter().chain(&gt) {
        assert!(
            chain.ops.len() < 64,
            "{} operands above a start",
            chain.ops.len()
        );
        for operand in std::iter::once(&chain.start).chain(chain.ops) {
            assert_eq!(operand.len(), dst.len(), "operand length");
        }
    }
    match path {
        KernelPath::Scalar => scalar::compare_pass::<16>(dst, ge.as_ref(), gt.as_ref()),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::compare_pass(dst, ge.as_ref(), gt.as_ref()) },
        #[allow(unreachable_patterns)]
        _ => scalar::compare_pass::<16>(dst, ge.as_ref(), gt.as_ref()),
    }
}

/// The number of one bits in `words`.
#[inline]
#[must_use]
pub fn count_ones(path: KernelPath, words: &[u64]) -> u64 {
    match path {
        KernelPath::Scalar => scalar::count_ones(words),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::count_ones(words) },
        #[allow(unreachable_patterns)]
        _ => scalar::count_ones(words),
    }
}

/// The number of maximal runs of one bits in `words`, read as one
/// bitmap from bit 0 of `words[0]` on: the ones not preceded by a one.
#[inline]
#[must_use]
pub fn count_runs(path: KernelPath, words: &[u64]) -> u64 {
    match path {
        KernelPath::Scalar => scalar::count_runs(words),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::count_runs(words) },
        #[allow(unreachable_patterns)]
        _ => scalar::count_runs(words),
    }
}

// ---------------------------------------------------------------------------
// The passes, one source each. Everything here is `#[inline(always)]`,
// so each wrapper in `avx2` compiles its own copy with AVX2 enabled.
// ---------------------------------------------------------------------------

mod scalar {
    use super::Chain;

    #[inline(always)]
    pub fn fused_pass2(acc: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let mut any = 0u64;
        for ((a, &x), &y) in acc.iter_mut().zip(s1).zip(s2) {
            let v = (x ^ m1) & (y ^ m2);
            *a = v;
            any |= v;
        }
        any != 0
    }

    #[inline(always)]
    pub fn and_pass(acc: &mut [u64], src: &[u64], m: u64) -> bool {
        let mut any = 0u64;
        for (a, &x) in acc.iter_mut().zip(src) {
            *a &= x ^ m;
            any |= *a;
        }
        any != 0
    }

    #[inline(always)]
    pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
        let mut all = u64::MAX;
        for (d, &x) in dst.iter_mut().zip(src) {
            *d |= x;
            all &= *d;
        }
        all == u64::MAX
    }

    #[inline(always)]
    pub fn or_and_into(dst: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let mut all = u64::MAX;
        for ((d, &x), &y) in dst.iter_mut().zip(s1).zip(s2) {
            *d |= (x ^ m1) & (y ^ m2);
            all &= *d;
        }
        all == u64::MAX
    }

    /// Words `at .. at + N` of `words`, as one fixed-size block.
    #[inline(always)]
    fn block<const N: usize>(words: &[u64], at: usize) -> &[u64; N] {
        words[at..at + N].try_into().expect("one block")
    }

    /// The running value of `c` over words `at .. at + N`. The indexed
    /// loops over fixed-size blocks are what the vectoriser turns into
    /// whole-register operations, with the running value in registers.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn chain_block<const N: usize>(c: &Chain, at: usize) -> [u64; N] {
        let mut x = *block::<N>(c.start, at);
        for (t, op) in c.ops.iter().enumerate() {
            let b = block::<N>(op, at);
            if c.ands >> t & 1 == 1 {
                for j in 0..N {
                    x[j] &= b[j];
                }
            } else {
                for j in 0..N {
                    x[j] |= b[j];
                }
            }
        }
        x
    }

    #[inline(always)]
    fn chain_word(c: &Chain, i: usize) -> u64 {
        let ops = c.ops.iter().enumerate();
        ops.fold(c.start[i], |x, (t, op)| {
            if c.ands >> t & 1 == 1 {
                x & op[i]
            } else {
                x | op[i]
            }
        })
    }

    /// The comparison pass in blocks of `N` words, one chain at a time
    /// (`ge` into `dst`, then `gt` out of it). `N` is as many words as
    /// the running value can hold in registers: 16 on the baseline (an
    /// SSE2 operand read from memory must be aligned, so loads need
    /// registers of their own) and 64 with AVX2's sixteen.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    pub fn compare_pass<const N: usize>(dst: &mut [u64], ge: Option<&Chain>, gt: Option<&Chain>) {
        let blocks = dst.len() / N * N;
        // `match`, not `map_or`: a closure would be compiled apart from
        // the AVX2 wrapper, for the baseline target only.
        for (at, d) in (0..blocks).step_by(N).zip(dst.chunks_exact_mut(N)) {
            match ge {
                Some(c) => d.copy_from_slice(&chain_block::<N>(c, at)),
                None => d.fill(u64::MAX),
            }
            if let Some(c) = gt {
                let y = chain_block::<N>(c, at);
                for j in 0..N {
                    d[j] &= !y[j];
                }
            }
        }
        for (i, d) in dst.iter_mut().enumerate().skip(blocks) {
            let x = match ge {
                Some(c) => chain_word(c, i),
                None => u64::MAX,
            };
            let y = match gt {
                Some(c) => chain_word(c, i),
                None => 0,
            };
            *d = x & !y;
        }
    }

    #[inline(always)]
    pub fn count_ones(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    #[inline(always)]
    pub fn count_runs(words: &[u64]) -> u64 {
        // A run starts at a one whose lower neighbour is a zero: the bit
        // below it in its word, or the top bit of the word before.
        let starts = |w: u64, before: u64| u64::from((w & !(w << 1 | before >> 63)).count_ones());
        let Some(&first) = words.first() else {
            return 0;
        };
        let rest: u64 = words[1..]
            .iter()
            .zip(words)
            .map(|(&w, &before)| starts(w, before))
            .sum();
        starts(first, 0) + rest
    }
}

// ---------------------------------------------------------------------------
// The passes compiled for AVX2: each wrapper's body is the scalar pass,
// inlined into a function the compiler may use AVX2 instructions in.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{scalar, Chain};

    macro_rules! avx2 {
        ($($pass:ident $(::<$n:literal>)? ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            /// The scalar pass of the same name, compiled with AVX2.
            ///
            /// # Safety
            /// The host must support AVX2.
            #[target_feature(enable = "avx2")]
            pub unsafe fn $pass($($arg: $ty),*) $(-> $ret)? {
                scalar::$pass $(::<$n>)? ($($arg),*)
            }
        )*};
    }

    avx2! {
        fused_pass2(acc: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool;
        and_pass(acc: &mut [u64], src: &[u64], m: u64) -> bool;
        or_into(dst: &mut [u64], src: &[u64]) -> bool;
        or_and_into(dst: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool;
        compare_pass::<64>(dst: &mut [u64], ge: Option<&Chain>, gt: Option<&Chain>);
        count_ones(words: &[u64]) -> u64;
        count_runs(words: &[u64]) -> u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: usize, seed: u64) -> Vec<u64> {
        // Deterministic mix of dense / sparse / uniform words.
        (0..n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
                match i % 5 {
                    0 => 0,
                    1 => u64::MAX,
                    _ => x,
                }
            })
            .collect()
    }

    #[test]
    fn every_path_matches_scalar_on_every_pass() {
        for n in [0usize, 1, 3, 4, 5, 17, 63, 64] {
            let s1 = words(n, 0xA5A5);
            let s2 = words(n, 0x5A5A);
            for path in available_paths() {
                for (n1, n2) in [(false, false), (false, true), (true, false), (true, true)] {
                    let mut want = vec![0u64; n];
                    let wa = fused_pass2(KernelPath::Scalar, &mut want, &s1, &s2, n1, n2);
                    let mut got = vec![0u64; n];
                    let ga = fused_pass2(path, &mut got, &s1, &s2, n1, n2);
                    assert_eq!(got, want, "fused_pass2 {path:?} n={n} neg=({n1},{n2})");
                    assert_eq!(ga, wa, "fused_pass2 any {path:?} n={n}");

                    let mut want2 = want.clone();
                    let wb = and_pass(KernelPath::Scalar, &mut want2, &s2, n2);
                    let mut got2 = got.clone();
                    let gb = and_pass(path, &mut got2, &s2, n2);
                    assert_eq!(got2, want2, "and_pass {path:?} n={n}");
                    assert_eq!(gb, wb, "and_pass any {path:?} n={n}");

                    let mut wdst = s1.clone();
                    let ws = or_into(KernelPath::Scalar, &mut wdst, &want2);
                    let mut gdst = s1.clone();
                    let gs = or_into(path, &mut gdst, &got2);
                    assert_eq!(gdst, wdst, "or_into {path:?} n={n}");
                    assert_eq!(gs, ws, "or_into saturated {path:?} n={n}");

                    // The fused form equals the AND pass then the OR.
                    let mut fdst = s1.clone();
                    let fs = or_and_into(path, &mut fdst, &want, &s2, false, n2);
                    assert_eq!(fdst, wdst, "or_and_into {path:?} n={n}");
                    assert_eq!(fs, ws, "or_and_into saturated {path:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn counting_passes_match_a_walk_over_the_bits() {
        let ragged = [0usize, 1, 3, 4, 5, 17, 63, 64, 130];
        let inputs = ragged.map(|n| words(n, 0xC0DE)).into_iter();
        // Every byte at its maximum for longer than a byte can hold.
        let full = [vec![u64::MAX; 300], vec![0x5555_5555_5555_5555; 300]];
        for w in inputs.chain(full) {
            let bit = |i: usize| w[i / 64] >> (i % 64) & 1 == 1;
            let ones = (0..w.len() * 64).filter(|&i| bit(i)).count() as u64;
            let runs = (0..w.len() * 64)
                .filter(|&i| bit(i) && (i == 0 || !bit(i - 1)))
                .count() as u64;
            for path in available_paths() {
                assert_eq!(count_ones(path, &w), ones, "{path:?} n={}", w.len());
                assert_eq!(count_runs(path, &w), runs, "{path:?} n={}", w.len());
            }
        }
    }

    #[test]
    fn compare_pass_runs_both_chains_word_by_word() {
        // The running value of a chain at word `i`, one operand at a time.
        fn value(c: &Chain, i: usize) -> u64 {
            let ops = c.ops.iter().enumerate();
            ops.fold(c.start[i], |x, (t, op)| {
                if c.ands >> t & 1 == 1 {
                    x & op[i]
                } else {
                    x | op[i]
                }
            })
        }
        for n in [0usize, 1, 15, 16, 17, 40, 64, 65, 130] {
            let operands: Vec<Vec<u64>> = (0..6).map(|i| words(n, 0x1000 + i)).collect();
            let refs: Vec<&[u64]> = operands.iter().map(Vec::as_slice).collect();
            for ands in [0u64, 0b1_0101, 0b1_1111] {
                let ge = Chain {
                    start: refs[0],
                    ops: &refs[1..],
                    ands,
                };
                let gt = Chain {
                    start: refs[2],
                    ops: &refs[3..],
                    ands: !ands,
                };
                for (x, y) in [(Some(ge), Some(gt)), (Some(ge), None), (None, Some(gt))] {
                    let want: Vec<u64> = (0..n)
                        .map(|i| {
                            x.map_or(u64::MAX, |c| value(&c, i)) & !y.map_or(0, |c| value(&c, i))
                        })
                        .collect();
                    for path in available_paths() {
                        let mut dst = vec![0xDEAD; n];
                        compare_pass(path, &mut dst, x, y);
                        assert_eq!(dst, want, "{path:?} n={n} ands={ands:#b}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand length")]
    fn compare_pass_refuses_a_short_operand() {
        let (long, short) = ([0u64; 8], [0u64; 7]);
        let ge = Chain {
            start: &long,
            ops: &[&short],
            ands: 1,
        };
        compare_pass(KernelPath::Scalar, &mut [0; 8], Some(ge), None);
    }

    #[test]
    fn saturation_and_zero_edges() {
        for path in available_paths() {
            let mut dst = vec![u64::MAX; 8];
            assert!(or_into(path, &mut dst, &[0u64; 8]), "{path:?}");
            let mut dst = vec![u64::MAX - 1; 7];
            assert!(!or_into(path, &mut dst, &[0u64; 7]), "{path:?}");
            // One operand twice, complemented: `dst |= !src`.
            let mut dst = vec![0u64; 9];
            assert!(or_and_into(path, &mut dst, &[0; 9], &[0; 9], true, true));
            let mut acc = vec![u64::MAX; 9];
            assert!(and_pass(path, &mut acc, &[0u64; 9], true));
            assert!(!and_pass(path, &mut acc, &[0u64; 9], false));
        }
    }

    #[test]
    fn forcing_is_clamped_and_scoped() {
        let best = detected_path();
        with_forced_path(KernelPath::Avx2, || {
            assert!(selected_path() <= best);
        });
        with_forced_path(KernelPath::Scalar, || {
            assert_eq!(selected_path(), KernelPath::Scalar);
            with_forced_path(KernelPath::Avx2, || {
                assert_eq!(selected_path(), best);
            });
            assert_eq!(selected_path(), KernelPath::Scalar);
        });
        assert_eq!(selected_path(), best);
    }

    #[test]
    fn only_scalar_is_a_recognised_kernel_override() {
        use KernelPath::{Avx2, Scalar};
        assert_eq!(resolve_env(Some("scalar"), Avx2), Scalar);
        // The removed `portable` tier, like any unknown value, is auto.
        for auto in [None, Some("portable"), Some("avx2"), Some("auto"), Some("")] {
            assert_eq!(resolve_env(auto, Avx2), Avx2, "{auto:?}");
            assert_eq!(resolve_env(auto, Scalar), Scalar, "never up: {auto:?}");
        }
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Avx2.name(), "avx2");
    }

    #[test]
    fn available_paths_starts_at_scalar() {
        let paths = available_paths();
        assert_eq!(paths[0], KernelPath::Scalar);
        assert!(paths.windows(2).all(|w| w[0] < w[1]));
        if cfg!(not(target_arch = "x86_64")) {
            assert_eq!(paths.len(), 1);
        }
    }
}
