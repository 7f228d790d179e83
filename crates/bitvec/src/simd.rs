//! Vectorised word passes behind the fused evaluation kernels.
//!
//! Every hot loop in [`crate::kernels`] reduces to one of a handful of
//! *word passes* over at most [`crate::kernels::SEGMENT_WORDS`] 64-bit
//! words: AND two (optionally complemented) operands into a product
//! row, AND a further operand in, OR a finished product into the
//! destination (the pass Roaring's chunk expansion borrows), or AND the
//! last two operands straight into the destination. This module
//! provides those passes at two implementation tiers and picks one at
//! runtime:
//!
//! * **scalar** — word-at-a-time `zip` loops, which the compiler
//!   auto-vectorises for whatever the target baseline offers (SSE2 on
//!   vanilla `x86_64`, NEON on aarch64). Always compiled, always
//!   correct; the AVX2 tier is verified against it by the `prop_simd`
//!   differential suite.
//! * **avx2** — explicit 256-bit `core::arch::x86_64` intrinsics,
//!   reached only when the `simd` feature is on, the binary runs on
//!   `x86_64`, and `is_x86_feature_detected!("avx2")` says the host has
//!   the instructions. This is the only `unsafe` code in the crate; the
//!   unsafety is confined to [`avx2`] and vetted by Miri in CI.
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
//! executable. The kernels resolve the path once per evaluation and
//! count it in the caller's [`ebi_obs::CostCounters`]
//! (`dispatch_scalar` / `dispatch_avx2`), the record every layer above
//! sums unchanged up to the query report, the `eval` span attributes
//! and `EXPLAIN ANALYZE`.

// The workspace denies `unsafe_code`; this module is the one sanctioned
// exception — the AVX2 tier and its dispatch calls. Every unsafe block
// carries a SAFETY comment and the whole tier is vetted by Miri in CI.
#![allow(unsafe_code)]

use std::cell::Cell;
#[cfg(feature = "simd")]
use std::sync::atomic::{AtomicU8, Ordering};

/// Which word-pass implementation tier ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum KernelPath {
    /// Word-at-a-time loops — the always-correct fallback.
    Scalar = 0,
    /// Explicit AVX2 intrinsics (runtime-detected, x86_64 only).
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
/// Without the `simd` feature this is always [`KernelPath::Scalar`];
/// with it, [`KernelPath::Avx2`] when the x86_64 host reports the
/// feature and `EBI_KERNEL=scalar` does not veto it. Under Miri,
/// runtime CPU detection is unavailable, so detection falls back to
/// compile-time target features.
#[must_use]
pub fn detected_path() -> KernelPath {
    #[cfg(feature = "simd")]
    {
        static DETECTED: AtomicU8 = AtomicU8::new(AUTO);
        if let Some(p) = KernelPath::from_u8(DETECTED.load(Ordering::Relaxed)) {
            return p;
        }
        let p = detect();
        DETECTED.store(p as u8, Ordering::Relaxed);
        p
    }
    #[cfg(not(feature = "simd"))]
    {
        KernelPath::Scalar
    }
}

#[cfg(feature = "simd")]
fn detect() -> KernelPath {
    resolve_env(std::env::var("EBI_KERNEL").ok().as_deref(), hardware_best())
}

/// `EBI_KERNEL=scalar` vetoes the vector tier; any other value (or
/// none) leaves the choice to the hardware.
#[cfg(feature = "simd")]
fn resolve_env(env: Option<&str>, hw: KernelPath) -> KernelPath {
    if env == Some("scalar") {
        KernelPath::Scalar
    } else {
        hw
    }
}

/// Best path the hardware supports, ignoring overrides.
#[cfg(feature = "simd")]
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
        // `RUSTFLAGS=-Ctarget-feature=+avx2 cargo miri test` vets the
        // intrinsic path.
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
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: as in `fused_pass2`.
        KernelPath::Avx2 => unsafe { avx2::or_and_into(dst, s1, s2, m1, m2) },
        #[allow(unreachable_patterns)]
        _ => scalar::or_and_into(dst, s1, s2, m1, m2),
    }
}

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation.
// ---------------------------------------------------------------------------

mod scalar {
    pub fn fused_pass2(acc: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let mut any = 0u64;
        for ((a, &x), &y) in acc.iter_mut().zip(s1).zip(s2) {
            let v = (x ^ m1) & (y ^ m2);
            *a = v;
            any |= v;
        }
        any != 0
    }

    pub fn and_pass(acc: &mut [u64], src: &[u64], m: u64) -> bool {
        let mut any = 0u64;
        for (a, &x) in acc.iter_mut().zip(src) {
            *a &= x ^ m;
            any |= *a;
        }
        any != 0
    }

    pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
        let mut all = u64::MAX;
        for (d, &x) in dst.iter_mut().zip(src) {
            *d |= x;
            all &= *d;
        }
        all == u64::MAX
    }

    pub fn or_and_into(dst: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let mut all = u64::MAX;
        for ((d, &x), &y) in dst.iter_mut().zip(s1).zip(s2) {
            *d |= (x ^ m1) & (y ^ m2);
            all &= *d;
        }
        all == u64::MAX
    }
}

// ---------------------------------------------------------------------------
// AVX2 tier: explicit 256-bit intrinsics. The only unsafe code in the
// crate — every function is `#[target_feature(enable = "avx2")]` and
// reachable only after runtime detection.
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_or_si256, _mm256_set1_epi64x,
        _mm256_storeu_si256, _mm256_testc_si256, _mm256_testz_si256, _mm256_xor_si256,
    };

    /// 4 × u64 per vector register.
    const LANES: usize = 4;

    /// Unaligned 4-lane load.
    ///
    /// # Safety
    /// `p .. p+4` must be in-bounds for reads, and the caller must have
    /// verified AVX2 support before reaching this module.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(p: *const u64) -> __m256i {
        // SAFETY: caller guarantees `p .. p+4` is in-bounds; loadu has
        // no alignment requirement.
        unsafe { _mm256_loadu_si256(p.cast()) }
    }

    /// Unaligned 4-lane store.
    ///
    /// # Safety
    /// `p .. p+4` must be in-bounds for writes, and the caller must
    /// have verified AVX2 support before reaching this module.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(p: *mut u64, v: __m256i) {
        // SAFETY: caller guarantees `p .. p+4` is in-bounds and writable.
        unsafe { _mm256_storeu_si256(p.cast(), v) }
    }

    /// # Safety
    /// Caller must have verified AVX2 support; slices must be equal
    /// length (checked by the dispatching wrapper).
    #[target_feature(enable = "avx2")]
    pub unsafe fn fused_pass2(acc: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let n = acc.len();
        let blocks = n / LANES * LANES;
        // SAFETY: all pointer arithmetic stays below `blocks <= n`, the
        // common length of the three slices.
        unsafe {
            let vm1 = _mm256_set1_epi64x(m1 as i64);
            let vm2 = _mm256_set1_epi64x(m2 as i64);
            let mut anyv = _mm256_set1_epi64x(0);
            let (pa, p1, p2) = (acc.as_mut_ptr(), s1.as_ptr(), s2.as_ptr());
            let mut i = 0;
            while i < blocks {
                let x = _mm256_xor_si256(load(p1.add(i)), vm1);
                let y = _mm256_xor_si256(load(p2.add(i)), vm2);
                let v = _mm256_and_si256(x, y);
                store(pa.add(i), v);
                anyv = _mm256_or_si256(anyv, v);
                i += LANES;
            }
            let mut any = (_mm256_testz_si256(anyv, anyv) == 0) as u64;
            for i in blocks..n {
                let v = (s1[i] ^ m1) & (s2[i] ^ m2);
                acc[i] = v;
                any |= v;
            }
            any != 0
        }
    }

    /// # Safety
    /// As [`fused_pass2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_pass(acc: &mut [u64], src: &[u64], m: u64) -> bool {
        let n = acc.len();
        let blocks = n / LANES * LANES;
        // SAFETY: bounds as in `fused_pass2`.
        unsafe {
            let vm = _mm256_set1_epi64x(m as i64);
            let mut anyv = _mm256_set1_epi64x(0);
            let (pa, ps) = (acc.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < blocks {
                let v = _mm256_and_si256(load(pa.add(i)), _mm256_xor_si256(load(ps.add(i)), vm));
                store(pa.add(i), v);
                anyv = _mm256_or_si256(anyv, v);
                i += LANES;
            }
            let mut any = (_mm256_testz_si256(anyv, anyv) == 0) as u64;
            for i in blocks..n {
                acc[i] &= src[i] ^ m;
                any |= acc[i];
            }
            any != 0
        }
    }

    /// # Safety
    /// As [`fused_pass2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
        let n = dst.len();
        let blocks = n / LANES * LANES;
        // SAFETY: bounds as in `fused_pass2`.
        unsafe {
            let ones = _mm256_set1_epi64x(-1);
            let mut allv = ones;
            let (pd, ps) = (dst.as_mut_ptr(), src.as_ptr());
            let mut i = 0;
            while i < blocks {
                let v = _mm256_or_si256(load(pd.add(i)), load(ps.add(i)));
                store(pd.add(i), v);
                allv = _mm256_and_si256(allv, v);
                i += LANES;
            }
            // testc(a, ones) == 1  ⟺  !a & ones == 0  ⟺  a == ones.
            let mut all = if _mm256_testc_si256(allv, ones) == 1 {
                u64::MAX
            } else {
                0
            };
            for i in blocks..n {
                dst[i] |= src[i];
                all &= dst[i];
            }
            all == u64::MAX
        }
    }

    /// # Safety
    /// As [`fused_pass2`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn or_and_into(dst: &mut [u64], s1: &[u64], s2: &[u64], m1: u64, m2: u64) -> bool {
        let n = dst.len();
        let blocks = n / LANES * LANES;
        // SAFETY: bounds as in `fused_pass2`.
        unsafe {
            let vm1 = _mm256_set1_epi64x(m1 as i64);
            let vm2 = _mm256_set1_epi64x(m2 as i64);
            let ones = _mm256_set1_epi64x(-1);
            let mut allv = ones;
            let (pd, p1, p2) = (dst.as_mut_ptr(), s1.as_ptr(), s2.as_ptr());
            let mut i = 0;
            while i < blocks {
                let x = _mm256_xor_si256(load(p1.add(i)), vm1);
                let y = _mm256_xor_si256(load(p2.add(i)), vm2);
                let v = _mm256_or_si256(load(pd.add(i)), _mm256_and_si256(x, y));
                store(pd.add(i), v);
                allv = _mm256_and_si256(allv, v);
                i += LANES;
            }
            let mut all = if _mm256_testc_si256(allv, ones) == 1 {
                u64::MAX
            } else {
                0
            };
            for i in blocks..n {
                dst[i] |= (s1[i] ^ m1) & (s2[i] ^ m2);
                all &= dst[i];
            }
            all == u64::MAX
        }
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

    #[cfg(feature = "simd")]
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
        if cfg!(not(feature = "simd")) {
            assert_eq!(paths.len(), 1);
        }
    }
}
