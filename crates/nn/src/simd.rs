//! Explicit SIMD kernel tier: runtime feature detection, the `NN_SIMD`
//! knob, and the `core::arch` lane kernels behind
//! [`crate::GemmBackend::Simd`] and [`crate::QGemmBackend::Simd`].
//!
//! # What lives here and why
//!
//! The blocked kernels on both datapaths are written so the *scalar*
//! code already has the lane-friendly shape — contiguous-`k` dots for
//! Q8.8 (the `pmaddwd` pairing of `docs/fixed_point.md`), `MR×NR`
//! register tiles for f32. This module is the explicit-lane realisation
//! of those same shapes:
//!
//! * **Q8.8** (`qdot4`, `qdot1`): AVX2 `_mm256_madd_epi16` dot
//!   products for rows that hold the `row_safe` overflow certificate.
//!   `pmaddwd` multiplies signed 16-bit lanes into 32-bit products and
//!   adds adjacent pairs; every add in the kernel (lane adds, the
//!   horizontal reduce, the bias seed, the scalar tail) is **wrapping
//!   mod 2³²**. Wrapping adds are associative, so any lane grouping
//!   computes the same value mod 2³² — and the certificate bounds every
//!   partial sum (under *any* association, by the L1 triangle
//!   inequality) below `i32::MAX`, so that value **is** the true sum:
//!   the saturating oracle chain's exact bits. Uncertified rows never
//!   reach this module.
//! * **f32** (`matmul_band_f32`): an AVX2+FMA band kernel under the
//!   **documented tolerance tier** of `docs/gemm_backends.md`. Every
//!   output element is one accumulator chain — `acc ← fma(a·b, acc)` in
//!   ascending-`k` order, seeded at `0.0` — whether it runs in a vector
//!   lane, in the `mul_add` column/row tails, or in the skinny `n < 8`
//!   scalar path. Because the chain depends only on the element's own
//!   `(A row, B column)` pair, results are **bitwise invariant** under
//!   batching, row banding, column tiling and pool size; only the
//!   *fusion* (one rounding per multiply-add instead of two)
//!   distinguishes it from the unfused naive/blocked family.
//!
//! # Detection, knob, fallback
//!
//! [`simd_active`] gates every entry: the target must be x86-64 with
//! AVX2+FMA detected at runtime ([`available`]), the `NN_SIMD` env knob
//! must not be `off` ([`env_simd_knob`] — unknown values warn on stderr
//! and fall back to `auto`, mirroring [`crate::pool::env_thread_knob`]),
//! and no [`force_scalar`] guard may be live. When the gate is closed
//! the `Simd` backends run the blocked scalar kernels — the fallback
//! *is* the oracle, so disabling SIMD can only change speed, never
//! (for Q8.8) bits.
//!
//! # Unsafe policy
//!
//! Follows the audited [`crate::pool`] precedent: the crate stays
//! `deny(unsafe_code)` with a module-level `allow` here, one module
//! owning all intrinsics, and a `SAFETY:` comment on every unsafe
//! block. The only unsafe operations are (a) calling
//! `#[target_feature]` functions after runtime detection, (b) unaligned
//! vector loads/stores within slice bounds, and (c) reinterpreting
//! `&[Q8_8]` as `&[i16]`, sound by `Q`'s `#[repr(transparent)]` layout
//! guarantee.

// Intrinsics require `unsafe`; the crate is `deny(unsafe_code)`
// everywhere else. See the module docs for the audit surface.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mramrl_fixed::Q8_8;

/// Vector width of the f32 micro-tile: one AVX2 register of output
/// columns (mirrors the blocked kernel's `NR`).
const NR: usize = 8;

/// Output rows per f32 micro-tile: 8 independent FMA chains in flight
/// (mirrors the blocked kernel's `MR`).
const MR: usize = 8;

/// Output-column tile width for the packed B panel (mirrors the blocked
/// kernel's `NC`).
const NC: usize = 512;

/// `true` when the host ISA supports the lane kernels: x86-64 with
/// AVX2 and FMA detected at runtime. On every other architecture this
/// is compile-time `false` and the `Simd` backends always take their
/// blocked scalar fallback.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Depth counter of live [`force_scalar`] guards. Process-global (not
/// thread-local) on purpose: the pool's worker threads must observe a
/// guard taken on the test thread, otherwise a forced-fallback test
/// would still run lane kernels inside scattered row bands.
static FORCE_SCALAR: AtomicUsize = AtomicUsize::new(0);

/// RAII guard from [`force_scalar`]: while any guard is live,
/// [`simd_active`] reports `false` process-wide.
#[must_use = "the fallback is forced only while the guard is live"]
pub struct ScalarGuard(());

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        FORCE_SCALAR.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Forces the `Simd` backends onto their blocked scalar fallback for
/// the lifetime of the returned guard — the in-process equivalent of
/// `NN_SIMD=off`, used by tests to exercise and CI-gate the fallback
/// path on hosts where detection would pick the lane kernels. Guards
/// nest; the effect is process-wide (pool workers included).
pub fn force_scalar() -> ScalarGuard {
    FORCE_SCALAR.fetch_add(1, Ordering::SeqCst);
    ScalarGuard(())
}

/// The `NN_SIMD` env knob, read once and cached: `on`/`1`/`true`/`auto`
/// enable detection (the default), `off`/`0`/`false` force the scalar
/// fallback. Unknown values warn on stderr and fall back to `auto` —
/// the same complain-then-fall-back policy as
/// [`crate::pool::env_thread_knob`]. Returns `None` when unset or
/// unparsable.
pub fn env_simd_knob() -> Option<bool> {
    parse_simd_knob(&std::env::var("NN_SIMD").ok()?)
}

/// The parse half of [`env_simd_knob`], split out so tests can cover
/// the accept/warn behaviour without mutating process env (concurrent
/// `setenv`/`getenv` from parallel test threads is UB on glibc).
pub(crate) fn parse_simd_knob(v: &str) -> Option<bool> {
    match v.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "auto" => Some(true),
        "off" | "0" | "false" => Some(false),
        other => {
            eprintln!("warning: NN_SIMD={other:?} not recognised (on|off|auto); using auto");
            None
        }
    }
}

/// Cached verdict of [`env_simd_knob`] (`true` when unset).
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| env_simd_knob().unwrap_or(true))
}

/// The gate every `Simd` dispatch checks: ISA support
/// ([`available`]) ∧ `NN_SIMD` not `off` ∧ no live [`force_scalar`]
/// guard. When `false`, the `Simd` backends run the blocked scalar
/// kernels instead.
pub fn simd_active() -> bool {
    env_enabled() && FORCE_SCALAR.load(Ordering::SeqCst) == 0 && available()
}

/// Reinterprets a Q8.8 slice as its raw `i16` lanes for vector loads.
#[cfg(target_arch = "x86_64")]
fn raw_lanes(q: &[Q8_8]) -> &[i16] {
    // SAFETY: `Q<FRAC>` is `#[repr(transparent)]` over `i16` (a
    // documented layout guarantee in `mramrl_fixed::q`), so the
    // pointer cast preserves size, alignment and validity; the length
    // and lifetime are carried over unchanged from the input slice.
    unsafe { core::slice::from_raw_parts(q.as_ptr().cast::<i16>(), q.len()) }
}

/// Four certified Q8.8 dot products sharing one A-row stream:
/// raw accumulators for output columns `j..j+4`, each
/// `seed +Σₖ a[kk]·b[kk]` computed with wrapping adds.
///
/// **Caller contract:** all five slices have equal length, the caller
/// has gated on [`simd_active`], and the A row holds the `row_safe`
/// certificate over this Bᵀ — which is what makes the wrapping-add
/// value the true (and therefore oracle-exact) sum. See the module
/// docs for the full bit-identity argument.
pub(crate) fn qdot4(
    arow: &[Q8_8],
    b0: &[Q8_8],
    b1: &[Q8_8],
    b2: &[Q8_8],
    b3: &[Q8_8],
    seed: i32,
) -> [i32; 4] {
    debug_assert!(
        [b0, b1, b2, b3].iter().all(|b| b.len() == arow.len()),
        "qdot4 operand lengths"
    );
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(available());
        // SAFETY: `available()` (checked by the caller via
        // `simd_active()`) proves AVX2 is supported at runtime, which is
        // the only precondition of the `#[target_feature]` function.
        unsafe {
            x86::qdot4_avx2(
                raw_lanes(arow),
                raw_lanes(b0),
                raw_lanes(b1),
                raw_lanes(b2),
                raw_lanes(b3),
                seed,
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Unreachable in practice (`simd_active()` is false off
        // x86-64) but kept correct: the same wrapping chains, scalar.
        [b0, b1, b2, b3].map(|b| qdot1(arow, b, seed))
    }
}

/// One certified Q8.8 dot product (the column tail of the `Simd`
/// kernel): `seed + Σₖ a[kk]·b[kk]` with wrapping adds. Same caller
/// contract as [`qdot4`].
pub(crate) fn qdot1(arow: &[Q8_8], brow: &[Q8_8], seed: i32) -> i32 {
    debug_assert_eq!(arow.len(), brow.len(), "qdot1 operand lengths");
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(available());
        // SAFETY: AVX2 support is proven by the caller's
        // `simd_active()` gate (see `qdot4`).
        unsafe { x86::qdot1_avx2(raw_lanes(arow), raw_lanes(brow), seed) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let mut acc = seed;
        for (&av, &bv) in arow.iter().zip(brow) {
            acc = acc.wrapping_add(i32::from(av.raw()) * i32::from(bv.raw()));
        }
        acc
    }
}

/// f32 `C[rows×n] = A[rows×k] · B[k×n]` over a row band, every element
/// one ascending-`k` **FMA chain** (the `Simd` tolerance tier's
/// defining op sequence — see the module docs). Skinny outputs
/// (`n < 8`) run the identical chains in scalar `mul_add`, so the
/// per-element bits never depend on the shape around it.
///
/// **Caller contract:** slice lengths match the dimensions and the
/// caller has gated on [`simd_active`].
pub(crate) fn matmul_band_f32(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), rows * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), rows * n);
    if n < NR {
        // Scalar fused chains: `f32::mul_add` is the same
        // correctly-rounded fusedMultiplyAdd the vector lanes perform,
        // so batch-of-1 (n = 1) reproduces a batch-of-32 column bit
        // for bit.
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, &av) in arow.iter().enumerate() {
                    acc = av.mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(available());
        // SAFETY: AVX2+FMA support is proven by the caller's
        // `simd_active()` gate; that is the `#[target_feature]`
        // function's only precondition (its internal pointer accesses
        // carry their own safety comments).
        unsafe { x86::band_f32_avx2_fma(c, a, b, rows, k, n) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Unreachable in practice; same chains, scalar.
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (kk, &av) in arow.iter().enumerate() {
                    acc = av.mul_add(b[kk * n + j], acc);
                }
                c[i * n + j] = acc;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsics themselves. Every function is `unsafe` with the
    //! single precondition that its `#[target_feature]` set is
    //! supported at runtime; callers prove it via
    //! [`super::available`].

    use core::arch::x86_64::*;

    use super::{MR, NC, NR};

    /// Wrapping horizontal sum of the eight i32 lanes.
    ///
    /// # Safety
    ///
    /// AVX2 must be supported (guaranteed by the callers' own
    /// `target_feature` contract).
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        // Pure register ops, no memory access — safe to call here
        // because this function's own target_feature set covers them.
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi32(lo, hi); // 4 lanes
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s)); // 2 lanes
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<1>(s)); // 1 lane
        _mm_cvtsi128_si32(s)
    }

    /// Four `pmaddwd` dot products over one shared A row. All adds —
    /// `pmaddwd`'s internal pair adds, the lane adds, the horizontal
    /// reduce, the seed and the scalar tail — are wrapping mod 2³²,
    /// so the result equals the true sum whenever the caller's
    /// `row_safe` certificate holds (see the module docs).
    ///
    /// # Safety
    ///
    /// AVX2 must be supported at runtime; all slices must have equal
    /// length (debug-asserted by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qdot4_avx2(
        a: &[i16],
        b0: &[i16],
        b1: &[i16],
        b2: &[i16],
        b3: &[i16],
        seed: i32,
    ) -> [i32; 4] {
        let k = a.len();
        let mut acc0 = _mm256_setzero_si256();
        let mut acc1 = _mm256_setzero_si256();
        let mut acc2 = _mm256_setzero_si256();
        let mut acc3 = _mm256_setzero_si256();
        let mut kk = 0usize;
        while kk + 16 <= k {
            // SAFETY: `kk + 16 <= k` and every slice has length `k`
            // (wrapper contract), so each 32-byte unaligned load reads
            // entirely in bounds.
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(kk).cast());
                let v0 = _mm256_loadu_si256(b0.as_ptr().add(kk).cast());
                let v1 = _mm256_loadu_si256(b1.as_ptr().add(kk).cast());
                let v2 = _mm256_loadu_si256(b2.as_ptr().add(kk).cast());
                let v3 = _mm256_loadu_si256(b3.as_ptr().add(kk).cast());
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(va, v0));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(va, v1));
                acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(va, v2));
                acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(va, v3));
            }
            kk += 16;
        }
        // SAFETY: register-only reduction; AVX2 enabled by this
        // function's target_feature contract.
        let mut out = unsafe {
            [
                seed.wrapping_add(hsum_epi32(acc0)),
                seed.wrapping_add(hsum_epi32(acc1)),
                seed.wrapping_add(hsum_epi32(acc2)),
                seed.wrapping_add(hsum_epi32(acc3)),
            ]
        };
        // Scalar tail (k % 16): same wrapping chain, safe indexing.
        while kk < k {
            let av = i32::from(a[kk]);
            out[0] = out[0].wrapping_add(av * i32::from(b0[kk]));
            out[1] = out[1].wrapping_add(av * i32::from(b1[kk]));
            out[2] = out[2].wrapping_add(av * i32::from(b2[kk]));
            out[3] = out[3].wrapping_add(av * i32::from(b3[kk]));
            kk += 1;
        }
        out
    }

    /// One `pmaddwd` dot product (the column tail of the Q8.8 kernel).
    ///
    /// # Safety
    ///
    /// AVX2 must be supported at runtime; both slices must have equal
    /// length (debug-asserted by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qdot1_avx2(a: &[i16], b: &[i16], seed: i32) -> i32 {
        let k = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut kk = 0usize;
        while kk + 16 <= k {
            // SAFETY: `kk + 16 <= k` keeps both 32-byte loads in
            // bounds (wrapper contract: equal lengths `k`).
            unsafe {
                let va = _mm256_loadu_si256(a.as_ptr().add(kk).cast());
                let vb = _mm256_loadu_si256(b.as_ptr().add(kk).cast());
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
            }
            kk += 16;
        }
        // SAFETY: register-only reduction (AVX2 enabled).
        let mut out = seed.wrapping_add(unsafe { hsum_epi32(acc) });
        while kk < k {
            out = out.wrapping_add(i32::from(a[kk]) * i32::from(b[kk]));
            kk += 1;
        }
        out
    }

    /// The f32 FMA band kernel: the blocked kernel's GotoBLAS loop
    /// structure (packed `k×nc` B panel, k-major packed `MR×k` A
    /// panel, `MR×NR` register tile) with `vfmadd` lanes. Every output
    /// element is one ascending-`k` FMA chain regardless of which path
    /// (vector tile, column tail, row tail) produces it; `mul_add` in
    /// the tails is the identical correctly-rounded operation.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be supported at runtime; slice lengths must
    /// match the dimensions (debug-asserted by the safe wrapper) and
    /// the wrapper must have routed `n < NR` away (the packed panels
    /// assume at least one full vector of columns exists per tile
    /// sweep — narrower tiles fall through to the safe tail loops,
    /// which hold for any `nc`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn band_f32_avx2_fma(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        rows: usize,
        k: usize,
        n: usize,
    ) {
        let mut apanel = vec![0.0f32; MR * k.max(1)];
        let mut bpanel = vec![0.0f32; NC.min(n) * k.max(1)];
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            // Pack the B column block [k × nc] into contiguous rows.
            for kk in 0..k {
                bpanel[kk * nc..(kk + 1) * nc].copy_from_slice(&b[kk * n + jc..kk * n + jc + nc]);
            }
            let mut i = 0;
            while i + MR <= rows {
                // k-major packing of the MR-row A panel.
                for r in 0..MR {
                    for (kk, &v) in a[(i + r) * k..(i + 1 + r) * k].iter().enumerate() {
                        apanel[kk * MR + r] = v;
                    }
                }
                let mut jt = 0;
                while jt + NR <= nc {
                    // SAFETY: all pointer offsets are in bounds —
                    // `kk < k` so `kk·nc + jt + NR ≤ k·nc =`
                    // `bpanel.len()` and `kk·MR + r < k·MR =`
                    // `apanel.len()`; the store targets rows
                    // `i..i+MR < rows` and columns
                    // `jc+jt..jc+jt+NR ≤ n` of `c`. AVX2+FMA are
                    // enabled by this function's target_feature
                    // contract.
                    unsafe {
                        let mut acc = [_mm256_setzero_ps(); MR];
                        let ap = apanel.as_ptr();
                        let bp = bpanel.as_ptr();
                        for kk in 0..k {
                            let vb = _mm256_loadu_ps(bp.add(kk * nc + jt));
                            let arow = ap.add(kk * MR);
                            for (r, accr) in acc.iter_mut().enumerate() {
                                *accr = _mm256_fmadd_ps(_mm256_set1_ps(*arow.add(r)), vb, *accr);
                            }
                        }
                        for (r, accr) in acc.iter().enumerate() {
                            _mm256_storeu_ps(c.as_mut_ptr().add((i + r) * n + jc + jt), *accr);
                        }
                    }
                    jt += NR;
                }
                // Column tail (nc % NR): scalar FMA chains.
                for j in jt..nc {
                    for r in 0..MR {
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc = apanel[kk * MR + r].mul_add(bpanel[kk * nc + j], acc);
                        }
                        c[(i + r) * n + jc + j] = acc;
                    }
                }
                i += MR;
            }
            // Row tail (rows % MR): scalar FMA chains.
            while i < rows {
                let arow = &a[i * k..(i + 1) * k];
                for j in 0..nc {
                    let mut acc = 0.0f32;
                    for (kk, &av) in arow.iter().enumerate() {
                        acc = av.mul_add(bpanel[kk * nc + j], acc);
                    }
                    c[i * n + jc + j] = acc;
                }
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qfill(len: usize, seed: u32) -> Vec<Q8_8> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                Q8_8::from_f32((h % 2000) as f32 / 1000.0 - 1.0)
            })
            .collect()
    }

    fn wrapping_dot(a: &[Q8_8], b: &[Q8_8], seed: i32) -> i32 {
        let mut acc = seed;
        for (&av, &bv) in a.iter().zip(b) {
            acc = acc.wrapping_add(i32::from(av.raw()) * i32::from(bv.raw()));
        }
        acc
    }

    #[test]
    fn knob_parses_and_warns() {
        for on in ["on", "1", "true", "auto", " ON ", "Auto"] {
            assert_eq!(parse_simd_knob(on), Some(true), "{on:?}");
        }
        for off in ["off", "0", "false", " OFF "] {
            assert_eq!(parse_simd_knob(off), Some(false), "{off:?}");
        }
        assert_eq!(parse_simd_knob("avx512"), None);
        assert_eq!(parse_simd_knob(""), None);
    }

    #[test]
    fn force_scalar_guard_nests_and_restores() {
        let before = simd_active();
        {
            let _g1 = force_scalar();
            assert!(!simd_active());
            {
                let _g2 = force_scalar();
                assert!(!simd_active());
            }
            assert!(!simd_active(), "outer guard still live");
        }
        assert_eq!(simd_active(), before);
    }

    #[test]
    fn qdots_match_scalar_wrapping_chain() {
        if !available() {
            return; // honest skip: no lane kernels to test on this host
        }
        for k in [0usize, 1, 7, 15, 16, 17, 33, 64, 363] {
            let a = qfill(k, 1);
            let bs: Vec<Vec<Q8_8>> = (0..4).map(|j| qfill(k, 10 + j)).collect();
            let seed = 12345;
            let got = qdot4(&a, &bs[0], &bs[1], &bs[2], &bs[3], seed);
            for j in 0..4 {
                assert_eq!(got[j], wrapping_dot(&a, &bs[j], seed), "k={k} j={j}");
                assert_eq!(qdot1(&a, &bs[j], seed), got[j], "k={k} j={j}");
            }
        }
    }

    #[test]
    fn qdots_wrap_like_scalar_even_out_of_range() {
        // Off-contract on purpose (no certificate): the kernels must
        // still agree with the scalar wrapping chain mod 2³², which is
        // what the bit-identity argument needs.
        if !available() {
            return;
        }
        let k = 4096;
        let a = vec![Q8_8::from_raw(i16::MAX); k];
        let b = vec![Q8_8::from_raw(i16::MAX); k];
        let want = wrapping_dot(&a, &b, -7);
        assert_eq!(qdot1(&a, &b, -7), want);
        let got = qdot4(&a, &b, &b, &b, &b, -7);
        assert_eq!(got, [want; 4]);
    }

    #[test]
    fn f32_band_matches_scalar_fma_chains() {
        if !available() {
            return;
        }
        let fill = |len: usize, seed: u32| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                    (h % 2000) as f32 / 1000.0 - 1.0
                })
                .collect()
        };
        for (rows, k, n) in [
            (1usize, 1usize, 1usize),
            (3, 5, 4),     // n < NR: all-scalar path
            (8, 300, 16),  // full tiles
            (13, 257, 33), // ragged everything
            (4, 10, 600),  // crosses the NC column-tile boundary
        ] {
            let a = fill(rows * k, 1);
            let b = fill(k * n, 2);
            let mut got = vec![f32::NAN; rows * n];
            matmul_band_f32(&mut got, &a, &b, rows, k, n);
            for i in 0..rows {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
                    }
                    assert_eq!(
                        acc.to_bits(),
                        got[i * n + j].to_bits(),
                        "rows={rows} k={k} n={n} i={i} j={j}"
                    );
                }
            }
        }
    }
}
