//! Explicit SIMD kernel tier: runtime feature detection, the `NN_SIMD`
//! knob, and the `core::arch` lane kernels behind the one GEMM kernel
//! of each datapath — the f32 lane tile of [`crate::backend`] and the
//! Q8.8 pair tile of [`crate::qgemm`].
//!
//! # What lives here and why
//!
//! The kernels on both datapaths are written so the *scalar*
//! code already has the lane-friendly shape — the pair-packed 4×16
//! tile for Q8.8 (the `pmaddwd` pairing of `docs/fixed_point.md`),
//! `MR×NR` register tiles for f32. This module is the explicit-lane
//! realisation of those same shapes, and on both datapaths the lanes
//! produce the scalar kernels' exact bits:
//!
//! * **Q8.8** (`qtile`): the lanes of the kernel's 4×16 pair
//!   tile ([`crate::qgemm`]) for rows that hold the `row_safe` overflow
//!   certificate. Each weight row's `(a[2p], a[2p+1])` pair is
//!   broadcast as one `i32` against a pair-packed `Bᵀ` panel, and
//!   `_mm256_madd_epi16` multiplies signed 16-bit lanes into 32-bit
//!   products and adds adjacent pairs; every add in the kernel (the
//!   pair adds, the lane adds, the bias seed) is **wrapping mod 2³²**.
//!   Wrapping adds are associative, so any lane grouping computes the
//!   same value mod 2³² — and the certificate bounds every partial sum
//!   (under *any* association, by the L1 triangle inequality) below
//!   `i32::MAX`, so that value **is** the true sum: the saturating
//!   oracle chain's exact bits. The re-quantisation runs in lanes too,
//!   as `(s >> 8) + ((s >> 7) & 1)` — `(s + 128) >> 8` without the add
//!   that could overflow — and `packs_epi32` saturates to Q8.8.
//!   Uncertified rows never reach this module.
//! * **f32** (`matmul_f32`, `matmul_at_b_f32`): one `MR×NR` = 8×8
//!   lane tile serves both products. Every output element is one
//!   accumulator chain seeded at `+0.0` that adds `a·b` in ascending
//!   contraction order (`k` for `A·B`, the shared row index `i` for
//!   `Aᵀ·B`), as `_mm256_mul_ps` then `_mm256_add_ps`: a rounded
//!   product, then a rounded sum, never a fused multiply-add. That is
//!   the op sequence of the scalar blocked kernels and of the naive
//!   oracle, so the lanes are **bit-identical** to both (the
//!   summation-order contract of [`crate::backend`]). A short row
//!   block repeats its last valid row in the spare accumulators and
//!   never stores them; a short column block runs on masked loads and
//!   stores. No element leaves the lanes, and no element's chain
//!   depends on the elements around it.
//!
//! # Detection, knob, fallback
//!
//! [`simd_active`] gates every entry: the target must be x86-64 with
//! AVX2 detected at runtime ([`available`]), the `NN_SIMD` env knob
//! must not be `off` ([`env_simd_knob`] — unknown values warn on stderr
//! and fall back to `auto`, mirroring [`crate::pool::env_thread_knob`]),
//! and no [`force_scalar`] guard may be live. When the gate is closed
//! the f32 products run the blocked scalar kernels and the Q8.8 tile
//! runs on scalar wrapping adds — on both datapaths the same
//! arithmetic, so disabling SIMD can only change speed, never bits.
//!
//! # Unsafe policy
//!
//! Follows the audited [`crate::pool`] precedent: the crate stays
//! `deny(unsafe_code)` with a module-level `allow` here, one module
//! owning all intrinsics, and a `SAFETY:` comment on every unsafe
//! block. The only unsafe operations are (a) calling
//! `#[target_feature]` functions after runtime detection, (b) unaligned
//! and masked vector loads/stores whose live lanes lie within slice
//! bounds, and (c) reinterpreting
//! `&[Q8_8]` as `&[i16]`, sound by `Q`'s `#[repr(transparent)]` layout
//! guarantee.

// Intrinsics require `unsafe`; the crate is `deny(unsafe_code)`
// everywhere else. See the module docs for the audit surface.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mramrl_fixed::Q8_8;

use crate::qgemm::{QMR, QNR};

/// Vector width of the f32 lane tile: one AVX2 register of output
/// columns (mirrors the blocked kernel's `NR`).
const NR: usize = 8;

/// Output rows per f32 lane tile: 8 independent add chains in flight
/// (mirrors the blocked kernel's `MR`, which divides every conv
/// layer's `out_c`).
const MR: usize = 8;

/// Widest column strip of `B` the f32 row blocks sweep together
/// (mirrors the blocked kernel's `NC`).
const NC: usize = 512;

/// Floats of `B` one column strip may span (128 KiB): every row block
/// re-reads the strip, so it should stay cache-resident.
const STRIP: usize = 32 * 1024;

/// `true` when the host ISA supports the lane kernels: x86-64 with
/// AVX2 detected at runtime. On every other architecture this is
/// compile-time `false` and both datapaths always run their scalar
/// kernels.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
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

/// Forces both datapaths onto their scalar kernels for
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

/// Serialises the unit tests that take a [`force_scalar`] guard or
/// compare [`simd_active`] across time: the guard is process-wide, so
/// two such tests running at once would see each other's guard.
#[cfg(test)]
pub(crate) fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cached verdict of [`env_simd_knob`] (`true` when unset).
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| env_simd_knob().unwrap_or(true))
}

/// The gate every lane dispatch checks: ISA support
/// ([`available`]) ∧ `NN_SIMD` not `off` ∧ no live [`force_scalar`]
/// guard. When `false`, both kernels run their scalar tiles instead,
/// with the same bits.
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

/// The Q8.8 pair tile on `pmaddwd` lanes: `out[r][j]` is the
/// re-quantised `seeds[r] + Σₖ arows[r][k]·b[j, k]` for the panel's 16
/// columns, every add wrapping mod 2³². `panel` is the pair-packed `Bᵀ`
/// panel of [`crate::qgemm`] (`⌈k/2⌉` pair rows of 16 `i32` words).
///
/// **Caller contract:** the caller has gated on [`simd_active`], and
/// every row holds the `row_safe` certificate over the panel's `Bᵀ` —
/// which is what makes the wrapping-add value the true (and therefore
/// oracle-exact) sum. See the module docs for the full bit-identity
/// argument.
///
/// # Panics
///
/// Panics without AVX2, or unless every A row has the same length `k`
/// and `panel` holds `⌈k/2⌉·16` words.
pub(crate) fn qtile(
    out: &mut [[Q8_8; QNR]; QMR],
    panel: &[i32],
    arows: [&[Q8_8]; QMR],
    seeds: [i32; QMR],
) {
    let k = arows[0].len();
    assert!(
        arows.iter().all(|r| r.len() == k) && panel.len() == k.div_ceil(2) * QNR,
        "qtile operand lengths"
    );
    #[cfg(target_arch = "x86_64")]
    {
        assert!(available(), "qtile needs AVX2");
        // SAFETY: `available()` proves AVX2 is supported at runtime, the
        // `#[target_feature]` function's only precondition beyond the
        // lengths asserted above.
        unsafe { x86::qtile_avx2(out, panel, arows.map(raw_lanes), seeds) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // Unreachable in practice (`simd_active()` is false off
        // x86-64) but kept correct: the same tile, scalar.
        crate::qgemm::qtile_scalar(out, panel, arows, seeds)
    }
}

/// Packs the whole 8-pair blocks of a full 16-column pair panel from
/// `bt` (`QNR × k`): word `panel[p·QNR + j]` becomes column `j`'s pair
/// `(b[j, 2p], b[j, 2p+1])` for every `p < 8·⌊k/16⌋`, by 8×8 word
/// transposes. Returns that pair count; the caller packs the pairs
/// after it.
///
/// # Panics
///
/// Panics without AVX2, or unless `bt` holds `16·k` lanes and `panel`
/// `⌈k/2⌉·16` words.
pub(crate) fn pack_pairs(panel: &mut [i32], bt: &[Q8_8], k: usize) -> usize {
    assert!(
        bt.len() == QNR * k && panel.len() == k.div_ceil(2) * QNR,
        "pack_pairs operand lengths"
    );
    #[cfg(target_arch = "x86_64")]
    {
        assert!(available(), "pack_pairs needs AVX2");
        // SAFETY: `available()` proves AVX2 is supported at runtime; the
        // lengths are asserted above.
        unsafe { x86::pack_pairs_avx2(panel, raw_lanes(bt), k) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// f32 `C[m×n] = A[m×k] · B[k×n]` on the lane tile, with the scalar
/// kernels' bits: every element is one chain seeded at `+0.0` that
/// adds the rounded product `a[i, p]·b[p, j]` for `p` ascending (see
/// the module docs).
///
/// **Caller contract:** the caller has gated on [`simd_active`].
///
/// # Panics
///
/// Panics without AVX2, or if a slice length does not match the
/// dimensions.
pub(crate) fn matmul_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() == m * k && b.len() == k * n && c.len() == m * n,
        "matmul_f32 dimensions"
    );
    sweep_f32(c, a, b, [m, k, n], [k, 1]);
}

/// f32 `C[k×n] = A[m×k]ᵀ · B[m×n]` on the same lane tile: output row
/// `kk` takes column `kk` of A as its left operand, so every element
/// is one chain seeded at `+0.0` that adds the rounded product
/// `a[i, kk]·b[i, j]` for the shared row `i` ascending — the scalar
/// rank-1 sweep's order, so its bits.
///
/// **Caller contract:** the caller has gated on [`simd_active`].
///
/// # Panics
///
/// Panics without AVX2, or if a slice length does not match the
/// dimensions.
pub(crate) fn matmul_at_b_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() == m * k && b.len() == m * n && c.len() == k * n,
        "matmul_at_b_f32 dimensions"
    );
    sweep_f32(c, a, b, [k, m, n], [1, k]);
}

/// The one loop nest behind both products: `C[rows × n]`, where
/// element `(i, j)` is the chain over `p < kc` of
/// `a[i·ra + p·sa] · b[p·n + j]`, swept in `MR × NR` lane tiles.
fn sweep_f32(c: &mut [f32], a: &[f32], b: &[f32], [rows, kc, n]: [usize; 3], [ra, sa]: [usize; 2]) {
    let nc = (STRIP / kc.max(1)).clamp(NR, NC) / NR * NR;
    let mut panel = Vec::new();
    for jc in (0..n).step_by(nc) {
        let w = nc.min(n - jc);
        // A strip narrower than `B` is packed into contiguous rows of
        // `w`: at `B`'s own stride, a power-of-two row length would map
        // every row of the strip onto the same cache sets.
        let (strip, ldb) = if w == n {
            (b, n)
        } else {
            panel.clear();
            panel.reserve_exact(kc * w);
            for row in b.chunks_exact(n) {
                panel.extend_from_slice(&row[jc..jc + w]);
            }
            (&panel[..], w)
        };
        for i in (0..rows).step_by(MR) {
            let live = MR.min(rows - i);
            // Tile row `r` reads A's row `i + r`; a short block repeats
            // its last row.
            let arows = std::array::from_fn(|r| (i + r.min(live - 1)) * ra);
            for j in (0..w).step_by(NR) {
                let tile = Tile {
                    c0: i * n + jc + j,
                    ldc: n,
                    arows,
                    sa,
                    b0: j,
                    ldb,
                    kc,
                    rows: live,
                    cols: NR.min(w - j),
                };
                lane_tile(c, a, strip, &tile);
            }
        }
    }
}

/// Where one `MR × NR` lane tile reads and writes. Its element
/// `(r, j)` is stored to `c[c0 + r·ldc + j]` for `r < rows` and
/// `j < cols`, and is the chain over `p < kc` of
/// `a[arows[r] + p·sa] · b[b0 + p·ldb + j]`. Rows from `rows` up
/// repeat a valid row's offset and are computed but never stored;
/// columns from `cols` up are masked off.
struct Tile {
    c0: usize,
    ldc: usize,
    arows: [usize; MR],
    sa: usize,
    b0: usize,
    ldb: usize,
    kc: usize,
    rows: usize,
    cols: usize,
}

/// Runs one lane tile after checking that every element it touches
/// lies inside its slice.
///
/// # Panics
///
/// Panics without AVX2, or if the tile reaches outside `c`, `a` or `b`.
fn lane_tile(c: &mut [f32], a: &[f32], b: &[f32], t: &Tile) {
    let last = t.kc.saturating_sub(1);
    let amax = t.arows.iter().max().copied().unwrap_or(0);
    assert!(
        (1..=MR).contains(&t.rows)
            && (1..=NR).contains(&t.cols)
            && t.c0 + (t.rows - 1) * t.ldc + t.cols <= c.len()
            && (t.kc == 0
                || (amax + last * t.sa < a.len() && t.b0 + last * t.ldb + t.cols <= b.len())),
        "lane tile out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    {
        assert!(available(), "the f32 lane tile needs AVX2");
        // SAFETY: `available()` proves AVX2 is supported at runtime, and
        // the assert above bounds every element the tile reads or
        // writes — the function's only preconditions.
        unsafe {
            if t.cols == NR {
                x86::tile_f32_avx2::<true>(c, a, b, t)
            } else {
                x86::tile_f32_avx2::<false>(c, a, b, t)
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        unreachable!("`simd_active()` is false off x86-64, so no caller gets here");
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The intrinsics themselves. Every function is `unsafe` with the
    //! single precondition that its `#[target_feature]` set is
    //! supported at runtime; callers prove it via
    //! [`super::available`].

    use core::arch::x86_64::*;

    use mramrl_fixed::Q8_8;

    use super::{Tile, MR, QMR, QNR};

    /// The pair tile: eight accumulators (4 rows × 2 registers of 8
    /// columns) seeded with the rows' bias, one `pmaddwd` + add per
    /// register per `k`-pair, then the lane re-quantisation.
    ///
    /// # Safety
    ///
    /// AVX2 must be supported at runtime; every A row has length `k`
    /// and `panel` holds `⌈k/2⌉·QNR` words (asserted by the safe
    /// wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qtile_avx2(
        out: &mut [[Q8_8; QNR]; QMR],
        panel: &[i32],
        a: [&[i16]; QMR],
        seeds: [i32; QMR],
    ) {
        let k = a[0].len();
        let mut acc = seeds.map(|s| [_mm256_set1_epi32(s); 2]);
        let bp = panel.as_ptr();
        for p in 0..k.div_ceil(2) {
            // SAFETY: pair row `p < ⌈k/2⌉` spans words
            // `QNR·p .. QNR·(p + 1)`, inside the panel.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_si256(bp.add(QNR * p).cast()),
                    _mm256_loadu_si256(bp.add(QNR * p + QNR / 2).cast()),
                )
            };
            for (sums, row) in acc.iter_mut().zip(a) {
                let w = if 2 * p + 1 < k {
                    // SAFETY: `2p + 1 < k`, so both halves of the
                    // 4-byte read lie inside the row.
                    unsafe { row.as_ptr().add(2 * p).cast::<i32>().read_unaligned() }
                } else {
                    // Odd `k`'s last pair: the high half is zero, as
                    // it is in the panel.
                    i32::from(row[2 * p] as u16)
                };
                let w = _mm256_set1_epi32(w);
                sums[0] = _mm256_add_epi32(sums[0], _mm256_madd_epi16(w, b0));
                sums[1] = _mm256_add_epi32(sums[1], _mm256_madd_epi16(w, b1));
            }
        }
        let one = _mm256_set1_epi32(1);
        for (row, sums) in out.iter_mut().zip(acc) {
            let q = sums.map(|s| {
                _mm256_add_epi32(
                    _mm256_srai_epi32::<8>(s),
                    _mm256_and_si256(_mm256_srli_epi32::<7>(s), one),
                )
            });
            // `packs` saturates to i16 per 128-bit half; the permute
            // restores column order 0..16.
            let packed = _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_packs_epi32(q[0], q[1]));
            // SAFETY: a row of QNR `Q8_8`s is 32 bytes of `i16` lanes
            // (`Q` is `repr(transparent)` over `i16`).
            unsafe { _mm256_storeu_si256(row.as_mut_ptr().cast(), packed) };
        }
    }

    /// Transposes an 8×8 block of `i32` words: row `t` of the result
    /// holds word `t` of each input row.
    #[target_feature(enable = "avx2")]
    fn transpose8x8(v: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(v[0], v[1]);
        let t1 = _mm256_unpackhi_epi32(v[0], v[1]);
        let t2 = _mm256_unpacklo_epi32(v[2], v[3]);
        let t3 = _mm256_unpackhi_epi32(v[2], v[3]);
        let t4 = _mm256_unpacklo_epi32(v[4], v[5]);
        let t5 = _mm256_unpackhi_epi32(v[4], v[5]);
        let t6 = _mm256_unpacklo_epi32(v[6], v[7]);
        let t7 = _mm256_unpackhi_epi32(v[6], v[7]);
        // Words 0..4 of each 128-bit half, four rows per register.
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// The 8-pair-block panel pack: each row's 16 lanes at `2p₀` are
    /// eight pair words, and a transpose of eight rows' blocks gives
    /// eight pair rows of eight columns.
    ///
    /// # Safety
    ///
    /// AVX2 must be supported at runtime; `bt` holds `QNR × k` lanes and
    /// `panel` `⌈k/2⌉·QNR` words (asserted by the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_pairs_avx2(panel: &mut [i32], bt: &[i16], k: usize) -> usize {
        let blocks = k / 16;
        let (src, dst) = (bt.as_ptr(), panel.as_mut_ptr());
        for p0 in (0..blocks).map(|b| 8 * b) {
            for g in 0..QNR / 8 {
                let mut v = [_mm256_setzero_si256(); 8];
                for (t, row) in v.iter_mut().enumerate() {
                    // SAFETY: row `8g + t < QNR` spans lanes
                    // `(8g + t)·k ..` of `bt`, and `2p₀ + 16 ≤ k`.
                    *row = unsafe { _mm256_loadu_si256(src.add((8 * g + t) * k + 2 * p0).cast()) };
                }
                for (t, row) in transpose8x8(v).into_iter().enumerate() {
                    // SAFETY: pair row `p₀ + t < ⌊k/2⌋` has its words
                    // `8g .. 8g + 8` inside the panel.
                    unsafe { _mm256_storeu_si256(dst.add((p0 + t) * QNR + 8 * g).cast(), row) };
                }
            }
        }
        8 * blocks
    }

    /// The f32 lane tile: eight accumulators (one per row, eight
    /// columns each) seeded at `+0.0`; per contraction step one load
    /// of `B`'s row, then per row a broadcast of its `A` element, a
    /// `mul` and an `add` — two roundings, as in the scalar chain.
    /// `FULL` tiles use plain loads and stores; the others mask the
    /// columns from `t.cols` up.
    ///
    /// # Safety
    ///
    /// AVX2 must be supported at runtime, and every element the tile
    /// reaches (see [`Tile`]) must lie inside its slice (asserted by
    /// the safe wrapper).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_f32_avx2<const FULL: bool>(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        t: &Tile,
    ) {
        // Lane `j` is live iff `j < cols`.
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(t.cols as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        let mut acc = [_mm256_setzero_ps(); MR];
        for p in 0..t.kc {
            // SAFETY: `p < kc`, so B row `p` starts at `b0 + p·ldb` and
            // its `cols` live lanes end inside `b`; a masked load reads
            // no dead lane.
            let vb = unsafe {
                let src = bp.add(t.b0 + p * t.ldb);
                if FULL {
                    _mm256_loadu_ps(src)
                } else {
                    _mm256_maskload_ps(src, mask)
                }
            };
            for (accr, &off) in acc.iter_mut().zip(&t.arows) {
                // SAFETY: `off + p·sa ≤ max(arows) + (kc - 1)·sa < a.len()`.
                let va = _mm256_set1_ps(unsafe { *ap.add(off + p * t.sa) });
                *accr = _mm256_add_ps(*accr, _mm256_mul_ps(va, vb));
            }
        }
        let cp = c.as_mut_ptr();
        for (r, &accr) in acc.iter().enumerate().take(t.rows) {
            // SAFETY: row `r < rows` starts at `c0 + r·ldc`, and its
            // `cols` live lanes end inside `c`; a masked store writes
            // no dead lane.
            unsafe {
                let dst = cp.add(t.c0 + r * t.ldc);
                if FULL {
                    _mm256_storeu_ps(dst, accr)
                } else {
                    _mm256_maskstore_ps(dst, mask, accr)
                }
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
        let _lock = gate_lock();
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
    fn qtile_matches_scalar_tile() {
        // Lanes ≡ the scalar tile on any input, certified or not: both
        // wrap every add mod 2³² and round the same way, so the
        // all-`i16::MIN` rows (whose pair sums wrap at 2³¹) must agree
        // too. Odd `k` exercises the zero-high-half last pair.
        if !available() {
            return; // honest skip: no lane kernels to test on this host
        }
        for k in [1usize, 2, 7, 16, 25, 33, 64, 363] {
            for extreme in [false, true] {
                let fill = |seed: u32| -> Vec<Q8_8> {
                    if extreme {
                        vec![Q8_8::from_raw(i16::MIN); k]
                    } else {
                        qfill(k, seed)
                    }
                };
                let rows: Vec<Vec<Q8_8>> = (0..QMR as u32).map(fill).collect();
                let panel: Vec<i32> = (0..k.div_ceil(2) * QNR)
                    .map(|i| {
                        if extreme {
                            i32::MIN | 0x8000
                        } else {
                            (i as i32).wrapping_mul(0x3D09_0977)
                        }
                    })
                    .collect();
                let arows: [&[Q8_8]; QMR] = std::array::from_fn(|r| &rows[r][..]);
                let seeds = [12345, -7, i32::MAX - 100, i32::MIN + 3];
                let mut want = [[Q8_8::ZERO; QNR]; QMR];
                crate::qgemm::qtile_scalar(&mut want, &panel, arows, seeds);
                let mut got = [[Q8_8::MAX; QNR]; QMR];
                qtile(&mut got, &panel, arows, seeds);
                assert_eq!(want, got, "k={k} extreme={extreme}");
            }
        }
    }

    #[test]
    fn pack_pairs_matches_the_scalar_layout() {
        if !available() {
            return;
        }
        for k in [1usize, 15, 16, 17, 32, 33, 72, 216] {
            let bt = qfill(QNR * k, k as u32);
            let mut panel = vec![i32::MIN; k.div_ceil(2) * QNR];
            let done = pack_pairs(&mut panel, &bt, k);
            assert_eq!(done, 8 * (k / 16), "k={k}");
            for p in 0..done {
                for j in 0..QNR {
                    let (lo, hi) = (bt[j * k + 2 * p].raw(), bt[j * k + 2 * p + 1].raw());
                    let want = i32::from(lo as u16) | (i32::from(hi) << 16);
                    assert_eq!(panel[p * QNR + j], want, "k={k} p={p} j={j}");
                }
            }
            assert!(
                panel[done * QNR..].iter().all(|&w| w == i32::MIN),
                "k={k}: wrote past its blocks"
            );
        }
    }

    #[test]
    fn f32_lanes_match_the_naive_chains() {
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
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, k, n) in [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (1, 1, 1),
            (3, 5, 4),     // one short, masked tile
            (8, 300, 16),  // full tiles
            (13, 257, 33), // ragged everything
            (4, 10, 600),  // crosses the NC column-block boundary
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut got = vec![f32::NAN; m * n];
            matmul_f32(&mut got, &a, &b, m, k, n);
            let want = crate::difftest::matmul(&a, &b, m, k, n);
            assert_eq!(bits(&want), bits(&got), "A·B m={m} k={k} n={n}");
            let bt = fill(m * n, 3);
            let mut got = vec![f32::NAN; k * n];
            matmul_at_b_f32(&mut got, &a, &bt, m, k, n);
            let want = crate::difftest::matmul_at_b(&a, &bt, m, k, n);
            assert_eq!(bits(&want), bits(&got), "Aᵀ·B m={m} k={k} n={n}");
        }
    }
}
