//! Pluggable integer GEMM backends for the Q8.8 fixed-point hot path.
//!
//! The deployed platform computes in 16-bit fixed point (Fig. 4(b)):
//! Q8.8 operands, products widened to 32 bits, accumulation in the wide
//! domain, **one** re-quantisation per output. This module is the
//! integer mirror of [`crate::backend`]: the kernel that computes every
//! quantised conv/FC product is *selectable*, and every backend is
//! bit-identical to the naive oracle.
//!
//! | Backend | Kernel | Use |
//! |---------|--------|-----|
//! | [`QGemmBackend::Naive`]   | reference triple loops over [`Acc32`] | correctness oracle |
//! | [`QGemmBackend::Blocked`] | certified-no-overflow contiguous-dot tiles | default |
//! | [`QGemmBackend::Simd`]    | explicit `pmaddwd` lanes ([`crate::simd`]) on certified rows | max throughput — still bit-identical |
//!
//! Every integer kernel runs on the calling thread: Q8.8 passes never
//! fan out over the [`crate::pool`]. Their callers already hold the
//! cores — the serving plane runs one generator or worker thread per
//! core outside the pool, and the trainer runs the Q8.8 actors inside a
//! `join2` beside the learner — so a split there would oversubscribe,
//! not speed up (`docs/threading.md`).
//!
//! # The `A·Bᵀ` contract
//!
//! The one kernel shape the engine needs is
//! `C[m×n] = requant(bias[m·row] + A[m×k] · B[n×k]ᵀ)` with **both**
//! operands row-major over the contraction index: every output is a dot
//! product of two contiguous `k`-vectors. That layout is what lets the
//! compiler lower the inner loop to the ISA's 16×16→32 multiply-add
//! units (`pmaddwd` — the same pairing the PE array's MAC datapath
//! performs in Fig. 4(b)), and it falls out of the engine for free: an
//! FC batch `[N, in_f]` *is* `Bᵀ`, and im2col's natural
//! `[positions × taps]` matrix is the conv `Bᵀ` ([`qim2col_slice_into`]).
//!
//! # Summation-order contract (exactness policy)
//!
//! Integer MAC chains are **not** associative here: [`Acc32::mac`]
//! saturates the running sum at the 32-bit accumulator width after
//! every product, exactly like the PE datapath. The contract is
//! therefore: every output element is one accumulator seeded from its
//! row's bias, products added in **ascending `k`**, saturating each
//! step, re-quantised once ([`Acc32::to_q`]). The blocked kernel keeps
//! the identical bits two ways:
//!
//! * rows whose overflow certificate ([`row_safe`], the L1 bound)
//!   proves the clamp can never fire run on plain wrapping adds —
//!   associative in `Z/2³²`, so
//!   vectorisation and column-grouping are free, and equal to the
//!   saturating chain because no step can leave the `i32` range;
//! * rows that could saturate (and skinny `n < 4` products, which gain
//!   nothing from tiling — mirroring the float backend's `n < 8`
//!   fallback) take the exact ascending-`k` saturating chain.
//!
//! [`QGemmBackend::Simd`] is the same kernel with the certified rows'
//! wrapping adds made **explicitly** lane-parallel
//! (`_mm256_madd_epi16`, the `pmaddwd` pairing this contract was
//! designed for — see [`crate::simd`]): any lane grouping of wrapping
//! adds computes the same value mod 2³², and the certificate bounds
//! every partial sum below `i32::MAX`, so the lanes reproduce the
//! saturating oracle's exact bits. Uncertified and skinny rows take
//! the identical scalar chains as `Blocked`; hosts without AVX2 (or
//! with `NN_SIMD=off`) fall back to the blocked kernel wholesale.
//!
//! The result is bit-for-bit identical across backends —
//! `crates/nn/tests/quant_equivalence.rs` and
//! `crates/nn/tests/simd_equivalence.rs` pin this. See
//! `docs/fixed_point.md` for the full datapath writeup.
//!
//! # Backend selection
//!
//! Quantised layers default to the float stack's `NN_GEMM_BACKEND` knob
//! through [`default_backend`] (`naive → Naive`, `blocked → Blocked`,
//! `simd → Simd`), so the CI backend × pool matrix exercises the
//! integer kernels on every configuration.
//!
//! # Examples
//!
//! ```
//! use mramrl_fixed::Q8_8;
//! use mramrl_nn::qgemm::QGemmBackend;
//!
//! let q = |v: f32| Q8_8::from_f32(v);
//! let a = [q(1.0), q(2.0), q(3.0), q(4.0)]; // 2×2 weights, rows over k
//! let bt = [q(0.5), q(1.5), q(1.0), q(-1.0)]; // 2×2 Bᵀ, rows over k
//! let bias = [q(0.25), q(-0.25)];
//! let mut naive = [Q8_8::ZERO; 4];
//! let mut blocked = [Q8_8::ZERO; 4];
//! QGemmBackend::Naive.matmul_bt_bias_requant_into(&mut naive, &a, &bt, &bias, 2, 2, 2);
//! QGemmBackend::Blocked.matmul_bt_bias_requant_into(&mut blocked, &a, &bt, &bias, 2, 2, 2);
//! assert_eq!(naive, blocked); // bitwise, by the summation-order contract
//! assert_eq!(naive[0].to_f32(), 0.25 + 1.0 * 0.5 + 2.0 * 1.5);
//! ```

use std::str::FromStr;

use mramrl_fixed::{Acc32, Q8_8};

/// Output columns (Bᵀ rows) processed together by the certified tile:
/// each A-row element load is amortised over `QJ` dot products.
const QJ: usize = 4;

/// Below this column count the tiled kernel gains nothing over the
/// oracle chain (mat-vec shapes are latency-bound either way); the
/// blocked backend falls back to the exact saturating loops, mirroring
/// the float backend's `n < 8` naive fallback.
const QMIN_N: usize = 4;

/// Which integer GEMM kernel the quantised inference engine uses.
///
/// Selection is threaded through [`crate::quant::QuantizedNet`]
/// (`set_backend`) and defaults process-wide via [`default_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QGemmBackend {
    /// Reference triple loops over [`Acc32`] — the correctness oracle
    /// every other backend is proven against.
    Naive,
    /// Certified-no-overflow contiguous-dot tiles (the `row_safe` L1
    /// bound), exact saturating chains for the rest.
    #[default]
    Blocked,
    /// The blocked kernel with certified rows on explicit
    /// `_mm256_madd_epi16` lanes ([`crate::simd`]) — **still
    /// bit-identical** to the oracle (the
    /// certificate makes wrapping lane adds exact; uncertified rows
    /// keep the scalar saturating chain). Falls back to the blocked
    /// kernel when AVX2 is absent, `NN_SIMD=off`, or a
    /// [`crate::simd::force_scalar`] guard is live.
    Simd,
}

impl QGemmBackend {
    /// All backends, oracle first — for benches and equivalence tests.
    /// Unlike the float side, **every** integer backend (the `Simd`
    /// lane kernel included) is in the bitwise family.
    pub const ALL: [QGemmBackend; 3] = [
        QGemmBackend::Naive,
        QGemmBackend::Blocked,
        QGemmBackend::Simd,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            QGemmBackend::Naive => "naive",
            QGemmBackend::Blocked => "blocked",
            QGemmBackend::Simd => "simd",
        }
    }

    /// The integer backend matching a float [`crate::GemmBackend`]: the
    /// naive oracle stays the oracle, `Blocked` maps to `Blocked`, `Simd`
    /// to `Simd` (both explicit lane kernels — though only the float
    /// side trades bits for it).
    pub fn from_gemm(backend: crate::backend::GemmBackend) -> Self {
        match backend {
            crate::backend::GemmBackend::Naive => QGemmBackend::Naive,
            crate::backend::GemmBackend::Blocked => QGemmBackend::Blocked,
            crate::backend::GemmBackend::Simd => QGemmBackend::Simd,
        }
    }

    /// Fused quantised GEMM, the one integer kernel the engine needs:
    ///
    /// `C[m×n] = requant( bias[m·row] + A[m×k] · B[n×k]ᵀ )`
    ///
    /// `a` holds `m` rows of `k` (the weights), `bt` holds `n` rows of
    /// `k` (the transposed activation operand — an FC batch or an
    /// im2col matrix, both naturally in this layout). Every output
    /// element is one accumulator chain: seeded from its row's bias,
    /// products added in ascending `k`, saturated at the 32-bit
    /// accumulator width per step, re-quantised to Q8.8 once. `c` is
    /// fully overwritten. All backends produce identical bits.
    ///
    /// # Panics
    ///
    /// Panics if any slice length does not match the dimensions.
    // The argument list is the GEMM contract itself (3 operands + bias
    // + 3 dimensions) — same shape as the float `matmul_*_into` family.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_bt_bias_requant_into(
        self,
        c: &mut [Q8_8],
        a: &[Q8_8],
        bt: &[Q8_8],
        bias: &[Q8_8],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(a.len(), m * k, "A dimensions");
        assert_eq!(bt.len(), n * k, "Bᵀ dimensions");
        assert_eq!(bias.len(), m, "bias dimensions");
        assert_eq!(c.len(), m * n, "C dimensions");
        match self {
            QGemmBackend::Naive => qmatmul_naive(c, a, bt, bias, m, k, n),
            QGemmBackend::Blocked => qmatmul_band(c, a, bt, bias, m, k, n),
            QGemmBackend::Simd if crate::simd::simd_active() => {
                qmatmul_band_simd(c, a, bt, bias, m, k, n)
            }
            QGemmBackend::Simd => qmatmul_band(c, a, bt, bias, m, k, n),
        }
    }
}

impl FromStr for QGemmBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(QGemmBackend::Naive),
            "blocked" => Ok(QGemmBackend::Blocked),
            "simd" => Ok(QGemmBackend::Simd),
            other => Err(format!(
                "unknown integer GEMM backend {other:?} (expected naive|blocked|simd)"
            )),
        }
    }
}

impl core::fmt::Display for QGemmBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide default integer backend, derived from the float
/// stack's `NN_GEMM_BACKEND` knob via [`QGemmBackend::from_gemm`] — one
/// knob selects matched kernels on both datapaths.
pub fn default_backend() -> QGemmBackend {
    QGemmBackend::from_gemm(crate::backend::default_backend())
}

/// Reference kernel: one [`Acc32`] per output, ascending-`k` products.
fn qmatmul_naive(
    c: &mut [Q8_8],
    a: &[Q8_8],
    bt: &[Q8_8],
    bias: &[Q8_8],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bt[j * k..(j + 1) * k];
            let mut acc = Acc32::from_q(bias[i]);
            for (&av, &bv) in arow.iter().zip(brow) {
                acc = acc.mac(av, bv);
            }
            c[i * n + j] = acc.to_q::<8>();
        }
    }
}

/// One saturating MAC step on the raw accumulator.
///
/// **Bit-equivalence to [`Acc32::mac`]**: a Q8.8 product is at most
/// `32768² = 2³⁰` in magnitude, so it fits `i32`; the [`Acc32`] chain
/// keeps its running sum clamped to the `i32` range after every step,
/// so `sum + product` fits 33 bits and clamping the `i64` sum to `i32`
/// is exactly `i32::saturating_add`.
#[inline(always)]
fn mac_raw(sum: i32, a: Q8_8, b: Q8_8) -> i32 {
    sum.saturating_add(i32::from(a.raw()) * i32::from(b.raw()))
}

/// Bias seed of the raw accumulator — [`Acc32::from_q`] at `FRAC = 8`:
/// the Q8.8 bias widened to the products' 16 fractional bits.
#[inline(always)]
fn bias_raw(bias: Q8_8) -> i32 {
    i32::from(bias.raw()) << 8
}

/// Re-quantisation of the raw accumulator — [`Acc32::to_q::<8>`] at
/// `frac = 16`: round-to-nearest on the 8 dropped bits, saturate to
/// Q8.8. (The rounding add is done in `i64`: `sum + 128` may not fit
/// `i32` when the accumulator is saturated.)
#[inline(always)]
fn requant_raw(sum: i32) -> Q8_8 {
    let raw = (i64::from(sum) + 128) >> 8;
    Q8_8::from_raw(raw.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16)
}

/// One exact saturating output chain: ascending-`k` over two contiguous
/// rows — the oracle's bits, by [`mac_raw`]'s equivalence argument.
#[inline]
fn qdot_sat(arow: &[Q8_8], brow: &[Q8_8], bias: Q8_8) -> Q8_8 {
    let mut acc = bias_raw(bias);
    for (&av, &bv) in arow.iter().zip(brow) {
        acc = mac_raw(acc, av, bv);
    }
    requant_raw(acc)
}

/// Per-row overflow-safety certificate: `true` when **no** MAC chain of
/// this A row over this Bᵀ can leave the `i32` range at any
/// intermediate step, for any output column.
///
/// Bound: every partial sum — under *any* association — is bounded in
/// magnitude by `|bias·2⁸| + Σₖ|a[i,k]| · max|b|` (triangle inequality,
/// products at 16 fractional bits). When that bound stays below
/// `i32::MAX`, (1) the saturation clamp can never fire, so plain adds
/// compute the ascending-`k` chain's exact bits, and (2) those adds are
/// associative in `Z` within range, so the compiler may reorder and
/// vectorise them freely (`pmaddwd` pairing included) without changing
/// a bit. Rows that fail the certificate take `qdot_sat`. Real
/// network activations sit orders of magnitude below the bound, so the
/// certified path is the steady state; the certificate is what keeps it
/// honest.
///
/// Public so the certificate-boundary tests
/// (`crates/nn/tests/simd_equivalence.rs`) can construct rows sitting
/// exactly at, one unit below, and one unit above the threshold and
/// assert both verdicts and bits.
pub fn row_safe(arow: &[Q8_8], bias: Q8_8, max_b: i64) -> bool {
    let l1: i64 = arow.iter().map(|q| i64::from(q.raw()).abs()).sum();
    i64::from(bias.raw()).abs() * 256 + l1 * max_b < i64::from(i32::MAX)
}

/// One certified dot product: plain wrapping adds over two contiguous
/// rows (exact by [`row_safe`]'s bound; vectorisable).
#[inline]
fn qdot_fast(arow: &[Q8_8], brow: &[Q8_8], bias: Q8_8) -> Q8_8 {
    let mut acc = bias_raw(bias);
    for (&av, &bv) in arow.iter().zip(brow) {
        acc += i32::from(av.raw()) * i32::from(bv.raw());
    }
    requant_raw(acc)
}

/// Blocked kernel over a row band of `A`/`bias`.
///
/// Skinny outputs (`n < QMIN_N`) take the exact chains directly. For
/// real tiles, each A row is certified once ([`row_safe`]); certified
/// rows run `QJ` contiguous-dot columns at a time with plain adds —
/// every A-element load amortised `QJ`×, the dots lowering to the
/// ISA's 16×16→32 multiply-add — and uncertified rows take the
/// saturating chain. Either way each output is the oracle's ascending-`k`
/// accumulator, bit for bit. There is no k-splitting *with saturation*:
/// only certified (clamp-free, hence associative) rows are reassociated.
fn qmatmul_band(
    c: &mut [Q8_8],
    a: &[Q8_8],
    bt: &[Q8_8],
    bias: &[Q8_8],
    rows: usize,
    k: usize,
    n: usize,
) {
    if n < QMIN_N {
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                c[i * n + j] = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
        }
        return;
    }
    let max_b: i64 = bt
        .iter()
        .map(|q| i64::from(q.raw()).abs())
        .max()
        .unwrap_or(0);
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        if !row_safe(arow, bias[i], max_b) {
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
            continue;
        }
        let seed = bias_raw(bias[i]);
        let mut j = 0;
        while j + QJ <= n {
            // QJ independent certified dots sharing each A load.
            let b0 = &bt[j * k..(j + 1) * k];
            let b1 = &bt[(j + 1) * k..(j + 2) * k];
            let b2 = &bt[(j + 2) * k..(j + 3) * k];
            let b3 = &bt[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (seed, seed, seed, seed);
            for (kk, &av) in arow.iter().enumerate() {
                let av = i32::from(av.raw());
                s0 += av * i32::from(b0[kk].raw());
                s1 += av * i32::from(b1[kk].raw());
                s2 += av * i32::from(b2[kk].raw());
                s3 += av * i32::from(b3[kk].raw());
            }
            crow[j] = requant_raw(s0);
            crow[j + 1] = requant_raw(s1);
            crow[j + 2] = requant_raw(s2);
            crow[j + 3] = requant_raw(s3);
            j += QJ;
        }
        for (j, cv) in crow.iter_mut().enumerate().skip(j) {
            *cv = qdot_fast(arow, &bt[j * k..(j + 1) * k], bias[i]);
        }
    }
}

/// The `Simd` band kernel: [`qmatmul_band`]'s structure with the
/// certified rows' `QJ`-column dot groups on explicit `pmaddwd` lanes
/// ([`crate::simd::qdot4`] / [`crate::simd::qdot1`]). The skinny
/// fallback, the certification decision and the uncertified saturating
/// chains are **the same code paths** as the blocked kernel; only the
/// arithmetic engine of already-reassociable (certified) dots changes,
/// and the certificate makes that change invisible to the bits.
///
/// Must only be called with [`crate::simd::simd_active`] true (the
/// lane primitives' caller contract).
fn qmatmul_band_simd(
    c: &mut [Q8_8],
    a: &[Q8_8],
    bt: &[Q8_8],
    bias: &[Q8_8],
    rows: usize,
    k: usize,
    n: usize,
) {
    if n < QMIN_N {
        for i in 0..rows {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                c[i * n + j] = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
        }
        return;
    }
    let max_b: i64 = bt
        .iter()
        .map(|q| i64::from(q.raw()).abs())
        .max()
        .unwrap_or(0);
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        if !row_safe(arow, bias[i], max_b) {
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
            continue;
        }
        let seed = bias_raw(bias[i]);
        let mut j = 0;
        while j + QJ <= n {
            let s = crate::simd::qdot4(
                arow,
                &bt[j * k..(j + 1) * k],
                &bt[(j + 1) * k..(j + 2) * k],
                &bt[(j + 2) * k..(j + 3) * k],
                &bt[(j + 3) * k..(j + 4) * k],
                seed,
            );
            crow[j] = requant_raw(s[0]);
            crow[j + 1] = requant_raw(s[1]);
            crow[j + 2] = requant_raw(s[2]);
            crow[j + 3] = requant_raw(s[3]);
            j += QJ;
        }
        for (j, cv) in crow.iter_mut().enumerate().skip(j) {
            *cv = requant_raw(crate::simd::qdot1(arow, &bt[j * k..(j + 1) * k], seed));
        }
    }
}

/// Quantised im2col: expands a `[C,H,W]` Q8.8 input into the
/// `[out_h·out_w, C·k·k]` patch matrix (rows = output positions,
/// columns = taps, fully overwritten; padding taps become
/// [`Q8_8::ZERO`] — a zero product leaves the accumulator untouched,
/// exactly like the hardware's gated taps). This **is** the conv `Bᵀ`
/// operand of [`QGemmBackend::matmul_bt_bias_requant_into`]: position
/// `p`'s row is the contiguous `k`-vector the weight rows dot against,
/// in ascending-tap order.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn qim2col_slice_into(
    m: &mut [Q8_8],
    x: &[Q8_8],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    assert_eq!(x.len(), c * h * w, "input size mismatch");
    assert!(h + 2 * pad >= k && w + 2 * pad >= k, "filter exceeds input");
    let out_h = (h + 2 * pad - k) / stride + 1;
    let out_w = (w + 2 * pad - k) / stride + 1;
    let cols = c * k * k;
    assert_eq!(m.len(), out_h * out_w * cols, "im2col size mismatch");
    m.fill(Q8_8::ZERO);
    for oy in 0..out_h {
        for ox in 0..out_w {
            let row = oy * out_w + ox;
            for ci in 0..c {
                for ky in 0..k {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        m[row * cols + (ci * k + ky) * k + kx] =
                            x[(ci * h + iy as usize) * w + ix as usize];
                    }
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
    fn blocked_and_simd_match_naive_bitwise() {
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (5, 7, 9),
            (4, 300, 8),   // long contraction, whole tiles
            (13, 257, 33), // ragged tails on every dimension
            (3, 4, 1),     // matvec: the skinny fallback
            (6, 5, 3),     // n < QMIN_N, several rows
        ] {
            let a = qfill(m * k, 1);
            let bt = qfill(n * k, 2);
            let bias = qfill(m, 3);
            let mut want = vec![Q8_8::ZERO; m * n];
            QGemmBackend::Naive.matmul_bt_bias_requant_into(&mut want, &a, &bt, &bias, m, k, n);
            for be in [QGemmBackend::Blocked, QGemmBackend::Simd] {
                let mut got = vec![Q8_8::MAX; m * n]; // dirty: must be overwritten
                be.matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, m, k, n);
                assert_eq!(
                    want.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                    got.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                    "{be} m={m} k={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn saturation_order_is_preserved_across_backends() {
        // A contraction engineered to saturate the 32-bit accumulator
        // mid-chain: big positive products first, then negatives. If a
        // backend split or reordered the chain, the clamp would land at
        // a different point and the bits would differ. (The certificate
        // must reject these rows — equal pos/neg halves would otherwise
        // cancel to ~0 instead of pinning at the negative rail.)
        let big = Q8_8::from_f32(127.0);
        let neg = Q8_8::from_f32(-127.0);
        let k = 4200;
        let mut a = vec![big; k];
        for v in a.iter_mut().skip(k / 2) {
            *v = neg;
        }
        let bt: Vec<Q8_8> = (0..4 * k).map(|_| big).collect(); // n = 4: tiled path
        let bias = [Q8_8::ZERO];
        let mut want = vec![Q8_8::ZERO; 4];
        QGemmBackend::Naive.matmul_bt_bias_requant_into(&mut want, &a, &bt, &bias, 1, k, 4);
        assert_eq!(want[0], Q8_8::MIN, "chain must end clamped, not cancelled");
        for be in [QGemmBackend::Blocked, QGemmBackend::Simd] {
            let mut got = vec![Q8_8::ZERO; 4];
            be.matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, 1, k, 4);
            assert_eq!(want, got, "{be}");
        }
    }

    #[test]
    fn mixed_safe_and_saturating_rows_match_naive() {
        // Rows 0..3 carry tiny weights (the certified fast path), rows
        // 4..7 carry ±127 weights whose chains clamp mid-contraction
        // (the exact saturating path) — one GEMM, both paths live, all
        // bits equal to the oracle.
        let (m, k, n) = (8usize, 600usize, 9usize);
        let mut a = qfill(m * k, 21);
        for v in a.iter_mut().skip(4 * k) {
            *v = Q8_8::from_f32(127.0);
        }
        let mut bt = qfill(n * k, 22);
        for v in bt.iter_mut().take(n * k / 2) {
            *v = Q8_8::from_f32(127.0);
        }
        let bias = qfill(m, 23);
        let mut want = vec![Q8_8::ZERO; m * n];
        QGemmBackend::Naive.matmul_bt_bias_requant_into(&mut want, &a, &bt, &bias, m, k, n);
        for be in [QGemmBackend::Blocked, QGemmBackend::Simd] {
            let mut got = vec![Q8_8::ZERO; m * n];
            be.matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, m, k, n);
            assert_eq!(
                want.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                got.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                "{be}"
            );
        }
    }

    #[test]
    fn qim2col_matches_float_im2col_taps() {
        // Same geometry as the float kernel: tap values agree, padding
        // taps are zero.
        let xf: Vec<f32> = (0..2 * 5 * 5).map(|i| (i as f32) / 16.0 - 1.5).collect();
        let xq: Vec<Q8_8> = xf.iter().map(|&v| Q8_8::from_f32(v)).collect();
        let (mf, rows, cols) = crate::gemm::im2col(
            &crate::tensor::Tensor::from_vec(&[2, 5, 5], xf.clone()),
            3,
            2,
            1,
        );
        let mut mq = vec![Q8_8::MAX; rows * cols];
        qim2col_slice_into(&mut mq, &xq, 2, 5, 5, 3, 2, 1);
        for (f, q) in mf.iter().zip(&mq) {
            assert_eq!(Q8_8::from_f32(*f), *q);
        }
    }

    #[test]
    fn qim2col_padding_taps_are_zero() {
        let x = qfill(4 * 4, 5);
        let mut m = vec![Q8_8::MAX; 16 * 9]; // k=3, s=1, p=1 → 16 positions
        qim2col_slice_into(&mut m, &x, 1, 4, 4, 3, 1, 1);
        // Position (0,0), tap (ky=0,kx=0) reads the padded corner.
        assert_eq!(m[0], Q8_8::ZERO);
    }

    #[test]
    fn parse_roundtrip_and_errors() {
        for be in QGemmBackend::ALL {
            assert_eq!(be.name().parse::<QGemmBackend>().unwrap(), be);
            assert_eq!(be.to_string(), be.name());
        }
        assert!("threaded".parse::<QGemmBackend>().is_err());
        assert!("pooled".parse::<QGemmBackend>().is_err());
    }

    #[test]
    fn gemm_backend_mapping_is_total() {
        use crate::backend::GemmBackend;
        assert_eq!(
            QGemmBackend::from_gemm(GemmBackend::Naive),
            QGemmBackend::Naive
        );
        assert_eq!(
            QGemmBackend::from_gemm(GemmBackend::Blocked),
            QGemmBackend::Blocked
        );
        assert_eq!(
            QGemmBackend::from_gemm(GemmBackend::Simd),
            QGemmBackend::Simd
        );
        // Totality both ways: every float backend maps to the integer
        // backend of the same name.
        for be in GemmBackend::ALL {
            assert_eq!(QGemmBackend::from_gemm(be).name(), be.name());
        }
    }
}
