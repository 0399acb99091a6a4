//! The integer GEMM kernel for the Q8.8 fixed-point hot path.
//!
//! The deployed platform computes in 16-bit fixed point (Fig. 4(b)):
//! Q8.8 operands, products widened to 32 bits, accumulation in the wide
//! domain, **one** re-quantisation per output. This module is the
//! integer mirror of [`crate::backend`]: one kernel,
//! [`matmul_bt_bias_requant_into`], computes every quantised conv/FC
//! product. Rows that hold the overflow certificate run on the 4×16
//! pair tile (`pmaddwd` lanes when [`crate::simd::simd_active`], else
//! wrapping `i32` adds); the rest take exact saturating chains. The
//! textbook loops over [`mramrl_fixed::Acc32`] survive as the test
//! oracle [`crate::difftest::qmatmul_naive`], and the kernel is
//! bit-identical to it.
//!
//! Every integer kernel runs on the calling thread: Q8.8 passes never
//! fan out over the [`crate::pool`]. Their callers already hold the
//! cores — the serving plane runs one generator or worker thread per
//! core outside the pool, and the trainer runs the Q8.8 actors inside a
//! `join2` beside the learner — so a split there would oversubscribe,
//! not speed up (`docs/threading.md`).
//!
//! # The `A·Bᵀ` contract and the pair tile
//!
//! The one kernel shape the engine needs is
//! `C[m×n] = requant(bias[m·row] + A[m×k] · B[n×k]ᵀ)` with **both**
//! operands row-major over the contraction index. The layout falls out
//! of the engine for free: an FC batch `[N, in_f]` *is* `Bᵀ`, and
//! im2col's natural `[positions × taps]` matrix is the conv `Bᵀ`
//! ([`qim2col_slice_into`]).
//!
//! The kernel turns that layout into a register tile. It packs
//! each 16-column panel of `Bᵀ` as interleaved `k`-pairs — pair row `p`
//! holds `(b[j, 2p], b[j, 2p+1])` for the panel's 16 columns `j`, one
//! `i32` word each, which is two AVX2 registers — and broadcasts each
//! weight row's `(a[2p], a[2p+1])` pair as one `i32`. One
//! `_mm256_madd_epi16` then multiplies a weight pair against eight
//! columns' pairs and adds each product pair: the 16×16→32 pairing the
//! PE array's MAC datapath performs (Fig. 4(b)). A 4-row × 16-column
//! tile keeps eight accumulators in registers and reads each weight row
//! once per panel. An odd `k` ends on a pair whose high half is zero on
//! both operands; columns past `n` in the last panel are zero and never
//! stored. The panel, `⌈k/2⌉ × 64` bytes repacked for each 16 columns,
//! lives on the stack for `k ≤ 1024`.
//!
//! # Summation-order contract (exactness policy)
//!
//! Integer MAC chains are **not** associative here: [`Acc32::mac`]
//! saturates the running sum at the 32-bit accumulator width after
//! every product, exactly like the PE datapath. The contract is
//! therefore: every output element is one accumulator seeded from its
//! row's bias, products added in **ascending `k`**, saturating each
//! step, re-quantised once ([`Acc32::to_q`]). The kernel keeps the
//! oracle's bits two ways:
//!
//! * rows whose overflow certificate ([`row_safe`], the L1 bound)
//!   proves the clamp can never fire run on the pair tile with
//!   wrapping adds. Wrapping adds are associative in `Z/2³²`, and the
//!   certificate bounds every partial sum — `pmaddwd`'s pair sums
//!   included — below `i32::MAX` under any association, so the tile's
//!   value is the true sum: the saturating chain's exact bits;
//! * rows that could saturate (and skinny `n < 4` products, which gain
//!   nothing from tiling) take the exact ascending-`k` saturating
//!   chain.
//!
//! The tile's lanes ([`crate::simd`]) run whenever
//! [`crate::simd::simd_active`]; with `NN_SIMD=off`, a live
//! [`crate::simd::force_scalar`] guard or no AVX2, the same tile runs on
//! plain wrapping `i32` adds. The re-quantisation of a certified sum
//! never overflows in either: the lanes round with
//! `(s >> 8) + ((s >> 7) & 1)` instead of `(s + 128) >> 8`.
//!
//! The result is bit-for-bit identical to the oracle, lanes on or off —
//! `crates/nn/tests/quant_equivalence.rs` and
//! `crates/nn/tests/simd_equivalence.rs` pin this. See
//! `docs/fixed_point.md` for the full datapath writeup.
//!
//! # Examples
//!
//! ```
//! use mramrl_fixed::Q8_8;
//! use mramrl_nn::{difftest, qgemm};
//!
//! let q = |v: f32| Q8_8::from_f32(v);
//! let a = [q(1.0), q(2.0), q(3.0), q(4.0)]; // 2×2 weights, rows over k
//! let bt = [q(0.5), q(1.5), q(1.0), q(-1.0)]; // 2×2 Bᵀ, rows over k
//! let bias = [q(0.25), q(-0.25)];
//! let mut c = [Q8_8::ZERO; 4];
//! let mut oracle = [Q8_8::ZERO; 4];
//! qgemm::matmul_bt_bias_requant_into(&mut c, &a, &bt, &bias, 2, 2, 2);
//! difftest::qmatmul_naive(&mut oracle, &a, &bt, &bias, 2, 2, 2);
//! assert_eq!(c, oracle); // bitwise, by the summation-order contract
//! assert_eq!(c[0].to_f32(), 0.25 + 1.0 * 0.5 + 2.0 * 1.5);
//! ```

#[cfg(doc)]
use mramrl_fixed::Acc32;
use mramrl_fixed::Q8_8;

/// Weight rows per register tile.
pub(crate) const QMR: usize = 4;

/// Output columns per packed `Bᵀ` panel: two AVX2 registers of eight
/// `i32` lanes, each lane one column's `k`-pair.
pub(crate) const QNR: usize = 16;

/// Below this column count the tile gains nothing over the exact chain
/// (mat-vec shapes are latency-bound either way); the kernel falls back
/// to the saturating loops.
const QMIN_N: usize = 4;

/// Panel words the kernel keeps on the stack: one panel for any
/// `k ≤ 1024` (FC2's contraction). A longer `k` packs into a heap
/// buffer.
const STACK_PANEL: usize = 512 * QNR;

/// Certified-row indices the kernel keeps on the stack (FC1's
/// 1024 rows); more rows list on the heap.
const STACK_ROWS: usize = 1024;

/// [`crate::backend::Blocked`], for `perfbench`'s run context. ROADMAP
/// item 3's benchmark PR removes it.
#[doc(hidden)]
pub fn default_backend() -> crate::backend::Blocked {
    crate::backend::Blocked
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
/// fully overwritten.
///
/// Skinny outputs (`n < QMIN_N`) take the exact chains directly. For
/// real tiles, each A row is certified once ([`row_safe`]); uncertified
/// rows take the saturating chain, and the certified ones run four at a
/// time on the pair tile, one packed 16-column panel of `Bᵀ` at a time
/// (a short last group repeats its last row and stores only its own).
/// Either way each output is the oracle's ascending-`k` accumulator,
/// bit for bit. Only certified (clamp-free, hence associative) rows are
/// reassociated.
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
// The argument list is the GEMM contract itself (3 operands + bias
// + 3 dimensions) — same shape as the float `matmul_*_into` family.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bt_bias_requant_into(
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
    if n < QMIN_N {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                c[i * n + j] = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
        }
        return;
    }
    let max_b = max_abs(bt);
    // The kernel's scratch lives on the stack for the engine's shapes,
    // so a steady-state pass makes no heap traffic.
    let (mut rows_stack, mut rows_heap) = ([0u32; STACK_ROWS], Vec::new());
    let rows = stack_or_heap(&mut rows_stack, &mut rows_heap, m);
    let mut certified = 0;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        if row_safe(arow, bias[i], max_b) {
            rows[certified] = i as u32;
            certified += 1;
        } else {
            for j in 0..n {
                c[i * n + j] = qdot_sat(arow, &bt[j * k..(j + 1) * k], bias[i]);
            }
        }
    }
    let certified = &rows[..certified];
    if certified.is_empty() || k == 0 {
        for &i in certified {
            let i = i as usize;
            c[i * n..(i + 1) * n].fill(requant_raw(bias_raw(bias[i])));
        }
        return;
    }
    let lanes = crate::simd::simd_active();
    let (mut panel_stack, mut panel_heap) = ([0i32; STACK_PANEL], Vec::new());
    let panel = stack_or_heap(&mut panel_stack, &mut panel_heap, k.div_ceil(2) * QNR);
    let mut tile = [[Q8_8::ZERO; QNR]; QMR];
    for j0 in (0..n).step_by(QNR) {
        let cols = QNR.min(n - j0);
        pack_pair_panel(panel, &bt[j0 * k..(j0 + cols) * k], k, cols, lanes);
        for group in certified.chunks(QMR) {
            let rows: [usize; QMR] =
                std::array::from_fn(|r| group[r.min(group.len() - 1)] as usize);
            let arows = rows.map(|i| &a[i * k..(i + 1) * k]);
            let seeds = rows.map(|i| bias_raw(bias[i]));
            if lanes {
                crate::simd::qtile(&mut tile, panel, arows, seeds);
            } else {
                qtile_scalar(&mut tile, panel, arows, seeds);
            }
            for (out, &i) in tile.iter().zip(group) {
                let i = i as usize;
                c[i * n + j0..i * n + j0 + cols].copy_from_slice(&out[..cols]);
            }
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
/// associative in `Z` within range, so the pair tile may group them
/// freely (`pmaddwd`'s pair sums included) without changing a bit.
/// Rows that fail the certificate take `qdot_sat`. Real network
/// activations sit orders of magnitude below the bound, so the
/// certified path is the steady state; the certificate is what keeps it
/// honest.
///
/// Public so the certificate-boundary tests
/// (`crates/nn/tests/simd_equivalence.rs`) can construct rows sitting
/// exactly at, one unit below, and one unit above the threshold and
/// assert both verdicts and bits.
pub fn row_safe(arow: &[Q8_8], bias: Q8_8, max_b: i64) -> bool {
    // Summed in `u32` per 2¹⁶ entries (at most 2¹⁶ · 2¹⁵ = 2³¹), which
    // vectorises, then widened.
    let l1: i64 = arow
        .chunks(1 << 16)
        .map(|chunk| {
            let part: u32 = chunk
                .iter()
                .map(|q| i32::from(q.raw()).unsigned_abs())
                .sum();
            i64::from(part)
        })
        .sum();
    i64::from(bias.raw()).abs() * 256 + l1 * max_b < i64::from(i32::MAX)
}

/// `max|b|` over a whole operand, from its `i16` extremes (a min/max
/// reduction vectorises where an `abs` of `-32768` would not).
fn max_abs(bt: &[Q8_8]) -> i64 {
    let (lo, hi) = bt.iter().fold((0i16, 0i16), |(lo, hi), q| {
        (lo.min(q.raw()), hi.max(q.raw()))
    });
    (-i64::from(lo)).max(i64::from(hi))
}

/// One `k`-pair as the `i32` word `pmaddwd` reads: `lo` in the low
/// half, `hi` in the high half.
#[inline(always)]
fn pair_word(lo: Q8_8, hi: Q8_8) -> i32 {
    i32::from(lo.raw() as u16) | (i32::from(hi.raw()) << 16)
}

/// Packs `cols ≤ QNR` rows of `Bᵀ` (`bt`, `cols × k`, `k ≥ 1`) into the
/// pair panel: word `panel[p·QNR + j]` is column `j`'s pair
/// `(b[j, 2p], b[j, 2p+1])`. The high half of an odd `k`'s last pair
/// and every word of columns `cols..QNR` are zero, so they add nothing
/// to a sum. With `lanes`, a full panel's whole 8-pair blocks are
/// transposed on AVX2 ([`crate::simd::pack_pairs`]) into the same words.
fn pack_pair_panel(panel: &mut [i32], bt: &[Q8_8], k: usize, cols: usize, lanes: bool) {
    debug_assert_eq!(panel.len(), k.div_ceil(2) * QNR);
    debug_assert_eq!(bt.len(), cols * k);
    let done = if lanes && cols == QNR {
        crate::simd::pack_pairs(panel, bt, k)
    } else {
        0
    };
    for (j, brow) in bt.chunks_exact(k).enumerate() {
        let pairs = brow.chunks_exact(2);
        if let [last] = pairs.remainder() {
            panel[k / 2 * QNR + j] = pair_word(*last, Q8_8::ZERO);
        }
        for (p, pair) in pairs.enumerate().skip(done) {
            panel[p * QNR + j] = pair_word(pair[0], pair[1]);
        }
    }
    if cols < QNR {
        for row in panel.chunks_exact_mut(QNR) {
            row[cols..].fill(0);
        }
    }
}

/// The pair tile on plain wrapping `i32` adds — the lane kernel's exact
/// arithmetic ([`crate::simd::qtile`]), one row of the tile at a time,
/// for hosts and runs where the lanes are off. `out[r][j]` is row `r`'s
/// re-quantised output for panel column `j`; `seeds` are the rows' raw
/// bias seeds.
pub(crate) fn qtile_scalar(
    out: &mut [[Q8_8; QNR]; QMR],
    panel: &[i32],
    arows: [&[Q8_8]; QMR],
    seeds: [i32; QMR],
) {
    for ((row, arow), seed) in out.iter_mut().zip(arows).zip(seeds) {
        let mut sums = [seed; QNR];
        let mut words = panel.chunks_exact(QNR);
        let pairs = arow.chunks_exact(2);
        let odd = pairs.remainder().first().map_or(0, |q| i32::from(q.raw()));
        for (pair, words) in pairs.zip(words.by_ref()) {
            let (a0, a1) = (i32::from(pair[0].raw()), i32::from(pair[1].raw()));
            for (s, &w) in sums.iter_mut().zip(words) {
                *s = s.wrapping_add((a0 * i32::from(w as i16)).wrapping_add(a1 * (w >> 16)));
            }
        }
        // Odd `k`'s last pair: its high half is zero on both operands.
        for words in words {
            for (s, &w) in sums.iter_mut().zip(words) {
                *s = s.wrapping_add(odd * i32::from(w as i16));
            }
        }
        for (q, s) in row.iter_mut().zip(sums) {
            *q = requant_raw(s);
        }
    }
}

/// The first `len` elements of `stack`, or of `heap` grown to `len`
/// when `stack` is shorter.
fn stack_or_heap<'a, T: Copy + Default>(
    stack: &'a mut [T],
    heap: &'a mut Vec<T>,
    len: usize,
) -> &'a mut [T] {
    if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, T::default());
        heap
    }
}

/// Quantised im2col: expands a `[C,H,W]` Q8.8 input into the
/// `[out_h·out_w, C·k·k]` patch matrix (rows = output positions,
/// columns = taps, fully overwritten; padding taps become
/// [`Q8_8::ZERO`] — a zero product leaves the accumulator untouched,
/// exactly like the hardware's gated taps). This **is** the conv `Bᵀ`
/// operand of [`matmul_bt_bias_requant_into`]: position
/// `p`'s row is the contiguous `k`-vector the weight rows dot against,
/// in ascending-tap order.
///
/// Every window is read through one table of tap offsets, with no
/// per-tap bounds test for padding: with `pad > 0` the windows read a
/// zero-bordered copy of the input, and with `pad == 0` the input
/// itself.
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
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    assert!(ph >= k && pw >= k, "filter exceeds input");
    let out_w = (pw - k) / stride + 1;
    let cols = c * k * k;
    assert_eq!(
        m.len(),
        ((ph - k) / stride + 1) * out_w * cols,
        "im2col size mismatch"
    );
    if cols == 0 {
        return;
    }
    let padded;
    let image: &[Q8_8] = if pad == 0 {
        x
    } else {
        let mut zero_bordered = vec![Q8_8::ZERO; c * ph * pw];
        for ci in 0..c {
            for y in 0..h {
                let at = (ci * ph + pad + y) * pw + pad;
                zero_bordered[at..at + w].copy_from_slice(&x[(ci * h + y) * w..][..w]);
            }
        }
        padded = zero_bordered;
        &padded
    };
    // Tap `(ci, ky, kx)`'s offset from its window's corner.
    let offsets: Vec<usize> = (0..c * k)
        .flat_map(|plane_row| {
            (0..k).map(move |kx| plane_row / k * ph * pw + plane_row % k * pw + kx)
        })
        .collect();
    for (pos, taps) in m.chunks_exact_mut(cols).enumerate() {
        let corner = pos / out_w * stride * pw + pos % out_w * stride;
        let window = &image[corner..];
        for (t, &off) in taps.iter_mut().zip(&offsets) {
            *t = window[off];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::qmatmul_naive;

    fn qfill(len: usize, seed: u32) -> Vec<Q8_8> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                Q8_8::from_f32((h % 2000) as f32 / 1000.0 - 1.0)
            })
            .collect()
    }

    /// Runs `f` with the tile's lanes as the host allows, then with the
    /// scalar tile forced.
    fn lanes_and_scalar(mut f: impl FnMut(&str)) {
        let _lock = crate::simd::gate_lock();
        f("lanes");
        let _scalar = crate::simd::force_scalar();
        f("scalar");
    }

    #[test]
    fn kernel_matches_the_oracle_bitwise() {
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (5, 7, 9),
            (4, 300, 8),   // long contraction, one partial panel
            (13, 257, 33), // ragged tails on every dimension
            (3, 4, 1),     // matvec: the skinny fallback
            (6, 5, 3),     // n < QMIN_N, several rows
            (8, 25, 40),   // CONV1's odd k over full and partial panels
            (1100, 3, 5),  // more certified rows than the stack list holds
        ] {
            let a = qfill(m * k, 1);
            let bt = qfill(n * k, 2);
            let bias = qfill(m, 3);
            let mut want = vec![Q8_8::ZERO; m * n];
            qmatmul_naive(&mut want, &a, &bt, &bias, m, k, n);
            lanes_and_scalar(|path| {
                let mut got = vec![Q8_8::MAX; m * n]; // dirty: must be overwritten
                matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, m, k, n);
                assert_eq!(
                    want.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                    got.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                    "{path} m={m} k={k} n={n}"
                );
            });
        }
    }

    #[test]
    fn saturation_order_is_preserved() {
        // A contraction engineered to saturate the 32-bit accumulator
        // mid-chain: big positive products first, then negatives. If the
        // kernel split or reordered the chain, the clamp would land at
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
        qmatmul_naive(&mut want, &a, &bt, &bias, 1, k, 4);
        assert_eq!(want[0], Q8_8::MIN, "chain must end clamped, not cancelled");
        lanes_and_scalar(|path| {
            let mut got = vec![Q8_8::ZERO; 4];
            matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, 1, k, 4);
            assert_eq!(want, got, "{path}");
        });
    }

    #[test]
    fn mixed_safe_and_saturating_rows_match_the_oracle() {
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
        qmatmul_naive(&mut want, &a, &bt, &bias, m, k, n);
        lanes_and_scalar(|path| {
            let mut got = vec![Q8_8::ZERO; m * n];
            matmul_bt_bias_requant_into(&mut got, &a, &bt, &bias, m, k, n);
            assert_eq!(
                want.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                got.iter().map(|q| q.raw()).collect::<Vec<_>>(),
                "{path}"
            );
        });
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

    /// The textbook loop over every tap, bounds-checked one at a time.
    #[allow(clippy::too_many_arguments)]
    fn qim2col_direct(
        x: &[Q8_8],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<Q8_8> {
        let out_h = (h + 2 * pad - k) / stride + 1;
        let out_w = (w + 2 * pad - k) / stride + 1;
        let cols = c * k * k;
        let mut m = vec![Q8_8::ZERO; out_h * out_w * cols];
        for oy in 0..out_h {
            for ox in 0..out_w {
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                                m[(oy * out_w + ox) * cols + (ci * k + ky) * k + kx] =
                                    x[(ci * h + iy as usize) * w + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        m
    }

    #[test]
    fn qim2col_matches_direct_loops() {
        // (c, h, w, k, stride, pad): CONV1's k5/s2/p0, the k3/s1/p1
        // trunk, k3/s2/p1 and 1×1, on odd and non-square sizes.
        for (c, h, w, k, stride, pad) in [
            (1usize, 40usize, 40usize, 5usize, 2usize, 0usize),
            (2, 11, 9, 5, 2, 0),
            (3, 9, 9, 3, 1, 1),
            (2, 4, 7, 3, 1, 1),
            (2, 9, 8, 3, 2, 1),
            (1, 5, 5, 3, 2, 1),
            (3, 7, 5, 1, 1, 0),
            (2, 5, 6, 1, 2, 0),
            (1, 3, 3, 3, 1, 2), // padding wider than a run's reach
        ] {
            let x = qfill(c * h * w, (c * 100 + h * 10 + w) as u32);
            let want = qim2col_direct(&x, c, h, w, k, stride, pad);
            let mut got = vec![Q8_8::MAX; want.len()]; // dirty: fully overwritten
            qim2col_slice_into(&mut got, &x, c, h, w, k, stride, pad);
            assert_eq!(want, got, "c={c} h={h} w={w} k={k} s={stride} p={pad}");
        }
    }
}
