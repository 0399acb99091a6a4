//! Shared differential-testing harness: the oracles every kernel is
//! proven against, and the value streams and comparators the
//! equivalence suites share.
//!
//! What lives here:
//!
//! * the GEMM oracles — the textbook triple loops the production
//!   kernels are proven **bitwise** equal to: [`matmul`] /
//!   [`matmul_into`] and [`matmul_at_b`] / [`matmul_at_b_into`] for the
//!   f32 kernel of [`crate::backend`], and [`qmatmul_naive`] for the
//!   Q8.8 kernel of [`crate::qgemm`];
//! * the direct-convolution oracle ([`conv_direct_forward`],
//!   [`conv_direct_backward`]) — the textbook loops the im2col GEMM in
//!   [`Conv2d`] is checked against. It is a different algorithm (a
//!   different association), so it agrees to float rounding only, the
//!   one tolerance tier left (see `docs/gemm_backends.md`);
//! * deterministic value streams ([`fill`], [`fill01`], [`qfill`]) —
//!   hash-based, seedable, optionally salted with IEEE specials;
//! * bit canonicalisers ([`bits`], [`qbits`]) and comparators: exact
//!   ([`assert_bitwise`]) and absolute+relative ([`assert_close`]),
//!   both `NaN`/`±∞`-classification-aware;
//! * the pool sweep: [`POOL_SIZES`] with [`sweep_pools`] (installs a
//!   [`crate::pool::ThreadPool`] per size).
//!
//! The module is ordinary library code (usable from benches and
//! doctests too), but its only consumers are test surfaces; nothing in
//! the engine calls it.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::{backend, difftest};
//!
//! let (m, k, n) = (3, 5, 4);
//! let a = difftest::fill(m * k, 42, false);
//! let b = difftest::fill(k * n, 43, false);
//! let mut c = vec![0.0; m * n];
//! backend::matmul_into(&mut c, &a, &b, m, k, n);
//! difftest::assert_bitwise("kernel vs oracle", &difftest::matmul(&a, &b, m, k, n), &c);
//! ```

use mramrl_fixed::{Acc32, Q8_8};

use crate::conv::Conv2d;
use crate::pool::ThreadPool;
use crate::tensor::Tensor;

/// The pool sizes every pooled contract is swept over (1 = the serial
/// oracle schedule, 2 = minimal real fan-out, 7 = more workers than
/// most test batches have samples).
pub const POOL_SIZES: [usize; 3] = [1, 2, 7];

/// Deterministic f32 value stream in `[-1, 1)`; with `specials` set,
/// every ~13th value is an IEEE special (`NaN`, `±0.0`, `±∞`) to
/// exercise the propagation corners a zero-skip or a lane shuffle
/// could silently hide.
pub fn fill(len: usize, seed: u64, specials: bool) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            if specials && h % 13 == 0 {
                match h % 5 {
                    0 => f32::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    3 => f32::INFINITY,
                    _ => f32::NEG_INFINITY,
                }
            } else {
                (h % 2000) as f32 / 1000.0 - 1.0
            }
        })
        .collect()
}

/// Deterministic f32 value stream in `[0, 1)` — depth-image-like
/// inputs (what the quantised engine's input quantiser expects).
pub fn fill01(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (h % 1000) as f32 / 1000.0
        })
        .collect()
}

/// Deterministic Q8.8 value stream in `[-1, 1)` (the same hash as
/// [`fill`], snapped to the fixed-point grid).
pub fn qfill(len: usize, seed: u64) -> Vec<Q8_8> {
    fill(len, seed, false)
        .iter()
        .map(|&v| Q8_8::from_f32(v))
        .collect()
}

/// Bit patterns with `NaN` payloads canonicalised to `0x7FC0_0000`:
/// IEEE-754 leaves payload bits unspecified (LLVM may commute float
/// operands), so equality is `NaN`-position-aware rather than raw
/// `to_bits`. Everything else — signed zeros included — must match
/// exactly.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() })
        .collect()
}

/// Raw `i16` bit patterns of a Q8.8 slice (total order, no specials —
/// the integer comparisons are always exact).
pub fn qbits(v: &[Q8_8]) -> Vec<i16> {
    v.iter().map(|q| q.raw()).collect()
}

/// Asserts two f32 slices are bitwise identical under the [`bits`]
/// canonicalisation, with the element index in the panic message.
///
/// # Panics
///
/// Panics on any length or bit mismatch.
pub fn assert_bitwise(tag: &str, want: &[f32], got: &[f32]) {
    assert_eq!(want.len(), got.len(), "{tag}: length");
    let (w, g) = (bits(want), bits(got));
    for (i, (a, b)) in w.iter().zip(&g).enumerate() {
        assert_eq!(
            a, b,
            "{tag}: element {i}: {} ({a:#010x}) vs {} ({b:#010x})",
            want[i], got[i]
        );
    }
}

/// Asserts two f32 slices agree to `|a - b| ≤ atol + rtol·max(|a|,|b|)`
/// element-wise, with identical non-finite classification (the
/// documented-tolerance-tier comparator: `NaN` positions and infinity
/// signs must still match exactly — a tolerance never excuses a
/// classification flip).
///
/// # Panics
///
/// Panics on any length, classification or tolerance violation.
pub fn assert_close(tag: &str, want: &[f32], got: &[f32], atol: f32, rtol: f32) {
    assert_eq!(want.len(), got.len(), "{tag}: length");
    for (i, (&a, &b)) in want.iter().zip(got).enumerate() {
        if a.is_nan() || b.is_nan() {
            assert!(
                a.is_nan() && b.is_nan(),
                "{tag}: element {i}: NaN classification {a} vs {b}"
            );
            continue;
        }
        if a.is_infinite() || b.is_infinite() {
            assert!(a == b, "{tag}: element {i}: infinity mismatch {a} vs {b}");
            continue;
        }
        let tol = atol + rtol * a.abs().max(b.abs());
        assert!(
            (a - b).abs() <= tol,
            "{tag}: element {i}: {a} vs {b} (|Δ|={} > {tol})",
            (a - b).abs()
        );
    }
}

/// Runs `f` once per [`POOL_SIZES`] entry with a fresh
/// [`ThreadPool`] of that many executors installed for the duration —
/// the standard pooled-contract sweep.
pub fn sweep_pools(mut f: impl FnMut(usize)) {
    for threads in POOL_SIZES {
        let pool = ThreadPool::new(threads);
        let _installed = pool.install();
        f(threads);
    }
}

/// The f32 `A·B` oracle: dense row-major `C[m×n] = A[m×k] · B[k×n]`
/// on the textbook loops. Each output is one accumulator seeded at
/// `+0.0` adding `a·b` in ascending `k` — the order the
/// [`crate::backend`] kernel keeps, so the two agree bit for bit.
/// There is deliberately no skip of zero `A` entries: `0.0 × NaN` must
/// produce `NaN` (and `-0.0` accumulation must round identically), so
/// the oracle performs every multiply-accumulate.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    matmul_into(&mut c, a, b, m, k, n);
    c
}

/// [`matmul`] writing into `c` (fully overwritten).
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
pub fn matmul_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A dimensions");
    assert_eq!(b.len(), k * n, "B dimensions");
    assert_eq!(c.len(), m * n, "C dimensions");
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// The f32 `Aᵀ·B` oracle: `C[k×n] = A[m×k]ᵀ · B[m×n]` without
/// materialising the transpose, each output one chain in ascending
/// shared row `i`. Like [`matmul`] it never skips zero entries.
///
/// # Panics
///
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; k * n];
    matmul_at_b_into(&mut c, a, b, m, k, n);
    c
}

/// [`matmul_at_b`] writing into `c` (fully overwritten).
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
pub fn matmul_at_b_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A dimensions");
    assert_eq!(b.len(), m * n, "B dimensions");
    assert_eq!(c.len(), k * n, "C dimensions");
    c.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let b_row = &b[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let c_row = &mut c[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// The Q8.8 oracle for [`crate::qgemm::matmul_bt_bias_requant_into`]:
/// `C[m×n] = requant(bias[m·row] + A[m×k] · B[n×k]ᵀ)`, one [`Acc32`]
/// per output — seeded from its row's bias, products added in
/// ascending `k`, saturated at the 32-bit accumulator width after every
/// step, re-quantised once.
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn qmatmul_naive(
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

/// The direct-convolution oracle: one `[C,H,W]` sample through the
/// textbook loops, with `conv`'s weights, bias and geometry, returning
/// `[out_c, out_h, out_w]`.
///
/// [`Conv2d`] runs the im2col GEMM; this is a different algorithm
/// (different association), so the two agree to float rounding only —
/// the tolerance tier of `docs/gemm_backends.md`.
pub fn conv_direct_forward(conv: &Conv2d, x: &Tensor) -> Tensor {
    let (in_c, out_c, k, stride, pad) = conv.geometry();
    let (in_h, in_w) = (x.shape()[1], x.shape()[2]);
    let out_h = (in_h + 2 * pad - k) / stride + 1;
    let out_w = (in_w + 2 * pad - k) / stride + 1;
    let (w, b, x) = (conv.weight().data(), conv.bias().data(), x.data());
    let mut out = Tensor::zeros(&[out_c, out_h, out_w]);
    let o = out.data_mut();
    for oc in 0..out_c {
        let w_oc = &w[oc * in_c * k * k..(oc + 1) * in_c * k * k];
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = b[oc];
                let base_y = (oy * stride) as isize - pad as isize;
                let base_x = (ox * stride) as isize - pad as isize;
                for ic in 0..in_c {
                    let w_ic = &w_oc[ic * k * k..(ic + 1) * k * k];
                    let x_ic = &x[ic * in_h * in_w..(ic + 1) * in_h * in_w];
                    for ky in 0..k {
                        let iy = base_y + ky as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        let row = &x_ic[iy as usize * in_w..(iy as usize + 1) * in_w];
                        for (kx, &wv) in w_ic[ky * k..(ky + 1) * k].iter().enumerate() {
                            let ix = base_x + kx as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            acc += wv * row[ix as usize];
                        }
                    }
                }
                o[(oc * out_h + oy) * out_w + ox] = acc;
            }
        }
    }
    out
}

/// The direct-loop backward matching [`conv_direct_forward`]: one
/// sample's `(dW, db, dX)` from zeroed accumulators, for the
/// `[out_c, out_h, out_w]` upstream gradient `grad_output`.
pub fn conv_direct_backward(
    conv: &Conv2d,
    x: &Tensor,
    grad_output: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (in_c, out_c, k, stride, pad) = conv.geometry();
    let (in_h, in_w) = (x.shape()[1], x.shape()[2]);
    let out_h = (in_h + 2 * pad - k) / stride + 1;
    let out_w = (in_w + 2 * pad - k) / stride + 1;
    let (w, x, go) = (conv.weight().data(), x.data(), grad_output.data());
    let mut gw = Tensor::zeros(conv.weight().shape());
    let mut gb = Tensor::zeros(&[out_c]);
    let mut gi = Tensor::zeros(&[in_c, in_h, in_w]);
    let (gwd, gbd, gid) = (gw.data_mut(), gb.data_mut(), gi.data_mut());
    for oc in 0..out_c {
        let w_base = oc * in_c * k * k;
        for oy in 0..out_h {
            for ox in 0..out_w {
                let g = go[(oc * out_h + oy) * out_w + ox];
                gbd[oc] += g;
                let base_y = (oy * stride) as isize - pad as isize;
                let base_x = (ox * stride) as isize - pad as isize;
                for ic in 0..in_c {
                    let wi_base = w_base + ic * k * k;
                    let x_base = ic * in_h * in_w;
                    for ky in 0..k {
                        let iy = base_y + ky as isize;
                        if iy < 0 || iy >= in_h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = base_x + kx as isize;
                            if ix < 0 || ix >= in_w as isize {
                                continue;
                            }
                            let xi = x_base + iy as usize * in_w + ix as usize;
                            gwd[wi_base + ky * k + kx] += g * x[xi];
                            gid[xi] += g * w[wi_base + ky * k + kx];
                        }
                    }
                }
            }
        }
    }
    (gw, gb, gi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_in_range() {
        assert_eq!(fill(64, 7, false), fill(64, 7, false));
        assert!(fill(64, 7, false).iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(fill01(64, 7).iter().all(|v| (0.0..1.0).contains(v)));
        assert!(fill(1024, 7, true).iter().any(|v| v.is_nan()));
        assert_eq!(qfill(16, 3), qfill(16, 3));
    }

    #[test]
    fn bits_canonicalises_nan_only() {
        let v = [f32::NAN, -0.0, 0.0, 1.5, f32::INFINITY];
        let b = bits(&v);
        assert_eq!(b[0], 0x7FC0_0000);
        assert_ne!(b[1], b[2], "signed zeros stay distinct");
        assert_eq!(b[3], 1.5f32.to_bits());
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let c = matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_at_b_equals_explicit_transpose() {
        let a = fill(6 * 4, 1, false); // A is 6×4
        let b = fill(6 * 3, 2, false); // B is 6×3
        let fast = matmul_at_b(&a, &b, 6, 4, 3);
        // Explicit Aᵀ then plain matmul: the same chains, the same bits.
        let mut at = vec![0.0f32; 24];
        for i in 0..6 {
            for j in 0..4 {
                at[j * 6 + i] = a[i * 4 + j];
            }
        }
        assert_bitwise("Aᵀ·B", &matmul(&at, &b, 4, 6, 3), &fast);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn close_comparator_has_teeth() {
        // Suppress the pretty backtrace note; the panic text carries it.
        assert_close("tolerance", &[1.0], &[1.01], 1e-4, 1e-4);
    }

    #[test]
    fn pool_sweep_covers_every_size() {
        let mut pools = Vec::new();
        sweep_pools(|t| pools.push(t));
        assert_eq!(pools, POOL_SIZES.to_vec());
    }
}
