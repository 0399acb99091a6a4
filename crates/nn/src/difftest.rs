//! Shared differential-testing harness for the backend × pool ×
//! precision equivalence suites.
//!
//! Every backend this repo ships lands inside the same discipline: a
//! **bitwise** contract against an oracle where the arithmetic permits
//! it (the float summation-order family, the whole integer datapath),
//! and a **documented tolerance tier** where it does not (a different
//! algorithm — see `docs/gemm_backends.md`). The suites
//! that enforce this (`gemm_backends.rs`, `quant_equivalence.rs`,
//! `pool_equivalence.rs`, `simd_equivalence.rs`) used to each carry
//! their own copy of the value generators and comparators; this module
//! is the single shared copy, so a new backend tier extends one
//! harness instead of four test files.
//!
//! What lives here:
//!
//! * deterministic value streams ([`fill`], [`fill01`], [`qfill`]) —
//!   hash-based, seedable, optionally salted with IEEE specials;
//! * bit canonicalisers ([`bits`], [`qbits`]) and comparators: exact
//!   ([`assert_bitwise`]), ULP-distance ([`max_ulp_diff`]) and
//!   absolute+relative ([`assert_close`]) —
//!   all `NaN`/`±∞`-classification-aware;
//! * sweep runners: [`POOL_SIZES`] with [`sweep_pools`] (installs a
//!   [`crate::pool::ThreadPool`] per size), [`sweep_backends`] /
//!   [`sweep_qbackends`] over the backend enums;
//! * the direct-convolution oracle ([`conv_direct_forward`],
//!   [`conv_direct_backward`]) — the textbook loops the im2col GEMM in
//!   [`Conv2d`] is checked against.
//!
//! The module is ordinary library code (usable from benches and
//! doctests too), but its only consumers are test surfaces; nothing in
//! the engine's hot path depends on it.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::difftest;
//!
//! let a = difftest::fill(8, 42, false);
//! let b = difftest::fill(8, 42, false);
//! difftest::assert_bitwise("same stream", &a, &b);
//! assert_eq!(difftest::max_ulp_diff(&a, &b), Some(0));
//! ```

use mramrl_fixed::Q8_8;

use crate::backend::GemmBackend;
use crate::conv::Conv2d;
use crate::pool::ThreadPool;
use crate::qgemm::QGemmBackend;
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

/// The largest ULP distance between corresponding elements, or `None`
/// when the slices disagree on any element's *classification* (`NaN`
/// here but not there, differing infinities, or a length mismatch) —
/// distances are only meaningful between two finite values, and a
/// classification flip is a failure a distance must not paper over.
/// `NaN`/`NaN` and equal-infinity pairs count as distance 0; `+0.0`
/// vs `-0.0` as 1.
pub fn max_ulp_diff(want: &[f32], got: &[f32]) -> Option<u64> {
    if want.len() != got.len() {
        return None;
    }
    let mut max = 0u64;
    for (&a, &b) in want.iter().zip(got) {
        if a.is_nan() || b.is_nan() {
            if a.is_nan() && b.is_nan() {
                continue;
            }
            return None;
        }
        if a.is_infinite() || b.is_infinite() {
            if a == b {
                continue;
            }
            return None;
        }
        // Monotone map of finite f32 onto a contiguous integer line
        // (sign-magnitude → two's-complement-like, negatives shifted
        // down one so -0.0 ↦ -1), so ULP distance is integer distance
        // and distance 0 ⇔ identical bits; the ±0.0 pair lands 1 apart.
        let line = |v: f32| -> i64 {
            let b = v.to_bits() as i32;
            if b >= 0 {
                i64::from(b)
            } else {
                -i64::from(b & i32::MAX) - 1
            }
        };
        max = max.max(line(a).abs_diff(line(b)));
    }
    Some(max)
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

/// Runs `f` once per float backend, oracle first
/// ([`GemmBackend::ALL`]).
pub fn sweep_backends(mut f: impl FnMut(GemmBackend)) {
    for be in GemmBackend::ALL {
        f(be);
    }
}

/// Runs `f` once per integer backend, oracle first
/// ([`QGemmBackend::ALL`]).
pub fn sweep_qbackends(mut f: impl FnMut(QGemmBackend)) {
    for be in QGemmBackend::ALL {
        f(be);
    }
}

/// The direct-convolution oracle: one `[C,H,W]` sample through the
/// textbook loops, with `conv`'s weights, bias and geometry, returning
/// `[out_c, out_h, out_w]`.
///
/// [`Conv2d`] runs the im2col GEMM on every backend; this is a different
/// algorithm (different association), so the two agree to float rounding
/// only — the tolerance tier of `docs/gemm_backends.md`.
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
    fn ulp_distance_counts_and_rejects_classification_flips() {
        let one = 1.0f32;
        let next = f32::from_bits(one.to_bits() + 1);
        assert_eq!(max_ulp_diff(&[one], &[one]), Some(0));
        assert_eq!(max_ulp_diff(&[one], &[next]), Some(1));
        assert_eq!(max_ulp_diff(&[0.0], &[-0.0]), Some(1));
        assert_eq!(
            max_ulp_diff(&[-one], &[one]),
            Some(2 * u64::from(one.to_bits()) + 1)
        );
        assert_eq!(max_ulp_diff(&[f32::NAN], &[f32::NAN]), Some(0));
        assert_eq!(max_ulp_diff(&[f32::NAN], &[1.0]), None);
        assert_eq!(max_ulp_diff(&[f32::INFINITY], &[f32::NEG_INFINITY]), None);
        assert_eq!(max_ulp_diff(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn close_comparator_has_teeth() {
        // Suppress the pretty backtrace note; the panic text carries it.
        assert_close("tolerance", &[1.0], &[1.01], 1e-4, 1e-4);
    }

    #[test]
    fn sweeps_cover_every_configuration() {
        let mut pools = Vec::new();
        sweep_pools(|t| pools.push(t));
        assert_eq!(pools, POOL_SIZES.to_vec());
        let mut bes = Vec::new();
        sweep_backends(|b| bes.push(b));
        assert_eq!(bes, GemmBackend::ALL.to_vec());
        let mut qbes = Vec::new();
        sweep_qbackends(|b| qbes.push(b));
        assert_eq!(qbes, QGemmBackend::ALL.to_vec());
    }
}
