//! GEMM-based convolution via im2col/col2im (§V-B).
//!
//! The paper's platform backpropagates conv layers by expanding them into
//! matrix multiplications: "we use GEMM \[16\], where the system first reads
//! the data ... and expands the inputs to each CONV layers in a 2D
//! matrix". This module holds the pieces of that transformation —
//! `im2col` and its adjoint `col2im` — which [`crate::Conv2d`] composes
//! with the [`crate::backend`] kernel into its forward and backward
//! passes.
//!
//! The GEMM path agrees with the direct-convolution oracle
//! ([`crate::difftest::conv_direct_forward`] — a different algorithm,
//! with a different association) only up to float rounding: tests use a
//! `1e-4` absolute tolerance on unit-scale data.

use crate::tensor::Tensor;

/// Expands a `[C,H,W]` input into the im2col matrix of shape
/// `[out_h·out_w, C·k·k]` (rows = output positions, cols = patch taps;
/// zero padding materialised as zeros).
///
/// # Panics
///
/// Panics if the input is not 3-D or the filter exceeds the padded input.
pub fn im2col(input: &Tensor, k: usize, stride: usize, pad: usize) -> (Vec<f32>, usize, usize) {
    assert_eq!(input.shape().len(), 3, "im2col expects [C,H,W]");
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    assert!(h + 2 * pad >= k && w + 2 * pad >= k, "filter exceeds input");
    let out_h = (h + 2 * pad - k) / stride + 1;
    let out_w = (w + 2 * pad - k) / stride + 1;
    let rows = out_h * out_w;
    let cols = c * k * k;
    let mut m = vec![0.0f32; rows * cols];
    im2col_slice_into(&mut m, input.data(), c, h, w, k, stride, pad);
    (m, rows, cols)
}

/// [`im2col`] from a raw `[C,H,W]` slice into a caller-provided
/// `[out_h·out_w, C·k·k]` matrix (fully overwritten; padding taps become
/// zeros). The allocation-free per-sample kernel under the batched conv
/// path.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn im2col_slice_into(
    m: &mut [f32],
    x: &[f32],
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
    m.fill(0.0);
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

/// [`im2col_slice_into`] writing the **transposed** patch matrix
/// `[C·k·k, out_h·out_w]` (taps-major — the `B` operand layout of the
/// forward product `W[out_c × taps] · colsᵀ`) into columns
/// `[col0, col0 + out_h·out_w)` of the row-major `[C·k·k × ld]` matrix
/// `m`. Those columns are fully overwritten (padding taps become zeros);
/// the rest of `m` is untouched.
///
/// The batched conv forward packs a slab of samples side by side with
/// it, sample `i` of the slab at `col0 = i·positions`, straight into
/// the GEMM layout with no transpose pass. Tap values are identical to
/// [`im2col_slice_into`] — only the storage order differs — so the
/// downstream dot products are bit-identical.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn im2col_t_into(
    m: &mut [f32],
    ld: usize,
    col0: usize,
    x: &[f32],
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
    let positions = out_h * out_w;
    assert!(col0 + positions <= ld, "im2col columns exceed the row");
    assert_eq!(m.len(), c * k * k * ld, "im2col size mismatch");
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let tap = (ci * k + ky) * k + kx;
                let row = &mut m[tap * ld + col0..tap * ld + col0 + positions];
                for (oy, dst) in row.chunks_mut(out_w).enumerate() {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let xrow = &x[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
                    for (ox, d) in dst.iter_mut().enumerate() {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        *d = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            xrow[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// The adjoint of [`im2col`]: scatters a `[out_h·out_w, C·k·k]` matrix
/// back into a `[C,H,W]` tensor, accumulating overlaps.
///
/// # Panics
///
/// Panics if the matrix size does not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    m: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let mut out = Tensor::zeros(&[c, h, w]);
    col2im_slice_accumulate(out.data_mut(), m, c, h, w, k, stride, pad);
    out
}

/// The adjoint scatter of [`col2im`] **accumulating** into a
/// caller-provided `[C,H,W]` slice (callers zero it at the batch
/// boundary). The allocation-free per-sample kernel under the batched
/// conv backward path.
///
/// # Panics
///
/// Panics if the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn col2im_slice_accumulate(
    o: &mut [f32],
    m: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) {
    let out_h = (h + 2 * pad - k) / stride + 1;
    let out_w = (w + 2 * pad - k) / stride + 1;
    let cols = c * k * k;
    assert_eq!(m.len(), out_h * out_w * cols, "col2im size mismatch");
    assert_eq!(o.len(), c * h * w, "col2im output size mismatch");
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
                        o[(ci * h + iy as usize) * w + ix as usize] +=
                            m[row * cols + (ci * k + ky) * k + kx];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng_from_seed, WeightInit};

    fn rand_tensor(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = rng_from_seed(seed);
        WeightInit::HeUniform.init(shape, 8, 8, &mut rng)
    }

    #[test]
    fn im2col_identity_kernel() {
        // k=1, stride=1: im2col is just a reshape.
        let x = Tensor::from_vec(&[2, 2, 2], (0..8).map(|v| v as f32).collect());
        let (m, rows, cols) = im2col(&x, 1, 1, 0);
        assert_eq!((rows, cols), (4, 2));
        // Row = position, col = channel.
        assert_eq!(m[0], 0.0); // (0,0) ch0
        assert_eq!(m[1], 4.0); // (0,0) ch1
        assert_eq!(m[3 * 2 + 1], 7.0); // (1,1) ch1
    }

    #[test]
    fn im2col_t_is_the_transpose_of_im2col() {
        // Written at a column offset inside wider rows: the sample's
        // columns are the transpose, every other column is untouched.
        let x = rand_tensor(&[2, 6, 6], 5);
        let (m, positions, taps) = im2col(&x, 3, 2, 1);
        let (col0, ld) = (3usize, positions + 5);
        let mut mt = vec![7.0f32; taps * ld]; // dirty: kernel must overwrite
        im2col_t_into(&mut mt, ld, col0, x.data(), 2, 6, 6, 3, 2, 1);
        for t in 0..taps {
            for col in 0..ld {
                let want = match col.checked_sub(col0) {
                    Some(pos) if pos < positions => m[pos * taps + t],
                    _ => 7.0,
                };
                assert_eq!(
                    want.to_bits(),
                    mt[t * ld + col].to_bits(),
                    "col={col} tap={t}"
                );
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), m> == <x, col2im(m)> — the defining adjoint property
        // that makes the GEMM backward correct.
        let x = rand_tensor(&[2, 5, 5], 3);
        let (ix, rows, cols) = im2col(&x, 3, 2, 1);
        let m = rand_tensor(&[rows, cols], 4);
        let lhs: f32 = ix.iter().zip(m.data()).map(|(a, b)| a * b).sum();
        let back = col2im(m.data(), 2, 5, 5, 3, 2, 1);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn expansion_blowup_matches_cost_model_assumption() {
        // The accel model charges conv backward for the im2col expansion:
        // at stride 4 the CONV1-like expansion is ~k²/stride² ≈ 7.6× the
        // input. Verify the blowup factor on a scaled geometry.
        let x = Tensor::zeros(&[3, 57, 57]);
        let (m, rows, cols) = im2col(&x, 11, 4, 0);
        let blowup = (rows * cols) as f64 / x.len() as f64;
        assert_eq!(m.len(), rows * cols);
        assert!(blowup > 5.0, "{blowup}");
    }
}
