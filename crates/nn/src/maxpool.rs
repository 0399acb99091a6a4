//! Max pooling.

use crate::error::NnError;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// 2-D max pooling over `[C, H, W]` inputs (batched: `[N, C, H, W]`).
///
/// AlexNet uses overlapping 3×3/stride-2 pooling; window placement follows
/// the floor convention (`out = (in − k)/s + 1`), which reproduces the
/// paper's 55→27→13→6 pyramid.
///
/// Stateless: the argmax routing table for backward lives in the
/// caller's [`LayerWs`] (indices are flat into the *batched* input).
/// Calling backward without a forward is reported as
/// [`NnError::BackwardBeforeForward`] — the bare `Option::unwrap` panic
/// of the pre-workspace implementation is gone.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Layer, LayerWs, MaxPool2d, Tensor};
///
/// let pool = MaxPool2d::new("pool1", 3, 2);
/// let mut ws = LayerWs::new();
/// pool.forward_batch(&Tensor::zeros(&[1, 96, 55, 55]), &mut ws);
/// assert_eq!(ws.out.unwrap().shape(), &[1, 96, 27, 27]);
/// ```
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    k: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    pub fn new(name: impl Into<String>, k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "bad pool dims");
        Self {
            name: name.into(),
            k,
            stride,
        }
    }

    fn out_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        (
            (in_h - self.k) / self.stride + 1,
            (in_w - self.k) / self.stride + 1,
        )
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        assert_eq!(x.shape().len(), 4, "pool expects [N,C,H,W]");
        let (n, c, in_h, in_w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert!(
            in_h >= self.k && in_w >= self.k,
            "pool window exceeds input"
        );
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        ws.batch = n;
        ws.in_shape.clear();
        ws.in_shape.extend_from_slice(x.shape());
        ws.argmax.clear();
        ws.argmax.resize(n * c * out_h * out_w, 0);
        let out = LayerWs::reuse(&mut ws.out, &[n, c, out_h, out_w]);
        let xd = x.data();

        // Planes are independent: batch × channel fold into one axis, so
        // the batched pass is the serial passes back to back, bit for bit.
        for plane in 0..n * c {
            let x_base = plane * in_h * in_w;
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..self.k {
                        let iy = oy * self.stride + ky;
                        for kx in 0..self.k {
                            let ix = ox * self.stride + kx;
                            let idx = x_base + iy * in_w + ix;
                            if xd[idx] > best {
                                best = xd[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = (plane * out_h + oy) * out_w + ox;
                    out.data_mut()[oidx] = best;
                    ws.argmax[oidx] = best_idx;
                }
            }
        }
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        assert_eq!(
            grad_output.len(),
            ws.argmax.len(),
            "pool grad length mismatch"
        );
        let grad_in = LayerWs::reuse_zeroed(&mut ws.grad_in, &ws.in_shape);
        let gi = grad_in.data_mut();
        for (g, &idx) in grad_output.data().iter().zip(&ws.argmax) {
            gi[idx] += g;
        }
        Ok(())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (h, w) = self.out_hw(input_shape[1], input_shape[2]);
        vec![input_shape[0], h, w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward1, forward1};

    #[test]
    fn alexnet_pool_pyramid() {
        let p = MaxPool2d::new("p", 3, 2);
        assert_eq!(p.output_shape(&[96, 55, 55]), vec![96, 27, 27]);
        assert_eq!(p.output_shape(&[256, 27, 27]), vec![256, 13, 13]);
        assert_eq!(p.output_shape(&[256, 13, 13]), vec![256, 6, 6]);
    }

    #[test]
    fn picks_window_maxima() {
        let p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec(
            &[1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.0, 9.0,
            ],
        );
        let y = forward1(&p, &x, &mut LayerWs::new());
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 9.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mut ws = LayerWs::new();
        let _ = forward1(&p, &x, &mut ws);
        let g = backward1(&mut p, &Tensor::from_vec(&[1, 1, 1], vec![7.0]), &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn overlapping_windows_accumulate_gradient() {
        let mut p = MaxPool2d::new("p", 3, 2);
        // 5×5 input with the global max at the shared centre (2,2).
        let mut x = Tensor::zeros(&[1, 5, 5]);
        *x.at3_mut(0, 2, 2) = 10.0;
        let mut ws = LayerWs::new();
        let y = forward1(&p, &x, &mut ws);
        assert_eq!(y.shape(), &[1, 2, 2]);
        let g = backward1(&mut p, &Tensor::filled(&[1, 2, 2], 1.0), &mut ws);
        // All four 3×3 windows contain (2,2): gradient 4 accumulates there.
        assert_eq!(g.at3(0, 2, 2), 4.0);
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut p = MaxPool2d::new("p", 2, 2);
        let mut ws = LayerWs::new();
        let err = p.backward_batch(&Tensor::zeros(&[1, 1, 1, 1]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn batched_matches_two_serial_passes() {
        let p = MaxPool2d::new("p", 2, 2);
        let a = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[1, 2, 2], vec![8.0, 7.0, 6.0, 5.0]);
        let mut batch = Vec::new();
        batch.extend_from_slice(a.data());
        batch.extend_from_slice(b.data());
        let x = Tensor::from_vec(&[2, 1, 2, 2], batch);
        let mut ws = LayerWs::new();
        p.forward_batch(&x, &mut ws);
        assert_eq!(ws.out.as_ref().unwrap().data(), &[4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "pool window exceeds input")]
    fn window_too_large_panics() {
        let p = MaxPool2d::new("p", 4, 2);
        let _ = forward1(&p, &Tensor::zeros(&[1, 3, 3]), &mut LayerWs::new());
    }
}
