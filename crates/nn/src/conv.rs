//! 2-D convolution with analytic backward pass.

use rand::rngs::SmallRng;

use crate::error::NnError;
use crate::init::WeightInit;
use crate::layer::{Layer, ParamTensor};
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// A 2-D convolution layer (`[C_in, H, W] → [C_out, H', W']`, batched
/// `[N, C_in, H, W] → [N, C_out, H', W']`).
///
/// Weights are stored `[C_out, C_in, K_h, K_w]`; square stride and
/// symmetric zero padding, matching the AlexNet layers of the paper.
///
/// Every pass runs one algorithm, the im2col GEMM of §V-B: the
/// **whole batch** routes through **one** GEMM per pass —
/// `W[out_c × taps] · cols[taps × N·positions]` forward,
/// `G[N·positions × out_c] · W` for the input gradient — so batching
/// multiplies the GEMM's long dimension by `N`, exactly where the
/// register-tiled kernels win. Weight gradients reduce *across*
/// samples, so they are computed as per-sample `Gᵢᵀ·colsᵢ` products
/// accumulated in ascending sample order — the association the serial
/// path uses, which is what makes batched ≡ serial bit-identical (see
/// `docs/batching.md`). [`Layer::backward_batch_params`] skips the
/// input-gradient GEMM and its col2im scatter.
///
/// Where [`crate::pool`]'s one parallel rule lets a pass fan out (see
/// `docs/threading.md`), the forward splits the batch into
/// executor-sized slabs of consecutive samples — each slab packs its
/// own columns of the GEMM operand and runs its own fused product into
/// its own rows of the output — and the backward runs its `dW`/`db`
/// loop beside its `dX` GEMM + col2im (`dW ∥ dX`). Every output element
/// keeps its one ascending-taps chain, so neither split changes a bit.
///
/// The products run on the [`crate::backend`] kernel. The direct-loop
/// convolution survives as the test oracle
/// [`crate::difftest::conv_direct_forward`], equal to this path to
/// float rounding.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Conv2d, Layer, Tensor};
///
/// let mut conv = Conv2d::new("CONV1", 1, 4, 3, 1, 1, 42);
/// let y = conv.forward(&Tensor::zeros(&[1, 8, 8]));
/// assert_eq!(y.shape(), &[4, 8, 8]);
/// assert_eq!(conv.param_count(), 4 * 9 + 4);
/// ```
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weight: ParamTensor,
    bias: ParamTensor,
    scratch: LayerWs,
}

impl Conv2d {
    /// Creates a conv layer with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the stride is zero.
    pub fn new(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "bad conv dims"
        );
        let mut rng = crate::init::rng_from_seed(seed);
        Self::with_rng(name, in_c, out_c, k, stride, pad, &mut rng)
    }

    /// Creates a conv layer drawing weights from an existing RNG.
    pub fn with_rng(
        name: impl Into<String>,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "bad conv dims"
        );
        let fan_in = in_c * k * k;
        let weight = ParamTensor::new(WeightInit::HeUniform.init(
            &[out_c, in_c, k, k],
            fan_in,
            out_c * k * k,
            rng,
        ));
        let bias = ParamTensor::new(Tensor::zeros(&[out_c]));
        Self {
            name: name.into(),
            in_c,
            out_c,
            k,
            stride,
            pad,
            weight,
            bias,
            scratch: LayerWs::new(),
        }
    }

    fn out_hw(&self, in_h: usize, in_w: usize) -> (usize, usize) {
        (
            (in_h + 2 * self.pad - self.k) / self.stride + 1,
            (in_w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Weight tensor (for quantisation snapshots).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Bias tensor.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }

    /// (in_c, out_c, k, stride, pad) geometry tuple.
    pub fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.in_c, self.out_c, self.k, self.stride, self.pad)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        assert_eq!(x.shape().len(), 4, "conv expects [N,C,H,W]");
        let n = x.shape()[0];
        assert_eq!(x.shape()[1], self.in_c, "conv input channel mismatch");
        let (in_h, in_w) = (x.shape()[2], x.shape()[3]);
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        let positions = out_h * out_w;
        ws.batch = n;
        LayerWs::reuse(&mut ws.input, x.shape())
            .data_mut()
            .copy_from_slice(x.data());

        let taps = self.in_c * self.k * self.k;
        let (in_c, out_c, k, stride, pad) = self.geometry();

        // One fused GEMM per slab of consecutive samples,
        //   out'[out_c × S·positions] = W[out_c × taps] · cols[taps × S·positions],
        // with slab sample j's im2col columns at [j·positions, (j+1)·positions).
        // The slabs tile `gemm_a`, `gemm_c` and `out` slab-major, so the
        // buffers are the same at any slab count, and one slab (the
        // serial case) is the fused product over the whole batch. Each
        // output element is the same ascending-taps dot product as the
        // serial per-image GEMM, so every split is bit-identical to it.
        let LayerWs {
            gemm_a,
            gemm_c,
            out,
            ..
        } = ws;
        let bt = LayerWs::reuse_buf(gemm_a, taps * n * positions);
        let gc = LayerWs::reuse_buf(gemm_c, out_c * n * positions);
        let od = LayerWs::reuse(out, &[n, out_c, out_h, out_w]).data_mut();
        let (w, b) = (self.weight.value.data(), self.bias.value.data());
        let slab_pass = |s0: usize, bt: &mut [f32], gc: &mut [f32], od: &mut [f32]| {
            let cols = od.len() / out_c;
            for (j, pos0) in (0..cols).step_by(positions).enumerate() {
                crate::gemm::im2col_t_into(
                    bt,
                    cols,
                    pos0,
                    x.sample(s0 + j),
                    in_c,
                    in_h,
                    in_w,
                    k,
                    stride,
                    pad,
                );
            }
            crate::backend::matmul_into(gc, w, bt, out_c, taps, cols);
            for (j, od_j) in od.chunks_mut(out_c * positions).enumerate() {
                for (oc, dst) in od_j.chunks_mut(positions).enumerate() {
                    let src = &gc[oc * cols + j * positions..oc * cols + (j + 1) * positions];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        // Bias after the full dot product — the serial order.
                        *d = s + b[oc];
                    }
                }
            }
        };
        let parts = crate::pool::split_parts(n * positions * out_c * taps, n);
        if parts == 1 {
            slab_pass(0, bt, gc, od);
            return;
        }
        let slab = n.div_ceil(parts);
        let slab_pass = &slab_pass;
        let tasks: Vec<crate::pool::Task> = bt
            .chunks_mut(slab * positions * taps)
            .zip(gc.chunks_mut(slab * positions * out_c))
            .zip(od.chunks_mut(slab * positions * out_c))
            .enumerate()
            .map(|(si, ((bt, gc), od))| -> crate::pool::Task {
                Box::new(move || slab_pass(si * slab, bt, gc, od))
            })
            .collect();
        crate::pool::current().run(tasks);
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        self.backward_into(grad_output, ws, true)
    }

    fn backward_batch_params(
        &mut self,
        grad_output: &Tensor,
        ws: &mut LayerWs,
    ) -> Result<(), NnError> {
        self.backward_into(grad_output, ws, false)
    }

    fn scratch_mut(&mut self) -> &mut LayerWs {
        &mut self.scratch
    }

    fn params(&self) -> Vec<&ParamTensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut ParamTensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        let (h, w) = self.out_hw(input_shape[1], input_shape[2]);
        vec![self.out_c, h, w]
    }
}

impl Conv2d {
    /// The batched backward: `dW`/`db` always, `dX` (its GEMM and the
    /// col2im scatter) into `ws.grad_in` only when `input_grad` asks for
    /// it.
    fn backward_into(
        &mut self,
        grad_output: &Tensor,
        ws: &mut LayerWs,
        input_grad: bool,
    ) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let n = ws.batch;
        let input = ws.input.as_ref().expect("forward cached the input");
        let (in_h, in_w) = (input.shape()[2], input.shape()[3]);
        let (out_h, out_w) = self.out_hw(in_h, in_w);
        let positions = out_h * out_w;
        assert_eq!(
            grad_output.shape(),
            &[n, self.out_c, out_h, out_w],
            "conv grad shape mismatch"
        );

        let taps = self.in_c * self.k * self.k;

        // Fused GEMM path (§V-B). The gradient is first laid out as G,
        // one [positions × out_c] block per sample. Then, per sample in
        // ascending order:
        //   dWᵢ = Gᵢᵀ[out_c × positions] · colsᵢ[positions × taps]
        //   dbᵢ[oc] = Σ_pos Gᵢ  (ascending positions)
        // accumulated into the parameter buffers sample by sample — the
        // serial association, so bit-identical from zeroed accumulators.
        // The input gradient has no cross-sample reduction, so it runs as
        // ONE fused GEMM over the whole batch:
        //   dcols[N·positions × taps] = G[N·positions × out_c] · W
        // followed by a per-sample col2im scatter. Both halves only read G,
        // the cached input and W, and write disjoint buffers, so where the
        // pool's parallel rule allows a split they run as one `join2`
        // (`dW ∥ dX`) — unchanged kernels and op sequences, so the same
        // bits.
        let big_n = n * positions;
        let go = grad_output.data();
        let (in_c, out_c, k, stride, pad) = self.geometry();
        let LayerWs {
            input: ws_input,
            grad_in,
            im2col,
            gemm_a,
            gemm_c,
            acc,
            ..
        } = ws;
        let input = ws_input.as_ref().expect("checked above");
        let gbig = LayerWs::reuse_buf(gemm_a, big_n * out_c);
        for (gi_block, go_i) in gbig
            .chunks_mut(positions * out_c)
            .zip(go.chunks(out_c * positions))
        {
            for oc in 0..out_c {
                for pos in 0..positions {
                    gi_block[pos * out_c + oc] = go_i[oc * positions + pos];
                }
            }
        }
        let gbig = &*gbig;
        let Self { weight, bias, .. } = self;

        let mut params = || {
            let cols = LayerWs::reuse_buf(im2col, positions * taps);
            let dw = LayerWs::reuse_buf(acc, out_c * taps);
            for i in 0..n {
                crate::gemm::im2col_slice_into(
                    cols,
                    input.sample(i),
                    in_c,
                    in_h,
                    in_w,
                    k,
                    stride,
                    pad,
                );
                // dWᵢ, fully reduced per sample, then accumulated — the
                // serial op sequence exactly.
                let gi_block = &gbig[i * positions * out_c..(i + 1) * positions * out_c];
                crate::backend::matmul_at_b_into(dw, gi_block, cols, positions, out_c, taps);
                for (a, &v) in weight.grad.data_mut().iter_mut().zip(dw.iter()) {
                    *a += v;
                }
                // dbᵢ: ascending positions, fully reduced, then accumulated.
                let go_i = &go[i * out_c * positions..(i + 1) * out_c * positions];
                for (oc, acc_b) in bias.grad.data_mut().iter_mut().enumerate() {
                    let mut s = 0.0f32;
                    for pos in 0..positions {
                        s += go_i[oc * positions + pos];
                    }
                    *acc_b += s;
                }
            }
        };
        if !input_grad {
            params();
            return Ok(());
        }
        // dX: one fused GEMM for the whole batch, then per-sample col2im.
        let w = weight.value.data();
        let mut dx = || {
            let dcols = LayerWs::reuse_buf(gemm_c, big_n * taps);
            crate::backend::matmul_into(dcols, gbig, w, big_n, out_c, taps);
            let grad_in = LayerWs::reuse_zeroed(grad_in, input.shape());
            let in_plane = in_c * in_h * in_w;
            for (gi_i, dcols_i) in grad_in
                .data_mut()
                .chunks_mut(in_plane)
                .zip(dcols.chunks(positions * taps))
            {
                crate::gemm::col2im_slice_accumulate(
                    gi_i, dcols_i, in_c, in_h, in_w, k, stride, pad,
                );
            }
        };
        if crate::pool::split_parts(big_n * out_c * taps, 2) > 1 {
            crate::pool::join2(params, dx);
        } else {
            params();
            dx();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, 0);
        conv.weight.value.data_mut()[0] = 1.0;
        conv.bias.value.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 0);
        // Sum filter.
        for v in conv.weight.value.data_mut() {
            *v = 1.0;
        }
        conv.bias.value.data_mut()[0] = 0.5;
        let x = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 1]);
        assert_eq!(y.data()[0], 45.0 + 0.5);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut conv = Conv2d::new("c", 3, 96, 11, 4, 0, 1);
        let y = conv.forward(&Tensor::zeros(&[3, 227, 227]));
        assert_eq!(y.shape(), &[96, 55, 55]);
        let mut conv2 = Conv2d::new("c2", 8, 4, 5, 1, 2, 1);
        let y2 = conv2.forward(&Tensor::zeros(&[8, 27, 27]));
        assert_eq!(y2.shape(), &[4, 27, 27]);
    }

    #[test]
    fn bias_gradient_equals_grad_sum() {
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 3);
        let x = Tensor::filled(&[1, 4, 4], 0.3);
        let _ = conv.forward(&x);
        let g = Tensor::filled(&[2, 4, 4], 1.0);
        let _ = conv.backward(&g);
        // Each output channel saw 16 unit gradients.
        assert_eq!(conv.bias.grad.data(), &[16.0, 16.0]);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let x = Tensor::filled(&[1, 3, 3], 1.0);
        let g = Tensor::filled(&[1, 1, 1], 1.0);
        let _ = conv.forward(&x);
        let _ = conv.backward(&g);
        let first = conv.weight.grad.data()[0];
        let _ = conv.forward(&x);
        let _ = conv.backward(&g);
        assert_eq!(conv.weight.grad.data()[0], 2.0 * first);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 1]));
    }

    #[test]
    fn backward_before_forward_is_an_error_in_batch_api() {
        let mut conv = Conv2d::new("c", 1, 1, 3, 1, 0, 3);
        let mut ws = LayerWs::new();
        let err = conv.backward_batch(&Tensor::zeros(&[1, 1, 1, 1]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    /// Central-difference gradient check: the definitive correctness test
    /// for the analytic backward pass.
    #[test]
    fn numerical_gradient_check() {
        let mut conv = Conv2d::new("c", 2, 3, 3, 2, 1, 11);
        let x = {
            let mut rng = crate::init::rng_from_seed(5);
            WeightInit::HeUniform.init(&[2, 5, 5], 4, 4, &mut rng)
        };
        // Loss = sum(output): grad_output = ones.
        let y = conv.forward(&x);
        let ones = Tensor::filled(y.shape(), 1.0);
        let grad_in = conv.backward(&ones);

        let eps = 1e-3f32;
        // Check a scattering of weight gradients.
        for idx in [0usize, 7, 20, 33, 52] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let y_plus = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig - eps;
            let y_minus = conv.forward(&x).sum();
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            let analytic = conv.weight.grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And input gradients.
        for idx in [0usize, 12, 24, 49] {
            let mut x2 = x.clone();
            x2.data_mut()[idx] += eps;
            let y_plus = conv.forward(&x2).sum();
            x2.data_mut()[idx] -= 2.0 * eps;
            let y_minus = conv.forward(&x2).sum();
            let numeric = (y_plus - y_minus) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }
}
