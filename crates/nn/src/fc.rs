//! Fully-connected (linear) layer.

use rand::rngs::SmallRng;

use crate::error::NnError;
use crate::init::WeightInit;
use crate::layer::{Layer, ParamTensor};
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// A fully-connected layer `y = W·x + b` with weights `[out, in]`.
///
/// The batched forward runs **one** GEMM per layer: `Yᵀ[out×N] =
/// W[out×in] · Xᵀ[in×N]` on the [`crate::backend`] kernel — the batch
/// multiplies the GEMM's column dimension, which is exactly where the
/// register tile wins (a serial mat-vec gives it nothing to tile). The
/// batched backward likewise folds the whole batch into one
/// `dW = Gᵀ·X` product and one `dX = G·W` product (the latter skipped
/// by [`Layer::backward_batch_params`]). Where [`crate::pool`]'s one
/// parallel rule lets a pass fan out (see `docs/threading.md`), the
/// forward product splits into bands of output rows over the pool, and
/// the two backward products run side by side (`dW ∥ dX`) — disjoint
/// outputs with unchanged op sequences, bit-identical to serial at any
/// pool size.
///
/// Bit-identity: every output element and every `dW`/`db` element is
/// reduced in the same ascending order as the serial single-image pass
/// (per-sample contraction first, samples in ascending order), so a
/// batched pass from zeroed accumulators is bit-identical to `N` serial
/// passes.
///
/// The bias is added **after** the full dot product, never as the
/// accumulator's seed, so every product is a plain `+0.0`-seeded GEMM
/// chain that the kernel and its oracle share.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Linear, Layer, Tensor};
///
/// let mut fc = Linear::new("FC5", 8, 5, 0);
/// let y = fc.forward(&Tensor::zeros(&[8]));
/// assert_eq!(y.shape(), &[5]);
/// assert_eq!(fc.param_count(), 8 * 5 + 5);
/// ```
#[derive(Debug)]
pub struct Linear {
    name: String,
    in_f: usize,
    out_f: usize,
    weight: ParamTensor,
    bias: ParamTensor,
    scratch: LayerWs,
}

impl Linear {
    /// Creates a linear layer with He-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(name: impl Into<String>, in_f: usize, out_f: usize, seed: u64) -> Self {
        let mut rng = crate::init::rng_from_seed(seed);
        Self::with_rng(name, in_f, out_f, &mut rng)
    }

    /// Creates a linear layer drawing weights from an existing RNG.
    pub fn with_rng(
        name: impl Into<String>,
        in_f: usize,
        out_f: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(in_f > 0 && out_f > 0, "bad linear dims");
        let weight = ParamTensor::new(WeightInit::HeUniform.init(&[out_f, in_f], in_f, out_f, rng));
        let bias = ParamTensor::new(Tensor::zeros(&[out_f]));
        Self {
            name: name.into(),
            in_f,
            out_f,
            weight,
            bias,
            scratch: LayerWs::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_f
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_f
    }

    /// Weight tensor (for quantisation snapshots).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Bias tensor.
    pub fn bias(&self) -> &Tensor {
        &self.bias.value
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        let n = x.shape()[0];
        assert_eq!(x.len(), n * self.in_f, "linear input length mismatch");
        ws.batch = n;
        LayerWs::reuse(&mut ws.input, &[n, self.in_f])
            .data_mut()
            .copy_from_slice(x.data());

        // Xᵀ[in × n] so the product is one plain row-major GEMM:
        // Yᵀ[out × n] = W[out × in] · Xᵀ. Per output element this is the
        // identical ascending-`in` dot product as the serial mat-vec.
        let xt = LayerWs::reuse_buf(&mut ws.gemm_a, self.in_f * n);
        let in_f = self.in_f;
        for (i, xi) in x.data().chunks(in_f).enumerate() {
            for (j, &v) in xi.iter().enumerate() {
                xt[j * n + i] = v;
            }
        }
        let xt = &*xt;
        // Where the pool's parallel rule allows a split, the output rows
        // (= W rows) fan out in contiguous bands: each executor streams
        // only its share of W against the shared, small Xᵀ, and every
        // output element stays the one ascending-`in` dot product.
        let yt = LayerWs::reuse_buf(&mut ws.gemm_c, self.out_f * n);
        let w = self.weight.value.data();
        let parts = crate::pool::split_parts(self.out_f * in_f * n, self.out_f);
        if parts == 1 {
            crate::backend::matmul_into(yt, w, xt, self.out_f, in_f, n);
        } else {
            let band = self.out_f.div_ceil(parts);
            crate::pool::current().scatter_chunks(yt, band * n, |t, yband| {
                let rows = yband.len() / n;
                let wband = &w[t * band * in_f..(t * band + rows) * in_f];
                crate::backend::matmul_into(yband, wband, xt, rows, in_f, n);
            });
        }

        let out = LayerWs::reuse(&mut ws.out, &[n, self.out_f]);
        let od = out.data_mut();
        let b = self.bias.value.data();
        for i in 0..n {
            for oc in 0..self.out_f {
                // Bias added after the full dot product, as in the serial
                // path — same float-op sequence, same bits.
                od[i * self.out_f + oc] = ws.gemm_c[oc * n + i] + b[oc];
            }
        }
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

    fn output_shape(&self, _input_shape: &[usize]) -> Vec<usize> {
        vec![self.out_f]
    }
}

impl Linear {
    /// The batched backward: `dW`/`db` always, `dX` into `ws.grad_in`
    /// only when `input_grad` asks for it.
    ///
    /// The two halves share only read-only inputs (the gradient, the
    /// cached input, the weights) and write disjoint buffers, so where
    /// the pool's parallel rule allows a split they run as one
    /// [`crate::pool::join2`]. Each half keeps its unchanged kernel and
    /// op sequence, so the overlap is bit-invisible.
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
        let (in_f, out_f) = (self.in_f, self.out_f);
        assert_eq!(grad_output.len(), n * out_f, "linear grad length mismatch");
        let LayerWs {
            input,
            acc,
            grad_in,
            ..
        } = ws;
        let input = input.as_ref().expect("forward cached the input");
        let go = grad_output.data();
        let Self { weight, bias, .. } = self;

        let mut params = || {
            // dW[out × in] = Gᵀ[out × N] · X[N × in]: ascending-sample
            // contraction — the exact order the serial per-sample outer
            // products accumulate in (each per-sample term is a single
            // product, so the fused GEMM is bit-identical).
            let dw = LayerWs::reuse_buf(acc, out_f * in_f);
            crate::backend::matmul_at_b_into(dw, go, input.data(), n, out_f, in_f);
            for (a, &v) in weight.grad.data_mut().iter_mut().zip(dw.iter()) {
                *a += v;
            }
            // db[oc] += Σ_i g[i, oc], samples in ascending order — the
            // serial accumulation sequence exactly.
            let gb = bias.grad.data_mut();
            for i in 0..n {
                for (a, &g) in gb.iter_mut().zip(&go[i * out_f..(i + 1) * out_f]) {
                    *a += g;
                }
            }
        };
        if !input_grad {
            params();
            return Ok(());
        }
        // dX[N × in] = G[N × out] · W[out × in]: per-sample rows, each the
        // serial ascending-`out` reduction.
        let w = weight.value.data();
        let mut dx = || {
            let gi = LayerWs::reuse(grad_in, &[n, in_f]);
            crate::backend::matmul_into(gi.data_mut(), go, w, n, out_f, in_f);
        };
        if crate::pool::split_parts(n * out_f * in_f, 2) > 1 {
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
    fn known_product() {
        let mut fc = Linear::new("f", 2, 2, 0);
        fc.weight.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        fc.bias.value = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let y = fc.forward(&Tensor::from_vec(&[2], vec![1.0, 1.0]));
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn batched_known_product() {
        let mut fc = Linear::new("f", 2, 2, 0);
        fc.weight.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        fc.bias.value = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let x = Tensor::from_vec(&[2, 2], vec![1.0, 1.0, 2.0, 0.0]);
        let mut ws = LayerWs::new();
        fc.forward_batch(&x, &mut ws);
        let out = ws.out.as_ref().unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.data(), &[3.5, 6.5, 2.5, 5.5]);
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let mut fc = Linear::new("f", 3, 2, 1);
        let _ = fc.forward(&Tensor::filled(&[3], 1.0));
        let gi = fc.backward(&Tensor::from_vec(&[2], vec![1.0, -1.0]));
        assert_eq!(gi.shape(), &[3]);
        assert_eq!(fc.bias.grad.data(), &[1.0, -1.0]);
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut fc = Linear::new("f", 3, 2, 1);
        let mut ws = LayerWs::new();
        let err = fc.backward_batch(&Tensor::zeros(&[1, 2]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn numerical_gradient_check() {
        let mut fc = Linear::new("f", 6, 4, 9);
        let x = {
            let mut rng = crate::init::rng_from_seed(3);
            WeightInit::HeUniform.init(&[6], 6, 6, &mut rng)
        };
        let y = fc.forward(&x);
        // Loss: weighted sum so gradients differ per output.
        let gvec: Vec<f32> = (0..4).map(|i| 0.5 + i as f32).collect();
        let loss = |out: &Tensor| -> f32 { out.data().iter().zip(&gvec).map(|(o, g)| o * g).sum() };
        let _ = loss(&y);
        let grad_in = fc.backward(&Tensor::from_vec(&[4], gvec.clone()));

        let eps = 1e-3f32;
        for idx in [0usize, 5, 11, 17, 23] {
            let orig = fc.weight.value.data()[idx];
            fc.weight.value.data_mut()[idx] = orig + eps;
            let p = loss(&fc.forward(&x));
            fc.weight.value.data_mut()[idx] = orig - eps;
            let m = loss(&fc.forward(&x));
            fc.weight.value.data_mut()[idx] = orig;
            let numeric = (p - m) / (2.0 * eps);
            let analytic = fc.weight.grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "w[{idx}]: {numeric} vs {analytic}"
            );
        }
        for idx in 0..6 {
            let mut x2 = x.clone();
            x2.data_mut()[idx] += eps;
            let p = loss(&fc.forward(&x2));
            x2.data_mut()[idx] -= 2.0 * eps;
            let m = loss(&fc.forward(&x2));
            let numeric = (p - m) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
                "x[{idx}]: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn fig3a_weight_counts() {
        // The five FC layers of the paper, parameter counts exactly as
        // listed in Fig. 3(a).
        let expect = [
            (9216usize, 4096usize, 37_752_832u64),
            (4096, 2048, 8_390_656),
            (2048, 2048, 4_196_352),
            (2048, 1024, 2_098_176),
            (1024, 5, 5_125),
        ];
        for (i, o, n) in expect {
            assert_eq!(Linear::new("f", i, o, 0).param_count(), n);
        }
    }
}
