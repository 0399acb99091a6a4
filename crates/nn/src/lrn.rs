//! Local response normalisation (the AlexNet "norm" layer).

use crate::error::NnError;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// Cross-channel local response normalisation:
///
/// `b[c] = a[c] / (k + α/n · Σ_{c'∈window(c)} a[c']²)^β`
///
/// with AlexNet's constants (n = 5, α = 1e−4, β = 0.75, k = 2) by default.
/// The paper's Fig. 3(a) places "norm" after CONV1 and CONV2.
///
/// Stateless: the cached input and denominators for backward live in the
/// caller's [`LayerWs`]. Samples are independent, so the batched pass is
/// the serial passes back to back, bit for bit. Backward without a
/// forward is reported as [`NnError::BackwardBeforeForward`] — the bare
/// `Option::unwrap` panic of the pre-workspace implementation is gone.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Layer, LayerWs, Lrn, Tensor};
///
/// let lrn = Lrn::alexnet("norm1");
/// let mut ws = LayerWs::new();
/// lrn.forward_batch(&Tensor::filled(&[1, 8, 4, 4], 1.0), &mut ws);
/// // Normalisation shrinks activations slightly.
/// assert!(ws.out.unwrap().data().iter().all(|&v| v < 1.0 && v > 0.5));
/// ```
#[derive(Debug)]
pub struct Lrn {
    name: String,
    n: usize,
    alpha: f32,
    beta: f32,
    k: f32,
}

impl Lrn {
    /// Creates an LRN layer with explicit constants.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(name: impl Into<String>, n: usize, alpha: f32, beta: f32, k: f32) -> Self {
        assert!(n > 0, "lrn window must be positive");
        Self {
            name: name.into(),
            n,
            alpha,
            beta,
            k,
        }
    }

    /// AlexNet's constants: n=5, α=1e−4, β=0.75, k=2.
    pub fn alexnet(name: impl Into<String>) -> Self {
        Self::new(name, 5, 1e-4, 0.75, 2.0)
    }

    fn window(&self, c: usize, channels: usize) -> (usize, usize) {
        let half = self.n / 2;
        let lo = c.saturating_sub(half);
        let hi = (c + half).min(channels - 1);
        (lo, hi)
    }

    /// One sample's forward: writes `out` and `denom` (slices of the
    /// batched buffers), identical math to the pre-batch implementation.
    #[allow(clippy::too_many_arguments)]
    fn forward_sample(
        &self,
        x: &[f32],
        out: &mut [f32],
        denom: &mut [f32],
        c: usize,
        h: usize,
        w: usize,
    ) {
        let scale = self.alpha / self.n as f32;
        for y in 0..h {
            for xx in 0..w {
                for ci in 0..c {
                    let (lo, hi) = self.window(ci, c);
                    let mut ssq = 0.0;
                    for cj in lo..=hi {
                        let v = x[(cj * h + y) * w + xx];
                        ssq += v * v;
                    }
                    let d = self.k + scale * ssq;
                    let idx = (ci * h + y) * w + xx;
                    denom[idx] = d;
                    out[idx] = x[idx] / d.powf(self.beta);
                }
            }
        }
    }

    /// One sample's backward: direct term plus cross terms from every
    /// output whose window contains the input channel.
    #[allow(clippy::too_many_arguments)]
    fn backward_sample(
        &self,
        x: &[f32],
        denom: &[f32],
        go: &[f32],
        gi: &mut [f32],
        c: usize,
        h: usize,
        w: usize,
    ) {
        let scale = self.alpha / self.n as f32;
        for y in 0..h {
            for xx in 0..w {
                for ci in 0..c {
                    let at = |cc: usize| (cc * h + y) * w + xx;
                    // Direct term.
                    let d_ci = denom[at(ci)];
                    let mut g = go[at(ci)] / d_ci.powf(self.beta);
                    // Cross terms: every output j whose window contains ci.
                    let (lo, hi) = self.window(ci, c);
                    for cj in lo..=hi {
                        let d_cj = denom[at(cj)];
                        let a_cj = x[at(cj)];
                        let go_cj = go[at(cj)];
                        g -= go_cj
                            * 2.0
                            * scale
                            * self.beta
                            * a_cj
                            * x[at(ci)]
                            * d_cj.powf(-self.beta - 1.0);
                    }
                    gi[at(ci)] = g;
                }
            }
        }
    }
}

impl Layer for Lrn {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        assert_eq!(x.shape().len(), 4, "lrn expects [N,C,H,W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        ws.batch = n;
        LayerWs::reuse(&mut ws.input, x.shape()).copy_from(x);
        let plane = c * h * w;
        {
            // Split the two output borrows across disjoint fields.
            let LayerWs { out, denom, .. } = ws;
            let out = LayerWs::reuse(out, x.shape());
            let denom = LayerWs::reuse(denom, x.shape());
            for i in 0..n {
                self.forward_sample(
                    x.sample(i),
                    &mut out.data_mut()[i * plane..(i + 1) * plane],
                    &mut denom.data_mut()[i * plane..(i + 1) * plane],
                    c,
                    h,
                    w,
                );
            }
        }
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let input = ws.input.as_ref().expect("forward cached the input");
        assert_eq!(
            grad_output.shape(),
            input.shape(),
            "lrn grad shape mismatch"
        );
        let (n, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let plane = c * h * w;
        let denom = ws.denom.as_ref().expect("forward cached the denominators");
        let grad_in = LayerWs::reuse(&mut ws.grad_in, input.shape());
        for i in 0..n {
            self.backward_sample(
                input.sample(i),
                denom.sample(i),
                grad_output.sample(i),
                &mut grad_in.data_mut()[i * plane..(i + 1) * plane],
                c,
                h,
                w,
            );
        }
        Ok(())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        input_shape.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng_from_seed, WeightInit};
    use crate::layer::tests::{backward1, forward1};

    #[test]
    fn zero_input_passes_through() {
        let lrn = Lrn::alexnet("n");
        let y = forward1(&lrn, &Tensor::zeros(&[4, 2, 2]), &mut LayerWs::new());
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn normalisation_shrinks_large_activations_more() {
        let lrn = Lrn::new("n", 3, 0.5, 0.75, 2.0);
        let mut x = Tensor::zeros(&[3, 1, 1]);
        *x.at3_mut(0, 0, 0) = 1.0;
        *x.at3_mut(1, 0, 0) = 10.0;
        *x.at3_mut(2, 0, 0) = 5.0;
        let y = forward1(&lrn, &x, &mut LayerWs::new());
        // Channel 1's window sees channel 2's energy too; channel 0's does
        // not extend past the edge — so channel 1 is normalised harder.
        let shrink0 = y.at3(0, 0, 0) / 1.0;
        let shrink1 = y.at3(1, 0, 0) / 10.0;
        assert!(shrink1 < shrink0, "{shrink1} vs {shrink0}");
    }

    #[test]
    fn window_clamps_at_edges() {
        let lrn = Lrn::alexnet("n");
        assert_eq!(lrn.window(0, 8), (0, 2));
        assert_eq!(lrn.window(7, 8), (5, 7));
        assert_eq!(lrn.window(4, 8), (2, 6));
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut lrn = Lrn::alexnet("n");
        let mut ws = LayerWs::new();
        let err = lrn.backward_batch(&Tensor::zeros(&[1, 2, 2, 2]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn numerical_gradient_check() {
        // Use exaggerated alpha so cross-terms are significant.
        let mut lrn = Lrn::new("n", 3, 0.3, 0.75, 2.0);
        let mut rng = rng_from_seed(17);
        let x = WeightInit::HeUniform.init(&[4, 2, 2], 2, 2, &mut rng);
        let mut ws = LayerWs::new();
        let y = forward1(&lrn, &x, &mut ws);
        let gvec: Vec<f32> = (0..y.len()).map(|i| 0.1 * (i as f32 + 1.0)).collect();
        let loss = |out: &Tensor| -> f32 { out.data().iter().zip(&gvec).map(|(o, g)| o * g).sum() };
        let _ = loss(&y);
        let grad_in = backward1(
            &mut lrn,
            &Tensor::from_vec(y.shape(), gvec.clone()),
            &mut ws,
        );

        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let p = loss(&forward1(&lrn, &xp, &mut ws));
            xp.data_mut()[idx] -= 2.0 * eps;
            let m = loss(&forward1(&lrn, &xp, &mut ws));
            let numeric = (p - m) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 3e-2 * analytic.abs().max(0.5),
                "x[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn no_params() {
        assert_eq!(Lrn::alexnet("n").param_count(), 0);
    }
}
