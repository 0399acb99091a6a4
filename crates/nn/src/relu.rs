//! Rectified linear activation.

use crate::error::NnError;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// Element-wise ReLU (`max(x, 0)`), the PE comparator op.
///
/// Stateless: the pass mask for backward lives in the caller's
/// [`LayerWs`]. Batching is trivial — the op is element-wise, so the
/// batched pass is the serial passes concatenated, bit for bit.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Layer, LayerWs, Relu, Tensor};
///
/// let relu = Relu::new("relu1");
/// let mut ws = LayerWs::new();
/// relu.forward_batch(&Tensor::from_vec(&[1, 3], vec![-1.0, 0.0, 2.0]), &mut ws);
/// assert_eq!(ws.out.unwrap().data(), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Default)]
pub struct Relu {
    name: String,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        ws.batch = x.shape()[0];
        ws.mask.clear();
        ws.mask.reserve(x.len());
        let out = LayerWs::reuse(&mut ws.out, x.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
            let pass = v > 0.0;
            *o = if pass { v } else { 0.0 };
            ws.mask.push(pass);
        }
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        assert_eq!(
            ws.mask.len(),
            grad_output.len(),
            "relu grad length mismatch"
        );
        let grad_in = LayerWs::reuse(&mut ws.grad_in, grad_output.shape());
        for ((gi, &go), &m) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(&ws.mask)
        {
            *gi = if m { go } else { 0.0 };
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
    use crate::layer::tests::{backward1, forward1};

    #[test]
    fn forward_clamps_negatives() {
        let r = Relu::new("r");
        let y = forward1(
            &r,
            &Tensor::from_vec(&[4], vec![-2.0, -0.0, 0.5, 3.0]),
            &mut LayerWs::new(),
        );
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new("r");
        let mut ws = LayerWs::new();
        let _ = forward1(
            &r,
            &Tensor::from_vec(&[4], vec![-2.0, 1.0, -1.0, 3.0]),
            &mut ws,
        );
        let g = backward1(&mut r, &Tensor::filled(&[4], 1.0), &mut ws);
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn gradient_at_zero_is_zero() {
        // Subgradient choice: f'(0) = 0 (strict inequality in forward).
        let mut r = Relu::new("r");
        let mut ws = LayerWs::new();
        let _ = forward1(&r, &Tensor::from_vec(&[1], vec![0.0]), &mut ws);
        let g = backward1(&mut r, &Tensor::filled(&[1], 5.0), &mut ws);
        assert_eq!(g.data(), &[0.0]);
    }

    #[test]
    fn batched_equals_serial() {
        let r = Relu::new("r");
        let x = Tensor::from_vec(&[2, 3], vec![-1.0, 2.0, 0.0, 4.0, -5.0, 6.0]);
        let mut ws = LayerWs::new();
        r.forward_batch(&x, &mut ws);
        let out = ws.out.as_ref().unwrap();
        assert_eq!(out.data(), &[0.0, 2.0, 0.0, 4.0, 0.0, 6.0]);
    }

    #[test]
    fn backward_before_forward_is_an_error() {
        let mut r = Relu::new("r");
        let mut ws = LayerWs::new();
        let err = r.backward_batch(&Tensor::zeros(&[1, 2]), &mut ws);
        assert!(matches!(err, Err(NnError::BackwardBeforeForward { .. })));
    }

    #[test]
    fn no_params() {
        let r = Relu::new("r");
        assert_eq!(r.param_count(), 0);
        assert_eq!(r.output_shape(&[3, 4, 4]), vec![3, 4, 4]);
    }
}
