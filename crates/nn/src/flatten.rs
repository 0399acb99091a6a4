//! Flatten layer (`[C,H,W] → [C·H·W]`, batched `[N,C,H,W] → [N, C·H·W]`).

use crate::error::NnError;
use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// Flattens the conv feature map into the FC input vector.
///
/// Stateless: the input shape needed to un-flatten the gradient lives in
/// the caller's [`LayerWs`]. The batch axis is preserved.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{Flatten, Layer, LayerWs, Tensor};
///
/// let f = Flatten::new("flatten");
/// let mut ws = LayerWs::new();
/// f.forward_batch(&Tensor::zeros(&[1, 256, 6, 6]), &mut ws);
/// assert_eq!(ws.out.unwrap().shape(), &[1, 9216]); // the paper's FC1 input width
/// ```
#[derive(Debug, Default)]
pub struct Flatten {
    name: String,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs) {
        let n = x.shape()[0];
        ws.batch = n;
        ws.in_shape.clear();
        ws.in_shape.extend_from_slice(x.shape());
        let features = x.len() / n;
        let out = LayerWs::reuse(&mut ws.out, &[n, features]);
        out.data_mut().copy_from_slice(x.data());
    }

    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError> {
        if ws.batch == 0 {
            return Err(NnError::BackwardBeforeForward {
                layer: self.name.clone(),
            });
        }
        let volume: usize = ws.in_shape.iter().product();
        assert_eq!(grad_output.len(), volume, "flatten grad length mismatch");
        let grad_in = LayerWs::reuse(&mut ws.grad_in, &ws.in_shape);
        grad_in.data_mut().copy_from_slice(grad_output.data());
        Ok(())
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        vec![input_shape.iter().product()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{backward1, forward1};

    #[test]
    fn roundtrip_preserves_data() {
        let mut f = Flatten::new("f");
        let mut ws = LayerWs::new();
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = forward1(&f, &x, &mut ws);
        assert_eq!(y.shape(), &[4]);
        let g = backward1(&mut f, &y, &mut ws);
        assert_eq!(g.shape(), &[2, 1, 2]);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn batched_keeps_batch_axis() {
        let f = Flatten::new("f");
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|v| v as f32).collect());
        let mut ws = LayerWs::new();
        f.forward_batch(&x, &mut ws);
        assert_eq!(ws.out.as_ref().unwrap().shape(), &[2, 4]);
    }

    #[test]
    fn output_shape() {
        assert_eq!(Flatten::new("f").output_shape(&[256, 6, 6]), vec![9216]);
    }
}
