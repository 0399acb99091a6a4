//! Stochastic gradient descent with momentum and gradient clipping.

use crate::layer::ParamTensor;
use crate::tensor::Tensor;

/// SGD configuration: `v ← µ·v + g/N;  w ← w − lr·v`.
///
/// Gradient accumulators hold batch *sums* (the platform's scheme), so the
/// step divides by the batch size.
///
/// # Examples
///
/// ```
/// use mramrl_nn::Sgd;
///
/// let sgd = Sgd::new(0.01).with_momentum(0.9).with_grad_clip(5.0);
/// assert_eq!(sgd.learning_rate(), 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    grad_clip: Option<f32>,
}

impl Sgd {
    /// Creates plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            grad_clip: None,
        }
    }

    /// Adds momentum `µ ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `µ` is outside `[0, 1)`.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Clips each per-example gradient element to `±clip`.
    ///
    /// # Panics
    ///
    /// Panics if `clip` is not positive.
    #[must_use]
    pub fn with_grad_clip(mut self, clip: f32) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        self.grad_clip = Some(clip);
        self
    }

    /// The learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// The momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Applies one update to `param` from a gradient summed over
    /// `batch_size` examples, then leaves the accumulator untouched (the
    /// caller clears it — `Network::apply_sgd` does, in the same pass).
    pub fn step(&self, param: &mut ParamTensor, batch_size: usize) {
        let (value, grad, velocity) = self.parts(param);
        self.update(value, grad, velocity, 1.0 / batch_size as f32, false);
    }

    /// `param`'s value, gradient and — under momentum — velocity
    /// slices, allocating the velocity on first use.
    pub(crate) fn parts<'p>(
        &self,
        param: &'p mut ParamTensor,
    ) -> (&'p mut [f32], &'p mut [f32], Option<&'p mut [f32]>) {
        if self.momentum > 0.0 && param.velocity.is_none() {
            param.velocity = Some(Tensor::zeros(param.value.shape()));
        }
        let velocity = match &mut param.velocity {
            Some(vel) if self.momentum > 0.0 => Some(vel.data_mut()),
            _ => None,
        };
        (param.value.data_mut(), param.grad.data_mut(), velocity)
    }

    /// The element-wise update over one slice of a parameter (`inv` =
    /// 1 / batch size). Each element's arithmetic depends only on its
    /// own value, gradient and velocity, so any chunking of a parameter
    /// gives the same bits. With `clear`, each gradient element is
    /// zeroed as it is read.
    pub(crate) fn update(
        &self,
        value: &mut [f32],
        grad: &mut [f32],
        velocity: Option<&mut [f32]>,
        inv: f32,
        clear: bool,
    ) {
        let read = |g: &mut f32| {
            let mut g = if clear { core::mem::take(g) } else { *g } * inv;
            if let Some(c) = self.grad_clip {
                g = g.clamp(-c, c);
            }
            g
        };
        match velocity {
            Some(vel) => {
                for ((w, g), v) in value.iter_mut().zip(grad).zip(vel) {
                    *v = self.momentum * *v + read(g);
                    *w -= self.lr * *v;
                }
            }
            None => {
                for (w, g) in value.iter_mut().zip(grad) {
                    *w -= self.lr * read(g);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(vals: &[f32], grads: &[f32]) -> ParamTensor {
        let mut p = ParamTensor::new(Tensor::from_vec(&[vals.len()], vals.to_vec()));
        p.grad = Tensor::from_vec(&[grads.len()], grads.to_vec());
        p
    }

    #[test]
    fn vanilla_step() {
        let sgd = Sgd::new(0.5);
        let mut p = param(&[1.0, 2.0], &[2.0, -4.0]);
        sgd.step(&mut p, 1);
        assert_eq!(p.value.data(), &[0.0, 4.0]);
    }

    #[test]
    fn batch_sum_divided() {
        let sgd = Sgd::new(1.0);
        let mut p = param(&[0.0], &[8.0]); // sum over batch of 4
        sgd.step(&mut p, 4);
        assert_eq!(p.value.data(), &[-2.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let sgd = Sgd::new(1.0).with_momentum(0.5);
        let mut p = param(&[0.0], &[1.0]);
        sgd.step(&mut p, 1); // v=1, w=-1
        p.grad = Tensor::from_vec(&[1], vec![1.0]);
        sgd.step(&mut p, 1); // v=1.5, w=-2.5
        assert_eq!(p.value.data(), &[-2.5]);
        assert_eq!(p.velocity.as_ref().unwrap().data(), &[1.5]);
    }

    #[test]
    fn clipping_bounds_update() {
        let sgd = Sgd::new(1.0).with_grad_clip(0.5);
        let mut p = param(&[0.0, 0.0], &[100.0, -100.0]);
        sgd.step(&mut p, 1);
        assert_eq!(p.value.data(), &[-0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_panics() {
        let _ = Sgd::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0,1)")]
    fn bad_momentum_panics() {
        let _ = Sgd::new(0.1).with_momentum(1.0);
    }
}
