//! The layer abstraction.

use crate::error::NnError;
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// A learnable parameter with its gradient accumulator and (lazily
/// allocated) momentum state.
///
/// Gradients **accumulate** across `backward` calls — exactly the paper's
/// batching scheme, where the global buffer stores "the sum of weight and
/// bias gradients" over N serial images before one update (§III-D).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTensor {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (sum over the batch so far).
    pub grad: Tensor,
    /// SGD momentum buffer (allocated by the optimiser on first use).
    pub velocity: Option<Tensor>,
}

impl ParamTensor {
    /// Wraps a value with a zeroed gradient accumulator.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self {
            value,
            grad,
            velocity: None,
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A differentiable network layer with a **batch-first** contract.
///
/// The primary interface is batched and stateless:
///
/// * [`Layer::forward_batch`] consumes a `[N, ...]` input and writes the
///   activation — plus everything its backward pass will need — into a
///   caller-owned [`LayerWs`] slot. The layer itself stores nothing
///   (`&self`), so one layer can serve many concurrent workspaces.
/// * [`Layer::backward_batch`] consumes the gradient w.r.t. the batched
///   output, **adds** parameter gradient *sums over the batch* into the
///   accumulators (the paper's §III-D semantics), and writes the
///   gradient w.r.t. the input into the slot. Calling it without a
///   matching `forward_batch` is reported as
///   [`NnError::BackwardBeforeForward`] instead of a panic.
///   [`Layer::backward_batch_params`] is the same pass minus the input
///   gradient, for the layer where backpropagation stops.
///
/// The legacy single-image [`Layer::forward`]/[`Layer::backward`] survive
/// as default-implemented batch-of-1 wrappers over a layer-owned scratch
/// slot ([`Layer::scratch_mut`]) — the figure binaries and the systolic
/// cycle-model cross-checks keep their `[C,H,W]`-in/`[C,H,W]`-out shape
/// conventions and panicking contract.
///
/// Layers are `Send + Sync`: `forward_batch` takes `&self` with all
/// mutable state in the caller's workspace, so one layer (and one
/// [`crate::Network`]) can be read by several [`crate::pool`] workers at
/// once — e.g. an agent running its online and target forwards
/// concurrently, each against its own workspace.
///
/// **Bit-identity contract:** with gradient accumulators starting from
/// zero (the batch boundary), a single `forward_batch`/`backward_batch`
/// over `N` samples produces bit-for-bit the same activations and
/// accumulated gradients as `N` serial single-image passes.
/// Implementations guarantee this by reducing each
/// output element — and each *per-sample* gradient contribution — in the
/// same ascending contraction order as the serial path, and by adding
/// per-sample contributions in ascending sample order (see
/// `docs/batching.md`).
pub trait Layer: Send + Sync {
    /// Stable layer name (`"CONV1"`, `"FC3"`, …).
    fn name(&self) -> &str;

    /// Batched forward: `x` is `[N, ...]`; writes the activation to
    /// `ws.out` and caches backward state in `ws`.
    ///
    /// # Panics
    ///
    /// Implementations panic on input-shape mismatches (programming
    /// errors, same policy as the legacy contract).
    fn forward_batch(&self, x: &Tensor, ws: &mut LayerWs);

    /// Batched backward: reads the state `forward_batch` left in `ws`,
    /// accumulates parameter gradients, writes the input gradient to
    /// `ws.grad_in`.
    ///
    /// # Errors
    ///
    /// [`NnError::BackwardBeforeForward`] if `ws` holds no matching
    /// forward state.
    ///
    /// # Panics
    ///
    /// Implementations panic if the gradient shape does not match the
    /// cached output shape.
    fn backward_batch(&mut self, grad_output: &Tensor, ws: &mut LayerWs) -> Result<(), NnError>;

    /// [`Layer::backward_batch`] for a layer whose input gradient nobody
    /// reads — the earliest trainable layer of a [`crate::Network`],
    /// where backpropagation stops. Accumulates the same parameter
    /// gradients, bit for bit, but may leave `ws.grad_in` unwritten.
    ///
    /// The default just runs [`Layer::backward_batch`]; [`crate::Conv2d`]
    /// and [`crate::Linear`] override it to skip their `dX` products.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward_batch`].
    fn backward_batch_params(
        &mut self,
        grad_output: &Tensor,
        ws: &mut LayerWs,
    ) -> Result<(), NnError> {
        self.backward_batch(grad_output, ws)
    }

    /// The layer-owned batch-of-1 scratch slot backing the legacy
    /// [`Layer::forward`]/[`Layer::backward`] wrappers.
    fn scratch_mut(&mut self) -> &mut LayerWs;

    /// Single-image forward (`[C,H,W]`/`[F]` in and out): a batch-of-1
    /// wrapper over [`Layer::forward_batch`].
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let x = input.clone().unsqueezed0();
        let mut ws = core::mem::take(self.scratch_mut());
        self.forward_batch(&x, &mut ws);
        let out = ws
            .out
            .clone()
            .expect("forward_batch must write ws.out")
            .squeezed0();
        *self.scratch_mut() = ws;
        out
    }

    /// Single-image backward: a batch-of-1 wrapper over
    /// [`Layer::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` (with the underlying
    /// [`NnError::BackwardBeforeForward`] message) or on a gradient shape
    /// mismatch.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g = grad_output.clone().unsqueezed0();
        let mut ws = core::mem::take(self.scratch_mut());
        let result = self.backward_batch(&g, &mut ws);
        let grad_in = ws.grad_in.clone();
        *self.scratch_mut() = ws;
        match result {
            Ok(()) => grad_in
                .expect("backward_batch must write ws.grad_in")
                .squeezed0(),
            Err(e) => panic!("{e}"),
        }
    }

    /// Learnable parameters (empty for ReLU/pool layers).
    fn params(&self) -> Vec<&ParamTensor> {
        Vec::new()
    }

    /// Mutable learnable parameters.
    fn params_mut(&mut self) -> Vec<&mut ParamTensor> {
        Vec::new()
    }

    /// Total scalar parameter count (weights + biases).
    fn param_count(&self) -> u64 {
        self.params().iter().map(|p| p.len() as u64).sum()
    }

    /// Output shape for a given input shape (used by spec validation).
    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tensor_grad_starts_zero() {
        let p = ParamTensor::new(Tensor::filled(&[4], 2.0));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.len(), 4);
        assert!(p.velocity.is_none());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = ParamTensor::new(Tensor::filled(&[4], 2.0));
        p.grad.data_mut()[0] = 3.0;
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
