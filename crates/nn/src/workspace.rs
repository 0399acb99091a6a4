//! Caller-owned scratch state for the batched layer contract.
//!
//! The batched API ([`crate::Layer::forward_batch`] /
//! [`crate::Layer::backward_batch`]) makes layers stateless: everything a
//! backward pass needs — cached activations, pooling argmaxes, ReLU
//! masks, LRN denominators — plus every im2col/GEMM scratch matrix lives
//! in a [`Workspace`] the *caller* owns, one [`LayerWs`] slot per layer.
//!
//! Ownership model (see `docs/batching.md`):
//!
//! * A workspace belongs to exactly one (network, purpose) pair — e.g.
//!   the online net's training passes, or the target net's TD-target
//!   forwards. Sharing one workspace across two networks is safe but
//!   defeats buffer reuse (shapes keep changing).
//! * Buffers are allocated on first use and **reused** across
//!   iterations: in the steady state (same network, same batch size) a
//!   forward/backward pair performs no workspace allocations —
//!   [`Workspace::footprint`] is stable and the cached tensors keep
//!   their addresses. (The GEMM kernels' internal packing panels are
//!   their own per-call temporaries, outside the workspace.)
//! * Dropping the workspace frees all scratch at once; the network
//!   itself holds only parameters.

use crate::tensor::Tensor;

/// Per-layer scratch slot: cached forward state plus reusable buffers.
///
/// Fields are public so that downstream [`crate::Layer`] implementations
/// can use the same storage; the built-in layers use them as follows
/// (unused fields stay empty and cost nothing):
///
/// | field | Conv2d | Linear | MaxPool2d | Lrn | Relu | Flatten |
/// |---|---|---|---|---|---|---|
/// | `out` | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | `grad_in` | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | `input` | cached x | cached x | — | cached x | — | — |
/// | `denom` | — | — | — | LRN denominators | — | — |
/// | `mask` | — | — | — | — | pass mask | — |
/// | `argmax` | — | — | argmax indices | — | — | — |
/// | `in_shape` | — | — | input shape | — | — | input shape |
/// | `im2col` | one sample's patches (backward) | — | — | — | — | — |
/// | `gemm_a` | packed GEMM operand | transposed x | — | — | — | — |
/// | `gemm_c` | GEMM output | GEMM output | — | — | — | — |
/// | `acc` | one sample's `dW` | batch `dW` | — | — | — | — |
///
/// A forward that fans out over the pool writes disjoint slabs or
/// bands of these same buffers, so the footprint does not depend on the
/// pool size (`docs/threading.md`).
#[derive(Debug, Clone, Default)]
pub struct LayerWs {
    /// The layer's batched activation `[N, ...]` from the last
    /// `forward_batch` (the value the next layer consumes).
    pub out: Option<Tensor>,
    /// Gradient w.r.t. the layer input, written by `backward_batch`.
    pub grad_in: Option<Tensor>,
    /// Cached batched input (layers that need `x` in backward).
    pub input: Option<Tensor>,
    /// LRN: cached normalisation denominators.
    pub denom: Option<Tensor>,
    /// ReLU: which elements passed (`x > 0`).
    pub mask: Vec<bool>,
    /// MaxPool: flat input index of each output's argmax.
    pub argmax: Vec<usize>,
    /// Input shape record for shape-restoring backward passes.
    pub in_shape: Vec<usize>,
    /// Conv: per-sample im2col patch matrix `[positions × taps]`.
    pub im2col: Vec<f32>,
    /// First GEMM operand scratch (batched/transposed matrices).
    pub gemm_a: Vec<f32>,
    /// GEMM output scratch.
    pub gemm_c: Vec<f32>,
    /// Reduction scratch (e.g. one sample's `dW`, added into the
    /// parameter's accumulator in ascending sample order).
    pub acc: Vec<f32>,
    /// Batch size `N` seen by the last `forward_batch` (0 = none yet —
    /// the marker `backward_batch` checks to reject ordering violations).
    pub batch: usize,
}

impl LayerWs {
    /// Fresh, empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points `slot` at a tensor of exactly `shape`, reusing the existing
    /// allocation when the volume matches (contents are then stale — the
    /// caller overwrites every element) and reallocating zeros otherwise.
    pub fn reuse<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut Tensor {
        let volume: usize = shape.iter().product();
        match slot {
            Some(t) if t.len() == volume => t.reshape_in_place(shape),
            _ => *slot = Some(Tensor::zeros(shape)),
        }
        slot.as_mut().expect("slot was just filled")
    }

    /// Like [`LayerWs::reuse`] but zero-filled — for buffers the layer
    /// *accumulates* into (e.g. scatter-style input gradients).
    pub fn reuse_zeroed<'a>(slot: &'a mut Option<Tensor>, shape: &[usize]) -> &'a mut Tensor {
        let t = Self::reuse(slot, shape);
        t.fill_zero();
        t
    }

    /// Resizes `buf` to exactly `len` elements, reusing capacity
    /// (contents are stale; callers overwrite).
    pub fn reuse_buf(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
        buf.resize(len, 0.0);
        &mut buf[..]
    }

    /// Drops cached forward state (keeps allocations). After this,
    /// `backward_batch` reports [`crate::NnError::BackwardBeforeForward`].
    pub fn invalidate(&mut self) {
        self.batch = 0;
    }

    /// Total buffer footprint in scalar elements (stability across
    /// iterations is the steady-state zero-allocation check).
    pub fn footprint(&self) -> usize {
        let t = |o: &Option<Tensor>| o.as_ref().map_or(0, Tensor::len);
        t(&self.out)
            + t(&self.grad_in)
            + t(&self.input)
            + t(&self.denom)
            + self.mask.capacity()
            + self.argmax.capacity()
            + self.in_shape.capacity()
            + self.im2col.capacity()
            + self.gemm_a.capacity()
            + self.gemm_c.capacity()
            + self.acc.capacity()
    }
}

/// Preallocated, reusable per-layer scratch for one network.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{NetworkSpec, Tensor, Workspace};
///
/// let spec = NetworkSpec::micro(16, 1, 5);
/// let net = spec.build(7);
/// let mut ws = Workspace::for_spec(&spec);
/// let x = Tensor::zeros(&[4, 1, 16, 16]); // a batch of 4 images
/// let q = net.forward_batch(&x, &mut ws);
/// assert_eq!(q.shape(), &[4, 5]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    slots: Vec<LayerWs>,
}

impl Workspace {
    /// Empty workspace; slots appear on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace with one slot per layer, ready for a network of
    /// `layers` layers.
    pub fn with_layers(layers: usize) -> Self {
        Self {
            slots: (0..layers).map(|_| LayerWs::new()).collect(),
        }
    }

    /// Workspace keyed to a [`crate::NetworkSpec`]: one slot per
    /// spec layer. (Buffers themselves are sized lazily on the first
    /// batch, since they depend on the batch size.)
    pub fn for_spec(spec: &crate::spec::NetworkSpec) -> Self {
        Self::with_layers(spec.layers.len())
    }

    /// Number of layer slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Grows the slot vector to at least `layers` entries (never
    /// shrinks — a larger sibling network may share the workspace).
    pub fn ensure_layers(&mut self, layers: usize) {
        if self.slots.len() < layers {
            self.slots.resize_with(layers, LayerWs::new);
        }
    }

    /// The slot for layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (call [`Workspace::ensure_layers`]).
    pub fn slot_mut(&mut self, i: usize) -> &mut LayerWs {
        &mut self.slots[i]
    }

    /// All slots, mutably (the network driver splits borrows across
    /// neighbouring layers).
    pub fn slots_mut(&mut self) -> &mut [LayerWs] {
        &mut self.slots
    }

    /// Drops every slot's cached forward state (keeps allocations).
    pub fn invalidate(&mut self) {
        for s in &mut self.slots {
            s.invalidate();
        }
    }

    /// Total buffer footprint in scalar elements across all slots.
    pub fn footprint(&self) -> usize {
        self.slots.iter().map(LayerWs::footprint).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_keeps_allocation_on_equal_volume() {
        let mut slot = Some(Tensor::zeros(&[2, 3]));
        let ptr = slot.as_ref().unwrap().data().as_ptr();
        let t = LayerWs::reuse(&mut slot, &[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(slot.as_ref().unwrap().data().as_ptr(), ptr);
        let t = LayerWs::reuse(&mut slot, &[4, 4]);
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn reuse_zeroed_clears_stale_contents() {
        let mut slot = Some(Tensor::filled(&[4], 7.0));
        let t = LayerWs::reuse_zeroed(&mut slot, &[4]);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn workspace_grows_but_never_shrinks() {
        let mut ws = Workspace::with_layers(2);
        ws.ensure_layers(5);
        assert_eq!(ws.num_slots(), 5);
        ws.ensure_layers(1);
        assert_eq!(ws.num_slots(), 5);
    }

    #[test]
    fn invalidate_resets_batch_marker_only() {
        let mut ws = Workspace::with_layers(1);
        ws.slot_mut(0).batch = 3;
        ws.slot_mut(0).im2col = vec![1.0; 8];
        ws.invalidate();
        assert_eq!(ws.slot_mut(0).batch, 0);
        assert_eq!(ws.slot_mut(0).im2col.len(), 8);
        assert!(ws.footprint() >= 8);
    }
}
