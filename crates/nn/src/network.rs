//! The network container: layer stack, freezing, the batched forward and
//! backward passes, and SGD.

use crate::error::NnError;
use crate::layer::Layer;
use crate::sgd::Sgd;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A feed-forward stack of layers with per-layer freezing.
///
/// Freezing implements the paper's partial-training topologies: with only
/// the FC tail trainable, [`Network::backward_batch`] truncates
/// backpropagation at the earliest trainable layer — precisely the
/// compute the platform saves (Fig. 3(b) shows backprop stopping at
/// FC4/FC3/FC2 for the L2/L3/L4 configurations).
///
/// The network holds only layers and their parameters; every pass runs
/// on `[N, ...]` tensors against a caller-owned [`Workspace`]. One image
/// is a batch of one.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{NetworkSpec, Tensor};
///
/// let mut net = NetworkSpec::micro(16, 1, 5).build(7);
/// net.set_trainable_tail(2); // the "L2" topology
/// let mut ws = net.workspace();
/// let q = net.forward_batch(&Tensor::zeros(&[1, 1, 16, 16]), &mut ws).clone();
/// net.backward_batch(&Tensor::filled(q.shape(), 1.0), &mut ws).unwrap();
/// assert!(net.trainable_param_count() < net.param_count());
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    trainable: Vec<bool>,
}

impl Network {
    /// Builds a network from layers; everything trainable by default.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        let trainable = vec![true; layers.len()];
        Self { layers, trainable }
    }

    /// Number of layers (including activation/pool layers).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in forward order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Names of layers that own parameters, in forward order.
    pub fn param_layer_names(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| l.param_count() > 0)
            .map(|l| l.name())
            .collect()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Parameter count of one named layer (0 if absent or param-free).
    pub fn layer_param_count(&self, name: &str) -> u64 {
        self.layers
            .iter()
            .find(|l| l.name() == name)
            .map_or(0, |l| l.param_count())
    }

    /// Parameters currently trainable.
    pub fn trainable_param_count(&self) -> u64 {
        self.layers
            .iter()
            .zip(&self.trainable)
            .filter(|(_, &t)| t)
            .map(|(l, _)| l.param_count())
            .sum()
    }

    /// Fraction of parameters trainable (the paper's 4 %/11 %/26 % axis).
    pub fn trainable_fraction(&self) -> f64 {
        self.trainable_param_count() as f64 / self.param_count().max(1) as f64
    }

    /// Marks every layer trainable (the E2E topology).
    pub fn set_all_trainable(&mut self) {
        self.trainable.iter_mut().for_each(|t| *t = true);
    }

    /// Makes exactly the last `k` *parameterised* layers trainable
    /// (activation/pool layers in between are unaffected carriers).
    ///
    /// `set_trainable_tail(2)` is the paper's L2, `3` L3, `4` L4.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the number of parameterised layers.
    pub fn set_trainable_tail(&mut self, k: usize) {
        let param_idx: Vec<usize> = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.param_count() > 0)
            .map(|(i, _)| i)
            .collect();
        assert!(
            k <= param_idx.len(),
            "cannot train last {k} of {} parameterised layers",
            param_idx.len()
        );
        let cutoff = if k == 0 {
            self.layers.len()
        } else {
            param_idx[param_idx.len() - k]
        };
        for (i, t) in self.trainable.iter_mut().enumerate() {
            *t = i >= cutoff;
        }
    }

    /// Sets trainability of one named layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] if no layer has that name.
    pub fn set_layer_trainable(&mut self, name: &str, trainable: bool) -> Result<(), NnError> {
        for (l, t) in self.layers.iter().zip(self.trainable.iter_mut()) {
            if l.name() == name {
                *t = trainable;
                return Ok(());
            }
        }
        Err(NnError::UnknownLayer { name: name.into() })
    }

    /// Whether a named layer is currently trainable.
    pub fn is_layer_trainable(&self, name: &str) -> bool {
        self.layers
            .iter()
            .zip(&self.trainable)
            .any(|(l, &t)| l.name() == name && t)
    }

    /// A [`Workspace`] sized for this network (one slot per layer).
    pub fn workspace(&self) -> Workspace {
        Workspace::with_layers(self.layers.len())
    }

    /// Batched forward pass: `x` is `[N, ...]`; activations and backward
    /// state live in the caller-owned `ws`, which is reused across
    /// iterations (zero steady-state workspace allocations). Returns the
    /// final activation `[N, actions]`, borrowed from the workspace.
    ///
    /// Bit-identity: the result rows equal `N` batch-of-1 calls, bit for
    /// bit.
    pub fn forward_batch<'w>(&self, x: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        ws.ensure_layers(self.layers.len());
        let slots = ws.slots_mut();
        self.layers[0].forward_batch(x, &mut slots[0]);
        for i in 1..self.layers.len() {
            let (prev, rest) = slots.split_at_mut(i);
            let input = prev[i - 1].out.as_ref().expect("layer wrote its output");
            self.layers[i].forward_batch(input, &mut rest[0]);
        }
        slots[self.layers.len() - 1]
            .out
            .as_ref()
            .expect("last layer wrote its output")
    }

    /// Batched backward pass over the state `forward_batch` left in `ws`,
    /// truncated at the earliest trainable layer: a frozen prefix is
    /// skipped entirely, as on the platform, while frozen layers
    /// *between* trainable ones still propagate. Parameter gradients
    /// accumulate **batch sums** (§III-D) into the trainable layers,
    /// bit-identical — from zeroed accumulators — to `N` batch-of-1
    /// calls.
    ///
    /// The earliest trainable layer runs
    /// [`Layer::backward_batch_params`]: its input gradient has no
    /// reader, so it is not computed and that slot's `grad_in` is left
    /// as it was (unallocated on a fresh workspace). For the L4 tail
    /// this skips FC2's `dX = G·W`; end to end, CONV1's `dX` and col2im.
    ///
    /// # Errors
    ///
    /// [`NnError::BackwardBeforeForward`] if `ws` holds no matching
    /// forward state for a layer that must backpropagate.
    pub fn backward_batch(
        &mut self,
        grad_output: &Tensor,
        ws: &mut Workspace,
    ) -> Result<(), NnError> {
        ws.ensure_layers(self.layers.len());
        let stop = self
            .trainable
            .iter()
            .position(|&t| t)
            .unwrap_or(self.layers.len());
        let last = self.layers.len() - 1;
        let slots = ws.slots_mut();
        for i in (stop..self.layers.len()).rev() {
            let (cur, rest) = slots.split_at_mut(i + 1);
            let grad = if i == last {
                grad_output
            } else {
                rest[0].grad_in.as_ref().expect("later layer wrote grad_in")
            };
            if i == stop {
                // Backpropagation ends here: nothing reads this layer's
                // input gradient, so only its parameter gradients run.
                self.layers[i].backward_batch_params(grad, &mut cur[i])?;
            } else {
                self.layers[i].backward_batch(grad, &mut cur[i])?;
            }
            if !self.trainable[i] {
                // Frozen pass-through layer: its params (if any) must not
                // accumulate. Clear whatever backward just added.
                for p in self.layers[i].params_mut() {
                    p.zero_grad();
                }
            }
        }
        Ok(())
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Applies one SGD update from gradients accumulated over `batch_size`
    /// images, then clears the accumulators.
    ///
    /// One element-wise pass: every trainable parameter takes its step
    /// and clears its accumulator as it reads it; frozen parameters only
    /// have theirs cleared. Where the pool's parallel rule allows a split
    /// ([`crate::pool`], `docs/threading.md`), the pass is cut into
    /// executor-sized chunks across the parameters — element-wise, so
    /// any cut gives the serial bits.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn apply_sgd(&mut self, sgd: &Sgd, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        let inv = 1.0 / batch_size as f32;
        let mut slices: Vec<SgdSlice> = Vec::new();
        for (layer, &trainable) in self.layers.iter_mut().zip(&self.trainable) {
            for p in layer.params_mut() {
                slices.push(if trainable {
                    let (value, grad, velocity) = sgd.parts(p);
                    SgdSlice {
                        value: Some(value),
                        grad,
                        velocity,
                    }
                } else {
                    SgdSlice {
                        value: None,
                        grad: p.grad.data_mut(),
                        velocity: None,
                    }
                });
            }
        }
        let total: usize = slices.iter().map(|s| s.grad.len()).sum();
        let parts = crate::pool::split_parts(total, total);
        if parts == 1 {
            for s in slices {
                s.run(sgd, inv);
            }
            return;
        }
        let chunk = total.div_ceil(parts);
        let mut tasks: Vec<crate::pool::Task> = Vec::new();
        for mut s in slices {
            while s.grad.len() > chunk {
                let (head, tail) = s.split_at(chunk);
                tasks.push(Box::new(move || head.run(sgd, inv)));
                s = tail;
            }
            tasks.push(Box::new(move || s.run(sgd, inv)));
        }
        crate::pool::current().run(tasks);
    }

    /// Copies all weights from another structurally-identical network (the
    /// transfer-learning download step).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the parameter structures
    /// differ.
    pub fn copy_weights_from(&mut self, source: &Network) -> Result<(), NnError> {
        let src: Vec<&Tensor> = source
            .layers
            .iter()
            .flat_map(|l| l.params().into_iter().map(|p| &p.value))
            .collect();
        let mut dst: Vec<&mut Tensor> = Vec::new();
        for l in &mut self.layers {
            for p in l.params_mut() {
                dst.push(&mut p.value);
            }
        }
        if src.len() != dst.len() {
            return Err(NnError::ShapeMismatch {
                context: format!("param tensor count {} vs {}", dst.len(), src.len()),
            });
        }
        for (d, s) in dst.iter_mut().zip(&src) {
            if d.shape() != s.shape() {
                return Err(NnError::ShapeMismatch {
                    context: format!("param shape {:?} vs {:?}", d.shape(), s.shape()),
                });
            }
            d.data_mut().copy_from_slice(s.data());
        }
        Ok(())
    }

    /// Iterates layers (read-only) for inspection/quantisation.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }

    pub(crate) fn layers_vec_mut(&mut self) -> &mut Vec<Box<dyn Layer>> {
        &mut self.layers
    }

    /// Gradient L2 norm over trainable parameters (diagnostics).
    pub fn grad_norm(&self) -> f32 {
        self.layers
            .iter()
            .zip(&self.trainable)
            .filter(|(_, &t)| t)
            .flat_map(|(l, _)| l.params())
            .map(|p| p.grad.norm_sq())
            .sum::<f32>()
            .sqrt()
    }
}

/// One parameter's share (or a chunk of it) of [`Network::apply_sgd`]'s
/// pass. `value` is `None` for a frozen parameter, whose accumulator is
/// only cleared.
struct SgdSlice<'a> {
    value: Option<&'a mut [f32]>,
    grad: &'a mut [f32],
    velocity: Option<&'a mut [f32]>,
}

impl<'a> SgdSlice<'a> {
    /// Splits at element `mid` into two independent slices.
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (g0, g1) = self.grad.split_at_mut(mid);
        let (w0, w1) = self.value.map(|w| w.split_at_mut(mid)).unzip();
        let (v0, v1) = self.velocity.map(|v| v.split_at_mut(mid)).unzip();
        (
            Self {
                value: w0,
                grad: g0,
                velocity: v0,
            },
            Self {
                value: w1,
                grad: g1,
                velocity: v1,
            },
        )
    }

    /// The step (trainable) or the clear (frozen) over this slice.
    fn run(self, sgd: &Sgd, inv: f32) {
        match self.value {
            Some(value) => sgd.update(value, self.grad, self.velocity, inv, true),
            None => self.grad.fill(0.0),
        }
    }
}

impl core::fmt::Debug for Network {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Network({} layers, {} params, {} trainable)",
            self.layers.len(),
            self.param_count(),
            self.trainable_param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::NetworkSpec;

    fn micro() -> Network {
        NetworkSpec::micro(16, 1, 5).build(3)
    }

    /// One `[1, 16, 16]` image as a batch of one.
    fn image(v: f32) -> Tensor {
        Tensor::filled(&[1, 1, 16, 16], v)
    }

    /// A batch-of-1 forward, then a backward of all-ones `dL/dQ`.
    fn forward_backward_ones(net: &mut Network, x: &Tensor, ws: &mut Workspace) {
        let q = net.forward_batch(x, ws).clone();
        net.backward_batch(&Tensor::filled(q.shape(), 1.0), ws)
            .unwrap();
    }

    #[test]
    fn forward_shape() {
        let net = micro();
        let y = net.forward_batch(&image(0.0), &mut net.workspace()).clone();
        assert_eq!(y.shape(), &[1, 5]);
    }

    #[test]
    fn tail_freezing_counts() {
        let mut net = micro();
        let total = net.param_count();
        net.set_trainable_tail(2);
        let t2 = net.trainable_param_count();
        net.set_trainable_tail(4);
        let t4 = net.trainable_param_count();
        assert!(0 < t2 && t2 < t4 && t4 < total);
        net.set_all_trainable();
        assert_eq!(net.trainable_param_count(), total);
    }

    #[test]
    fn tail_zero_freezes_everything() {
        let mut net = micro();
        net.set_trainable_tail(0);
        assert_eq!(net.trainable_param_count(), 0);
    }

    #[test]
    fn frozen_layers_receive_no_updates() {
        let mut net = micro();
        net.set_trainable_tail(1);
        let before: Vec<f32> = net
            .layers()
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.value.data().to_vec()))
            .collect();
        let mut ws = net.workspace();
        forward_backward_ones(&mut net, &image(0.5), &mut ws);
        net.apply_sgd(&Sgd::new(0.1), 1);
        let after: Vec<f32> = net
            .layers()
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.value.data().to_vec()))
            .collect();
        // Last FC layer params changed; everything before is bit-identical.
        let last_fc = net.layer_param_count("FC5") as usize;
        let frozen = before.len() - last_fc;
        assert_eq!(&before[..frozen], &after[..frozen]);
        assert_ne!(&before[frozen..], &after[frozen..]);
    }

    #[test]
    fn training_reduces_simple_regression_loss() {
        // Sanity: SGD on the full net fits a constant target.
        let mut net = micro();
        let sgd = Sgd::new(0.01);
        let mut ws = net.workspace();
        let x = image(0.3);
        let target = 1.5f32;
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let y = net.forward_batch(&x, &mut ws);
            let mut grad = Tensor::zeros(y.shape());
            let err = y.data()[0] - target;
            grad.data_mut()[0] = 2.0 * err;
            last_loss = err * err;
            first_loss.get_or_insert(last_loss);
            net.backward_batch(&grad, &mut ws).unwrap();
            net.apply_sgd(&sgd, 1);
        }
        assert!(
            last_loss < 0.05 * first_loss.unwrap(),
            "loss {last_loss} vs initial {}",
            first_loss.unwrap()
        );
    }

    #[test]
    fn batch_gradient_is_sum_of_per_image_gradients() {
        // The platform accumulates per-image gradient sums in the global
        // buffer (§III-D); verify the software semantics match: backward
        // twice then one update == the sum of the two gradients.
        let xs = [image(0.2), image(0.7)];
        let grad_after = |inputs: &[Tensor]| -> Vec<f32> {
            let mut net = NetworkSpec::micro(16, 1, 5).build(13);
            let mut ws = net.workspace();
            for x in inputs {
                forward_backward_ones(&mut net, x, &mut ws);
            }
            net.layers()
                .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
                .collect()
        };
        let both = grad_after(&xs);
        let first = grad_after(&xs[..1]);
        let second = grad_after(&xs[1..]);
        for ((b, f), s) in both.iter().zip(&first).zip(&second) {
            assert!(
                (b - (f + s)).abs() < 1e-4 * (1.0 + (f + s).abs()),
                "{b} vs {}",
                f + s
            );
        }
    }

    #[test]
    fn apply_sgd_clears_accumulators() {
        let mut net = NetworkSpec::micro(16, 1, 5).build(14);
        let mut ws = net.workspace();
        forward_backward_ones(&mut net, &image(0.5), &mut ws);
        assert!(net.grad_norm() > 0.0);
        net.apply_sgd(&Sgd::new(0.01), 1);
        assert_eq!(net.grad_norm(), 0.0);
    }

    #[test]
    fn copy_weights_roundtrip() {
        let mut a = micro();
        let b = NetworkSpec::micro(16, 1, 5).build(99);
        let x = image(0.7);
        let mut ws = a.workspace();
        let ya_before = a.forward_batch(&x, &mut ws).clone();
        a.copy_weights_from(&b).unwrap();
        let ya_after = a.forward_batch(&x, &mut ws).clone();
        assert_ne!(ya_before.data(), ya_after.data());
        let b2 = NetworkSpec::micro(16, 1, 5).build(99);
        assert_eq!(ya_after.data(), b2.forward_batch(&x, &mut ws).data());
    }

    #[test]
    fn copy_weights_shape_mismatch_errors() {
        let mut a = micro();
        let b = NetworkSpec::micro(16, 1, 4).build(0); // 4 actions ≠ 5
        assert!(matches!(
            a.copy_weights_from(&b),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_layer_errors() {
        let mut net = micro();
        assert!(net.set_layer_trainable("NOPE", true).is_err());
        assert!(net.set_layer_trainable("FC5", false).is_ok());
        assert!(!net.is_layer_trainable("FC5"));
    }

    #[test]
    fn grad_norm_positive_after_backward() {
        let mut net = micro();
        let mut ws = net.workspace();
        let y = net.forward_batch(&image(0.2), &mut ws).clone();
        assert_eq!(net.grad_norm(), 0.0);
        net.backward_batch(&Tensor::filled(y.shape(), 1.0), &mut ws)
            .unwrap();
        assert!(net.grad_norm() > 0.0);
    }
}
