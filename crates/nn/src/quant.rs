//! 16-bit fixed-point inference engine mirroring the hardware datapath.
//!
//! The platform computes in 16-bit fixed point (Fig. 4(b)) with wide MAC
//! accumulators. [`QuantizedNet`] snapshots a trained [`Network`] into
//! Q8.8 weights and runs forward passes exactly as the PE array would:
//! products widen to 32 bits, accumulate, and re-quantise once per
//! output. LRN is evaluated in float — on silicon it is a small LUT +
//! shift unit, and its numeric error is negligible next to the Q8.8
//! weight rounding.
//!
//! The engine shares the float hot path's API shape (`docs/batching.md`,
//! `docs/fixed_point.md`):
//!
//! * quantised conv/FC layers are **one fused integer GEMM each**
//!   ([`crate::qgemm::matmul_bt_bias_requant_into`], the pair tile,
//!   bit-identical to its oracle), fed by Q8.8 im2col packing
//!   ([`crate::qgemm::qim2col_slice_into`]; FC batches need no packing
//!   at all under the `A·Bᵀ` contract);
//! * [`QuantizedNet::forward_batch`] / [`QuantizedNet::q_values_batch`]
//!   process `[N, ...]` batches against a caller-owned, reusable
//!   [`QWorkspace`] (zero steady-state allocations, mirroring
//!   [`crate::workspace::Workspace`]);
//! * [`QuantizedNet::forward`] takes one image (§V: the platform
//!   "serially process\[es\] one image at a time") as a batch of one
//!   through a throwaway workspace — a one-shot convenience;
//!   steady-state callers hold a [`QWorkspace`] and batch.
//!
//! Batched output row `i` is **bit-identical** to the serial forward of
//! sample `i` — the integer MAC chain per output
//! (bias seed, ascending contraction index, saturation per step, one
//! re-quantisation) never changes, only how many outputs are in
//! flight. Every pass runs on the calling thread, so the pool size
//! cannot change a bit either. `crates/nn/tests/quant_equivalence.rs` pins this.
//!
//! The tests also quantify the fidelity the paper's co-design relies on:
//! the fixed-point Q-values track the float network closely enough that
//! the greedy action (argmax) almost always agrees.

use mramrl_fixed::Q8_8;

use crate::error::NnError;
use crate::network::Network;
use crate::qgemm::{matmul_bt_bias_requant_into, qim2col_slice_into};
use crate::spec::{LayerSpec, NetworkSpec};
use crate::tensor::Tensor;
use crate::workspace::LayerWs;

/// A quantised layer snapshot.
#[derive(Debug, Clone)]
enum QLayer {
    Conv {
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
        weight: Vec<Q8_8>,
        bias: Vec<Q8_8>,
    },
    Fc {
        in_f: usize,
        out_f: usize,
        weight: Vec<Q8_8>,
        bias: Vec<Q8_8>,
    },
    Relu,
    MaxPool {
        k: usize,
        stride: usize,
    },
    Lrn,
    Flatten,
}

/// Per-layer scratch slot of the quantised engine: the layer's batched
/// Q8.8 activation plus reusable packing/GEMM buffers. Buffers are
/// allocated on first use and reused across iterations — in the steady
/// state a batched forward performs no workspace allocations.
#[derive(Debug, Clone, Default)]
pub struct QLayerWs {
    /// The layer's batched activation `[N × per-sample volume]` from the
    /// last `forward_batch` (the value the next layer consumes).
    pub out: Vec<Q8_8>,
    /// Conv: packed im2col `Bᵀ` operand — per-sample
    /// `[positions × taps]` slabs, concatenated (`[N·positions × taps]`
    /// fused). FC needs no packing: the activation batch `[N, in_f]`
    /// *is* the `Bᵀ` operand.
    pub cols: Vec<Q8_8>,
    /// Integer GEMM output scratch (layouts that need a reorder into
    /// `out`: conv `[out_c × N·positions]`, FC `[out_f × N]`).
    pub gemm_c: Vec<Q8_8>,
    /// LRN: per-sample float scratch (the LUT stand-in computes in f32).
    pub fbuf: Vec<f32>,
}

impl QLayerWs {
    /// Total buffer footprint in scalar elements (stability across
    /// iterations is the steady-state zero-allocation check).
    pub fn footprint(&self) -> usize {
        self.out.capacity() + self.cols.capacity() + self.gemm_c.capacity() + self.fbuf.capacity()
    }
}

/// Caller-owned, reusable scratch for [`QuantizedNet::forward_batch`] —
/// the fixed-point mirror of [`crate::workspace::Workspace`]. One
/// workspace belongs to one (snapshot, purpose) pair; dropping it frees
/// all scratch at once, and the snapshot itself holds only weights.
#[derive(Debug, Clone, Default)]
pub struct QWorkspace {
    /// Quantised input batch (the camera-DSP entry quantisation).
    qin: Vec<Q8_8>,
    /// Dequantised final activation (the action-decoder exit), returned
    /// by reference from `forward_batch`.
    out_f32: Option<Tensor>,
    slots: Vec<QLayerWs>,
}

impl QWorkspace {
    /// Empty workspace; buffers appear on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace with one slot per layer of `net`.
    pub fn for_net(net: &QuantizedNet) -> Self {
        Self {
            qin: Vec::new(),
            out_f32: None,
            slots: (0..net.layers.len()).map(|_| QLayerWs::default()).collect(),
        }
    }

    /// Grows the slot vector to at least `layers` entries.
    fn ensure_layers(&mut self, layers: usize) {
        if self.slots.len() < layers {
            self.slots.resize_with(layers, QLayerWs::default);
        }
    }

    /// Total buffer footprint in scalar elements across all buffers
    /// (constant in the steady state — the zero-allocation check).
    pub fn footprint(&self) -> usize {
        self.qin.capacity()
            + self.out_f32.as_ref().map_or(0, Tensor::len)
            + self.slots.iter().map(QLayerWs::footprint).sum::<usize>()
    }
}

/// Resizes `buf` to exactly `len` elements, reusing capacity (contents
/// are stale; the caller overwrites every element it reads).
fn reuse_qbuf(buf: &mut Vec<Q8_8>, len: usize) -> &mut [Q8_8] {
    buf.resize(len, Q8_8::ZERO);
    &mut buf[..]
}

/// A fixed-point snapshot of a network for batched inference.
///
/// # Examples
///
/// ```
/// use mramrl_nn::{NetworkSpec, Tensor};
/// use mramrl_nn::quant::{QWorkspace, QuantizedNet};
///
/// let spec = NetworkSpec::micro(16, 1, 5);
/// let net = spec.build(3);
/// let qnet = QuantizedNet::from_network(&spec, &net)?;
/// // Batched deployment-mode inference against a reusable workspace.
/// let mut ws = QWorkspace::for_net(&qnet);
/// let x = Tensor::filled(&[2, 1, 16, 16], 0.5);
/// let qy = qnet.q_values_batch(&x, &mut ws);
/// assert_eq!(qy.shape(), &[2, 5]);
/// // Fixed-point Q-values track the float network closely.
/// let y = net.forward_batch(&x, &mut net.workspace()).clone();
/// for (a, b) in qy.sample(0).iter().zip(y.sample(0)) {
///     assert!((a - b).abs() < 0.25);
/// }
/// # Ok::<(), mramrl_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedNet {
    spec: NetworkSpec,
    layers: Vec<QLayer>,
}

impl QuantizedNet {
    /// Snapshots `net` (built from `spec`) into Q8.8.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `net` was not built from
    /// `spec` (parameter structure differs).
    pub fn from_network(spec: &NetworkSpec, net: &Network) -> Result<Self, NnError> {
        let mut params: Vec<&Tensor> = Vec::new();
        for l in net.layers() {
            for p in l.params() {
                params.push(&p.value);
            }
        }
        let mut pi = 0usize;
        let mut take2 = |want_w: usize, want_b: usize| -> Result<(Vec<Q8_8>, Vec<Q8_8>), NnError> {
            if pi + 2 > params.len() {
                return Err(NnError::ShapeMismatch {
                    context: "network has fewer param tensors than spec".into(),
                });
            }
            let w = params[pi];
            let b = params[pi + 1];
            pi += 2;
            if w.len() != want_w || b.len() != want_b {
                return Err(NnError::ShapeMismatch {
                    context: format!(
                        "param sizes {}x{} vs spec {want_w}x{want_b}",
                        w.len(),
                        b.len()
                    ),
                });
            }
            Ok((
                w.data().iter().map(|&v| Q8_8::from_f32(v)).collect(),
                b.data().iter().map(|&v| Q8_8::from_f32(v)).collect(),
            ))
        };

        let mut layers = Vec::with_capacity(spec.layers.len());
        for l in &spec.layers {
            layers.push(match l {
                LayerSpec::Conv {
                    in_c,
                    out_c,
                    k,
                    stride,
                    pad,
                    ..
                } => {
                    let (weight, bias) = take2(in_c * out_c * k * k, *out_c)?;
                    QLayer::Conv {
                        in_c: *in_c,
                        out_c: *out_c,
                        k: *k,
                        stride: *stride,
                        pad: *pad,
                        weight,
                        bias,
                    }
                }
                LayerSpec::Fc { in_f, out_f, .. } => {
                    let (weight, bias) = take2(in_f * out_f, *out_f)?;
                    QLayer::Fc {
                        in_f: *in_f,
                        out_f: *out_f,
                        weight,
                        bias,
                    }
                }
                LayerSpec::Relu { .. } => QLayer::Relu,
                LayerSpec::MaxPool { k, stride, .. } => QLayer::MaxPool {
                    k: *k,
                    stride: *stride,
                },
                LayerSpec::Lrn { .. } => QLayer::Lrn,
                LayerSpec::Flatten { .. } => QLayer::Flatten,
            });
        }
        if pi != params.len() {
            return Err(NnError::ShapeMismatch {
                context: "network has more param tensors than spec".into(),
            });
        }
        Ok(Self {
            spec: spec.clone(),
            layers,
        })
    }

    /// The spec this snapshot was taken from (geometry for cost models).
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Batched fixed-point forward pass: `x` is `[N, ...]` float (the
    /// camera frames), quantised once on entry; the returned activation
    /// `[N, ...]` is dequantised on exit (the action decoder) and
    /// borrowed from `ws`, which is reused across calls (zero
    /// steady-state allocations).
    ///
    /// Row `i` is bit-identical to [`QuantizedNet::forward`] on sample
    /// `i`, at any pool size.
    pub fn forward_batch<'w>(&self, x: &Tensor, ws: &'w mut QWorkspace) -> &'w Tensor {
        assert!(
            x.shape().len() >= 2,
            "batched input needs [N, ...], got {:?}",
            x.shape()
        );
        let n = x.shape()[0];
        ws.ensure_layers(self.layers.len());
        let QWorkspace {
            qin,
            out_f32,
            slots,
        } = ws;

        // Entry quantisation, once for the whole batch.
        let qin = reuse_qbuf(qin, x.len());
        for (q, &v) in qin.iter_mut().zip(x.data()) {
            *q = Q8_8::from_f32(v);
        }

        let mut shape: Vec<usize> = x.shape()[1..].to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let (prev, rest) = slots.split_at_mut(li);
            let input: &[Q8_8] = if li == 0 { qin } else { &prev[li - 1].out };
            shape = self.forward_layer(layer, input, n, &shape, &mut rest[0]);
        }

        // Exit dequantisation into the reusable output tensor.
        let mut out_shape = Vec::with_capacity(shape.len() + 1);
        out_shape.push(n);
        out_shape.extend_from_slice(&shape);
        let out = LayerWs::reuse(out_f32, &out_shape);
        let last = &slots[self.layers.len() - 1].out;
        for (o, q) in out.data_mut().iter_mut().zip(last) {
            *o = q.to_f32();
        }
        out
    }

    /// Batched Q-values for deployment-mode acting: alias of
    /// [`QuantizedNet::forward_batch`] named for the RL call sites
    /// (mirrors `QAgent::q_values_batch`). Returns `[N, actions]`.
    pub fn q_values_batch<'w>(&self, obs: &Tensor, ws: &'w mut QWorkspace) -> &'w Tensor {
        self.forward_batch(obs, ws)
    }

    /// Runs a fixed-point forward pass on one image; input and output
    /// are float tensors (quantised on entry, dequantised on exit, like
    /// the camera DSP and action decoder would).
    ///
    /// A batch-of-1 convenience wrapper over
    /// [`QuantizedNet::forward_batch`] with a throwaway workspace —
    /// steady-state callers should hold a [`QWorkspace`] and batch.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut ws = QWorkspace::new();
        let batched = input.clone().unsqueezed0();
        self.forward_batch(&batched, &mut ws).clone().squeezed0()
    }

    /// One layer's batched forward: reads `input` (`n` samples of
    /// `shape`), writes `slot.out`, returns the per-sample output shape.
    fn forward_layer(
        &self,
        layer: &QLayer,
        input: &[Q8_8],
        n: usize,
        shape: &[usize],
        slot: &mut QLayerWs,
    ) -> Vec<usize> {
        match layer {
            QLayer::Conv {
                in_c,
                out_c,
                k,
                stride,
                pad,
                weight,
                bias,
            } => {
                let (in_h, in_w) = (shape[1], shape[2]);
                let out_h = (in_h + 2 * pad - k) / stride + 1;
                let out_w = (in_w + 2 * pad - k) / stride + 1;
                let positions = out_h * out_w;
                let taps = in_c * k * k;
                let in_plane = in_c * in_h * in_w;
                let out_plane = out_c * positions;
                let out = reuse_qbuf(&mut slot.out, n * out_plane);

                // The im2col Bᵀ operand: per-sample [positions × taps]
                // slabs, concatenated — position rows are the
                // contiguous tap vectors the weight rows dot against.
                let cols_all = reuse_qbuf(&mut slot.cols, n * taps * positions);
                // One product for the whole batch,
                //   C[out_c × N·positions] = requant(b + W · colsᵀ),
                // sample i's positions occupying Bᵀ rows
                // [i·positions, (i+1)·positions).
                let big_n = n * positions;
                for (i, cols_i) in cols_all.chunks_mut(taps * positions).enumerate() {
                    qim2col_slice_into(
                        cols_i,
                        &input[i * in_plane..(i + 1) * in_plane],
                        *in_c,
                        in_h,
                        in_w,
                        *k,
                        *stride,
                        *pad,
                    );
                }
                let gc = reuse_qbuf(&mut slot.gemm_c, out_c * big_n);
                matmul_bt_bias_requant_into(gc, weight, cols_all, bias, *out_c, taps, big_n);
                // Reorder [out_c × N·positions] → [N, out_c, positions]
                // (a pure Q8.8 copy — no arithmetic, no bit changes).
                for i in 0..n {
                    for oc in 0..*out_c {
                        let src = &gc[oc * big_n + i * positions..oc * big_n + (i + 1) * positions];
                        out[(i * out_c + oc) * positions..(i * out_c + oc + 1) * positions]
                            .copy_from_slice(src);
                    }
                }
                vec![*out_c, out_h, out_w]
            }
            QLayer::Fc {
                in_f,
                out_f,
                weight,
                bias,
            } => {
                // The activation batch [N, in_f] IS the Bᵀ operand —
                // zero packing. C[out_f × N] = requant(b + W · xᵀ).
                let ct = reuse_qbuf(&mut slot.gemm_c, out_f * n);
                matmul_bt_bias_requant_into(ct, weight, input, bias, *out_f, *in_f, n);
                // Reorder [out_f × N] → [N, out_f] (pure copy).
                let out = reuse_qbuf(&mut slot.out, n * out_f);
                for i in 0..n {
                    for j in 0..*out_f {
                        out[i * out_f + j] = ct[j * n + i];
                    }
                }
                vec![*out_f]
            }
            QLayer::Relu => {
                let out = reuse_qbuf(&mut slot.out, input.len());
                for (o, &v) in out.iter_mut().zip(input) {
                    *o = v.relu();
                }
                shape.to_vec()
            }
            QLayer::MaxPool { k, stride } => {
                let (c, in_h, in_w) = (shape[0], shape[1], shape[2]);
                let out_h = (in_h - k) / stride + 1;
                let out_w = (in_w - k) / stride + 1;
                let in_plane = c * in_h * in_w;
                let out_plane = c * out_h * out_w;
                let out = reuse_qbuf(&mut slot.out, n * out_plane);
                for i in 0..n {
                    let x = &input[i * in_plane..(i + 1) * in_plane];
                    let o = &mut out[i * out_plane..(i + 1) * out_plane];
                    for ci in 0..c {
                        for oy in 0..out_h {
                            for ox in 0..out_w {
                                let mut best = Q8_8::MIN;
                                for ky in 0..*k {
                                    for kx in 0..*k {
                                        let v = x[(ci * in_h + oy * stride + ky) * in_w
                                            + ox * stride
                                            + kx];
                                        best = best.max(v);
                                    }
                                }
                                o[(ci * out_h + oy) * out_w + ox] = best;
                            }
                        }
                    }
                }
                vec![c, out_h, out_w]
            }
            QLayer::Lrn => {
                // Float fallback (LUT on silicon); AlexNet constants.
                // Samples are independent, so the batched pass is the
                // serial per-sample passes back to back, bit for bit.
                let (c, h, w) = (shape[0], shape[1], shape[2]);
                let plane = c * h * w;
                let out = reuse_qbuf(&mut slot.out, input.len());
                let f = LayerWs::reuse_buf(&mut slot.fbuf, plane);
                let (win, alpha, beta, kk) = (5usize, 1e-4f32, 0.75f32, 2.0f32);
                for i in 0..n {
                    let x = &input[i * plane..(i + 1) * plane];
                    for (fv, q) in f.iter_mut().zip(x) {
                        *fv = q.to_f32();
                    }
                    let o = &mut out[i * plane..(i + 1) * plane];
                    for y in 0..h {
                        for xx in 0..w {
                            for ci in 0..c {
                                let lo = ci.saturating_sub(win / 2);
                                let hi = (ci + win / 2).min(c - 1);
                                let mut ssq = 0.0;
                                for cj in lo..=hi {
                                    let v = f[(cj * h + y) * w + xx];
                                    ssq += v * v;
                                }
                                let d = kk + alpha / win as f32 * ssq;
                                o[(ci * h + y) * w + xx] =
                                    Q8_8::from_f32(f[(ci * h + y) * w + xx] / d.powf(beta));
                            }
                        }
                    }
                }
                shape.to_vec()
            }
            QLayer::Flatten => {
                let out = reuse_qbuf(&mut slot.out, input.len());
                out.copy_from_slice(input);
                vec![input.len() / n]
            }
        }
    }

    /// Bytes of read-only model storage at 16-bit precision: every
    /// quantised parameter — **weights and biases** — of every conv/FC
    /// layer, i.e. exactly what [`NetworkSpec::total_weight_bytes`]
    /// charges and what the `mramrl_mem` placement planner distributes.
    ///
    /// What this models: the STT-MRAM-resident footprint of a
    /// deployment-mode (inference-only) snapshot, where every layer is
    /// frozen and read-only during flight. When an online-training tail
    /// is configured, the placement planner moves that tail's bytes (and
    /// a same-sized gradient accumulator) into the SRAM global buffer —
    /// that split is the planner's output, not this snapshot's; see
    /// [`QuantizedNet::layer_weight_bytes`] for the per-layer input it
    /// consumes and `docs/fixed_point.md` for the cross-check.
    pub fn weight_bytes(&self) -> u64 {
        self.layer_weight_bytes().iter().map(|(_, b)| *b).sum()
    }

    /// Per-layer `(name, bytes)` of the quantised snapshot at 16-bit
    /// precision (weights + biases), parameterised layers only, in
    /// forward order — byte-identical to
    /// [`NetworkSpec::layer_weight_bytes`] and directly consumable as
    /// the `mramrl_mem` placement planner's and the `mramrl_accel` cost
    /// model's per-layer byte accounting.
    pub fn layer_weight_bytes(&self) -> Vec<(String, u64)> {
        let names = self
            .spec
            .layers
            .iter()
            .filter(|l| l.weights() > 0)
            .map(|l| l.name().to_string());
        let bytes = self.layers.iter().filter_map(|l| match l {
            QLayer::Conv { weight, bias, .. } | QLayer::Fc { weight, bias, .. } => {
                Some(2 * (weight.len() + bias.len()) as u64)
            }
            _ => None,
        });
        names.zip(bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{rng_from_seed, WeightInit};

    fn setup() -> (NetworkSpec, Network, QuantizedNet) {
        let spec = NetworkSpec::micro(16, 1, 5);
        let net = spec.build(21);
        let q = QuantizedNet::from_network(&spec, &net).unwrap();
        (spec, net, q)
    }

    /// The float network on one image, as a batch of one.
    fn float1(net: &Network, x: &Tensor) -> Tensor {
        let x = x.clone().unsqueezed0();
        net.forward_batch(&x, &mut net.workspace())
            .clone()
            .squeezed0()
    }

    #[test]
    fn quantised_tracks_float_within_tolerance() {
        let (_, net, q) = setup();
        let mut rng = rng_from_seed(4);
        for trial in 0..10 {
            let x = WeightInit::HeUniform.init(&[1, 16, 16], 256, 256, &mut rng);
            // Depth images are non-negative in [0,1]: mirror that range.
            let x = Tensor::from_vec(
                x.shape(),
                x.data().iter().map(|v| v.abs().min(1.0)).collect(),
            );
            let yf = float1(&net, &x);
            let yq = q.forward(&x);
            for (a, b) in yq.data().iter().zip(yf.data()) {
                assert!((a - b).abs() < 0.3, "trial {trial}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn greedy_action_usually_agrees() {
        let (_, net, q) = setup();
        let mut rng = rng_from_seed(8);
        let mut agree = 0;
        let trials = 20;
        for _ in 0..trials {
            let x = WeightInit::HeUniform.init(&[1, 16, 16], 4, 4, &mut rng);
            let x = Tensor::from_vec(
                x.shape(),
                x.data().iter().map(|v| v.abs().min(1.0)).collect(),
            );
            if float1(&net, &x).argmax() == q.forward(&x).argmax() {
                agree += 1;
            }
        }
        assert!(agree >= trials * 8 / 10, "only {agree}/{trials} agreed");
    }

    #[test]
    fn weight_bytes_match_spec() {
        let (spec, _, q) = setup();
        assert_eq!(q.weight_bytes(), spec.total_weight_bytes());
        assert_eq!(q.layer_weight_bytes(), spec.layer_weight_bytes());
    }

    #[test]
    fn mismatched_network_rejected() {
        let spec5 = NetworkSpec::micro(16, 1, 5);
        let net4 = NetworkSpec::micro(16, 1, 4).build(0);
        assert!(QuantizedNet::from_network(&spec5, &net4).is_err());
    }

    #[test]
    fn relu_and_pool_are_exact_in_fixed_point() {
        // A net with weights representable exactly in Q8.8 gives exact
        // agreement (conv/fc arithmetic is exact when values fit).
        let spec = NetworkSpec::micro(16, 1, 5);
        let mut net = spec.build(77);
        // Snap every weight to the Q8.8 grid with the shared entry
        // rounding helper (one documented policy; see Q8_8::snap_f32).
        for l in net.layers_vec_mut() {
            for p in l.params_mut() {
                for v in p.value.data_mut() {
                    *v = Q8_8::snap_f32(*v);
                }
            }
        }
        let q = QuantizedNet::from_network(&spec, &net).unwrap();
        let x = Tensor::filled(&[1, 16, 16], 0.25);
        let yf = float1(&net, &x);
        let yq = q.forward(&x);
        for (a, b) in yq.data().iter().zip(yf.data()) {
            // LRN float-vs-Q8.8 re-quantisation leaves ≤ 1.5 LSB per layer.
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_rows_match_single_image_forward() {
        let (_, _, q) = setup();
        let mut rng = rng_from_seed(11);
        let samples: Vec<Tensor> = (0..3)
            .map(|_| WeightInit::HeUniform.init(&[1, 16, 16], 16, 16, &mut rng))
            .collect();
        let mut data = Vec::new();
        for s in &samples {
            data.extend_from_slice(s.data());
        }
        let batch = Tensor::from_vec(&[3, 1, 16, 16], data);
        let mut ws = QWorkspace::for_net(&q);
        let yb = q.forward_batch(&batch, &mut ws).clone();
        for (i, s) in samples.iter().enumerate() {
            let y = q.forward(s);
            assert_eq!(
                y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yb.sample(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "sample {i}"
            );
        }
    }

    #[test]
    fn workspace_steady_state_allocates_nothing() {
        let (_, _, q) = setup();
        let x = Tensor::filled(&[4, 1, 16, 16], 0.3);
        let mut ws = QWorkspace::for_net(&q);
        let _ = q.forward_batch(&x, &mut ws);
        let footprint = ws.footprint();
        let ptr = q.forward_batch(&x, &mut ws).data().as_ptr();
        for _ in 0..3 {
            let out = q.forward_batch(&x, &mut ws);
            assert_eq!(out.data().as_ptr(), ptr, "output buffer moved");
            assert_eq!(ws.footprint(), footprint, "footprint grew");
        }
    }

    #[test]
    fn lanes_and_scalar_tile_agree_bitwise() {
        let (_, _, q) = setup();
        let x = Tensor::filled(&[2, 1, 16, 16], 0.4);
        let _lock = crate::simd::gate_lock();
        let mut outs = vec![q.forward_batch(&x, &mut QWorkspace::new()).clone()];
        let _scalar = crate::simd::force_scalar();
        outs.push(q.forward_batch(&x, &mut QWorkspace::new()).clone());
        for o in &outs[1..] {
            assert_eq!(
                outs[0]
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                o.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
