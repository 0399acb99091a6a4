//! The per-layer probe's float passes as a test.
//!
//! `perfbench --trace 1` times each layer of the batch-TD net
//! ([`mramrl_bench::batch_td_spec`]) on its own, chained layer to layer
//! at batch 32 with every layer trainable. That reaches GEMM shapes no
//! training path runs — CONV1's input gradient `G·W`
//! (10 368 × 8 × 25) among them — so a kernel fault on one of them
//! would otherwise surface only as a panic inside the benchmark. This
//! suite runs the same chain on the GEMM kernel's AVX2 lanes and with
//! its scalar tile forced, and holds both to the same bits: the output,
//! every layer's `grad_in` and every parameter gradient. (Each shape is
//! held to the naive oracle in `mramrl_nn`'s `simd_equivalence` suite.)

use mramrl_bench::batch_td_spec;
use mramrl_nn::difftest::{bits, fill};
use mramrl_nn::{
    simd, Conv2d, Flatten, Layer, LayerSpec, LayerWs, Linear, Lrn, MaxPool2d, Relu, Tensor,
};

/// The probe's batch.
const BATCH: usize = 32;

/// Builds one layer of the spec on its own, as the probe does.
fn build_layer(l: &LayerSpec, seed: u64) -> Box<dyn Layer> {
    match l.clone() {
        LayerSpec::Conv {
            name,
            in_c,
            out_c,
            k,
            stride,
            pad,
        } => Box::new(Conv2d::new(name, in_c, out_c, k, stride, pad, seed)),
        LayerSpec::Relu { name } => Box::new(Relu::new(name)),
        LayerSpec::Lrn { name } => Box::new(Lrn::alexnet(name)),
        LayerSpec::MaxPool { name, k, stride } => Box::new(MaxPool2d::new(name, k, stride)),
        LayerSpec::Flatten { name } => Box::new(Flatten::new(name)),
        LayerSpec::Fc { name, in_f, out_f } => Box::new(Linear::new(name, in_f, out_f, seed)),
    }
}

/// One chained forward and full backward through every layer,
/// returning each tensor it produced as `(label, bits)`.
fn chained_pass() -> Vec<(String, Vec<u32>)> {
    let spec = batch_td_spec();
    let mut layers: Vec<Box<dyn Layer>> = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| build_layer(l, 7 + i as u64))
        .collect();
    let mut ws: Vec<LayerWs> = layers.iter().map(|_| LayerWs::new()).collect();
    let mut shape = vec![BATCH];
    shape.extend_from_slice(&spec.input_shape);
    let x = Tensor::from_vec(&shape, fill(shape.iter().product(), 11, false));

    for i in 0..layers.len() {
        let (prev, rest) = ws.split_at_mut(i);
        let input = match i {
            0 => &x,
            _ => prev[i - 1].out.as_ref().expect("layer wrote its output"),
        };
        layers[i].forward_batch(input, &mut rest[0]);
    }
    let out = ws.last().and_then(|w| w.out.clone()).expect("net output");
    let grad = Tensor::from_vec(out.shape(), fill(out.len(), 12, false));
    let mut seen = vec![("output".to_string(), bits(out.data()))];
    for i in (0..layers.len()).rev() {
        let (cur, rest) = ws.split_at_mut(i + 1);
        let g = match rest.first() {
            None => &grad,
            Some(next) => next.grad_in.as_ref().expect("later layer wrote grad_in"),
        };
        layers[i]
            .backward_batch(g, &mut cur[i])
            .expect("forward ran just before");
        let name = layers[i].name().to_string();
        let gi = cur[i]
            .grad_in
            .as_ref()
            .expect("full backward writes grad_in");
        seen.push((format!("{name} grad_in"), bits(gi.data())));
        for (p, param) in layers[i].params().iter().enumerate() {
            seen.push((format!("{name} param {p} grad"), bits(param.grad.data())));
        }
    }
    seen
}

#[test]
fn probe_chain_is_bit_identical_on_lanes_and_scalar() {
    let lanes = chained_pass();
    let scalar = {
        let _guard = simd::force_scalar();
        chained_pass()
    };
    assert!(
        lanes.iter().any(|(label, _)| label == "CONV1 grad_in"),
        "the chain must reach CONV1's input gradient"
    );
    assert_eq!(lanes.len(), scalar.len());
    for ((label, w), (slabel, g)) in lanes.iter().zip(&scalar) {
        assert_eq!(label, slabel);
        assert!(w == g, "{label}: the scalar tile differs from the lanes");
    }
}
