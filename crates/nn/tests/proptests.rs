//! Property tests for the CNN library.

use mramrl_nn::{Layer, LayerWs, Linear, MaxPool2d, NetworkSpec, Relu, Sgd, Tensor};
use proptest::prelude::*;

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-4.0f32..4.0, len..=len)
}

/// `x` through `layer` as a batched forward; returns the activation.
fn forward(layer: &dyn Layer, x: &Tensor, ws: &mut LayerWs) -> Tensor {
    layer.forward_batch(x, ws);
    ws.out.clone().expect("forward_batch wrote ws.out")
}

proptest! {
    /// ReLU: non-negative output, identity on positives, idempotent.
    #[test]
    fn relu_properties(data in arb_vec(32)) {
        let r = Relu::new("r");
        let mut ws = LayerWs::new();
        let x = Tensor::from_vec(&[1, 32], data);
        let y = forward(&r, &x, &mut ws);
        for (xi, yi) in x.data().iter().zip(y.data()) {
            prop_assert!(*yi >= 0.0);
            if *xi > 0.0 { prop_assert_eq!(xi, yi); }
        }
        let y2 = forward(&Relu::new("r2"), &y, &mut LayerWs::new());
        prop_assert_eq!(y2.data(), y.data());
    }

    /// Max pooling never invents values: every output element exists in
    /// the input, and output max == input max for full coverage windows.
    #[test]
    fn pool_selects_existing_values(data in arb_vec(64)) {
        let p = MaxPool2d::new("p", 2, 2);
        let x = Tensor::from_vec(&[1, 1, 8, 8], data);
        let y = forward(&p, &x, &mut LayerWs::new());
        for v in y.data() {
            prop_assert!(x.data().contains(v));
        }
        prop_assert_eq!(y.max_value(), x.max_value());
    }

    /// Linear layer is linear: f(a·x) − f(0) == a·(f(x) − f(0)).
    #[test]
    fn linear_is_linear(data in arb_vec(8), a in -3.0f32..3.0) {
        let fc = Linear::new("f", 8, 4, 5);
        let mut ws = LayerWs::new();
        let x = Tensor::from_vec(&[1, 8], data);
        let zero = Tensor::zeros(&[1, 8]);
        let f0 = forward(&fc, &zero, &mut ws);
        let fx = forward(&fc, &x, &mut ws);
        let mut ax = x.clone();
        ax.scale(a);
        let fax = forward(&fc, &ax, &mut ws);
        for i in 0..4 {
            let lhs = fax.data()[i] - f0.data()[i];
            let rhs = a * (fx.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + rhs.abs()), "{lhs} vs {rhs}");
        }
    }

    /// Backward through a linear layer is the adjoint: <g, f(x)> grows in
    /// the direction backward reports (directional-derivative check).
    #[test]
    fn linear_backward_is_adjoint(data in arb_vec(6), g in arb_vec(3)) {
        let mut fc = Linear::new("f", 6, 3, 2);
        let mut ws = LayerWs::new();
        let x = Tensor::from_vec(&[1, 6], data);
        let gt = Tensor::from_vec(&[1, 3], g);
        let y = forward(&fc, &x, &mut ws);
        fc.backward_batch(&gt, &mut ws).unwrap();
        let gi = ws.grad_in.as_ref().unwrap();
        // <gi, x> relates to <g, y - b> by linearity: W^T g · x == g · W x.
        let b = fc.bias().data();
        let lhs: f32 = gi.data().iter().zip(x.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = gt.data().iter().zip(y.data()).enumerate()
            .map(|(j, (g, y))| g * (y - b[j])).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + rhs.abs()), "{lhs} vs {rhs}");
    }

    /// SGD with lr and gradient g moves weights by exactly −lr·g/N.
    #[test]
    fn sgd_step_exact(w0 in -2.0f32..2.0, g in -2.0f32..2.0, n in 1usize..8) {
        let mut p = mramrl_nn::ParamTensor::new(Tensor::from_vec(&[1], vec![w0]));
        p.grad = Tensor::from_vec(&[1], vec![g]);
        Sgd::new(0.1).step(&mut p, n);
        let expect = w0 - 0.1 * g / n as f32;
        prop_assert!((p.value.data()[0] - expect).abs() < 1e-6);
    }

    /// Weight serialisation round-trips bit-exactly for any seed.
    #[test]
    fn serialize_roundtrip(seed in 0u64..1000) {
        let a = NetworkSpec::micro(8, 1, 3).build(seed);
        let bytes = a.save_weights();
        let mut b = NetworkSpec::micro(8, 1, 3).build(seed + 1);
        b.load_weights(&bytes).unwrap();
        let x = Tensor::filled(&[1, 1, 8, 8], 0.3);
        let mut ws = a.workspace();
        let ya = a.forward_batch(&x, &mut ws).clone();
        let yb = b.forward_batch(&x, &mut ws);
        prop_assert_eq!(ya.data(), yb.data());
    }

    /// Micro specs always validate and report FC-dominant tail fractions
    /// that increase with tail size.
    #[test]
    fn micro_fractions_monotone(hw in 8usize..48) {
        let spec = NetworkSpec::micro(hw, 1, 5);
        prop_assert!(spec.validate().is_ok());
        let f2 = spec.trainable_fraction_for_tail(2);
        let f3 = spec.trainable_fraction_for_tail(3);
        let f4 = spec.trainable_fraction_for_tail(4);
        prop_assert!(0.0 < f2 && f2 < f3 && f3 < f4 && f4 < 1.0);
    }
}
