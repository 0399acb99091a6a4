//! Quantised batched ≡ serial equivalence suite (the fixed-point
//! engine's contract) plus the argmax-fidelity measurement.
//!
//! Generators and comparators come from the shared
//! [`mramrl_nn::difftest`] harness. Pins, under worker pools of every
//! [`mramrl_nn::difftest::POOL_SIZES`] width:
//!
//! 1. `QuantizedNet::forward_batch` over `[N, ...]` is **bit-identical**
//!    to `N` serial `QuantizedNet::forward` calls on the scalar tile
//!    (`simd::force_scalar`), row for row, while the batch runs on the
//!    lanes where the host has them. Integer saturation makes the MAC
//!    chain order-sensitive, so this is a real constraint on the tile,
//!    not a free property. The kernel itself is pinned against the
//!    saturating oracle (`difftest::qmatmul_naive`) in
//!    `simd_equivalence.rs`.
//! 2. Greedy-action agreement between float and Q8.8 Q-values on random
//!    nets stays above a pinned threshold (the paper's argmax-fidelity
//!    claim, quantified instead of assumed).

use mramrl_nn::difftest::{bits, fill01, sweep_pools};
use mramrl_nn::quant::{QWorkspace, QuantizedNet};
use mramrl_nn::{simd, NetworkSpec, Tensor};
use proptest::prelude::*;

/// Batched input `[n, 1, hw, hw]` plus its per-sample views.
fn batch_input(n: usize, hw: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
    let data = fill01(n * hw * hw, seed);
    let batched = Tensor::from_vec(&[n, 1, hw, hw], data.clone());
    let samples = (0..n)
        .map(|i| Tensor::from_vec(&[1, hw, hw], data[i * hw * hw..(i + 1) * hw * hw].to_vec()))
        .collect();
    (batched, samples)
}

proptest! {
    /// (a) Quantised batched ≡ N serial quantised passes on the scalar
    /// tile, bitwise, batches 1–5.
    #[test]
    fn quantised_batched_equals_serial(
        hw in 8usize..17,
        n in 1usize..6,
        seed in 0u64..1 << 40,
    ) {
        let spec = NetworkSpec::micro(hw, 1, 5);
        let net = spec.build(seed % 1000);
        let q = QuantizedNet::from_network(&spec, &net).expect("own net matches own spec");
        let (batched_x, samples) = batch_input(n, hw, seed);

        // Serial reference: N batch-of-1 passes on the scalar tile.
        let mut serial_out = Vec::new();
        {
            let _scalar = simd::force_scalar();
            for s in &samples {
                serial_out.extend_from_slice(q.forward(s).data());
            }
        }

        let mut ws = QWorkspace::for_net(&q);
        let yb = q.forward_batch(&batched_x, &mut ws);
        prop_assert_eq!(
            bits(&serial_out), bits(yb.data()),
            "batched hw={} n={}", hw, n
        );
    }

    /// (b) Float-vs-Q8.8 greedy-action agreement on random (He-init)
    /// nets over random depth-like frames: the pinned floor is ≥ 50 %
    /// of 32 argmaxes per net — 2.5× the 20 % chance rate of the
    /// 5-action space. Untrained random nets are the worst case (their
    /// Q-value gaps sit at the quantisation noise floor, so flips are
    /// common — ~60 % agreement is typical); trained policies measure
    /// far higher, which the agent-level fidelity test in
    /// `crates/rl/tests/quantized_acting.rs` pins at ≥ 80 %.
    #[test]
    fn greedy_action_agreement_above_threshold(
        hw in 10usize..17,
        net_seed in 0u64..1000,
        obs_seed in 0u64..1 << 40,
    ) {
        let spec = NetworkSpec::micro(hw, 1, 5);
        let net = spec.build(net_seed);
        let q = QuantizedNet::from_network(&spec, &net).expect("own net matches own spec");
        let trials = 32usize;
        let (batched_x, _) = batch_input(trials, hw, obs_seed);
        let mut ws = QWorkspace::for_net(&q);
        let qy = q.forward_batch(&batched_x, &mut ws).clone();
        let fy = net.forward_batch(&batched_x, &mut net.workspace()).clone();
        let mut agree = 0usize;
        for i in 0..trials {
            let af = mramrl_nn::argmax(fy.sample(i));
            let aq = mramrl_nn::argmax(qy.sample(i));
            agree += usize::from(af == aq);
        }
        prop_assert!(
            agree * 2 >= trials,
            "only {}/{} argmaxes agreed (hw={}, net_seed={})",
            agree, trials, hw, net_seed
        );
    }
}

/// The batched ≡ serial contract survives pooled execution: the same
/// bitwise comparison pinned under every injected pool width (Q8.8
/// passes never fan out, so the pool must simply not matter).
#[test]
fn pooled_execution_preserves_batched_equals_serial() {
    let spec = NetworkSpec::micro(12, 1, 5);
    let net = spec.build(21);
    let q = QuantizedNet::from_network(&spec, &net).unwrap();
    let (batched_x, samples) = batch_input(4, 12, 99);

    let mut serial_out = Vec::new();
    for s in &samples {
        serial_out.extend_from_slice(q.forward(s).data());
    }

    sweep_pools(|pool_threads| {
        let mut ws = QWorkspace::for_net(&q);
        let yb = q.forward_batch(&batched_x, &mut ws);
        assert_eq!(bits(&serial_out), bits(yb.data()), "pool={pool_threads}");
    });
}

/// Batch-of-1 through the engine equals the single-image wrapper, bit
/// for bit (the wrapper IS the batched path — this
/// pins that the demotion did not fork the numerics).
#[test]
fn batch_of_one_equals_single_image() {
    let spec = NetworkSpec::micro(12, 1, 5);
    let net = spec.build(11);
    let q = QuantizedNet::from_network(&spec, &net).unwrap();
    let x = Tensor::from_vec(&[1, 12, 12], fill01(144, 5));
    let xb = Tensor::from_vec(&[1, 1, 12, 12], fill01(144, 5));
    let y_single = q.forward(&x);
    let mut ws = QWorkspace::for_net(&q);
    let y_batch = q.forward_batch(&xb, &mut ws);
    assert_eq!(bits(y_single.data()), bits(y_batch.data()));
}
