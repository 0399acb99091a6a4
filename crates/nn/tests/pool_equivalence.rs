//! Pooled-execution equivalence suite: the persistent worker pool must
//! never change a bit.
//!
//! A float pass fans out by one rule (`docs/threading.md`): at top
//! level, on a pool of more than one executor, once it reaches
//! `PAR_MIN_MACS`. The splits it makes — conv forwards in slabs of
//! samples, FC forwards in bands of output rows, backwards as
//! `dW ∥ dX`, the SGD step in chunks — and the whole-network batched
//! drivers are compared against the serial schedule under injected
//! pools of every [`mramrl_nn::difftest::POOL_SIZES`] width, driven
//! through `ThreadPool::install` so one process covers every size
//! (each output element is one chain whatever the split, see
//! `docs/gemm_backends.md`). Generators and
//! comparators come from the shared [`mramrl_nn::difftest`] harness.

use mramrl_nn::difftest::{bits, sweep_pools, POOL_SIZES};
use mramrl_nn::pool::ThreadPool;
use mramrl_nn::{
    Conv2d, Flatten, Layer, LayerWs, Linear, Lrn, MaxPool2d, Network, NetworkSpec, Relu, Sgd,
    Tensor, Workspace,
};
use proptest::prelude::*;

/// Specials-free value stream (the pool contracts are about scheduling,
/// not IEEE corners — those live in `gemm_backends.rs`).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    mramrl_nn::difftest::fill(len, seed, false)
}

proptest! {
    /// Batched conv forward/backward — one fused GEMM over the batch and
    /// the ascending-sample `dW`/`db` accumulation — is bit-identical to
    /// N batch-of-1 passes at every pool size.
    #[test]
    fn pooled_conv_dw_batched_equals_serial(
        hw in 5usize..10,
        n in 1usize..5,
        in_c in 1usize..3,
        out_c in 1usize..4,
        seed in 0u64..1 << 40,
    ) {
        let k = 3usize;
        let (stride, pad) = (1 + (seed % 2) as usize, (seed % 2) as usize);
        let xs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, seed ^ i as u64)))
            .collect();
        let mut batched_data = Vec::new();
        for x in &xs {
            batched_data.extend_from_slice(x.data());
        }
        let batched_x = Tensor::from_vec(&[n, in_c, hw, hw], batched_data);
        let out_hw = (hw + 2 * pad - k) / stride + 1;
        let gdata = fill(n * out_c * out_hw * out_hw, seed ^ 0xF00D);

        // Serial oracle: N batch-of-1 passes.
        let mut serial = Conv2d::new("c", in_c, out_c, k, stride, pad, 11);
        let mut sws = LayerWs::new();
        let mut serial_out = Vec::new();
        let mut serial_gi = Vec::new();
        let plane = out_c * out_hw * out_hw;
        for (i, x) in xs.iter().enumerate() {
            serial.forward_batch(&x.clone().unsqueezed0(), &mut sws);
            serial_out.extend_from_slice(sws.out.as_ref().unwrap().data());
            let g = Tensor::from_vec(&[1, out_c, out_hw, out_hw], gdata[i * plane..(i + 1) * plane].to_vec());
            serial.backward_batch(&g, &mut sws).expect("forward ran");
            serial_gi.extend_from_slice(sws.grad_in.as_ref().unwrap().data());
        }
        let serial_gw = serial.params()[0].grad.clone();
        let serial_gb = serial.params()[1].grad.clone();

        for pool_threads in POOL_SIZES {
            let pool = ThreadPool::new(pool_threads);
            let _installed = pool.install();
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 11);
            let mut ws = LayerWs::new();
            conv.forward_batch(&batched_x, &mut ws);
            prop_assert_eq!(
                bits(&serial_out),
                bits(ws.out.as_ref().unwrap().data()),
                "fwd pool={} n={}", pool_threads, n
            );
            let grad = Tensor::from_vec(&[n, out_c, out_hw, out_hw], gdata.clone());
            conv.backward_batch(&grad, &mut ws).expect("forward ran");
            prop_assert_eq!(
                bits(serial_gw.data()),
                bits(conv.params()[0].grad.data()),
                "dW pool={} n={}", pool_threads, n
            );
            prop_assert_eq!(
                bits(serial_gb.data()),
                bits(conv.params()[1].grad.data()),
                "db pool={} n={}", pool_threads, n
            );
            prop_assert_eq!(
                bits(&serial_gi),
                bits(ws.grad_in.as_ref().unwrap().data()),
                "dX pool={} n={}", pool_threads, n
            );
        }
    }
}

/// A whole batched network pass (conv + pool + FC stack, forward and
/// accumulated gradients) is bit-identical across pool sizes — the
/// end-to-end version of the per-layer contract above.
#[test]
fn pooled_network_pass_identical_across_pool_sizes() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let x = Tensor::from_vec(&[3, 1, 16, 16], fill(3 * 256, 77));
    let grad = Tensor::from_vec(&[3, 5], fill(15, 78));
    let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
    sweep_pools(|pool_threads| {
        let mut net = spec.build(5);
        let mut ws = Workspace::for_spec(&spec);
        let out = bits(net.forward_batch(&x, &mut ws).data());
        net.backward_batch(&grad, &mut ws).expect("forward ran");
        let grads: Vec<f32> = net
            .layers()
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
            .collect();
        let grads = bits(&grads);
        match &reference {
            None => reference = Some((out, grads)),
            Some((ro, rg)) => {
                assert_eq!(ro, &out, "pool={pool_threads} forward");
                assert_eq!(rg, &grads, "pool={pool_threads} grads");
            }
        }
    });
}

/// A conv + ReLU + LRN + max-pool + FC net sized so the rule fires:
/// CONV1 reaches `PAR_MIN_MACS` from batch 2 on (147 456 MACs per
/// sample) and FC1 at every batch (307 200 MACs per sample), so a
/// top-level forward splits CONV1 into sample slabs and FC1 into
/// output-row bands on every pool wider than one executor.
fn rule_net() -> Network {
    Network::new(vec![
        Box::new(Conv2d::new("CONV1", 4, 16, 3, 1, 1, 3)),
        Box::new(Relu::new("relu1")),
        Box::new(Lrn::new("lrn1", 5, 1e-4, 0.75, 2.0)),
        Box::new(MaxPool2d::new("pool1", 2, 2)),
        Box::new(Flatten::new("flatten")),
        Box::new(Linear::new("FC1", 16 * 8 * 8, 300, 4)),
        Box::new(Relu::new("relu2")),
        Box::new(Linear::new("FC2", 300, 5, 5)),
    ])
}

/// The one parallel rule on a top-level `Network::forward_batch`: on
/// every batch (ragged slabs included) and pools {1, 2, 7}, the output
/// bits and the workspace footprint equal the 1-executor pool's.
#[test]
fn forward_split_rule_matches_pool_one() {
    let net = rule_net();
    for n in [1usize, 2, 3, 7, 32] {
        let x = Tensor::from_vec(&[n, 4, 16, 16], fill(n * 4 * 256, n as u64));
        let mut reference: Option<(Vec<u32>, usize)> = None;
        sweep_pools(|pool_threads| {
            let mut ws = net.workspace();
            let out = bits(net.forward_batch(&x, &mut ws).data());
            let got = (out, ws.footprint());
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert!(want.0 == got.0, "n={n} pool={pool_threads}: bits");
                    assert_eq!(want.1, got.1, "n={n} pool={pool_threads}: footprint");
                }
            }
        });
    }
}

/// Forced fan-out on ragged shapes, with an explicit 4-executor pool so
/// the split runs even on a one-core host: FC forwards whose output-row
/// bands end unevenly (and, at batch 600 > the kernel's column tile,
/// cross a tile boundary inside each band), and a conv forward whose
/// last slab is short, all bitwise equal to the 1-executor pool.
#[test]
fn forced_bands_and_slabs_match_pool_one() {
    let run = |layer: &mut dyn Layer, x: &Tensor, threads: usize| {
        let pool = ThreadPool::new(threads);
        let _installed = pool.install();
        let mut ws = LayerWs::new();
        layer.forward_batch(x, &mut ws);
        bits(ws.out.as_ref().expect("forward wrote out").data())
    };
    // (out_f, in_f, batch): out_f·in_f·batch ≥ PAR_MIN_MACS.
    for (out_f, in_f, n) in [(67usize, 70usize, 65usize), (20, 30, 600), (129, 17, 130)] {
        assert!(out_f * in_f * n >= 1 << 18, "shape must force the fan-out");
        let x = Tensor::from_vec(&[n, in_f], fill(n * in_f, 2));
        let mut fc = Linear::new("fc", in_f, out_f, 1);
        let want = run(&mut fc, &x, 1);
        let got = run(&mut fc, &x, 4);
        assert!(want == got, "fc out_f={out_f} in_f={in_f} n={n}");
    }
    // 7 samples over 4 executors: slabs of 2, 2, 2 and 1.
    let x = Tensor::from_vec(&[7, 3, 20, 20], fill(7 * 3 * 400, 3));
    let mut conv = Conv2d::new("c", 3, 24, 5, 1, 2, 7);
    let want = run(&mut conv, &x, 1);
    let got = run(&mut conv, &x, 4);
    assert!(want == got, "conv slabs");
}

/// `Network::apply_sgd` chunked over the pool ≡ the serial pass: with
/// momentum and gradient clipping, over two updates (the second reads
/// the first's velocity), a frozen first layer whose accumulator must
/// only be cleared, and pools {1, 2, 7}. Values, velocities and the
/// cleared accumulators all match the 1-executor pool's bits.
#[test]
fn chunked_sgd_step_matches_serial() {
    let sgd = Sgd::new(0.05).with_momentum(0.9).with_grad_clip(0.01);
    let mut reference: Option<Vec<Vec<u32>>> = None;
    sweep_pools(|pool_threads| {
        let mut net = rule_net();
        net.set_layer_trainable("CONV1", false)
            .expect("layer exists");
        let x = Tensor::from_vec(&[3, 4, 16, 16], fill(3 * 4 * 256, 9));
        let grad = Tensor::from_vec(&[3, 5], fill(15, 10));
        let mut ws = net.workspace();
        for _ in 0..2 {
            net.forward_batch(&x, &mut ws);
            net.backward_batch(&grad, &mut ws).expect("forward ran");
            net.apply_sgd(&sgd, 3);
        }
        assert_eq!(net.grad_norm(), 0.0, "accumulators cleared");
        let state: Vec<Vec<u32>> = net
            .layers()
            .flat_map(|l| l.params())
            .flat_map(|p| {
                let vel = p.velocity.as_ref().map_or(Vec::new(), |v| bits(v.data()));
                [bits(p.value.data()), bits(p.grad.data()), vel]
            })
            .collect();
        match &reference {
            None => reference = Some(state),
            Some(want) => assert!(want == &state, "pool={pool_threads}: bits differ"),
        }
    });
}

/// The layer-level `dW ∥ dX` backward join: `Linear` and `Conv2d`
/// backward — full and params-only — give the
/// same `dW`, `db` and `dX` bits on pools of 2 and 7 executors as on
/// the 1-executor pool. The shapes sit above `PAR_MIN_MACS`, so the
/// backward takes the joined branch on the wider pools.
/// Each layer runs two backwards, so the second accumulates onto
/// non-zero gradients.
#[test]
fn layer_backward_join_is_bit_invisible_at_every_pool_size() {
    use mramrl_nn::Linear;
    type Make = fn() -> Box<dyn Layer>;
    // (constructor, per-sample input shape, batch, backward MACs)
    let layers: [(Make, &[usize], usize, usize); 3] = [
        (
            || Box::new(Linear::new("fc", 256, 160, 5)),
            &[256],
            8,
            8 * 256 * 160,
        ),
        (
            || Box::new(Conv2d::new("c", 4, 16, 3, 1, 1, 7)),
            &[4, 16, 16],
            3,
            3 * 16 * 16 * 16 * (4 * 9),
        ),
        (
            || Box::new(Conv2d::new("c", 3, 24, 5, 2, 0, 7)),
            &[3, 27, 27],
            4,
            4 * 12 * 12 * 24 * (3 * 25),
        ),
    ];
    for (make, sample_shape, n, macs) in layers {
        assert!(macs >= 1 << 18, "shape must reach the joined branch");
        let mut shape = vec![n];
        shape.extend_from_slice(sample_shape);
        let x = Tensor::from_vec(&shape, fill(shape.iter().product(), n as u64));
        for input_grad in [true, false] {
            let mut reference: Option<Vec<Vec<u32>>> = None;
            sweep_pools(|pool_threads| {
                let mut layer = make();
                let mut ws = LayerWs::new();
                let mut results = Vec::new();
                for step in 0..2u64 {
                    layer.forward_batch(&x, &mut ws);
                    let y = ws.out.as_ref().expect("forward wrote out");
                    let grad = Tensor::from_vec(y.shape(), fill(y.len(), 31 + step));
                    if input_grad {
                        layer.backward_batch(&grad, &mut ws).expect("forward ran");
                        results.push(bits(ws.grad_in.as_ref().expect("dX").data()));
                    } else {
                        layer
                            .backward_batch_params(&grad, &mut ws)
                            .expect("forward ran");
                        assert!(ws.grad_in.is_none(), "params-only skips dX");
                    }
                }
                results.extend(layer.params().iter().map(|p| bits(p.grad.data())));
                let tag = format!(
                    "{} input_grad={input_grad} pool={pool_threads}",
                    layer.name()
                );
                match &reference {
                    None => reference = Some(results),
                    Some(want) => assert!(want == &results, "{tag}: bits differ"),
                }
            });
        }
    }
}
