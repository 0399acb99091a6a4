//! Batched ≡ serial equivalence suite (the batch-first API's contract).
//!
//! Pins:
//!
//! 1. `Network::forward_batch` over `[N, ...]` is **bit-identical** to
//!    `N` batch-of-1 `forward_batch` calls, row for row.
//! 2. From zeroed accumulators, one `backward_batch` accumulates
//!    **bit-identical** parameter gradients to `N` batch-of-1
//!    `forward_batch`+`backward_batch` passes over the same samples in
//!    order — including through LRN and with a frozen prefix.
//! 3. Steady state allocates nothing from the workspace: after the first
//!    iteration the footprint is constant and the cached activation
//!    buffers keep their addresses.
//! 4. The params-only backward (`Layer::backward_batch_params`, which
//!    `Network::backward_batch` runs at the earliest trainable layer)
//!    accumulates the same `dW`/`db` bits as the full backward and
//!    leaves the unread input gradient unallocated.

use mramrl_nn::spec::LayerSpec;
use mramrl_nn::{Network, NetworkSpec, Tensor, Workspace};
use proptest::prelude::*;

/// Deterministic value stream in [-1, 1).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (h % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A small 2-conv net that *includes LRN* (the micro spec has none):
/// conv → relu → lrn → pool → conv → relu → flatten → fc → relu → fc.
fn lrn_spec(hw: usize, actions: usize) -> NetworkSpec {
    use LayerSpec::*;
    let c1 = 4usize;
    let c2 = 6usize;
    let h1 = hw; // conv1: k3 s1 p1 keeps hw
    let hp = (h1 - 2) / 2 + 1; // pool k2 s2
    let h2 = hp; // conv2: k3 s1 p1 keeps hp
    let features = c2 * h2 * h2;
    NetworkSpec {
        input_shape: [1, hw, hw],
        layers: vec![
            Conv {
                name: "CONV1".into(),
                in_c: 1,
                out_c: c1,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Relu {
                name: "relu1".into(),
            },
            Lrn {
                name: "norm1".into(),
            },
            MaxPool {
                name: "pool1".into(),
                k: 2,
                stride: 2,
            },
            Conv {
                name: "CONV2".into(),
                in_c: c1,
                out_c: c2,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Relu {
                name: "relu2".into(),
            },
            Flatten {
                name: "flatten".into(),
            },
            Fc {
                name: "FC1".into(),
                in_f: features,
                out_f: 16,
            },
            Relu {
                name: "relu3".into(),
            },
            Fc {
                name: "FC2".into(),
                in_f: 16,
                out_f: actions,
            },
        ],
    }
}

/// Batched input `[n, 1, hw, hw]` plus its per-sample views.
fn batch_input(n: usize, hw: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
    let data = fill(n * hw * hw, seed);
    let batched = Tensor::from_vec(&[n, 1, hw, hw], data.clone());
    let samples = (0..n)
        .map(|i| Tensor::from_vec(&[1, hw, hw], data[i * hw * hw..(i + 1) * hw * hw].to_vec()))
        .collect();
    (batched, samples)
}

/// One sample through `net` as a batch of one: forward, then backward
/// with `dq` as the sample's `dL/dQ` row. Returns the sample's Q row.
fn pass1(net: &mut Network, ws: &mut Workspace, x: &Tensor, dq: &[f32]) -> Vec<f32> {
    let q = net
        .forward_batch(&x.clone().unsqueezed0(), ws)
        .data()
        .to_vec();
    net.backward_batch(&Tensor::from_vec(&[1, dq.len()], dq.to_vec()), ws)
        .expect("forward ran");
    q
}

fn all_param_grads(net: &Network) -> Vec<f32> {
    net.layers()
        .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
        .collect()
}

proptest! {
    /// Forward + backward bit-identity on the micro AlexNet (conv, relu,
    /// pool, flatten, fc), batches 1–5, with and without a
    /// frozen prefix (the paper's partial-training topologies).
    #[test]
    fn micro_net_batched_equals_serial(
        hw in 8usize..17,
        n in 1usize..6,
        seed in 0u64..1 << 40,
        tail in 0usize..3, // 0 = fully trainable, else train last 2/4 param layers
    ) {
        let spec = NetworkSpec::micro(hw, 1, 5);
        let (batched_x, samples) = batch_input(n, hw, seed);
        let mut serial = spec.build(seed % 1000);
        let mut batched = spec.build(seed % 1000);
        if tail > 0 {
            serial.set_trainable_tail(2 * tail);
            batched.set_trainable_tail(2 * tail);
        }

        // Serial reference: N batch-of-1 passes, grad = ones.
        let mut serial_out = Vec::new();
        let mut sws = serial.workspace();
        for s in &samples {
            serial_out.extend(pass1(&mut serial, &mut sws, s, &[1.0; 5]));
        }

        let mut ws = Workspace::for_spec(&spec);
        let q = batched.forward_batch(&batched_x, &mut ws).clone();
        prop_assert_eq!(
            bits(&serial_out), bits(q.data()),
            "forward hw={} n={} tail={}", hw, n, tail
        );
        batched
            .backward_batch(&Tensor::filled(&[n, 5], 1.0), &mut ws)
            .expect("forward ran");
        prop_assert_eq!(
            bits(&all_param_grads(&serial)), bits(&all_param_grads(&batched)),
            "grads hw={} n={} tail={}", hw, n, tail
        );
    }

    /// Same contract through an LRN-bearing stack (cross-channel state,
    /// cached denominators) with non-uniform output gradients.
    #[test]
    fn lrn_net_batched_equals_serial(
        hw in 8usize..13,
        n in 1usize..5,
        seed in 0u64..1 << 40,
    ) {
        let spec = lrn_spec(hw, 5);
        spec.validate().expect("lrn spec must chain");
        let (batched_x, samples) = batch_input(n, hw, seed);
        let grads = fill(n * 5, seed ^ 0xF00D);
        let mut serial = spec.build(7);
        let mut batched = spec.build(7);

        let mut serial_out = Vec::new();
        let mut sws = serial.workspace();
        for (i, s) in samples.iter().enumerate() {
            serial_out.extend(pass1(&mut serial, &mut sws, s, &grads[i * 5..(i + 1) * 5]));
        }

        let mut ws = Workspace::for_spec(&spec);
        let q = batched.forward_batch(&batched_x, &mut ws).clone();
        prop_assert_eq!(bits(&serial_out), bits(q.data()), "forward n={}", n);
        batched
            .backward_batch(&Tensor::from_vec(&[n, 5], grads.clone()), &mut ws)
            .expect("forward ran");
        prop_assert_eq!(
            bits(&all_param_grads(&serial)), bits(&all_param_grads(&batched)),
            "grads n={}", n
        );
    }
}

/// The batched ≡ serial contract survives pooled execution: the same
/// forward/backward comparison as the proptests above, pinned under
/// injected worker pools of 1, 2 and 7 executors (the parallel rule's
/// splits engage where a pass is large enough).
#[test]
fn pooled_execution_preserves_batched_equals_serial() {
    let spec = NetworkSpec::micro(12, 1, 5);
    let (batched_x, samples) = batch_input(4, 12, 99);
    let mut serial = spec.build(21);
    let mut serial_out = Vec::new();
    let mut sws = serial.workspace();
    for s in &samples {
        serial_out.extend(pass1(&mut serial, &mut sws, s, &[1.0; 5]));
    }
    let serial_grads = all_param_grads(&serial);

    for pool_threads in [1usize, 2, 7] {
        let pool = mramrl_nn::pool::ThreadPool::new(pool_threads);
        let _installed = pool.install();
        let mut batched = spec.build(21);
        let mut ws = Workspace::for_spec(&spec);
        let q = batched.forward_batch(&batched_x, &mut ws).clone();
        assert_eq!(
            bits(&serial_out),
            bits(q.data()),
            "forward pool={pool_threads}"
        );
        batched
            .backward_batch(&Tensor::filled(&[4, 5], 1.0), &mut ws)
            .expect("forward ran");
        assert_eq!(
            bits(&serial_grads),
            bits(&all_param_grads(&batched)),
            "grads pool={pool_threads}"
        );
    }
}

/// Steady-state reuse: after the first iteration, repeated batched
/// passes neither grow the workspace nor move its cached buffers.
#[test]
fn workspace_steady_state_allocates_nothing() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let mut net = spec.build(3);
    let (x, _) = batch_input(4, 16, 42);
    let mut ws = Workspace::for_spec(&spec);

    // Warm-up iteration sizes every buffer.
    let _ = net.forward_batch(&x, &mut ws);
    net.backward_batch(&Tensor::filled(&[4, 5], 1.0), &mut ws)
        .unwrap();
    let footprint = ws.footprint();
    let out_ptr = net.forward_batch(&x, &mut ws).data().as_ptr();

    for _ in 0..3 {
        let out = net.forward_batch(&x, &mut ws);
        assert_eq!(
            out.data().as_ptr(),
            out_ptr,
            "activation buffer must be reused, not reallocated"
        );
        net.backward_batch(&Tensor::filled(&[4, 5], 1.0), &mut ws)
            .unwrap();
        assert_eq!(
            ws.footprint(),
            footprint,
            "steady-state footprint must not grow"
        );
    }
}

/// A batched `Conv2d` pass matches the
/// direct-convolution oracle run sample by sample (`mramrl_nn::difftest`)
/// to the documented tolerance: per-sample outputs and dX, and dW/db as
/// the in-order sum of the per-sample oracle gradients. This pins the
/// production im2col GEMM path to an independent algorithm at batch
/// sizes above one.
#[test]
fn batched_conv_matches_direct_oracle_per_sample() {
    use mramrl_nn::difftest::{assert_close, conv_direct_backward, conv_direct_forward};
    use mramrl_nn::{Conv2d, Layer, LayerWs};
    let n = 3usize;
    for (in_c, out_c, k, stride, pad, hw) in [
        (1usize, 4usize, 3usize, 1usize, 1usize, 8usize),
        (2, 3, 3, 2, 0, 9),
    ] {
        let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 7);
        let x = Tensor::from_vec(&[n, in_c, hw, hw], fill(n * in_c * hw * hw, 3));
        let mut ws = LayerWs::new();
        conv.forward_batch(&x, &mut ws);
        let y = ws.out.clone().unwrap();
        let grad = Tensor::from_vec(y.shape(), fill(y.len(), 9));
        conv.backward_batch(&grad, &mut ws).unwrap();
        let gi = ws.grad_in.as_ref().unwrap();

        let mut want_gw = vec![0.0f32; conv.weight().len()];
        let mut want_gb = vec![0.0f32; out_c];
        for i in 0..n {
            let xi = Tensor::from_vec(&x.shape()[1..], x.sample(i).to_vec());
            let gi_i = Tensor::from_vec(&y.shape()[1..], grad.sample(i).to_vec());
            let want = conv_direct_forward(&conv, &xi);
            assert_close(&format!("fwd #{i}"), want.data(), y.sample(i), 1e-4, 0.0);
            let (gw_i, gb_i, dx_i) = conv_direct_backward(&conv, &xi, &gi_i);
            assert_close(&format!("dX #{i}"), dx_i.data(), gi.sample(i), 1e-4, 0.0);
            for (a, &v) in want_gw.iter_mut().zip(gw_i.data()) {
                *a += v;
            }
            for (a, &v) in want_gb.iter_mut().zip(gb_i.data()) {
                *a += v;
            }
        }
        let (gw, gb) = (&conv.params()[0].grad, &conv.params()[1].grad);
        assert_close("dW", &want_gw, gw.data(), 1e-4, 0.0);
        assert_close("db", &want_gb, gb.data(), 1e-4, 0.0);
    }
}

/// `backward_batch_params` accumulates bit-identical `dW`/`db` to
/// `backward_batch` and writes no input gradient — for `Linear` and
/// `Conv2d`, at batches 1–5.
#[test]
fn params_only_backward_matches_full_backward() {
    use mramrl_nn::{Conv2d, Layer, LayerWs, Linear};
    type Make = fn() -> Box<dyn Layer>;
    let layers: [(Make, &[usize]); 3] = [
        (|| Box::new(Linear::new("fc", 12, 7, 5)), &[12]),
        (|| Box::new(Conv2d::new("c", 1, 4, 3, 1, 1, 7)), &[1, 8, 8]),
        (|| Box::new(Conv2d::new("c", 2, 3, 3, 2, 0, 7)), &[2, 9, 9]),
    ];
    for (make, sample_shape) in layers {
        for n in 1usize..6 {
            let mut shape = vec![n];
            shape.extend_from_slice(sample_shape);
            let x = Tensor::from_vec(&shape, fill(shape.iter().product(), n as u64));
            let mut full = make();
            let mut params_only = make();
            let (mut ws_full, mut ws_params) = (LayerWs::new(), LayerWs::new());
            full.forward_batch(&x, &mut ws_full);
            params_only.forward_batch(&x, &mut ws_params);
            let y = ws_full.out.as_ref().expect("forward wrote out");
            let grad = Tensor::from_vec(y.shape(), fill(y.len(), 31 + n as u64));
            full.backward_batch(&grad, &mut ws_full).unwrap();
            params_only
                .backward_batch_params(&grad, &mut ws_params)
                .unwrap();
            let tag = format!("{} n={n}", full.name());
            for (a, b) in full.params().iter().zip(params_only.params()) {
                assert_eq!(bits(a.grad.data()), bits(b.grad.data()), "{tag}");
            }
            assert!(ws_full.grad_in.is_some(), "{tag}: full backward wrote dX");
            assert!(ws_params.grad_in.is_none(), "{tag}: dX must be skipped");
        }
    }
}

/// With a frozen prefix (L2/L3/L4) or none (E2E), the batched network
/// backward stops at the earliest trainable layer without computing its
/// input gradient: that slot's `grad_in` stays unallocated, every later
/// slot still carries one, and the parameter gradients equal `N`
/// batch-of-1 passes'.
#[test]
fn frozen_prefix_backward_skips_the_stop_layers_input_gradient() {
    use mramrl_nn::Topology;
    let spec = NetworkSpec::micro(16, 1, 5);
    let (batched_x, samples) = batch_input(3, 16, 77);
    for topo in Topology::ALL {
        let mut serial = spec.build(13);
        let mut batched = spec.build(13);
        for net in [&mut serial, &mut batched] {
            topo.apply(net);
        }
        let mut sws = serial.workspace();
        for s in &samples {
            pass1(&mut serial, &mut sws, s, &[1.0; 5]);
        }
        let mut ws = Workspace::for_spec(&spec);
        let _ = batched.forward_batch(&batched_x, &mut ws);
        batched
            .backward_batch(&Tensor::filled(&[3, 5], 1.0), &mut ws)
            .expect("forward ran");

        let names = batched.layer_names();
        let stop = names
            .iter()
            .position(|name| batched.is_layer_trainable(name))
            .expect("every topology trains something");
        let tag = format!("{topo}: stop at {}", names[stop]);
        for (i, name) in names.iter().enumerate() {
            let has_dx = ws.slot_mut(i).grad_in.is_some();
            assert_eq!(has_dx, i > stop, "{tag}: slot {i} ({name})");
        }
        assert_eq!(
            bits(&all_param_grads(&serial)),
            bits(&all_param_grads(&batched)),
            "{tag}"
        );
    }
}

/// Backward without forward surfaces as a descriptive error from the
/// batched network driver (no `unwrap` panics anywhere in the stack).
#[test]
fn network_backward_before_forward_errors() {
    let spec = NetworkSpec::micro(8, 1, 5);
    let mut net = spec.build(0);
    let mut ws = Workspace::for_spec(&spec);
    let err = net.backward_batch(&Tensor::zeros(&[1, 5]), &mut ws);
    match err {
        Err(e) => assert!(
            e.to_string().contains("backward called before forward"),
            "unexpected error: {e}"
        ),
        Ok(()) => panic!("backward before forward must not succeed"),
    }
}
