//! Backend equivalence suite: the float summation-order family
//! (`Blocked`) vs the `Naive` oracle, plus the one tolerance tier (the
//! direct-convolution oracle).
//!
//! Generators, comparators and the direct-loop conv oracle come from the
//! shared [`mramrl_nn::difftest`] harness. Two tiers of guarantees are
//! asserted (see `docs/gemm_backends.md`):
//!
//! 1. **Bitwise** across [`GemmBackend::ALL`] for the raw kernels
//!    (`matmul`, `matmul_at_b`), for [`Conv2d`]'s batched passes and for
//!    a whole network forward: every backend runs the same im2col GEMM
//!    algorithm and accumulates each output element in the same order,
//!    so results must agree to the bit — including signed zeros, and
//!    with `NaN`s in exactly the same positions. `Blocked` runs its AVX2
//!    lanes here wherever the host has them; `simd_equivalence.rs` pins
//!    the lanes and the forced scalar tile against the oracle one by
//!    one.
//! 2. **Tolerance** where the algorithm differs: the GEMM conv path vs
//!    the direct-convolution oracle.

use mramrl_nn::backend::GemmBackend;
use mramrl_nn::difftest::{assert_close, bits, conv_direct_backward, conv_direct_forward, fill};
use mramrl_nn::{Conv2d, Layer, LayerWs, Tensor};
use proptest::prelude::*;

proptest! {
    /// `matmul` is bitwise identical across the summation-order family
    /// over ragged shapes (including 0- and 1-sized dimensions) and
    /// special values.
    #[test]
    fn matmul_bitwise_equal(
        m in 0usize..20,
        k in 0usize..300,
        n in 0usize..20,
        seed in 0u64..1 << 40,
    ) {
        let specials = seed % 2 == 0;
        let a = fill(m * k, seed, specials);
        let b = fill(k * n, seed ^ 0xABCD, specials);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        for be in GemmBackend::ALL {
            let got = be.matmul(&a, &b, m, k, n);
            prop_assert_eq!(bits(&want), bits(&got), "{} m={} k={} n={}", be, m, k, n);
        }
    }

    /// `matmul_at_b` is bitwise identical across every backend.
    #[test]
    fn matmul_at_b_bitwise_equal(
        m in 0usize..40,
        k in 0usize..20,
        n in 0usize..20,
        seed in 0u64..1 << 40,
    ) {
        let specials = seed % 2 == 0;
        let a = fill(m * k, seed, specials);
        let b = fill(m * n, seed ^ 0x1234, specials);
        let want = GemmBackend::Naive.matmul_at_b(&a, &b, m, k, n);
        for be in GemmBackend::ALL {
            let got = be.matmul_at_b(&a, &b, m, k, n);
            prop_assert_eq!(bits(&want), bits(&got), "{} m={} k={} n={}", be, m, k, n);
        }
    }

    /// `Conv2d`'s batched forward and backward (output, dX, dW, db) are
    /// bitwise identical across the summation-order family — `Naive`
    /// included, since every backend runs the same im2col GEMM — and
    /// each sample matches the direct-convolution oracle to tolerance.
    #[test]
    fn conv_gemm_path_bitwise_equal(
        n in 1usize..4,
        hw in 3usize..10,
        in_c in 1usize..4,
        out_c in 1usize..5,
        seed in 0u64..1 << 40,
    ) {
        let k = 3.min(hw);
        let (stride, pad) = (1 + (seed % 2) as usize, (seed % 2) as usize);
        let x = Tensor::from_vec(&[n, in_c, hw, hw], fill(n * in_c * hw * hw, seed, false));
        let pass = |be: GemmBackend| {
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, seed);
            conv.set_gemm_backend(be);
            // A non-zero bias, so the bias-after-the-dot order is pinned too.
            let bias = fill(out_c, seed ^ 2, false);
            conv.params_mut()[1].value.data_mut().copy_from_slice(&bias);
            let mut ws = LayerWs::new();
            conv.forward_batch(&x, &mut ws);
            let y = ws.out.clone().expect("forward wrote the output");
            let grad = Tensor::from_vec(y.shape(), fill(y.len(), seed ^ 3, false));
            conv.backward_batch(&grad, &mut ws).expect("forward ran");
            let gi = ws.grad_in.clone().expect("backward wrote dX");
            let (gw, gb) = (conv.params()[0].grad.clone(), conv.params()[1].grad.clone());
            (conv, y, grad, gi, gw, gb)
        };
        let (conv, y, grad, gi, gw, gb) = pass(GemmBackend::Naive);
        for be in GemmBackend::ALL {
            let (_, y2, _, gi2, gw2, gb2) = pass(be);
            prop_assert_eq!(bits(y.data()), bits(y2.data()), "fwd {}", be);
            prop_assert_eq!(bits(gi.data()), bits(gi2.data()), "dX {}", be);
            prop_assert_eq!(bits(gw.data()), bits(gw2.data()), "dW {}", be);
            prop_assert_eq!(bits(gb.data()), bits(gb2.data()), "db {}", be);
        }
        for i in 0..n {
            let xi = Tensor::from_vec(&x.shape()[1..], x.sample(i).to_vec());
            let gi_i = Tensor::from_vec(&y.shape()[1..], grad.sample(i).to_vec());
            let want = conv_direct_forward(&conv, &xi);
            assert_close(&format!("fwd sample {i}"), want.data(), y.sample(i), 1e-4, 0.0);
            let (_, _, want_gi) = conv_direct_backward(&conv, &xi, &gi_i);
            assert_close(&format!("dX sample {i}"), want_gi.data(), gi.sample(i), 1e-4, 0.0);
        }
    }
}

/// `0.0 × NaN` must be `NaN` on every backend: the reference kernels
/// have no zero-skip, so an exact-zero row element cannot silently drop
/// a `NaN` (or `-0.0` rounding contribution) that the blocked kernel
/// would propagate.
#[test]
fn nan_and_signed_zero_propagate_identically() {
    // A has an exact 0.0 facing a NaN in B, and a -0.0 row.
    let a = [0.0f32, 1.0, -0.0, 2.0]; // 2×2
    let b = [f32::NAN, -0.0, 3.0, f32::INFINITY]; // 2×2
    let want = GemmBackend::Naive.matmul(&a, &b, 2, 2, 2);
    assert!(want[0].is_nan(), "0·NaN + 1·3 must be NaN");
    for be in GemmBackend::ALL {
        let got = be.matmul(&a, &b, 2, 2, 2);
        assert_eq!(bits(&want), bits(&got), "{be}");
        let want_t = GemmBackend::Naive.matmul_at_b(&a, &b, 2, 2, 2);
        let got_t = be.matmul_at_b(&a, &b, 2, 2, 2);
        assert_eq!(bits(&want_t), bits(&got_t), "at_b {be}");
    }
    // Signed zero: the accumulator starts at +0.0, so (+0.0) + (-0.0·1.0)
    // rounds to +0.0 under IEEE-754 — whereas the old zero-skip left the
    // untouched +0.0 by a different route. Whatever the value, all
    // backends must produce the same bits: the lane chains are seeded
    // at +0.0 too.
    let z = GemmBackend::Naive.matmul(&[-0.0f32], &[1.0f32], 1, 1, 1);
    assert_eq!(z[0].to_bits(), 0.0f32.to_bits());
    assert_eq!(
        GemmBackend::Blocked.matmul(&[-0.0f32], &[1.0f32], 1, 1, 1)[0].to_bits(),
        z[0].to_bits()
    );
}

/// Regression: `Conv2d` still matches the direct-convolution oracle —
/// under every backend — to the documented tolerance
/// (different algorithm, so only float-rounding-level agreement is
/// guaranteed).
#[test]
fn conv_gemm_matches_direct_conv_under_every_backend() {
    for (in_c, out_c, k, stride, pad, hw) in [
        (1usize, 4usize, 3usize, 1usize, 0usize, 7usize),
        (2, 3, 3, 2, 1, 9),
        (3, 8, 5, 2, 0, 11),
        (1, 1, 1, 1, 0, 5), // 1×1 kernel: im2col is a pure reshape
    ] {
        let x = Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, 99, false));
        for be in GemmBackend::ALL {
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 7);
            conv.set_gemm_backend(be);
            assert_eq!(conv.gemm_backend(), Some(be));
            let y = conv.forward(&x);
            let grad = Tensor::from_vec(y.shape(), fill(y.len(), 7, false));
            let gi = conv.backward(&grad);
            let (want_gw, want_gb, want_gi) = conv_direct_backward(&conv, &x, &grad);
            let want_y = conv_direct_forward(&conv, &x);
            let tag = format!("{be} k={k} s={stride} p={pad}");
            assert_close(&format!("fwd {tag}"), want_y.data(), y.data(), 1e-4, 0.0);
            assert_close(&format!("dX {tag}"), want_gi.data(), gi.data(), 1e-4, 0.0);
            let (gw, gb) = (&conv.params()[0].grad, &conv.params()[1].grad);
            assert_close(&format!("dW {tag}"), want_gw.data(), gw.data(), 1e-4, 0.0);
            assert_close(&format!("db {tag}"), want_gb.data(), gb.data(), 1e-4, 0.0);
        }
    }
}

/// A whole network forward is bitwise identical across the backends,
/// and `set_gemm_backend` reaches every conv/FC layer.
#[test]
fn network_forward_bitwise_across_backends() {
    use mramrl_nn::NetworkSpec;
    let spec = NetworkSpec::micro(16, 1, 5);
    let x = Tensor::from_vec(&[1, 16, 16], fill(256, 11, false));
    let mut reference = spec.build(3);
    reference.set_gemm_backend(GemmBackend::Naive);
    let want = reference.forward(&x);
    for be in GemmBackend::ALL {
        let mut net = spec.build(3);
        net.set_gemm_backend(be);
        assert_eq!(net.gemm_backend(), Some(be));
        let got = net.forward(&x);
        assert_eq!(bits(want.data()), bits(got.data()), "{be}");
    }
}
