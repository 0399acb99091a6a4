//! GEMM equivalence suite: the f32 kernel (`backend::matmul_into`,
//! `backend::matmul_at_b_into`) vs the naive oracles in
//! [`mramrl_nn::difftest`], plus the one tolerance tier (the
//! direct-convolution oracle).
//!
//! Generators, comparators and both oracles come from the shared
//! [`mramrl_nn::difftest`] harness. Two tiers of guarantees are
//! asserted (see `docs/gemm_backends.md`):
//!
//! 1. **Bitwise** for the raw products, with the lanes on and under
//!    [`simd::force_scalar`]: the kernel accumulates each output
//!    element in the oracle's order, so results must agree to the bit
//!    — including signed zeros, and with `NaN`s in exactly the same
//!    positions. [`Conv2d`]'s batched passes and a whole network
//!    forward must give the same bits on the lanes and on the scalar
//!    tile. `simd_equivalence.rs` pins both tiles against the oracle
//!    on the batch-TD net's shapes and the tile edges.
//! 2. **Tolerance** where the algorithm differs: the GEMM conv path vs
//!    the direct-convolution oracle.

use std::sync::{Mutex, MutexGuard, PoisonError};

use mramrl_nn::difftest::{
    self, assert_close, bits, conv_direct_backward, conv_direct_forward, fill,
};
use mramrl_nn::{backend, simd, Conv2d, Layer, LayerWs, Tensor};
use proptest::prelude::*;

/// Serialises the tests that take a [`simd::force_scalar`] guard: the
/// guard is process-wide, so a test holding it would otherwise switch
/// the lanes off under a concurrent one.
fn gate_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the lanes as the host allows, then with the scalar
/// tile forced, and returns both results.
fn lanes_and_scalar<T>(mut f: impl FnMut() -> T) -> [(&'static str, T); 2] {
    let _lock = gate_lock();
    let lanes = f();
    let _scalar = simd::force_scalar();
    [("lanes", lanes), ("scalar", f())]
}

/// The kernel's `A·B` into a fresh buffer.
fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![f32::NAN; m * n];
    backend::matmul_into(&mut c, a, b, m, k, n);
    c
}

/// The kernel's `Aᵀ·B` into a fresh buffer.
fn matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![f32::NAN; k * n];
    backend::matmul_at_b_into(&mut c, a, b, m, k, n);
    c
}

proptest! {
    /// `matmul` equals the oracle to the bit over ragged shapes
    /// (including 0- and 1-sized dimensions) and special values.
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
        let want = bits(&difftest::matmul(&a, &b, m, k, n));
        for (path, got) in lanes_and_scalar(|| matmul(&a, &b, m, k, n)) {
            prop_assert_eq!(&want, &bits(&got), "{} m={} k={} n={}", path, m, k, n);
        }
    }

    /// `matmul_at_b` equals the oracle to the bit.
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
        let want = bits(&difftest::matmul_at_b(&a, &b, m, k, n));
        for (path, got) in lanes_and_scalar(|| matmul_at_b(&a, &b, m, k, n)) {
            prop_assert_eq!(&want, &bits(&got), "{} m={} k={} n={}", path, m, k, n);
        }
    }

    /// `Conv2d`'s batched forward and backward (output, dX, dW, db) give
    /// the same bits on the lanes and on the scalar tile, and each
    /// sample matches the direct-convolution oracle to tolerance.
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
        let pass = || {
            let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, seed);
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
        let [(_, (conv, y, grad, gi, gw, gb)), (_, (_, y2, _, gi2, gw2, gb2))] =
            lanes_and_scalar(pass);
        prop_assert_eq!(bits(y.data()), bits(y2.data()), "fwd");
        prop_assert_eq!(bits(gi.data()), bits(gi2.data()), "dX");
        prop_assert_eq!(bits(gw.data()), bits(gw2.data()), "dW");
        prop_assert_eq!(bits(gb.data()), bits(gb2.data()), "db");
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

/// `0.0 × NaN` must be `NaN` in the kernel as in the oracle: the oracle
/// has no zero-skip, so an exact-zero row element cannot silently drop
/// a `NaN` (or `-0.0` rounding contribution) that the kernel would
/// propagate.
#[test]
fn nan_and_signed_zero_propagate_identically() {
    // A has an exact 0.0 facing a NaN in B, and a -0.0 row.
    let a = [0.0f32, 1.0, -0.0, 2.0]; // 2×2
    let b = [f32::NAN, -0.0, 3.0, f32::INFINITY]; // 2×2
    let want = difftest::matmul(&a, &b, 2, 2, 2);
    assert!(want[0].is_nan(), "0·NaN + 1·3 must be NaN");
    let want_t = difftest::matmul_at_b(&a, &b, 2, 2, 2);
    // Signed zero: the accumulator starts at +0.0, so (+0.0) + (-0.0·1.0)
    // rounds to +0.0 under IEEE-754. The lane chains are seeded at +0.0
    // too, so they must give the same bits.
    let z = difftest::matmul(&[-0.0f32], &[1.0f32], 1, 1, 1);
    assert_eq!(z[0].to_bits(), 0.0f32.to_bits());
    for (path, (got, got_t, got_z)) in lanes_and_scalar(|| {
        (
            matmul(&a, &b, 2, 2, 2),
            matmul_at_b(&a, &b, 2, 2, 2),
            matmul(&[-0.0f32], &[1.0f32], 1, 1, 1),
        )
    }) {
        assert_eq!(bits(&want), bits(&got), "{path}");
        assert_eq!(bits(&want_t), bits(&got_t), "at_b {path}");
        assert_eq!(got_z[0].to_bits(), z[0].to_bits(), "-0.0 {path}");
    }
}

/// Regression: `Conv2d` still matches the direct-convolution oracle to
/// the documented tolerance (different algorithm, so only
/// float-rounding-level agreement is guaranteed).
#[test]
fn conv_gemm_matches_direct_conv() {
    for (in_c, out_c, k, stride, pad, hw) in [
        (1usize, 4usize, 3usize, 1usize, 0usize, 7usize),
        (2, 3, 3, 2, 1, 9),
        (3, 8, 5, 2, 0, 11),
        (1, 1, 1, 1, 0, 5), // 1×1 kernel: im2col is a pure reshape
    ] {
        let x = Tensor::from_vec(&[in_c, hw, hw], fill(in_c * hw * hw, 99, false));
        let mut conv = Conv2d::new("c", in_c, out_c, k, stride, pad, 7);
        let y = conv.forward(&x);
        let grad = Tensor::from_vec(y.shape(), fill(y.len(), 7, false));
        let gi = conv.backward(&grad);
        let (want_gw, want_gb, want_gi) = conv_direct_backward(&conv, &x, &grad);
        let want_y = conv_direct_forward(&conv, &x);
        let tag = format!("k={k} s={stride} p={pad}");
        assert_close(&format!("fwd {tag}"), want_y.data(), y.data(), 1e-4, 0.0);
        assert_close(&format!("dX {tag}"), want_gi.data(), gi.data(), 1e-4, 0.0);
        let (gw, gb) = (&conv.params()[0].grad, &conv.params()[1].grad);
        assert_close(&format!("dW {tag}"), want_gw.data(), gw.data(), 1e-4, 0.0);
        assert_close(&format!("db {tag}"), want_gb.data(), gb.data(), 1e-4, 0.0);
    }
}

/// A whole network forward gives the same bits on the lanes and on the
/// scalar tile.
#[test]
fn network_forward_bitwise_lanes_and_scalar() {
    use mramrl_nn::NetworkSpec;
    let spec = NetworkSpec::micro(16, 1, 5);
    let x = Tensor::from_vec(&[1, 16, 16], fill(256, 11, false));
    let [(_, want), (_, got)] = lanes_and_scalar(|| spec.build(3).forward(&x));
    assert_eq!(bits(want.data()), bits(got.data()));
}
