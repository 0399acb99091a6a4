//! SIMD-tier equivalence suite — the named CI gate for the lane
//! kernels (`cargo test -p mramrl_nn --test simd_equivalence`).
//!
//! Four contracts, all driven through the shared
//! [`mramrl_nn::difftest`] harness (see `docs/gemm_backends.md` and
//! `docs/fixed_point.md`):
//!
//! 1. **Q8.8 bitwise**: `QGemmBackend::Simd` equals the `Naive`
//!    saturating oracle to the bit on every shape, pool width and
//!    batch — certified rows ride `pmaddwd` lanes, uncertified rows
//!    the scalar saturating chain, and the certificate is what keeps
//!    the two indistinguishable.
//! 2. **Certificate boundary**: rows constructed to sit exactly at,
//!    one unit below, and one unit above the [`row_safe`] L1
//!    threshold flip the verdict at the right point, and all three
//!    integer backends agree bitwise on either side of it.
//! 3. **Forced fallback**: under [`mramrl_nn::simd::force_scalar`]
//!    (the in-process face of the `NN_SIMD=off` knob) both datapaths
//!    collapse onto their scalar kernels bitwise — so the fallback
//!    path is CI-gated even on AVX2 hosts, and the CI matrix's
//!    `NN_SIMD=off` leg re-runs this whole suite with the env knob.
//! 4. **f32 tolerance tier**: `GemmBackend::Simd` matches the naive
//!    oracle to the documented FMA tolerance, while staying bitwise
//!    self-consistent across batch splits and pool widths (each
//!    output element is one FMA chain regardless of banding), with
//!    the backward contraction bitwise on the `Blocked` family.

use mramrl_fixed::Q8_8;
use mramrl_nn::backend::GemmBackend;
use mramrl_nn::difftest::{
    assert_bitwise, assert_close, assert_ulp_close, fill, fill01, qbits, qfill, sweep_pools,
};
use mramrl_nn::qgemm::{row_safe, QGemmBackend};
use mramrl_nn::{simd, NetworkSpec, Tensor, Workspace};
use proptest::prelude::*;

/// Runs one integer GEMM on the given backend into a fresh buffer.
fn qmm(
    be: QGemmBackend,
    a: &[Q8_8],
    bt: &[Q8_8],
    bias: &[Q8_8],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<Q8_8> {
    let mut c = vec![Q8_8::from_raw(0); m * n];
    be.matmul_bt_bias_requant_into(&mut c, a, bt, bias, m, k, n);
    c
}

proptest! {
    /// Contract 1 at property scale: random ragged shapes (vector
    /// bodies, scalar tails, sub-`QMIN_N` columns, empty dims), random
    /// operands, `Simd` vs the saturating oracle, bit for bit.
    #[test]
    fn qsimd_matches_naive_bitwise(
        m in 0usize..10,
        k in 0usize..70,
        n in 0usize..14,
        seed in 0u64..1 << 40,
    ) {
        let a = qfill(m * k, seed);
        let bt = qfill(n * k, seed ^ 0xBEEF);
        let bias = qfill(m, seed ^ 0xB1A5);
        let want = qmm(QGemmBackend::Naive, &a, &bt, &bias, m, k, n);
        let got = qmm(QGemmBackend::Simd, &a, &bt, &bias, m, k, n);
        prop_assert_eq!(qbits(&want), qbits(&got), "m={} k={} n={}", m, k, n);
    }

    /// Contract 4 at property scale: the `Simd` float kernel agrees
    /// with the naive oracle to the documented FMA tolerance (each
    /// unfused step rounds one product, so the gap is bounded by
    /// ~`k` product-roundings), and on positive — cancellation-free —
    /// data the agreement is ULP-tight.
    #[test]
    fn f32_simd_close_to_naive(
        m in 1usize..10,
        k in 1usize..200,
        n in 1usize..24,
        seed in 0u64..1 << 40,
    ) {
        let a = fill(m * k, seed, false);
        let b = fill(k * n, seed ^ 0xF32, false);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        let got = GemmBackend::Simd.matmul(&a, &b, m, k, n);
        let atol = 1e-6 + k as f32 * 1e-6;
        assert_close("simd vs naive", &want, &got, atol, 1e-5);

        let ap = fill01(m * k, seed);
        let bp = fill01(k * n, seed ^ 0xF33);
        let wantp = GemmBackend::Naive.matmul(&ap, &bp, m, k, n);
        let gotp = GemmBackend::Simd.matmul(&ap, &bp, m, k, n);
        assert_ulp_close("simd vs naive (positive)", &wantp, &gotp, 4 * k as u64 + 4);
    }

    /// Contract 2: certificate-boundary rows. With `bias = 0` and
    /// `max|b| = 1` the [`row_safe`] bound *is* the row's L1 norm, so
    /// rows of 32767-magnitude entries (signs randomised — L1 sees
    /// magnitudes only) land the bound exactly on `i32::MAX - 1`
    /// (certified), `i32::MAX` (first uncertified value) and
    /// `i32::MAX + 1` (uncertified): the verdict flips exactly at the
    /// strict `< i32::MAX` comparison, and every integer backend
    /// produces the oracle's bits on both sides of the flip — the
    /// lane kernel must take the saturating chain the moment the
    /// certificate fails.
    #[test]
    fn certificate_boundary_flips_exactly_and_all_backends_agree(seed in 0u64..1 << 40) {
        // 65538 × 32767 = 2_147_483_646 = i32::MAX - 1.
        let full = 65538usize;
        let sign = |i: usize| if (seed >> (i % 40)) & 1 == 0 { 1i16 } else { -1i16 };
        let base: Vec<Q8_8> = (0..full).map(|i| Q8_8::from_raw(32767 * sign(i))).collect();
        let mut at = base.clone();
        at.push(Q8_8::from_raw(sign(7)));        // L1 = i32::MAX
        let mut above = base.clone();
        above.push(Q8_8::from_raw(2 * sign(11))); // L1 = i32::MAX + 1
        let zero = Q8_8::from_raw(0);
        prop_assert!(row_safe(&base, zero, 1), "one below the bound must certify");
        prop_assert!(!row_safe(&at, zero, 1), "at the bound must not certify");
        prop_assert!(!row_safe(&above, zero, 1), "above the bound must not certify");

        let n = 4usize; // = QMIN_N: the smallest width the lane path accepts
        for arow in [&base, &at, &above] {
            let k = arow.len();
            // ±1 entries keep max|b| = 1 while exercising sign mixes.
            let bt: Vec<Q8_8> = (0..n * k).map(|i| Q8_8::from_raw(sign(i * 3))).collect();
            let want = qmm(QGemmBackend::Naive, arow, &bt, &[zero], 1, k, n);
            for be in [QGemmBackend::Blocked, QGemmBackend::Simd] {
                let got = qmm(be, arow, &bt, &[zero], 1, k, n);
                prop_assert_eq!(
                    qbits(&want), qbits(&got),
                    "{} k={} L1-case", be, k
                );
            }
        }
    }
}

/// Contract 1 on a mixed product: saturating rows sit among certified
/// ones (a handful of `-128.0` rows make the certificate fail
/// genuinely), so both paths run in one call, and the bits must be the
/// oracle's under every pool width — Q8.8 kernels never fan out, so the
/// pool must be invisible.
#[test]
fn qsimd_mixed_rows_match_naive_at_every_pool_size() {
    let (m, k, n) = (32usize, 64usize, 80usize);
    let mut a = qfill(m * k, 51);
    // Rows 3 and 17: all-extreme entries, so the certificate bound
    // L1 · max|b| ≈ 64 · 32768 · 32768 ≈ 2³⁶ overshoots i32::MAX and
    // those rows genuinely take the saturating chain.
    for row in [3usize, 17] {
        for v in &mut a[row * k..(row + 1) * k] {
            *v = Q8_8::from_raw(i16::MIN);
        }
    }
    let bt = qfill(n * k, 52);
    let bias = qfill(m, 53);
    let want = qmm(QGemmBackend::Naive, &a, &bt, &bias, m, k, n);
    sweep_pools(|pool_threads| {
        let got = qmm(QGemmBackend::Simd, &a, &bt, &bias, m, k, n);
        assert_eq!(qbits(&want), qbits(&got), "pool={pool_threads}");
    });
}

/// Contract 3: under [`simd::force_scalar`] the SIMD tier is inert —
/// `simd_active()` reports off, the f32 backend produces `Blocked`'s
/// bits and the integer backend the oracle's — and activity resumes
/// when the guard drops. This is the in-process twin of the CI
/// matrix's `NN_SIMD=off` leg, runnable on any host.
#[test]
fn forced_fallback_collapses_both_datapaths_onto_scalar_kernels() {
    let was_active = simd::simd_active();
    {
        let _guard = simd::force_scalar();
        assert!(!simd::simd_active(), "guard must force the scalar path");

        let (m, k, n) = (9usize, 37, 21);
        let a = fill(m * k, 61, true);
        let b = fill(k * n, 62, true);
        assert_bitwise(
            "fallback matmul ≡ blocked",
            &GemmBackend::Blocked.matmul(&a, &b, m, k, n),
            &GemmBackend::Simd.matmul(&a, &b, m, k, n),
        );
        let bt = fill(m * n, 63, true);
        assert_bitwise(
            "fallback at_b ≡ blocked",
            &GemmBackend::Blocked.matmul_at_b(&a, &bt, m, k, n),
            &GemmBackend::Simd.matmul_at_b(&a, &bt, m, k, n),
        );

        let qa = qfill(m * k, 64);
        let qbt = qfill(n * k, 65);
        let qbias = qfill(m, 66);
        assert_eq!(
            qbits(&qmm(QGemmBackend::Naive, &qa, &qbt, &qbias, m, k, n)),
            qbits(&qmm(QGemmBackend::Simd, &qa, &qbt, &qbias, m, k, n)),
            "fallback qgemm ≡ oracle"
        );
    }
    assert_eq!(
        simd::simd_active(),
        was_active,
        "dropping the guard must restore the prior state"
    );
}

/// Contract 4, self-consistency: within the `Simd` backend each output
/// element's bits depend only on its own (row, column) operands — so a
/// matmul over the full row block equals the concatenation of matmuls
/// over arbitrary row splits (the property that makes the parallel
/// rule's output-row bands and sample slabs invisible). The backward
/// contraction (`matmul_at_b`, deliberately routed to the `Blocked`
/// family) equals the naive oracle bitwise.
#[test]
fn f32_simd_is_invariant_under_row_splits() {
    let (m, k, n) = (13usize, 96, 40);
    let a = fill(m * k, 71, false);
    let b = fill(k * n, 72, false);
    let full = GemmBackend::Simd.matmul(&a, &b, m, k, n);
    for split in [1usize, 5, 12] {
        let top = GemmBackend::Simd.matmul(&a[..split * k], &b, split, k, n);
        let bot = GemmBackend::Simd.matmul(&a[split * k..], &b, m - split, k, n);
        let stitched: Vec<f32> = top.into_iter().chain(bot).collect();
        assert_bitwise(&format!("split at {split}"), &full, &stitched);
    }
    let bt = fill(m * n, 73, false);
    assert_bitwise(
        "at_b ≡ naive",
        &GemmBackend::Naive.matmul_at_b(&a, &bt, m, k, n),
        &GemmBackend::Simd.matmul_at_b(&a, &bt, m, k, n),
    );
}

/// Contract 4 end-to-end: a whole batched network forward on the
/// `Simd` backend is bit-identical to its own serial single-image
/// passes at every pool width (batched ≡ serial holds *within* the
/// tolerance tier, not just within the bitwise family).
#[test]
fn simd_network_batched_equals_serial_at_every_pool_size() {
    let spec = NetworkSpec::micro(16, 1, 5);
    let n = 3usize;
    let data = fill(n * 256, 91, false);
    let batched = Tensor::from_vec(&[n, 1, 16, 16], data.clone());

    let mut serial_net = spec.build(5);
    serial_net.set_gemm_backend(GemmBackend::Simd);
    let mut serial_out = Vec::new();
    for i in 0..n {
        let x = Tensor::from_vec(&[1, 16, 16], data[i * 256..(i + 1) * 256].to_vec());
        serial_out.extend_from_slice(serial_net.forward(&x).data());
    }

    sweep_pools(|pool_threads| {
        let mut net = spec.build(5);
        net.set_gemm_backend(GemmBackend::Simd);
        let mut ws = Workspace::for_spec(&spec);
        let got = net.forward_batch(&batched, &mut ws);
        assert_bitwise(&format!("pool={pool_threads}"), &serial_out, got.data());
    });
}
