//! SIMD-tier equivalence suite — the named CI gate for the lane
//! kernels (`cargo test -p mramrl_nn --test simd_equivalence`).
//!
//! Five contracts, all driven through the shared
//! [`mramrl_nn::difftest`] harness (see `docs/gemm_backends.md` and
//! `docs/fixed_point.md`):
//!
//! 1. **Q8.8 bitwise**: the kernel
//!    (`qgemm::matmul_bt_bias_requant_into`) equals the saturating
//!    oracle (`difftest::qmatmul_naive`) to the bit on every shape, pool width and
//!    batch — certified rows ride the 4×16 pair tile (`pmaddwd` lanes
//!    where the host has them), uncertified rows the scalar saturating
//!    chain, and the certificate is what keeps the two
//!    indistinguishable.
//! 2. **Tile edges**: every `k` parity, partial panels and short row
//!    groups, an uncertified row inside a tile, uncertified rows whose
//!    chains saturate at `i32::MAX` and at `i32::MIN` and leave the
//!    rail again, and a certified sum within 128 of `i32::MAX` (the
//!    re-quantisation's rounding add) produce the oracle's bits, with
//!    the lanes on and under [`mramrl_nn::simd::force_scalar`].
//! 3. **Certificate boundary**: rows constructed to sit exactly at,
//!    one unit below, and one unit above the [`row_safe`] L1
//!    threshold flip the verdict at the right point, and the kernel
//!    agrees with the oracle bitwise on either side of it.
//! 4. **Forced fallback**: under [`mramrl_nn::simd::force_scalar`]
//!    (the in-process face of the `NN_SIMD=off` knob) both datapaths
//!    run their scalar kernels with the oracle's bits — so the fallback
//!    path is CI-gated even on AVX2 hosts, and the CI matrix's
//!    `NN_SIMD=off` leg re-runs this whole suite with the env knob.
//! 5. **f32 lanes bitwise**: the f32 kernel's lane tile and its scalar
//!    tile both equal the naive oracle (`difftest::matmul`,
//!    `difftest::matmul_at_b`) to the bit, for `A·B` and
//!    `Aᵀ·B`, on every shape the batch-TD net's conv and FC passes
//!    produce at batch 32 and batch 1 (forward, `dW` and `dX`, the
//!    per-layer probe's CONV1 `dX` included), and on ragged tiles:
//!    every `n % 8` and `n % 16`, short row blocks, and products wide
//!    enough to be cut into packed column strips.

use std::sync::{Mutex, MutexGuard, PoisonError};

use mramrl_fixed::Q8_8;
use mramrl_nn::difftest::{
    self, assert_bitwise, bits, fill, qbits, qfill, qmatmul_naive, sweep_pools,
};
use mramrl_nn::qgemm::{matmul_bt_bias_requant_into, row_safe};
use mramrl_nn::{backend, simd, LayerSpec, NetworkSpec};
use proptest::prelude::*;

/// Serialises the tests that take a [`simd::force_scalar`] guard or
/// compare the lanes against the scalar path across several calls: the
/// guard is process-wide, so a test holding it would otherwise switch
/// the lanes off under a concurrent one.
fn gate_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` with the lanes as the host allows, then with the scalar
/// kernels forced.
fn lanes_and_scalar(mut f: impl FnMut(&str)) {
    let _lock = gate_lock();
    f("lanes");
    let _scalar = simd::force_scalar();
    f("scalar");
}

/// The integer kernel into a fresh buffer.
fn qmm(a: &[Q8_8], bt: &[Q8_8], bias: &[Q8_8], m: usize, k: usize, n: usize) -> Vec<Q8_8> {
    let mut c = vec![Q8_8::from_raw(0); m * n];
    matmul_bt_bias_requant_into(&mut c, a, bt, bias, m, k, n);
    c
}

/// The saturating oracle into a fresh buffer.
fn qoracle(a: &[Q8_8], bt: &[Q8_8], bias: &[Q8_8], m: usize, k: usize, n: usize) -> Vec<Q8_8> {
    let mut c = vec![Q8_8::from_raw(0); m * n];
    qmatmul_naive(&mut c, a, bt, bias, m, k, n);
    c
}

/// The f32 kernel's `A·B` into a fresh buffer.
fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![f32::NAN; m * n];
    backend::matmul_into(&mut c, a, b, m, k, n);
    c
}

/// The f32 kernel's `Aᵀ·B` into a fresh buffer.
fn matmul_at_b(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![f32::NAN; k * n];
    backend::matmul_at_b_into(&mut c, a, b, m, k, n);
    c
}

proptest! {
    /// Contract 1 at property scale: random ragged shapes (whole and
    /// partial panels, odd `k`, short row groups, sub-`QMIN_N` columns,
    /// empty dims), random operands, the kernel vs the saturating oracle,
    /// bit for bit.
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
        let want = qoracle(&a, &bt, &bias, m, k, n);
        let got = qmm(&a, &bt, &bias, m, k, n);
        prop_assert_eq!(qbits(&want), qbits(&got), "m={} k={} n={}", m, k, n);
    }

    /// Contract 5 at property scale: random ragged shapes, special
    /// values included, the kernel on lanes and on the scalar tile vs
    /// the naive oracle, both products, bit for bit.
    #[test]
    fn f32_lanes_match_naive_bitwise(
        m in 0usize..40,
        k in 0usize..70,
        n in 0usize..40,
        seed in 0u64..1 << 40,
    ) {
        f32_products_match_naive(m, k, n, seed, seed % 2 == 0);
    }

    /// Contract 3: certificate-boundary rows. With `bias = 0` and
    /// `max|b| = 1` the [`row_safe`] bound *is* the row's L1 norm, so
    /// rows of 32767-magnitude entries (signs randomised — L1 sees
    /// magnitudes only) land the bound exactly on `i32::MAX - 1`
    /// (certified), `i32::MAX` (first uncertified value) and
    /// `i32::MAX + 1` (uncertified): the verdict flips exactly at the
    /// strict `< i32::MAX` comparison, and the kernel produces the
    /// oracle's bits on both sides of the flip — the
    /// tile must hand the row to the saturating chain the moment the
    /// certificate fails. The certified row's all-positive draws sum
    /// to within 128 of `i32::MAX`.
    #[test]
    fn certificate_boundary_flips_exactly_and_the_kernel_agrees(seed in 0u64..1 << 40) {
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

        let n = 4usize; // = QMIN_N: the smallest width the tile accepts
        for arow in [&base, &at, &above] {
            let k = arow.len();
            // ±1 entries keep max|b| = 1 while exercising sign mixes.
            let bt: Vec<Q8_8> = (0..n * k).map(|i| Q8_8::from_raw(sign(i * 3))).collect();
            let want = qoracle(arow, &bt, &[zero], 1, k, n);
            let mut got = Vec::new();
            lanes_and_scalar(|_| got.push(qmm(arow, &bt, &[zero], 1, k, n)));
            for (path, got) in ["lanes", "scalar"].iter().zip(&got) {
                prop_assert_eq!(qbits(&want), qbits(got), "{} k={} L1-case", path, k);
            }
        }
    }
}

/// Contract 1 on a mixed product: saturating rows sit among certified
/// ones (two all-`-128.0` rows against a `Bᵀ` holding one `-128.0`
/// entry make the certificate fail genuinely), so both paths run in
/// one call, and the bits must be the oracle's under every pool width —
/// Q8.8 kernels never fan out, so the pool must be invisible.
#[test]
fn qsimd_mixed_rows_match_naive_at_every_pool_size() {
    let (m, k, n) = (32usize, 64usize, 80usize);
    let mut a = qfill(m * k, 51);
    // Rows 3 and 17: all-extreme entries, so the certificate bound
    // L1 · max|b| = 64 · 32768 · 32768 = 2³⁶ overshoots i32::MAX and
    // those rows genuinely take the saturating chain.
    for row in [3usize, 17] {
        for v in &mut a[row * k..(row + 1) * k] {
            *v = Q8_8::from_raw(i16::MIN);
        }
    }
    let mut bt = qfill(n * k, 52);
    bt[5] = Q8_8::from_raw(i16::MIN);
    let bias = qfill(m, 53);
    assert!(!row_safe(&a[3 * k..4 * k], bias[3], 32768));
    assert!(row_safe(&a[..k], bias[0], 32768));
    let want = qoracle(&a, &bt, &bias, m, k, n);
    sweep_pools(|pool_threads| {
        let got = qmm(&a, &bt, &bias, m, k, n);
        assert_eq!(qbits(&want), qbits(&got), "pool={pool_threads}");
    });
}

/// Contract 2: the tile's edges. Every `k` parity (1, 2, CONV1's 25,
/// CONV2's 72), panels that are partial, whole, and whole plus one
/// column, row groups short of four, whole and one over — all equal to
/// the oracle, with the lanes on and with the scalar tile forced.
#[test]
fn tile_edges_match_naive_with_lanes_and_scalar() {
    for k in [1usize, 2, 25, 72] {
        for n in [4usize, 5, 15, 16, 17, 33] {
            for m in [1usize, 3, 4, 5, 9] {
                let seed = (k * 1000 + n * 10 + m) as u64;
                let a = qfill(m * k, seed);
                let bt = qfill(n * k, seed ^ 0xBEEF);
                let bias = qfill(m, seed ^ 0xB1A5);
                let want = qoracle(&a, &bt, &bias, m, k, n);
                lanes_and_scalar(|path| {
                    let got = qmm(&a, &bt, &bias, m, k, n);
                    assert_eq!(qbits(&want), qbits(&got), "{path} m={m} k={k} n={n}");
                });
            }
        }
    }
}

/// Contract 2: one 4-row tile whose second row fails the certificate.
/// The certified rows 0, 2 and 3 share a tile, the uncertified row
/// takes the saturating chain, and no row's output lands in another's.
#[test]
fn uncertified_row_inside_a_tile_matches_naive() {
    let (m, k, n) = (4usize, 25usize, 17usize);
    let mut a = qfill(m * k, 81);
    for v in &mut a[k..2 * k] {
        *v = Q8_8::from_raw(i16::MAX);
    }
    let mut bt = qfill(n * k, 82);
    bt[k + 3] = Q8_8::from_raw(i16::MAX);
    let bias = qfill(m, 83);
    let max_b = i64::from(i16::MAX);
    assert!(!row_safe(&a[k..2 * k], bias[1], max_b), "row 1 must fail");
    for row in [0usize, 2, 3] {
        assert!(row_safe(&a[row * k..(row + 1) * k], bias[row], max_b));
    }
    let want = qoracle(&a, &bt, &bias, m, k, n);
    lanes_and_scalar(|path| {
        let got = qmm(&a, &bt, &bias, m, k, n);
        assert_eq!(qbits(&want), qbits(&got), "{path}");
    });
}

/// Contract 2: uncertified rows whose ascending chains really hit the
/// `i32` rails and come back. Row 1 climbs by four near-`2³⁰` products
/// and then falls by two; row 3 does the mirror image. Against a column
/// of `+32767`s row 1 crosses `i32::MAX` and row 3 `i32::MIN`, against
/// a column of `-32768`s the other way round, so both rails clamp and
/// the chain leaves the rail again — a wrapping, unclamped or reordered
/// chain would give other bits. The certified rows 0, 2 and 4 share
/// the tiles, with the lanes on and with the scalar tile forced.
#[test]
fn saturating_rows_cross_both_i32_rails_and_match_naive() {
    const BIG: i16 = i16::MAX;
    let (m, k, n) = (5usize, 25usize, 17usize);
    let mut a = qfill(m * k, 91);
    for (row, sign) in [(1usize, 1i16), (3, -1)] {
        for (i, v) in a[row * k..row * k + 6].iter_mut().enumerate() {
            let up = if i < 4 { sign } else { -sign };
            *v = Q8_8::from_raw(if up > 0 { BIG } else { i16::MIN });
        }
    }
    let mut bt = qfill(n * k, 92);
    for j in 0..n {
        let b = if j % 2 == 0 { BIG } else { i16::MIN };
        for v in &mut bt[j * k..j * k + 6] {
            *v = Q8_8::from_raw(b);
        }
    }
    let bias = qfill(m, 93);
    let max_b = 32768;
    for row in 0..m {
        let safe = row_safe(&a[row * k..(row + 1) * k], bias[row], max_b);
        assert_eq!(safe, row % 2 == 0, "row {row} certificate");
    }
    // Each hot row's chain, in exact arithmetic, leaves the i32 range
    // upwards in one column parity and downwards in the other.
    for row in [1usize, 3] {
        for j in 0..n {
            let mut sum = i64::from(bias[row].raw()) << 8;
            let (mut above, mut below) = (false, false);
            for p in 0..k {
                sum += i64::from(a[row * k + p].raw()) * i64::from(bt[j * k + p].raw());
                above |= sum > i64::from(i32::MAX);
                below |= sum < i64::from(i32::MIN);
            }
            let want_above = (row == 1) == (j % 2 == 0);
            assert!(
                above == want_above && below != want_above,
                "row {row} col {j}"
            );
        }
    }
    let want = qoracle(&a, &bt, &bias, m, k, n);
    lanes_and_scalar(|path| {
        let got = qmm(&a, &bt, &bias, m, k, n);
        assert_eq!(qbits(&want), qbits(&got), "{path}");
    });
}

/// Contract 2: certified sums within 128 of `i32::MAX`, where the
/// oracle's rounding add `sum + 128` no longer fits `i32`. With
/// `max|b| = 1` and all-positive draws the certificate bound *is* the
/// sum: an even `k` ending at `i32::MAX - 1`, and an odd `k` (its last
/// pair half-empty) plus a bias seed ending at `i32::MAX - 67`. Each
/// sits in row 1 of a 4-row tile, over a partial panel.
#[test]
fn requant_near_i32_max_matches_naive() {
    let n = 17usize;
    for (k, last, bias_raw) in [(65538usize, 32767i16, 0i16), (65537, 32700, 128)] {
        let mut hot: Vec<Q8_8> = vec![Q8_8::from_raw(32767); k];
        hot[k - 1] = Q8_8::from_raw(last);
        let sum: i64 =
            hot.iter().map(|q| i64::from(q.raw())).sum::<i64>() + 256 * i64::from(bias_raw);
        assert!(
            sum < i64::from(i32::MAX) && sum >= i64::from(i32::MAX) - 128,
            "sum {sum}"
        );
        let bias_hot = Q8_8::from_raw(bias_raw);
        assert!(row_safe(&hot, bias_hot, 1), "the hot row must certify");

        let small: Vec<Q8_8> = (0..k).map(|i| Q8_8::from_raw((i % 3) as i16 - 1)).collect();
        let a: Vec<Q8_8> = [&small[..], &hot, &small, &small].concat();
        let bias = [Q8_8::from_raw(5), bias_hot, Q8_8::from_raw(-5), Q8_8::ZERO];
        let bt = vec![Q8_8::from_raw(1); n * k];
        let want = qoracle(&a, &bt, &bias, 4, k, n);
        assert_eq!(want[n], Q8_8::MAX, "the hot row saturates high");
        lanes_and_scalar(|path| {
            let got = qmm(&a, &bt, &bias, 4, k, n);
            assert_eq!(qbits(&want), qbits(&got), "{path} k={k}");
        });
    }
}

/// Contract 4: under [`simd::force_scalar`] the SIMD tier is inert —
/// `simd_active()` reports off, the f32 kernel runs its scalar tile and the integer tile runs on scalar adds, both with the
/// oracle's bits — and activity resumes when the guard drops. This is
/// the in-process twin of the CI matrix's `NN_SIMD=off` leg, runnable
/// on any host.
#[test]
fn forced_fallback_collapses_both_datapaths_onto_scalar_kernels() {
    let _lock = gate_lock();
    let was_active = simd::simd_active();
    {
        let _guard = simd::force_scalar();
        assert!(!simd::simd_active(), "guard must force the scalar path");

        let (m, k, n) = (9usize, 37, 21);
        let a = fill(m * k, 61, true);
        let b = fill(k * n, 62, true);
        assert_bitwise(
            "fallback matmul ≡ naive",
            &difftest::matmul(&a, &b, m, k, n),
            &matmul(&a, &b, m, k, n),
        );
        let bt = fill(m * n, 63, true);
        assert_bitwise(
            "fallback at_b ≡ naive",
            &difftest::matmul_at_b(&a, &bt, m, k, n),
            &matmul_at_b(&a, &bt, m, k, n),
        );

        let qa = qfill(m * k, 64);
        let qbt = qfill(n * k, 65);
        let qbias = qfill(m, 66);
        assert_eq!(
            qbits(&qoracle(&qa, &qbt, &qbias, m, k, n)),
            qbits(&qmm(&qa, &qbt, &qbias, m, k, n)),
            "fallback qgemm ≡ oracle"
        );
    }
    assert_eq!(
        simd::simd_active(),
        was_active,
        "dropping the guard must restore the prior state"
    );
}

/// Contract 5's check: `A[m×k]·B[k×n]` and `A[m×k]ᵀ·B[m×n]` on the
/// kernel, lanes on and scalar forced, against the naive oracle.
fn f32_products_match_naive(m: usize, k: usize, n: usize, seed: u64, specials: bool) {
    let a = fill(m * k, seed, specials);
    let b = fill(k * n, seed ^ 0xF32, specials);
    let bt = fill(m * n, seed ^ 0xF33, specials);
    let want = bits(&difftest::matmul(&a, &b, m, k, n));
    let want_t = bits(&difftest::matmul_at_b(&a, &bt, m, k, n));
    lanes_and_scalar(|path| {
        let got = matmul(&a, &b, m, k, n);
        assert_eq!(want, bits(&got), "{path} A·B m={m} k={k} n={n}");
        let got_t = matmul_at_b(&a, &bt, m, k, n);
        assert_eq!(want_t, bits(&got_t), "{path} Aᵀ·B m={m} k={k} n={n}");
    });
}

/// The batch-TD benchmark net (`mramrl_bench::batch_td_spec`, which
/// this crate cannot depend on): the 40×40 micro trunk with its FC
/// tail re-proportioned to 1024, 512, 512, 256 and 5 outputs.
fn batch_td_net() -> NetworkSpec {
    let mut spec = NetworkSpec::micro(40, 1, 5);
    let mut dims = [1024usize, 512, 512, 256, 5].into_iter();
    let mut prev = None;
    for l in &mut spec.layers {
        if let LayerSpec::Fc { in_f, out_f, .. } = l {
            if let Some(p) = prev {
                *in_f = p;
            }
            *out_f = dims.next().expect("five FC layers");
            prev = Some(*out_f);
        }
    }
    spec.validate().expect("re-proportioned spec chains");
    spec
}

/// Every `(label, m, k, n)` the net's conv and FC layers hand
/// `matmul_into` (`A·B`) and `matmul_at_b_into` (`Aᵀ·B`, labelled
/// `dW`) at batch `batch`: each layer's forward, `dW` and `dX`. A
/// conv's `dW` runs once per sample over its output positions.
fn gemm_shapes(spec: &NetworkSpec, batch: usize) -> Vec<(String, usize, usize, usize)> {
    let outs = spec.validate().expect("spec chains");
    let mut shapes = Vec::new();
    for (l, out) in spec.layers.iter().zip(&outs) {
        match l {
            LayerSpec::Conv {
                name,
                in_c,
                out_c,
                k,
                ..
            } => {
                let (pos, taps) = (out[1] * out[2], in_c * k * k);
                shapes.push((format!("{name} fwd"), *out_c, taps, batch * pos));
                shapes.push((format!("{name} dW"), pos, *out_c, taps));
                shapes.push((format!("{name} dX"), batch * pos, *out_c, taps));
            }
            LayerSpec::Fc { name, in_f, out_f } => {
                shapes.push((format!("{name} fwd"), *out_f, *in_f, batch));
                shapes.push((format!("{name} dW"), batch, *out_f, *in_f));
                shapes.push((format!("{name} dX"), batch, *out_f, *in_f));
            }
            _ => {}
        }
    }
    shapes
}

/// Contract 5 on the shapes training and the per-layer probe run:
/// every product of the batch-TD net at batch 32 and batch 1 — CONV1's
/// `dX` (10 368 × 8 × 25) and FC5's (k = 5) among them — equals the
/// naive oracle, lanes on and scalar forced.
#[test]
fn f32_batch_td_shapes_match_naive_with_lanes_and_scalar() {
    let spec = batch_td_net();
    for batch in [32usize, 1] {
        let shapes = gemm_shapes(&spec, batch);
        assert_eq!(
            shapes.len(),
            30,
            "ten parameterised layers × three products"
        );
        for (i, (label, m, k, n)) in shapes.into_iter().enumerate() {
            // `dW` is C[k×n] = A[m×k]ᵀ·B[m×n]; the rest C[m×n] = A·B[k×n].
            let at_b = label.ends_with("dW");
            let a = fill(m * k, i as u64, false);
            let b = fill(if at_b { m * n } else { k * n }, i as u64 ^ 0xB, false);
            let want = bits(&match at_b {
                true => difftest::matmul_at_b(&a, &b, m, k, n),
                false => difftest::matmul(&a, &b, m, k, n),
            });
            lanes_and_scalar(|path| {
                let got = match at_b {
                    true => matmul_at_b(&a, &b, m, k, n),
                    false => matmul(&a, &b, m, k, n),
                };
                assert_eq!(want, bits(&got), "{path} batch {batch} {label}");
            });
        }
    }
}

/// Contract 5 on the tile's edges: every column count mod 8 and mod 16,
/// row blocks short of eight, whole and one over, contractions of one,
/// CONV1's 25 taps and FC5's 5 outputs, and products wide enough to be
/// cut into packed column strips with a ragged last strip.
#[test]
fn f32_tile_edges_match_naive_with_lanes_and_scalar() {
    for m in [1usize, 3, 7, 8, 9, 17] {
        for k in [1usize, 5, 8, 25] {
            for n in [1usize, 7, 8, 9, 15, 16, 17, 23, 25, 33] {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                f32_products_match_naive(m, k, n, seed, seed % 3 == 0);
            }
        }
    }
    // `A·B` strips of 104 columns at k = 300, and `Aᵀ·B` strips of 24
    // columns at m = 1100: 250 and 50 columns end in ragged strips.
    f32_products_match_naive(9, 300, 250, 1, true);
    f32_products_match_naive(1100, 3, 50, 2, true);
}
