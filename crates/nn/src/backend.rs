//! The f32 GEMM kernel behind every conv and FC matrix product.
//!
//! Every conv and FC pass in this reproduction bottoms out in a dense
//! matrix product (the software mirror of the paper's GEMM-based
//! accelerator path, §V-B). There is one kernel per product, an
//! `MR×NR` = 8×8 register tile: on AVX2 lanes ([`crate::simd`]) where
//! [`crate::simd::simd_active`] holds, else the k-panel packed scalar
//! tile. [`matmul_into`] computes `A·B`, [`matmul_at_b_into`] `Aᵀ·B`.
//! The textbook triple loops survive as the test oracles
//! [`crate::difftest::matmul_into`] and
//! [`crate::difftest::matmul_at_b_into`].
//!
//! Every kernel here runs on the calling thread. Whether a pass spreads
//! over the [`crate::pool`] is decided one level up, by the layers, with
//! one rule (`pool::split_parts`): conv forwards split into slabs of
//! samples, FC forwards into output-row bands, backwards into
//! `dW ∥ dX`. See `docs/threading.md`.
//!
//! # Summation-order contract (exactness policy)
//!
//! The lanes, the scalar tile and the oracle compute every output
//! element with a **single accumulator** seeded at `+0.0` and add the
//! rounded products in **ascending order of the contraction index**
//! (`k` for `A·B`, the shared row index `i` for `Aᵀ·B`). Rust never
//! re-associates float arithmetic, no FMA contraction is emitted from
//! safe code here, and the lanes multiply and add in two separate
//! instructions, so all three are **bit-for-bit identical** — signed
//! zeros included, and with `NaN`s in exactly the same positions. The
//! single carve-out: `NaN` *payload* bits are unspecified by IEEE-754
//! (LLVM may commute float operands), so only `NaN`-ness, not the
//! payload, is guaranteed. The equivalence tests in
//! `crates/nn/tests/gemm_backends.rs` and
//! `crates/nn/tests/simd_equivalence.rs` assert this with
//! payload-canonicalised `f32::to_bits`. See `docs/gemm_backends.md`
//! for the full blocking/packing writeup.
//!
//! `NN_SIMD=off` (or a live [`crate::simd::force_scalar`] guard) keeps
//! the kernel on its scalar tile even where feature detection would
//! pick the lanes. Only speed changes, never bits.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::{backend, difftest};
//!
//! let a = [1.0, 2.0, 3.0, 4.0]; // 2×2
//! let b = [5.0, 6.0, 7.0, 8.0]; // 2×2
//! let mut c = [0.0f32; 4];
//! backend::matmul_into(&mut c, &a, &b, 2, 2, 2);
//! assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
//! assert_eq!(c.to_vec(), difftest::matmul(&a, &b, 2, 2, 2)); // bitwise
//! ```

/// Micro-tile height: output rows whose accumulators live in registers
/// together — 8 independent accumulation chains hide the float-add
/// latency.
const MR: usize = 8;

/// Micro-tile width: one SIMD vector of output columns per row (8 f32 =
/// one AVX2 register); `MR×NR` accumulators = 8 vector registers, the
/// shape of the lane tile in [`crate::simd`].
const NR: usize = 8;

/// Output-column tile width (multiple of `NR`): bounds the packed
/// `k×NC` B panel so it stays cache-resident while every row band
/// sweeps it.
const NC: usize = 512;

/// What `perfbench` records as its run context's GEMM backends: the
/// one kernel per datapath, named `"blocked"`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Blocked;

impl Blocked {
    /// `"blocked"`.
    pub fn name(self) -> &'static str {
        "blocked"
    }
}

/// [`Blocked`], for `perfbench`'s run context. ROADMAP item 3's
/// benchmark PR removes it.
#[doc(hidden)]
pub fn default_backend() -> Blocked {
    Blocked
}

/// Dense row-major `C[m×n] = A[m×k] · B[k×n]` into `c` (fully
/// overwritten, so a dirty buffer is fine): the allocation-free entry
/// point of every conv and FC product.
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
pub fn matmul_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A dimensions");
    assert_eq!(b.len(), k * n, "B dimensions");
    assert_eq!(c.len(), m * n, "C dimensions");
    if crate::simd::simd_active() {
        crate::simd::matmul_f32(c, a, b, m, k, n)
    } else {
        matmul_band(c, a, b, m, k, n)
    }
}

/// `C[k×n] = A[m×k]ᵀ · B[m×n]` into `c` (fully overwritten) without
/// materialising the transpose (the systolic array's Fig. 8 dataflow,
/// in software).
///
/// # Panics
///
/// Panics if any slice length does not match the dimensions.
pub fn matmul_at_b_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A dimensions");
    assert_eq!(b.len(), m * n, "B dimensions");
    assert_eq!(c.len(), k * n, "C dimensions");
    if crate::simd::simd_active() {
        crate::simd::matmul_at_b_f32(c, a, b, m, k, n)
    } else {
        at_b_blocked_into(c, a, b, m, k, n)
    }
}

/// Blocked `A·B` on the scalar tile, into `c` — the `NN_SIMD=off` and
/// no-AVX2 path. `c` and `a` hold `rows` rows of the output and of `A`.
///
/// Loop structure (GotoBLAS-style, register-accumulating micro-kernel):
///
/// * outer: column tiles of `NC` — the `k×nc` B panel is **packed once**
///   into contiguous rows and then swept by every row band;
/// * middle: `MR = 8` output rows at a time, with the matching `MR×k`
///   A-panel packed k-major (`apanel[kk·MR + r]` — the k-panel packing),
///   so the micro-kernel reads both operands as forward streams;
/// * inner: an `MR×NR` register tile — 64 scalar accumulators (8 SIMD
///   vectors) are swept over the whole contraction, then stored to `C`
///   once. ~12 loads feed 64 multiply-adds per `kk` step, so the kernel
///   is compute-bound instead of store-bound.
///
/// Bitwise contract: every element of `c` is **assigned** (never read),
/// each produced by one register accumulator that starts at `0.0` and
/// adds contributions in ascending-`k` order — the identical float-op
/// sequence to the naive loops, hence bit-identical results (Rust
/// neither re-associates nor auto-fuses into FMA). Callers may therefore
/// pass an uninitialised-by-value (dirty) buffer.
fn matmul_band(c: &mut [f32], a: &[f32], b: &[f32], rows: usize, k: usize, n: usize) {
    let mut apanel = vec![0.0f32; MR * k.max(1)];
    let mut bpanel = vec![0.0f32; NC.min(n) * k.max(1)];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        // Pack the B column block [k × nc] into contiguous rows.
        for kk in 0..k {
            bpanel[kk * nc..(kk + 1) * nc].copy_from_slice(&b[kk * n + jc..kk * n + jc + nc]);
        }
        let mut i = 0;
        while i + MR <= rows {
            // k-panel packing of A: k-major so the micro-kernel streams it.
            for r in 0..MR {
                for (kk, &v) in a[(i + r) * k..(i + 1 + r) * k].iter().enumerate() {
                    apanel[kk * MR + r] = v;
                }
            }
            let mut jt = 0;
            while jt + NR <= nc {
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let bt = &bpanel[kk * nc + jt..kk * nc + jt + NR];
                    let ap = &apanel[kk * MR..(kk + 1) * MR];
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let ar = ap[r];
                        for (av, &bv) in acc_r.iter_mut().zip(bt) {
                            *av += ar * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let dst = &mut c[(i + r) * n + jc + jt..(i + r) * n + jc + jt + NR];
                    dst.copy_from_slice(acc_r);
                }
                jt += NR;
            }
            // Column tail (nc % NR): scalar dots, same ascending-k order.
            for j in jt..nc {
                for r in 0..MR {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += apanel[kk * MR + r] * bpanel[kk * nc + j];
                    }
                    c[(i + r) * n + jc + j] = acc;
                }
            }
            i += MR;
        }
        // Row tail (rows % MR): scalar dots, same ascending-k order.
        while i < rows {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..nc {
                let mut acc = 0.0f32;
                for (kk, &av) in arow.iter().enumerate() {
                    acc += av * bpanel[kk * nc + j];
                }
                c[i * n + jc + j] = acc;
            }
            i += 1;
        }
    }
}

/// Rows of `A`/`B` consumed together by one `Aᵀ·B` sweep: the output is
/// re-streamed once per group, so 8 rows cut output traffic 8×.
const MR_ATB: usize = 8;

/// Blocked `Aᵀ·B` on scalar rank-1 sweeps over the whole output (single
/// thread), into `c` (fully overwritten) — the `NN_SIMD=off` and
/// no-AVX2 path.
///
/// The contraction runs over the *shared row index* `i`, so the natural
/// kernel is a sequence of rank-1 updates; grouping `MR_ATB = 8` input
/// rows per sweep streams the `k×n` output once per group instead of
/// once per row. The eight products are added left-to-right inside one
/// expression — still ascending-`i` order per output element, hence
/// bitwise identical to the naive loop.
fn at_b_blocked_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    let mut i = 0;
    while i + MR_ATB <= m {
        // Hoisted row slices: the sweep below indexes with `kk` against
        // slices of length `k` — one bounds proof per row per group
        // instead of one check per element.
        let ar = |r: usize| &a[(i + r) * k..(i + r + 1) * k];
        let br = |r: usize| &b[(i + r) * n..(i + r + 1) * n];
        let (a0, a1, a2, a3) = (ar(0), ar(1), ar(2), ar(3));
        let (a4, a5, a6, a7) = (ar(4), ar(5), ar(6), ar(7));
        let (b0, b1, b2, b3) = (br(0), br(1), br(2), br(3));
        let (b4, b5, b6, b7) = (br(4), br(5), br(6), br(7));
        for kk in 0..k {
            let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            let (x4, x5, x6, x7) = (a4[kk], a5[kk], a6[kk], a7[kk]);
            let crow = &mut c[kk * n..(kk + 1) * n];
            for (j, cv) in crow.iter_mut().enumerate() {
                // Left-to-right: ascending-i summation order preserved.
                *cv = *cv
                    + x0 * b0[j]
                    + x1 * b1[j]
                    + x2 * b2[j]
                    + x3 * b3[j]
                    + x4 * b4[j]
                    + x5 * b5[j]
                    + x6 * b6[j]
                    + x7 * b7[j];
            }
        }
        i += MR_ATB;
    }
    while i < m {
        let arow = &a[i * k..(i + 1) * k];
        let brow = &b[i * n..(i + 1) * n];
        for (kk, &x) in arow.iter().enumerate() {
            let crow = &mut c[kk * n..(kk + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += x * bv;
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::{self, bits};

    /// Runs `f` with the lanes as the host allows, then with the scalar
    /// tile forced.
    fn lanes_and_scalar(mut f: impl FnMut(&str)) {
        let _lock = crate::simd::gate_lock();
        f("lanes");
        let _scalar = crate::simd::force_scalar();
        f("scalar");
    }

    #[test]
    fn matmul_matches_the_oracle_bitwise() {
        for (m, k, n) in [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (5, 7, 9),
            (9, 6, 3),     // skinny: the column tail alone
            (8, 300, 16),  // long contraction, fully register-resident
            (13, 257, 33), // ragged tails on every dimension
            (4, 10, 600),  // n > NC: crosses a column-tile boundary
        ] {
            let a = difftest::fill(m * k, 1, false);
            let b = difftest::fill(k * n, 2, false);
            let want = bits(&difftest::matmul(&a, &b, m, k, n));
            lanes_and_scalar(|path| {
                let mut got = vec![f32::NAN; m * n]; // dirty: fully overwritten
                matmul_into(&mut got, &a, &b, m, k, n);
                assert_eq!(want, bits(&got), "{path} m={m} k={k} n={n}");
            });
        }
    }

    #[test]
    fn at_b_matches_the_oracle_bitwise() {
        for (m, k, n) in [(0usize, 3usize, 4usize), (6, 5, 7), (9, 130, 12), (5, 4, 1)] {
            let a = difftest::fill(m * k, 3, false);
            let b = difftest::fill(m * n, 4, false);
            let want = bits(&difftest::matmul_at_b(&a, &b, m, k, n));
            lanes_and_scalar(|path| {
                let mut got = vec![f32::NAN; k * n];
                matmul_at_b_into(&mut got, &a, &b, m, k, n);
                assert_eq!(want, bits(&got), "{path} m={m} k={k} n={n}");
            });
        }
    }
}
