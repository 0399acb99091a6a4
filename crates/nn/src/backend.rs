//! Pluggable GEMM backends for the NN hot path.
//!
//! Every conv and FC pass in this reproduction bottoms out in a dense
//! matrix product (the software mirror of the paper's GEMM-based
//! accelerator path, §V-B). This module makes the kernel that computes
//! those products *selectable*:
//!
//! | Backend    | Kernel                                         | Use |
//! |------------|------------------------------------------------|-----|
//! | [`GemmBackend::Naive`]    | reference triple loops ([`crate::gemm::matmul`]) | correctness oracle |
//! | [`GemmBackend::Blocked`]  | `MR×NR` = 8×8 tile: AVX2 lanes ([`crate::simd`]) where [`crate::simd::simd_active`] holds, else the k-panel packed scalar tile | default |
//!
//! Every kernel here runs on the calling thread. Whether a pass spreads
//! over the [`crate::pool`] is decided one level up, by the layers, with
//! one rule for every backend (`pool::split_parts`): conv
//! forwards split into slabs of samples, FC forwards into output-row
//! bands, backwards into `dW ∥ dX`. See `docs/threading.md`.
//!
//! # Summation-order contract (exactness policy)
//!
//! Every backend — the naive oracle, the blocked scalar tile and its
//! AVX2 lanes — computes every output element with a **single
//! accumulator** seeded at `+0.0` and adds the rounded products in
//! **ascending order of the contraction index** (`k` for `A·B`, the
//! shared row index `i` for `Aᵀ·B`). Rust never re-associates float
//! arithmetic, no FMA contraction is emitted from safe code here, and
//! the lanes multiply and add in two separate instructions, so the
//! backends are **bit-for-bit identical**, lanes on or off — signed
//! zeros included, and with `NaN`s in exactly the same positions. The single
//! carve-out: `NaN` *payload* bits are unspecified by IEEE-754 (LLVM
//! may commute float operands), so only `NaN`-ness, not the payload, is
//! guaranteed. The equivalence proptests in
//! `crates/nn/tests/gemm_backends.rs` assert this with
//! payload-canonicalised `f32::to_bits`. See `docs/gemm_backends.md`
//! for the full blocking/packing writeup.
//!
//! # Environment knobs
//!
//! * `NN_GEMM_BACKEND` — `naive` | `blocked`; the process-wide
//!   default returned by [`default_backend`] (default: `blocked`).
//!   Parsed by [`env_backend_knob`], which warns on stderr for unknown
//!   values — the retired `threaded` and `simd` among them — and falls
//!   back to `blocked` instead of silently defaulting.
//! * `NN_SIMD` — `auto` (default) | `off`: forces
//!   [`GemmBackend::Blocked`] onto its scalar tile even where feature
//!   detection would pick the lanes ([`crate::simd::simd_active`]).
//!   Only speed changes, never bits.
//!
//! `NN_GEMM_BACKEND` is read once and cached.
//!
//! # Examples
//!
//! ```
//! use mramrl_nn::backend::GemmBackend;
//!
//! let a = [1.0, 2.0, 3.0, 4.0]; // 2×2
//! let b = [5.0, 6.0, 7.0, 8.0]; // 2×2
//! let naive = GemmBackend::Naive.matmul(&a, &b, 2, 2, 2);
//! let blocked = GemmBackend::Blocked.matmul(&a, &b, 2, 2, 2);
//! assert_eq!(naive, vec![19.0, 22.0, 43.0, 50.0]);
//! assert_eq!(naive, blocked); // bitwise, by the summation-order contract
//! ```

use std::str::FromStr;
use std::sync::OnceLock;

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

/// Which GEMM kernel the NN layers use for their matrix products.
///
/// Selection is threaded through [`crate::Conv2d`], [`crate::Linear`],
/// [`crate::Network::set_gemm_backend`] and the `mramrl_rl` trainer; the
/// process-wide default comes from [`default_backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GemmBackend {
    /// Reference triple-loop kernels — the correctness oracle every other
    /// backend is proven against.
    Naive,
    /// The `MR×NR` register-tiled kernel: AVX2 lanes where
    /// [`crate::simd::simd_active`] holds, else the cache-blocked,
    /// k-panel-packed scalar tile — the same bits either way.
    #[default]
    Blocked,
}

impl GemmBackend {
    /// All backends, oracle first — the sweep every cross-backend
    /// bitwise test runs over (every backend is under the
    /// summation-order contract).
    pub const ALL: [GemmBackend; 2] = [GemmBackend::Naive, GemmBackend::Blocked];

    /// Stable lowercase name (the `NN_GEMM_BACKEND` / `--backend` token).
    pub fn name(self) -> &'static str {
        match self {
            GemmBackend::Naive => "naive",
            GemmBackend::Blocked => "blocked",
        }
    }

    /// Reads `NN_GEMM_BACKEND` via [`env_backend_knob`], falling back
    /// to [`GemmBackend::Blocked`] when unset or unrecognised (the
    /// latter warns on stderr).
    pub fn from_env() -> Self {
        env_backend_knob("NN_GEMM_BACKEND").unwrap_or_default()
    }

    /// Dense row-major `C[m×n] = A[m×k] · B[k×n]` with this backend.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the dimensions.
    pub fn matmul(self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        self.matmul_into(&mut c, a, b, m, k, n);
        c
    }

    /// [`GemmBackend::matmul`] writing into a caller-provided output
    /// buffer — the allocation-free entry point used by the batched
    /// workspace path. `c` is fully overwritten; the summation-order
    /// contract (and hence cross-backend bit-identity) is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any slice length does not match the dimensions.
    pub fn matmul_into(self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "A dimensions");
        assert_eq!(b.len(), k * n, "B dimensions");
        assert_eq!(c.len(), m * n, "C dimensions");
        match self {
            GemmBackend::Naive => crate::gemm::matmul_into(c, a, b, m, k, n),
            GemmBackend::Blocked if crate::simd::simd_active() => {
                crate::simd::matmul_f32(c, a, b, m, k, n)
            }
            GemmBackend::Blocked => matmul_blocked_into(c, a, b, m, k, n),
        }
    }

    /// `C[k×n] = A[m×k]ᵀ · B[m×n]` without materialising the transpose
    /// (the systolic array's Fig. 8 dataflow, in software).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the dimensions.
    pub fn matmul_at_b(self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; k * n];
        self.matmul_at_b_into(&mut c, a, b, m, k, n);
        c
    }

    /// [`GemmBackend::matmul_at_b`] writing into a caller-provided output
    /// buffer (fully overwritten). Same summation-order contract.
    ///
    /// # Panics
    ///
    /// Panics if any slice length does not match the dimensions.
    pub fn matmul_at_b_into(
        self,
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(a.len(), m * k, "A dimensions");
        assert_eq!(b.len(), m * n, "B dimensions");
        assert_eq!(c.len(), k * n, "C dimensions");
        match self {
            GemmBackend::Naive => crate::gemm::matmul_at_b_into(c, a, b, m, k, n),
            GemmBackend::Blocked if crate::simd::simd_active() => {
                crate::simd::matmul_at_b_f32(c, a, b, m, k, n)
            }
            GemmBackend::Blocked => at_b_blocked_into(c, a, b, m, k, n),
        }
    }
}

impl FromStr for GemmBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(GemmBackend::Naive),
            "blocked" => Ok(GemmBackend::Blocked),
            other => Err(format!(
                "unknown GEMM backend {other:?} (expected naive|blocked)"
            )),
        }
    }
}

impl core::fmt::Display for GemmBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide default backend: `NN_GEMM_BACKEND` (resolved once,
/// then cached). Freshly-constructed layers pick this up.
pub fn default_backend() -> GemmBackend {
    static DEFAULT: OnceLock<GemmBackend> = OnceLock::new();
    *DEFAULT.get_or_init(GemmBackend::from_env)
}

/// Parses a GEMM-backend env knob (the one documented route for
/// `NN_GEMM_BACKEND` and the bench binaries' `--backend` override).
/// Returns `None` when the variable is unset; a set-but-unknown value
/// **warns on stderr** and returns `None` — the same
/// complain-then-fall-back policy as [`crate::pool::env_thread_knob`],
/// so a typo'd backend can no longer silently run blocked.
pub fn env_backend_knob(var: &str) -> Option<GemmBackend> {
    parse_backend_knob(var, &std::env::var(var).ok()?)
}

/// The parse half of [`env_backend_knob`], split out so tests can cover
/// the accept/warn behaviour without mutating process env (concurrent
/// `setenv`/`getenv` from parallel test threads is UB on glibc).
pub(crate) fn parse_backend_knob(var: &str, v: &str) -> Option<GemmBackend> {
    match v.parse::<GemmBackend>() {
        Ok(be) => Some(be),
        Err(e) => {
            eprintln!("warning: {var}: {e}; using blocked");
            None
        }
    }
}

/// Blocked `A·B` on the scalar tile over the whole output (single
/// thread), into `c` — the `NN_SIMD=off` and no-AVX2 path.
fn matmul_blocked_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    // Mat-vec and skinny products gain nothing from packing; the reference
    // loops have the identical summation order, so this is invisible.
    if n < 8 {
        crate::gemm::matmul_into(c, a, b, m, k, n);
        return;
    }
    matmul_band(c, a, b, m, k, n);
}

/// Blocked `A·B` into a row band: `c` and `a` hold `rows` consecutive
/// rows of the output and of `A` respectively.
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

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (h % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        for (m, k, n) in [
            (0usize, 3usize, 4usize),
            (3, 0, 4),
            (3, 4, 0),
            (1, 1, 1),
            (5, 7, 9),
            (8, 300, 16),  // long contraction, fully register-resident
            (13, 257, 33), // ragged tails on every dimension
            (4, 10, 600),  // n > NC: crosses a column-tile boundary
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
            let got = GemmBackend::Blocked.matmul(&a, &b, m, k, n);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn at_b_matches_naive_bitwise() {
        for (m, k, n) in [(0usize, 3usize, 4usize), (6, 5, 7), (9, 130, 12), (5, 4, 1)] {
            let a = fill(m * k, 3);
            let b = fill(m * n, 4);
            let want = GemmBackend::Naive.matmul_at_b(&a, &b, m, k, n);
            let got = GemmBackend::Blocked.matmul_at_b(&a, &b, m, k, n);
            assert_eq!(
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn parse_roundtrip_and_errors() {
        for be in GemmBackend::ALL {
            assert_eq!(be.name().parse::<GemmBackend>().unwrap(), be);
            assert_eq!(be.to_string(), be.name());
        }
        assert_eq!(
            " Blocked ".parse::<GemmBackend>().unwrap(),
            GemmBackend::Blocked
        );
        assert!("gpu".parse::<GemmBackend>().is_err());
        assert!("threaded".parse::<GemmBackend>().is_err());
        assert!("simd".parse::<GemmBackend>().is_err());
    }

    #[test]
    fn backend_knob_accepts_and_warns() {
        // The parse half is covered directly (no env mutation — see
        // `parse_backend_knob`'s doc); unknown values warn + None so
        // `from_env` falls back to the default instead of silently
        // misreading a typo.
        for be in GemmBackend::ALL {
            assert_eq!(parse_backend_knob("K", be.name()), Some(be));
        }
        assert_eq!(
            parse_backend_knob("K", " Blocked "),
            Some(GemmBackend::Blocked)
        );
        // The retired row-band and FMA backends warn and fall back to
        // blocked (the `None` that `from_env` defaults), never a panic.
        assert_eq!(parse_backend_knob("K", "threaded"), None);
        assert_eq!(parse_backend_knob("K", " Threaded "), None);
        assert_eq!(parse_backend_knob("K", "simd"), None);
        assert_eq!(parse_backend_knob("K", " Simd "), None);
        assert_eq!(parse_backend_knob("K", "gpu"), None);
        assert_eq!(parse_backend_knob("K", ""), None);
        assert_eq!(env_backend_knob("NN_TEST_BACKEND_KNOB_UNSET"), None);
    }
}
