//! Forces the `Threaded` backend's real fan-out path and proves it
//! bitwise-equal to the oracle.
//!
//! The row-band count is the current pool's executor count, so the test
//! installs a 4-executor pool: the shapes here exceed `PAR_MIN_MACS`, so
//! the band splitting genuinely executes even under `NN_POOL_THREADS=1`
//! or on a single-core machine (where the equivalence suite's small
//! shapes would otherwise always take the blocked fallback).

use mramrl_nn::backend::GemmBackend;
use mramrl_nn::pool::{current_threads, ThreadPool};

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

#[test]
fn forced_thread_fanout_is_bitwise_equal_to_naive() {
    let pool = ThreadPool::new(4);
    let _installed = pool.install();
    assert_eq!(
        current_threads(),
        4,
        "the installed pool sets the band count"
    );

    // All shapes exceed PAR_MIN_MACS (2^18) so the pooled row bands
    // actually run; ragged sizes exercise uneven last bands and (for
    // n = 600 > NC) the column-tile boundary inside each band.
    for (m, k, n) in [(67usize, 70usize, 65usize), (20, 30, 600), (129, 17, 130)] {
        assert!(m * k * n >= 1 << 18, "shape must force the fan-out");
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let want = GemmBackend::Naive.matmul(&a, &b, m, k, n);
        let got = GemmBackend::Threaded.matmul(&a, &b, m, k, n);
        assert_eq!(bits(&want), bits(&got), "matmul m={m} k={k} n={n}");
    }

    for (m, k, n) in [(70usize, 67usize, 65usize), (600, 30, 20)] {
        assert!(m * k * n >= 1 << 18);
        let a = fill(m * k, 3);
        let b = fill(m * n, 4);
        let want = GemmBackend::Naive.matmul_at_b(&a, &b, m, k, n);
        let got = GemmBackend::Threaded.matmul_at_b(&a, &b, m, k, n);
        assert_eq!(bits(&want), bits(&got), "at_b m={m} k={k} n={n}");
    }
}
