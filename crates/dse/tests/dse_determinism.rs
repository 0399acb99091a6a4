//! The `dse-determinism` gate: the full fleet-scale report (minus its
//! timing section) is **byte-identical** across pool sizes {1, 2, 7}.
//! The sweep's scoring is pure analytic arithmetic — no RNG, no clock,
//! no GEMM — and the parallel scatter uses a pool-width-independent
//! chunk grid, so the pool may not move a single byte.
//!
//! CI runs this file on a 1- and a 4-executor default pool and under
//! `NN_SIMD=off`; the in-process loop below additionally sweeps the
//! pool axis, so one run already proves it.

use mramrl_dse::{pareto_frontier, render_csv, render_json, sweep, sweep_serial, DesignSpace};
use mramrl_nn::pool::ThreadPool;

#[test]
fn fleet_report_is_byte_identical_across_pools() {
    let space = DesignSpace::date19_fleet();
    assert!(space.len() >= 1000, "acceptance floor: {}", space.len());

    // Serial reference, rendered once.
    let results = sweep_serial(&space);
    let frontier = pareto_frontier(&results);
    let ref_json = render_json(&space, &results, &frontier, None);
    let ref_csv = render_csv(&results, &frontier);
    assert!(!frontier.is_empty());

    for threads in [1usize, 2, 7] {
        let pool = ThreadPool::new(threads);
        let _g = pool.install();
        let got = sweep(&space);
        let got_frontier = pareto_frontier(&got);
        assert_eq!(
            render_json(&space, &got, &got_frontier, None),
            ref_json,
            "JSON drifted at pool={threads}"
        );
        assert_eq!(
            render_csv(&got, &got_frontier),
            ref_csv,
            "CSV drifted at pool={threads}"
        );
    }
}
