//! The `dse-determinism` gate: the full fleet-scale report (minus its
//! timing section) is **byte-identical** across pool sizes {1, 2, 7}
//! and the bitwise GEMM backend selections. The sweep's scoring is pure
//! analytic arithmetic — no RNG, no clock, no GEMM — and the parallel
//! scatter uses a pool-width-independent chunk grid, so neither knob
//! may move a single byte.
//!
//! CI runs this file once per `NN_GEMM_BACKEND` value; the in-process
//! loop below additionally crosses the pool axis with the backend axis
//! so one run already proves the full matrix.

use mramrl_dse::{pareto_frontier, render_csv, render_json, sweep, sweep_serial, DesignSpace};
use mramrl_nn::pool::ThreadPool;

#[test]
fn fleet_report_is_byte_identical_across_pools_and_backends() {
    let space = DesignSpace::date19_fleet();
    assert!(space.len() >= 1000, "acceptance floor: {}", space.len());

    // Serial reference, rendered once.
    let results = sweep_serial(&space);
    let frontier = pareto_frontier(&results);
    let ref_json = render_json(&space, &results, &frontier, None);
    let ref_csv = render_csv(&results, &frontier);
    assert!(!frontier.is_empty());

    for backend in ["naive", "blocked"] {
        // The scoring path must not read the backend knob at all; CI
        // also re-runs the whole binary under each value to catch any
        // init-time coupling.
        std::env::set_var("NN_GEMM_BACKEND", backend);
        for threads in [1usize, 2, 7] {
            let pool = ThreadPool::new(threads);
            let _g = pool.install();
            let got = sweep(&space);
            let got_frontier = pareto_frontier(&got);
            assert_eq!(
                render_json(&space, &got, &got_frontier, None),
                ref_json,
                "JSON drifted at pool={threads} backend={backend}"
            );
            assert_eq!(
                render_csv(&got, &got_frontier),
                ref_csv,
                "CSV drifted at pool={threads} backend={backend}"
            );
        }
    }
    std::env::remove_var("NN_GEMM_BACKEND");
}
