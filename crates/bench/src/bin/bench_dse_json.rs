//! Fleet-scale DSE report: sweeps the `mramrl_dse` design space on the
//! deterministic pool, reduces it to the 4-axis Pareto frontier and
//! emits `BENCH_dse.json` (+ `results/dse_pareto.csv`).
//!
//! Everything in the JSON except the `timing` section is byte-identical
//! across `NN_POOL_THREADS` (the `dse-determinism` CI gate pins this);
//! `timing` records the measured serial-vs-pooled wall clock, i.e. the
//! sweep's parallel speedup.
//!
//! Flags: `--tiny` (16-point smoke space), `--reps N` (timing reps,
//! default 3), plus the standard `--pool-threads`.

use std::time::Instant;

use mramrl_bench::{arg_u64, fmt, save_bench_json, Table};
use mramrl_dse::{pareto_frontier, render_csv, render_json, sweep, sweep_serial, DesignSpace};

fn main() {
    let (pool, _guard) = mramrl_bench::init_pool_threads();
    let tiny = std::env::args().any(|a| a == "--tiny");
    let reps = arg_u64("reps", 3).max(1);

    let space = if tiny {
        DesignSpace::tiny()
    } else {
        DesignSpace::date19_fleet()
    };
    eprintln!("design space: {} points", space.len());

    // Timed serial reference (best of `reps`)…
    let mut serial_ms = f64::INFINITY;
    let mut results = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        results = sweep_serial(&space);
        serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    // …and the pooled sweep, which must reproduce it bit for bit.
    let mut parallel_ms = f64::INFINITY;
    let mut pooled = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        pooled = sweep(&space);
        parallel_ms = parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(pooled, results, "pooled sweep diverged from serial");

    let frontier = pareto_frontier(&results);
    let timing = mramrl_dse::SweepTiming {
        serial_ms,
        parallel_ms,
        pool_threads: pool.threads(),
    };

    let mut t = Table::new("DSE sweep — 4-axis Pareto frontier", &["Metric", "Value"]);
    t.row_owned(vec!["design points".into(), results.len().to_string()]);
    t.row_owned(vec![
        "placeable".into(),
        results.iter().filter(|r| r.placeable).count().to_string(),
    ]);
    t.row_owned(vec![
        "NVM write-free".into(),
        results
            .iter()
            .filter(|r| r.nvm_write_free)
            .count()
            .to_string(),
    ]);
    t.row_owned(vec!["frontier size".into(), frontier.len().to_string()]);
    t.row_owned(vec!["serial sweep [ms]".into(), fmt(serial_ms, 1)]);
    t.row_owned(vec![
        format!("pooled sweep [ms] ({} threads)", pool.threads()),
        fmt(parallel_ms, 1),
    ]);
    t.row_owned(vec!["speedup".into(), fmt(timing.speedup(), 2)]);
    t.print();

    let json = render_json(&space, &results, &frontier, Some(&timing));
    let name = if tiny {
        "BENCH_dse_tiny.json"
    } else {
        "BENCH_dse.json"
    };
    if let Some(p) = save_bench_json(name, &json) {
        eprintln!("wrote {}", p.display());
    }
    let csv = render_csv(&results, &frontier);
    let dir = mramrl_bench::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(if tiny {
            "dse_pareto_tiny.csv"
        } else {
            "dse_pareto.csv"
        });
        match std::fs::write(&path, csv) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}
