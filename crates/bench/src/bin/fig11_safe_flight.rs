//! FIG11 — Fig. 11: normalised safe flight distance (SFD) per environment
//! and topology, measured by frozen-policy evaluation after online RL and
//! averaged over seeds. Paper: L-topologies within 3.0–8.1 % of E2E,
//! worst on outdoor town.
//!
//! Quick scale by default; `--full` for the DESIGN.md §6 scale;
//! `--seeds N` to average N seeds (default 1 full / 2 quick).
//! `--pool-threads N` injects an in-process worker pool, pinning one
//! reproducible pool configuration per run.

use mramrl_bench::{arg_u64, fmt, full_mode, Table};
use mramrl_env::EnvKind;
use mramrl_rl::experiment::normalized_sfd;
use mramrl_rl::{Fig10Experiment, Topology, TransferCache};

fn main() {
    let _pool = mramrl_bench::init_pool_threads();
    let base_seed = arg_u64("seed", 42);
    let seeds = arg_u64("seeds", if full_mode() { 1 } else { 2 });
    let make = |seed: u64| {
        let mut exp = if full_mode() {
            Fig10Experiment::full(seed)
        } else {
            Fig10Experiment::quick(seed)
        };
        exp.online_iters = arg_u64("iters", exp.online_iters);
        exp.tl_iters = arg_u64("tl", exp.tl_iters);
        exp
    };
    eprintln!(
        "fig11: mode={}, online_iters={}, seeds={}",
        if full_mode() { "full" } else { "quick" },
        make(base_seed).online_iters,
        seeds
    );

    let mut t = Table::new(
        "Fig. 11 — normalized safe flight distance (seed-averaged)",
        &[
            "Environment",
            "L2",
            "L3",
            "L4",
            "E2E",
            "SFD(E2E) [m]",
            "worst degradation",
        ],
    );
    for env in EnvKind::TESTS {
        let mut acc = [0.0f32; 4]; // L2, L3, L4, E2E
        let mut e2e_sfd_acc = 0.0f32;
        for s in 0..seeds {
            let exp = make(base_seed + s * 1000);
            let mut cache = TransferCache::new();
            let runs = exp.run_env(&mut cache, env);
            let norm = normalized_sfd(&runs, env);
            for (i, topo) in Topology::ALL.iter().enumerate() {
                acc[i] += norm
                    .iter()
                    .find(|(x, _)| x == topo)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
            }
            e2e_sfd_acc += runs
                .iter()
                .find(|r| r.topology == Topology::E2E)
                .map(|r| r.eval.sfd)
                .unwrap_or(0.0);
        }
        let n = seeds as f32;
        let (l2, l3, l4, e2e) = (acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n);
        let worst = l2.min(l3).min(l4);
        t.row_owned(vec![
            env.to_string(),
            fmt(f64::from(l2), 3),
            fmt(f64::from(l3), 3),
            fmt(f64::from(l4), 3),
            fmt(f64::from(e2e), 3),
            fmt(f64::from(e2e_sfd_acc / n), 1),
            format!("{:.1}%", (1.0 - worst) * 100.0),
        ]);
    }
    t.print();
    t.save("fig11_sfd");
    println!("Paper: degradations 3.0% (apartment), 7.8% (house), 3.3% (forest), 8.1% (town).");
    println!("SFD is the noisiest statistic in the paper too; average more seeds (--seeds) for tighter ratios.");
}
