//! FIG10 — Fig. 10: cumulative reward and return curves in the four test
//! environments for {L2, L3, L4, E2E}.
//!
//! Quick scale by default (seconds); pass `--full` for the DESIGN.md §6
//! scale (minutes), or `--iters N` / `--tl N` / `--seed S` to override.

use mramrl_bench::{arg_u64, fmt, full_mode, Table};
use mramrl_env::EnvKind;
use mramrl_rl::{Fig10Experiment, TransferCache};

fn main() {
    let seed = arg_u64("seed", 42);
    let mut exp = if full_mode() {
        Fig10Experiment::full(seed)
    } else {
        Fig10Experiment::quick(seed)
    };
    exp.online_iters = arg_u64("iters", exp.online_iters);
    exp.tl_iters = arg_u64("tl", exp.tl_iters);
    eprintln!(
        "fig10: mode={}, tl_iters={}, online_iters={}, seed={}",
        if full_mode() { "full" } else { "quick" },
        exp.tl_iters,
        exp.online_iters,
        seed
    );

    let mut cache = TransferCache::new();
    for env in EnvKind::TESTS {
        let runs = exp.run_env(&mut cache, env);
        // One CSV per environment: iter, then (cum_reward, return) per topology.
        let mut headers: Vec<String> = vec!["iter".into()];
        for r in &runs {
            headers.push(format!("{}_cum_reward", r.topology));
            headers.push(format!("{}_return", r.topology));
        }
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(format!("Fig. 10 — learning curves, {env}"), &headers_ref);
        let points = runs[0].log.curve.len();
        for i in 0..points {
            let mut cells = vec![runs[0].log.curve[i].iter.to_string()];
            for r in &runs {
                let p = &r.log.curve[i.min(r.log.curve.len() - 1)];
                cells.push(fmt(f64::from(p.cumulative_reward), 4));
                cells.push(fmt(f64::from(p.avg_return), 4));
            }
            t.row_owned(cells);
        }
        t.save(&format!("fig10_curves_{env}"));

        // Console summary: start/end of each curve + convergence check.
        let mut s = Table::new(
            format!("Fig. 10 summary — {env}"),
            &[
                "Topology",
                "cum reward start",
                "cum reward end",
                "return end",
                "episodes",
            ],
        );
        for r in &runs {
            let first = r.log.curve.first().expect("non-empty curve");
            let last = r.log.curve.last().expect("non-empty curve");
            s.row_owned(vec![
                r.topology.to_string(),
                fmt(f64::from(first.cumulative_reward), 3),
                fmt(f64::from(last.cumulative_reward), 3),
                fmt(f64::from(last.avg_return), 3),
                r.log.episodes.to_string(),
            ]);
        }
        s.print();
    }
    println!("Full per-iteration series written to results/fig10_curves_<env>.csv");
}
