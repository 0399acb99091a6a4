//! Machine-readable batched-TD throughput: writes `BENCH_batch.json`.
//!
//! Times one replay batch of Bellman updates on the Fig. 3(a)-
//! proportioned micro AlexNet ([`mramrl_bench::batch_td_spec`]) per
//! (column × batch size × pool threads) cell. The two f32 columns run
//! the one GEMM kernel with its AVX2 lanes forced off (`blocked`,
//! `simd::force_scalar`) and on (`simd`) — the same bits, so the two
//! columns time the lanes alone. Each cell is batched
//! (`QAgent::accumulate_td_batch`, N ∈ {1, 8, 32}) and the serial-32
//! baseline (32 × `accumulate_td`) — prints the table, saves the CSV,
//! and emits `BENCH_batch.json` so future PRs have a perf trajectory to
//! diff against. The workload fixtures live in the library
//! (`mramrl_bench::batch_td_*`).
//!
//! The pool sweep injects a fresh `mramrl_nn::pool::ThreadPool` per
//! `threads` cell (the injectable-handle path — no env games) and times
//! **every** column at every pool size: both reach the pool through
//! the agent's join2 overlap of the target/online forwards, so no cell
//! is thread-invariant. Acceptance bars recorded in the JSON:
//! `batched(32) ≥ 2× serial(32)` on the `blocked` column at one
//! thread.
//!
//! A **quantised-inference cell family** rides along (modes
//! `infer-f32` / `infer-q8.8` / `infer-q8.8-serial`): the Q8.8
//! deployment engine (`mramrl_nn::quant`, `docs/fixed_point.md`) at
//! batch 1/8/32 and pool size (timed once, lanes on, labelled
//! `blocked`), next to the float forward on the same weights and
//! frames. The JSON records the `q8.8 batched(32) / serial(32)` speedup
//! (bar: ≥ 4×) and the float-vs-Q8.8 throughput ratio per f32 column.
//!
//! A **train-throughput cell family** (modes `train-vec` /
//! `train-parallel-f32` / `train-parallel-q8.8`) times the actor/learner
//! driver (`Trainer::run_parallel`, `docs/training.md`) end to end —
//! environments, acting, sharded replay and learning — per
//! (topology × column × fleet count × pool), `batch` holding the total
//! lane count. The JSON records `speedup_train_parallel_vs_run_vec`
//! (bar: best parallel cell ≥ 3× the best single-fleet `train-vec`
//! cell in transitions/sec) and a `train_regimes` array giving each
//! cell's learner-time fraction and its learner-bound vs actor-bound
//! classification, so the crossover per topology is on record.
//!
//! A **raw certified-GEMM cell family** (mode `qgemm-conv1`) times the
//! integer kernel alone on the paper's CONV1 product (96×363×3025 —
//! the full-size AlexNet's first im2col GEMM; 32×363×256 under
//! `--tiny`) on the pair tile, once with its lanes forced off
//! (`simd::force_scalar`, cells labelled `blocked`) and once on its
//! `pmaddwd` lanes (labelled `simd`), recording GMAC/s and the
//! `speedup_qgemm_simd_vs_blocked` key (bar: ≥ 1.5× on AVX2 hosts;
//! honestly recorded either way — on non-x86 hosts both runs take the
//! scalar tile and the ratio documents that).
//!
//! Flags: `--reps N` (timed repetitions per cell, default 10),
//! `--pool-threads N` sets
//! the multi-thread cell count (default: the global pool size, i.e.
//! `NN_POOL_THREADS` or all cores, floored at 4 so the trajectory always
//! records a threads>1 row), `--tiny` swaps in the 16×16 smoke-test net
//! (seconds instead of minutes; smoke tests pass `--tiny --reps 1`).

use std::time::Instant;

use mramrl_bench::{
    arg_u64, batch_td_agent, batch_td_obs, batch_td_qnet, batch_td_spec, batch_td_spec_tiny,
    batch_td_transitions, fmt, save_bench_json, train_bench_fleets, Table, BATCH_TD_SIZES,
};
use mramrl_nn::pool::ThreadPool;
use mramrl_nn::quant::QWorkspace;
use mramrl_nn::Workspace;
use mramrl_rl::{
    ActingPrecision, QAgent, Topology, Trainer, TrainerConfig, Transition, TransitionBatch,
};

/// Times `reps` runs of `work` (after one warm-up), returning mean
/// nanoseconds per run.
fn time_ns(reps: u64, mut work: impl FnMut()) -> f64 {
    work();
    let t0 = Instant::now();
    for _ in 0..reps {
        work();
    }
    t0.elapsed().as_nanos() as f64 / reps as f64
}

/// The f32 columns of the cell matrix as `(label, lanes)`: the GEMM
/// kernel on its scalar tile and on its AVX2 lanes.
const COLUMNS: [(&str, bool); 2] = [("blocked", false), ("simd", true)];

/// The label of the Q8.8 cells: the integer kernel, lanes on.
const QLABEL: &str = "blocked";

/// One measured cell of the (column × mode × batch × threads) matrix.
struct Cell {
    backend: &'static str,
    mode: &'static str,
    batch: usize,
    threads: usize,
    ns_per_transition: f64,
}

/// Phase accounting of one train-throughput cell: which side of the
/// actor/learner split the run spent its time on.
struct TrainRegime {
    topology: &'static str,
    backend: &'static str,
    mode: &'static str,
    threads: usize,
    fleets: usize,
    learner_frac: f64,
    learner_bound: bool,
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let reps = arg_u64("reps", 10).max(1);
    let multi = arg_u64(
        "pool-threads",
        mramrl_nn::pool::global().threads().max(4) as u64,
    )
    .max(1) as usize;
    let (spec, net_name) = if tiny {
        (batch_td_spec_tiny(), "micro16-tiny")
    } else {
        (batch_td_spec(), "micro40-fc-heavy")
    };
    let ts = batch_td_transitions(32, spec.input_shape[1]);

    let thread_counts: Vec<usize> = if multi > 1 { vec![1, multi] } else { vec![1] };

    let mut cells: Vec<Cell> = Vec::new();
    let mut regimes: Vec<TrainRegime> = Vec::new();
    for &threads in &thread_counts {
        let pool = ThreadPool::new(threads);
        let _installed = pool.install();
        for (label, lanes) in COLUMNS {
            let _scalar = (!lanes).then(mramrl_nn::simd::force_scalar);
            // Every column is re-timed at every pool size: both reach
            // the pool through the agent's join2 overlap of the
            // target/online forwards, so their cells are NOT
            // thread-invariant.
            for n in BATCH_TD_SIZES {
                let refs: Vec<&Transition> = ts[..n].iter().collect();
                let batch = TransitionBatch::from_transitions(&refs);
                let mut a = batch_td_agent(&spec);
                let ns = time_ns(reps, || {
                    let _ = a.accumulate_td_batch(&batch);
                    a.net_mut().zero_grads();
                }) / n as f64;
                cells.push(Cell {
                    backend: label,
                    mode: "batched",
                    batch: n,
                    threads,
                    ns_per_transition: ns,
                });
            }
            let mut a = batch_td_agent(&spec);
            let ns = time_ns(reps, || {
                for t in &ts {
                    let _ = a.accumulate_td(t);
                }
                a.net_mut().zero_grads();
            }) / ts.len() as f64;
            cells.push(Cell {
                backend: label,
                mode: "serial",
                batch: ts.len(),
                threads,
                ns_per_transition: ns,
            });
        }

        // Quantised-inference cell family: the Q8.8 deployment engine
        // (batch 1/8/32) next to the float forward on
        // the same weights and frames, plus the serial-32 baseline
        // (32 × the batch-of-1 wrapper, workspace churn included — the
        // pre-engine per-image deployment pattern).
        let qnet = batch_td_qnet(&spec);
        let fnet = spec.build(42);
        for (label, lanes) in COLUMNS {
            let _scalar = (!lanes).then(mramrl_nn::simd::force_scalar);
            for n in BATCH_TD_SIZES {
                let obs = batch_td_obs(&ts, n);
                let mut fws = Workspace::for_spec(&spec);
                let ns = time_ns(reps, || {
                    let _ = fnet.forward_batch(&obs, &mut fws);
                }) / n as f64;
                cells.push(Cell {
                    backend: label,
                    mode: "infer-f32",
                    batch: n,
                    threads,
                    ns_per_transition: ns,
                });
                // One integer kernel: timed once, in the lanes-on column.
                if !lanes {
                    continue;
                }
                let mut qws = QWorkspace::for_net(&qnet);
                let ns = time_ns(reps, || {
                    let _ = qnet.forward_batch(&obs, &mut qws);
                }) / n as f64;
                cells.push(Cell {
                    backend: QLABEL,
                    mode: "infer-q8.8",
                    batch: n,
                    threads,
                    ns_per_transition: ns,
                });
            }
            if !lanes {
                continue;
            }
            let singles: Vec<mramrl_nn::Tensor> =
                (0..ts.len()).map(|i| (*ts[i].state).clone()).collect();
            let ns = time_ns(reps, || {
                for s in &singles {
                    let _ = qnet.forward(s);
                }
            }) / singles.len() as f64;
            cells.push(Cell {
                backend: QLABEL,
                mode: "infer-q8.8-serial",
                batch: singles.len(),
                threads,
                ns_per_transition: ns,
            });
        }

        // Raw certified-GEMM cell family: the integer kernel alone on
        // the paper's CONV1 im2col product, the pair tile with its
        // lanes forced off (`blocked`) vs on (`simd`) — the head-to-head
        // the SIMD tier's acceptance bar is read from.
        // `ns_per_transition` holds ns per whole GEMM call here.
        let (qm, qk, qn) = if tiny {
            (32usize, 363usize, 256usize)
        } else {
            (96, 363, 3025)
        };
        let qa = mramrl_nn::difftest::qfill(qm * qk, 1001);
        let qbt = mramrl_nn::difftest::qfill(qn * qk, 1002);
        let qbias = mramrl_nn::difftest::qfill(qm, 1003);
        let mut qc = vec![mramrl_fixed::Q8_8::from_raw(0); qm * qn];
        for (label, lanes) in COLUMNS {
            let _scalar = (!lanes).then(mramrl_nn::simd::force_scalar);
            let ns = time_ns(reps, || {
                mramrl_nn::qgemm::matmul_bt_bias_requant_into(
                    &mut qc, &qa, &qbt, &qbias, qm, qk, qn,
                );
            });
            cells.push(Cell {
                backend: label,
                mode: "qgemm-conv1",
                batch: qm,
                threads,
                ns_per_transition: ns,
            });
        }

        // Train-throughput cell family: the actor/learner driver end to
        // end — environments, acting, sharded replay and learning — per
        // (topology × column × fleet count × pool). `train-vec` is the
        // one-fleet baseline (`run_vec`'s engine); the parallel cells
        // widen the fleet pool in float and Q8.8 acting. `batch` holds
        // the total lane count. One timed run per cell (the iteration
        // count amortises warm-up); the phase split from
        // `ParallelStats` records whether each topology runs
        // learner-bound or actor-bound at that width.
        let (train_iters, train_k, par_fleets, q88_fleets) = if tiny {
            (48u64, 2usize, vec![2usize], 2usize)
        } else {
            (1_500, 4, vec![2, 4, 8], 4)
        };
        let hw = spec.input_shape[1];
        for (label, lanes) in COLUMNS {
            let _scalar = (!lanes).then(mramrl_nn::simd::force_scalar);
            for (topo, topo_name) in [(Topology::E2E, "E2E"), (Topology::L3, "L3")] {
                let mut run_cell = |mode: &'static str, n_fleets: usize, q88: bool| {
                    let mut cfg = TrainerConfig::online(train_iters, 42);
                    cfg.num_envs = train_k;
                    if q88 {
                        cfg.actor_precision = ActingPrecision::FixedQ8_8;
                    }
                    let trainer = Trainer::new(cfg);
                    let mut agent = QAgent::new(&spec, 42);
                    topo.apply(agent.net_mut());
                    let mut fl = train_bench_fleets(hw, n_fleets, train_k);
                    let t0 = Instant::now();
                    let (_, stats) = trainer.run_parallel_timed(&mut agent, &mut fl, &mut ());
                    let ns = t0.elapsed().as_nanos() as f64 / stats.transitions as f64;
                    cells.push(Cell {
                        backend: label,
                        mode,
                        batch: n_fleets * train_k,
                        threads,
                        ns_per_transition: ns,
                    });
                    let phase = (stats.learner_ns + stats.actor_ns + stats.env_ns).max(1) as f64;
                    regimes.push(TrainRegime {
                        topology: topo_name,
                        backend: label,
                        mode,
                        threads,
                        fleets: n_fleets,
                        learner_frac: stats.learner_ns as f64 / phase,
                        learner_bound: stats.learner_ns > stats.actor_ns + stats.env_ns,
                    });
                };
                run_cell("train-vec", 1, false);
                for &n in &par_fleets {
                    run_cell("train-parallel-f32", n, false);
                }
                run_cell("train-parallel-q8.8", q88_fleets, true);
            }
        }
    }

    let mut table = Table::new(
        format!("Batched TD throughput ({net_name}, Fig. 3(a)-proportioned unless --tiny)"),
        &[
            "backend",
            "mode",
            "batch",
            "threads",
            "ns/transition",
            "transitions/s",
        ],
    );
    for c in &cells {
        table.row_owned(vec![
            c.backend.into(),
            c.mode.into(),
            c.batch.to_string(),
            c.threads.to_string(),
            fmt(c.ns_per_transition, 0),
            fmt(1.0e9 / c.ns_per_transition, 0),
        ]);
    }
    table.print();
    table.save("bench_batch");

    let ns_of = |backend: &str, mode: &str, threads: usize| {
        cells
            .iter()
            .find(|c| {
                c.backend == backend && c.mode == mode && c.batch == 32 && c.threads == threads
            })
            .map(|c| c.ns_per_transition)
    };
    // Speedup of batched(32) over serial(32), per column, single thread.
    let mut speedups = Vec::new();
    for (label, _) in COLUMNS {
        if let (Some(b32), Some(s32)) = (ns_of(label, "batched", 1), ns_of(label, "serial", 1)) {
            let s = s32 / b32;
            println!("speedup batched(32) vs serial(32) on {label}: {s:.2}x");
            speedups.push((label.to_string(), s));
        }
    }
    // Quantised acceptance bar: batched(32) engine inference over the
    // serial-32 batch-of-1 wrapper, single thread (bar: ≥ 4×).
    let mut q_speedups: Vec<(String, f64)> = Vec::new();
    if let (Some(b32), Some(s32)) = (
        ns_of(QLABEL, "infer-q8.8", 1),
        ns_of(QLABEL, "infer-q8.8-serial", 1),
    ) {
        let s = s32 / b32;
        println!("speedup q8.8 batched(32) vs q8.8 serial(32) on {QLABEL}: {s:.2}x");
        q_speedups.push((QLABEL.to_string(), s));
    }
    // Float-vs-Q8.8 throughput ratio at the deployment operating point
    // (batched 32, single thread): how many float inferences fit in one
    // fixed-point inference's time — the software cost of modelling the
    // silicon datapath bit-exactly.
    let mut fq_ratios = Vec::new();
    for (label, _) in COLUMNS {
        if let (Some(qns), Some(fns)) =
            (ns_of(QLABEL, "infer-q8.8", 1), ns_of(label, "infer-f32", 1))
        {
            let r = qns / fns;
            println!("float-vs-q8.8 throughput ratio, batched(32) on {label}/{QLABEL}: {r:.2}x");
            fq_ratios.push((label.to_string(), r));
        }
    }
    // The SIMD acceptance bar: the raw certified-GEMM head-to-head on
    // the paper's CONV1 shape, single thread. GMAC/s uses the whole
    // m·k·n product over the per-call time.
    let (qm, qk, qn) = if tiny {
        (32usize, 363usize, 256usize)
    } else {
        (96, 363, 3025)
    };
    let qgemm_ns = |backend: &str| {
        cells
            .iter()
            .find(|c| c.backend == backend && c.mode == "qgemm-conv1" && c.threads == 1)
            .map(|c| c.ns_per_transition)
    };
    let macs = (qm * qk * qn) as f64;
    let mut qgemm_gmacs = Vec::new();
    for backend in ["blocked", "simd"] {
        if let Some(ns) = qgemm_ns(backend) {
            let g = macs / ns;
            println!("qgemm conv1 ({qm}x{qk}x{qn}) on {backend}: {g:.2} GMAC/s");
            qgemm_gmacs.push((backend.to_string(), g));
        }
    }
    let qgemm_speedup = match (qgemm_ns("blocked"), qgemm_ns("simd")) {
        (Some(bl), Some(si)) => {
            let s = bl / si;
            println!("speedup qgemm simd vs blocked (conv1 shape): {s:.2}x");
            Some(s)
        }
        _ => None,
    };

    // The actor/learner acceptance bar: the best train-parallel cell
    // (any width, precision, column, pool) against the best
    // single-fleet train-vec cell, in transitions/sec. Alongside it,
    // the per-topology regime table — the learner-bound vs actor-bound
    // crossover as the fleet pool widens.
    let best_train = |pred: &dyn Fn(&Cell) -> bool| {
        cells
            .iter()
            .filter(|c| pred(c))
            .map(|c| c.ns_per_transition)
            .fold(None::<f64>, |acc, ns| Some(acc.map_or(ns, |a| a.min(ns))))
    };
    let train_speedup = match (
        best_train(&|c| c.mode == "train-vec"),
        best_train(&|c| c.mode.starts_with("train-parallel")),
    ) {
        (Some(vec_ns), Some(par_ns)) => {
            let s = vec_ns / par_ns;
            println!("speedup train-parallel vs best run_vec: {s:.2}x");
            Some(s)
        }
        _ => None,
    };
    for r in &regimes {
        println!(
            "train regime {}/{} {} fleets={} threads={}: learner_frac={:.2} -> {}",
            r.topology,
            r.backend,
            r.mode,
            r.fleets,
            r.threads,
            r.learner_frac,
            if r.learner_bound {
                "learner-bound"
            } else {
                "actor-bound"
            }
        );
    }

    let mut json = String::from("{\n  \"bench\": \"batch_td\",\n");
    json.push_str(&format!(
        "  \"net\": \"{net_name}\",\n  \"reps\": {reps},\n  \"pool_threads\": {thread_counts:?},\n",
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \"threads\": {}, \
             \"ns_per_transition\": {:.1}, \"transitions_per_sec\": {:.1}}}{}\n",
            c.backend,
            c.mode,
            c.batch,
            c.threads,
            c.ns_per_transition,
            1.0e9 / c.ns_per_transition,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"speedup_batched32_vs_serial32\": {");
    for (i, (backend, s)) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "{}\"{backend}\": {s:.3}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("},\n  \"speedup_q_batched32_vs_q_serial32\": {");
    for (i, (backend, s)) in q_speedups.iter().enumerate() {
        json.push_str(&format!(
            "{}\"{backend}\": {s:.3}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("},\n  \"float_vs_q8_8_throughput_ratio_batched32\": {");
    for (i, (backend, r)) in fq_ratios.iter().enumerate() {
        json.push_str(&format!(
            "{}\"{backend}\": {r:.3}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("},\n  \"qgemm_conv1_gmacs\": {");
    for (i, (backend, g)) in qgemm_gmacs.iter().enumerate() {
        json.push_str(&format!(
            "{}\"{backend}\": {g:.3}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"qgemm_conv1_shape\": [{qm}, {qk}, {qn}],\n  \"simd_available\": {},\n",
        mramrl_nn::simd::available()
    ));
    json.push_str(&format!(
        "  \"speedup_qgemm_simd_vs_blocked\": {},\n",
        qgemm_speedup.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    json.push_str(&format!(
        "  \"speedup_train_parallel_vs_run_vec\": {},\n",
        train_speedup.map_or("null".to_string(), |s| format!("{s:.3}"))
    ));
    json.push_str("  \"train_regimes\": [\n");
    for (i, r) in regimes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"backend\": \"{}\", \"mode\": \"{}\", \
             \"threads\": {}, \"fleets\": {}, \"learner_frac\": {:.3}, \"regime\": \"{}\"}}{}\n",
            r.topology,
            r.backend,
            r.mode,
            r.threads,
            r.fleets,
            r.learner_frac,
            if r.learner_bound {
                "learner-bound"
            } else {
                "actor-bound"
            },
            if i + 1 == regimes.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    if let Some(path) = save_bench_json("BENCH_batch.json", &json) {
        println!("wrote {}", path.display());
    }
}
