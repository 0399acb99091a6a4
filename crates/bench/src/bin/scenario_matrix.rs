//! SCENARIOS — the Fig. 11 safe-flight claim generalized from one world
//! to a product of them: train one policy per transfer topology
//! (L2/L3/L4/E2E, §II-D), then batch-evaluate every policy **in
//! deployment precision** (Q8.8 engine, pool-parallel VecEnv lanes)
//! across the full scenario grid — `mramrl_env::WORLD_AXIS` world
//! generators × `DegradationSpec::LEVELS` sensor/dynamics degradations,
//! with moving obstacles on every cell.
//!
//! Emits the matrix as markdown + `results/scenario_matrix.csv` +
//! `BENCH_scenarios.json`.
//!
//! **Determinism contract:** the JSON carries no timings and no
//! backend/pool identity, and every quantity in it flows through the
//! bit-identity discipline (the bitwise f32 GEMM kernel for training,
//! the bitwise Q8.8 engine for acting, seed-derived scenario lanes).
//! The emitted bytes must therefore be identical at any
//! `NN_POOL_THREADS` and `NN_SIMD` setting.
//!
//! Flags: `--seed`, `--iters` (online RL), `--tl` (transfer iters),
//! `--lanes` (VecEnv width), `--eval-steps` (total env steps per cell),
//! `--movers` (moving obstacles per world), `--pool-threads`, `--full`.

use mramrl_bench::{arg_u64, fmt, full_mode, save_bench_json, Table};
use mramrl_env::{DegradationSpec, DroneEnv, ScenarioSpec, VecEnv, WorldSpec, WORLD_AXIS};
use mramrl_nn::NetworkSpec;
use mramrl_rl::{
    evaluate_vec, ActingPrecision, QAgent, Topology, Trainer, TrainerConfig, TransferCache,
};

/// One evaluated grid cell.
struct Cell {
    topology: Topology,
    world: String,
    degradation: &'static str,
    movers: usize,
    sfd: f32,
    mean_reward: f32,
    episodes: u64,
}

fn main() {
    let _pool = mramrl_bench::init_pool_threads();

    let seed = arg_u64("seed", 42);
    let full = full_mode();
    let (px, iters_d, tl_d, eval_d) = if full {
        (40usize, 8000u64, 3000u64, 4000u64)
    } else {
        (16usize, 400, 250, 600)
    };
    let online_iters = arg_u64("iters", iters_d);
    let tl_iters = arg_u64("tl", tl_d);
    let eval_steps = arg_u64("eval-steps", eval_d).max(1);
    let lanes = arg_u64("lanes", 8).max(1) as usize;
    let movers = arg_u64("movers", 3) as usize;
    let spec = if full {
        NetworkSpec::micro(40, 1, 5)
    } else {
        NetworkSpec::micro(16, 1, 5)
    };
    eprintln!(
        "scenario_matrix: mode={}, iters={online_iters}, tl={tl_iters}, \
         eval_steps={eval_steps}, lanes={lanes}, movers={movers}",
        if full { "full" } else { "quick" },
    );

    // ── Phase 1: one policy per transfer topology (the paper's TL →
    // online-RL pipeline, on the outdoor meta/test pair). ─────────────
    let train_kind = mramrl_env::EnvKind::OutdoorForest;
    let mut cache = TransferCache::new();
    let tl = cache.get_or_train(train_kind.meta(), &spec, tl_iters, seed, px);
    let mut agents: Vec<(Topology, QAgent)> = Topology::ALL
        .iter()
        .map(|&topology| {
            let mut agent = QAgent::new(&spec, seed ^ 0xA5A5);
            agent
                .load_transfer(&tl)
                .expect("TL weights match the shared spec");
            topology.apply(agent.net_mut());
            let cam = mramrl_env::DepthCamera::new(px, px, 90.0f32.to_radians(), 20.0, 0.02);
            let mut env = VecEnv::from_envs(vec![DroneEnv::new(train_kind, seed).with_camera(cam)]);
            let cfg = TrainerConfig::online(online_iters, seed);
            let log = Trainer::new(cfg).run_vec(&mut agent, &mut env);
            eprintln!("trained {topology}: train-SFD {:.1} m", log.sfd);
            (topology, agent)
        })
        .collect();

    // ── Phase 2: deployment-precision fleet evaluation over the full
    // world × degradation grid. ───────────────────────────────────────
    let mut cells: Vec<Cell> = Vec::new();
    for (topology, agent) in agents.iter_mut() {
        agent.set_acting_precision(ActingPrecision::FixedQ8_8);
        for kind in WORLD_AXIS {
            for (deg_name, degradation) in DegradationSpec::LEVELS {
                let scenario = ScenarioSpec {
                    world: WorldSpec { kind, movers },
                    degradation,
                    camera_px: px,
                    seed,
                };
                let mut venv = VecEnv::from_spec(&scenario, lanes);
                let eval = evaluate_vec(agent, &mut venv, eval_steps, 0.02, scenario.seed);
                cells.push(Cell {
                    topology: *topology,
                    world: kind.to_string(),
                    degradation: deg_name,
                    movers,
                    sfd: eval.sfd,
                    mean_reward: eval.mean_reward,
                    episodes: eval.episodes,
                });
            }
        }
        eprintln!("evaluated {topology} over {} cells", WORLD_AXIS.len() * 3);
    }

    // ── Report. ───────────────────────────────────────────────────────
    let mut t = Table::new(
        "Scenario matrix — deployment-precision SFD (topology × world × degradation)",
        &[
            "Topology",
            "World",
            "Degradation",
            "Movers",
            "SFD [m]",
            "mean reward",
            "episodes",
        ],
    );
    for c in &cells {
        t.row_owned(vec![
            c.topology.to_string(),
            c.world.clone(),
            c.degradation.to_string(),
            c.movers.to_string(),
            fmt(f64::from(c.sfd), 3),
            fmt(f64::from(c.mean_reward), 4),
            c.episodes.to_string(),
        ]);
    }
    t.print();
    t.save("scenario_matrix");

    // Per-topology grid-mean SFD, and per-world E2E nominal→severe
    // retention (how much safe flight survives full degradation).
    let grid_mean: Vec<(Topology, f32)> = Topology::ALL
        .iter()
        .map(|&topo| {
            let vals: Vec<f32> = cells
                .iter()
                .filter(|c| c.topology == topo)
                .map(|c| c.sfd)
                .collect();
            (topo, vals.iter().sum::<f32>() / vals.len() as f32)
        })
        .collect();
    let retention: Vec<(String, f32)> = WORLD_AXIS
        .iter()
        .map(|k| {
            let pick = |deg: &str| {
                cells
                    .iter()
                    .find(|c| {
                        c.topology == Topology::E2E
                            && c.world == k.to_string()
                            && c.degradation == deg
                    })
                    .map(|c| c.sfd)
                    .unwrap_or(0.0)
            };
            let nominal = pick("nominal");
            let severe = pick("severe");
            let r = if nominal > 0.0 { severe / nominal } else { 0.0 };
            (k.to_string(), r)
        })
        .collect();
    for (topo, m) in &grid_mean {
        println!("grid-mean SFD {topo}: {m:.3} m");
    }
    for (world, r) in &retention {
        println!("E2E severe/nominal SFD retention {world}: {r:.3}");
    }

    // ── BENCH_scenarios.json: machine-readable, byte-stable. ──────────
    let cells_json: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "    {{\"topology\": \"{}\", \"world\": \"{}\", \"degradation\": \"{}\", \
                 \"movers\": {}, \"sfd_m\": {:.4}, \"mean_reward\": {:.5}, \"episodes\": {}}}",
                c.topology, c.world, c.degradation, c.movers, c.sfd, c.mean_reward, c.episodes
            )
        })
        .collect();
    let worlds_json: Vec<String> = WORLD_AXIS.iter().map(|k| format!("\"{k}\"")).collect();
    let degs_json: Vec<String> = DegradationSpec::LEVELS
        .iter()
        .map(|(n, _)| format!("\"{n}\""))
        .collect();
    let grid_mean_json: Vec<String> = grid_mean
        .iter()
        .map(|(topo, m)| format!("    \"{topo}\": {m:.4}"))
        .collect();
    let retention_json: Vec<String> = retention
        .iter()
        .map(|(w, r)| format!("    \"{w}\": {r:.4}"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scenario_matrix\",\n  \"mode\": \"{mode}\",\n  \
         \"seed\": {seed},\n  \"online_iters\": {online_iters},\n  \"tl_iters\": {tl_iters},\n  \
         \"eval_steps\": {eval_steps},\n  \"lanes\": {lanes},\n  \"movers\": {movers},\n  \
         \"camera_px\": {px},\n  \"acting_precision\": \"q8.8\",\n  \
         \"determinism\": \"no timings, no pool identity: bytes match across any pool \
         size and NN_SIMD on or off\",\n  \
         \"worlds\": [{worlds}],\n  \"degradations\": [{degs}],\n  \
         \"cells\": [\n{cells}\n  ],\n  \
         \"grid_mean_sfd_m\": {{\n{gm}\n  }},\n  \
         \"e2e_severe_retention\": {{\n{ret}\n  }}\n}}\n",
        mode = if full { "full" } else { "quick" },
        worlds = worlds_json.join(", "),
        degs = degs_json.join(", "),
        cells = cells_json.join(",\n"),
        gm = grid_mean_json.join(",\n"),
        ret = retention_json.join(",\n"),
    );
    if let Some(p) = save_bench_json("BENCH_scenarios.json", &json) {
        eprintln!("wrote {}", p.display());
    }
    println!(
        "{} cells: {} topologies x {} worlds x {} degradation levels, {} lanes each.",
        cells.len(),
        Topology::ALL.len(),
        WORLD_AXIS.len(),
        DegradationSpec::LEVELS.len(),
        lanes
    );
}
