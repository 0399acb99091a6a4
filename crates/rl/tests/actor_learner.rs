//! The actor/learner determinism contract (`Trainer::run_parallel`):
//!
//! * `run_parallel(N)` is **bit-identical** (TrainLog curve + final
//!   weights) to the pinned serial interleaving — an independent
//!   reference driver below: one round-robin loop over the fleets, a
//!   single replay buffer, a single RNG — for N ∈ {1, 2, 4} fleets of
//!   K ∈ {1, 2} lanes, in both float and Q8.8 acting (N = K = 1 is the
//!   one-drone, one-image-at-a-time platform model), and on the
//!   paper's deployed point — a frozen transfer-learned trunk with only
//!   the FC tail training (`Topology::L4`), where backpropagation stops
//!   at the first trainable layer;
//! * `run_parallel(1)` ≡ `run_vec` exactly;
//! * the trajectory is invariant across pool sizes {1, 2, 7} and
//!   between the GEMM kernels' AVX2 lanes and their scalar tiles —
//!   parallelism and lanes change throughput, never bits;
//! * deployment-precision actors really act on the *stale* snapshot
//!   (refresh cadence is observable), and the rollout hot path reaches
//!   zero steady-state frame allocation (the `Workspace::footprint`
//!   discipline, extended to replay frames).

use std::sync::Arc;

use mramrl_env::{DepthCamera, DroneEnv, VecEnv};
use mramrl_nn::pool::ThreadPool;
use mramrl_nn::{simd, NetworkSpec, QWorkspace, QuantizedNet, Sgd, Tensor};
use mramrl_rl::{
    ActingPrecision, MovingAverage, QAgent, ReplayBuffer, SafeFlightTracker, Topology, TrainLog,
    Trainer, TrainerConfig, Transition, TransitionBatch,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const HW: usize = 16;

fn spec() -> NetworkSpec {
    NetworkSpec::micro(HW, 1, 5)
}

/// A fresh agent training under `topo`'s freezing pattern.
fn new_agent(seed: u64, topo: Topology) -> QAgent {
    let mut a = QAgent::new(&spec(), seed);
    topo.apply(a.net_mut());
    a
}

fn tiny_env(seed: u64) -> DroneEnv {
    DroneEnv::new(mramrl_env::EnvKind::IndoorApartment, seed)
        .with_camera(DepthCamera::new(HW, HW, 1.5, 20.0, 0.01))
}

/// `n` fleets of `k` tiny lanes, flat-seeded like `Trainer::build_fleets`.
fn fleets(seed: u64, n: usize, k: usize) -> Vec<VecEnv> {
    let envs: Vec<DroneEnv> = (0..n * k)
        .map(|i| tiny_env(seed.wrapping_add(i as u64)))
        .collect();
    VecEnv::from_envs(envs).split(n)
}

fn cfg(iters: u64, seed: u64, k: usize) -> TrainerConfig {
    let mut c = TrainerConfig::online(iters, seed);
    c.num_envs = k;
    c.batch_size = 4;
    c.target_sync = 3;
    c.replay_capacity = 48;
    c.log_every = 8;
    c.snapshot_refresh = 2;
    c
}

/// One curve point as raw bits: (iter, cumulative_reward, avg_return).
type CurveBits = Vec<(u64, u32, u32)>;

fn curve_bits(l: &TrainLog) -> CurveBits {
    l.curve
        .iter()
        .map(|p| {
            (
                p.iter,
                p.cumulative_reward.to_bits(),
                p.avg_return.to_bits(),
            )
        })
        .collect()
}

/// The **documented serial interleaving** `run_parallel` must equal:
/// one loop, one replay buffer, one RNG, classic act-then-learn rounds.
/// Per round: (1) per-fleet batched Q forwards (k-wide — *not* the
/// engine's fused N·k forward, so this leans on the engine's batched ≡
/// serial row contract rather than sharing its code path); (2) ε-greedy
/// choices fleet-major; (3) step each fleet separately; (4) push every
/// transition fleet-major into the single buffer (freshly allocated
/// frames — no sharing, so the engine's Arc recycling is proven
/// behaviour-neutral); (5) log on the `run_vec` cadence; (6) sample one
/// index per lane, accumulate the TD batch, apply the update when
/// `batch_size` gradients accumulated. Q8.8 acting holds a frozen
/// snapshot with the documented **one-round publication latency**: at
/// the top of each round the fleet installs the snapshot requested last
/// round (if any), then — when the update cadence has fired — requests
/// a fresh one from the current weights; the request arrives at the
/// next round boundary, exactly as the overlapped engine (and a real
/// learner → fleet link) delivers it.
fn pinned_serial_reference(
    cfg: &TrainerConfig,
    agent: &mut QAgent,
    fleets: &mut [VecEnv],
    q88: bool,
) -> (Vec<(u64, u32, u32)>, Vec<u8>) {
    let n = fleets.len();
    let k = fleets[0].len();
    let lanes = n * k;

    agent.set_acting_precision(ActingPrecision::Float32);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_5EED);
    let sgd = Sgd::new(cfg.lr).with_grad_clip(cfg.grad_clip);
    // A single buffer with the sharded drivers' whole-round capacity.
    let cap = if n == 1 {
        cfg.replay_capacity
    } else {
        (cfg.replay_capacity / n / k).max(1) * k * n
    };
    let mut replay = ReplayBuffer::new(cap);

    let mut cum_reward = MovingAverage::new(cfg.metrics_window);
    let mut return_ma = MovingAverage::new((cfg.metrics_window / 64).max(4));
    let mut sfd = SafeFlightTracker::new();
    let mut curve: Vec<(u64, u32, u32)> = Vec::new();

    let mut ep_reward = vec![0.0f32; lanes];
    let mut ep_actions = vec![0u64; lanes];
    let mut accumulated = 0usize;
    let mut updates = 0u64;
    let mut last_refresh = 0u64;
    let mut next_log = 0u64;

    let mut obs: Vec<Tensor> = Vec::new();
    for fl in fleets.iter_mut() {
        for img in fl.reset_all() {
            obs.push(Tensor::from_vec(&[1, HW, HW], img.data().to_vec()));
        }
    }
    let mut snap: Option<Arc<QuantizedNet>> = q88.then(|| agent.quantized_snapshot_shared());
    let mut pending: Option<Arc<QuantizedNet>> = None;
    let mut qws = QWorkspace::new();

    let mut iter = 0u64;
    while iter < cfg.iters {
        if let Some(p) = pending.take() {
            snap = Some(p);
        }
        if snap.is_some() && updates.saturating_sub(last_refresh) >= cfg.snapshot_refresh {
            pending = Some(agent.quantized_snapshot_shared());
            last_refresh = updates;
        }
        // Per-fleet forwards, lane-major rows collected fleet-major.
        let mut q_rows: Vec<Vec<f32>> = Vec::with_capacity(lanes);
        for f in 0..n {
            let mut data = Vec::with_capacity(k * HW * HW);
            for j in 0..k {
                data.extend_from_slice(obs[f * k + j].data());
            }
            let fleet_obs = Tensor::from_vec(&[k, 1, HW, HW], data);
            match &snap {
                Some(s) => {
                    let q = s.q_values_batch(&fleet_obs, &mut qws);
                    for j in 0..k {
                        q_rows.push(q.sample(j).to_vec());
                    }
                }
                None => {
                    let q = agent.q_values_batch(&fleet_obs);
                    for j in 0..k {
                        q_rows.push(q.sample(j).to_vec());
                    }
                }
            }
        }
        let actions: Vec<usize> = (0..lanes)
            .map(|lane| cfg.epsilon.choose_slice(&q_rows[lane], iter, &mut rng))
            .collect();
        for f in 0..n {
            let act: Vec<mramrl_env::Action> = (0..k)
                .map(|j| mramrl_env::Action::from_index(actions[f * k + j]))
                .collect();
            for (j, step) in fleets[f].step(&act).iter().enumerate() {
                let lane = f * k + j;
                cum_reward.push(step.reward);
                ep_reward[lane] += step.reward;
                ep_actions[lane] += 1;
                let next = Arc::new(Tensor::from_vec(
                    &[1, HW, HW],
                    step.observation.data().to_vec(),
                ));
                replay.push(Transition {
                    state: Arc::new(obs[lane].clone()),
                    action: actions[lane],
                    reward: step.reward,
                    next_state: next,
                    terminal: step.crashed,
                });
                if step.crashed {
                    return_ma.push(ep_reward[lane] / ep_actions[lane].max(1) as f32);
                    sfd.record_episode(fleets[f].episode_distance(j));
                    ep_reward[lane] = 0.0;
                    ep_actions[lane] = 0;
                    let img = fleets[f].reset(j);
                    obs[lane] = Tensor::from_vec(&[1, HW, HW], img.data().to_vec());
                } else {
                    obs[lane] = Tensor::from_vec(&[1, HW, HW], step.observation.data().to_vec());
                }
            }
        }
        if iter >= next_log {
            curve.push((
                iter,
                cum_reward.value().to_bits(),
                return_ma.value().to_bits(),
            ));
            next_log = (iter / cfg.log_every + 1) * cfg.log_every;
        }
        iter += lanes as u64;

        // Learn: one sampled index per lane, with replacement.
        if !replay.is_empty() {
            let selected: Vec<&Transition> = (0..lanes)
                .map(|_| {
                    replay
                        .get(rng.gen_range(0..replay.len()))
                        .expect("in range")
                })
                .collect();
            let batch = TransitionBatch::from_transitions(&selected);
            agent.accumulate_td_batch(&batch);
            accumulated += lanes;
            if accumulated >= cfg.batch_size {
                agent.apply_update(&sgd, accumulated, cfg.target_sync);
                accumulated = 0;
                updates += 1;
            }
        }
    }
    (curve, agent.net().save_weights())
}

/// Runs the engine and the serial reference on `n` fleets of `k` lanes,
/// both agents training under `topo`, asserts they agree to the bit,
/// and returns the engine's curve and final weights. With
/// `scalar_reference`, the reference runs under [`simd::force_scalar`]
/// while the engine keeps the lanes the host has.
fn assert_matches_reference(
    n: usize,
    k: usize,
    q88: bool,
    topo: Topology,
    scalar_reference: bool,
) -> (CurveBits, Vec<u8>) {
    let mut c = cfg(96, 17, k);
    if q88 {
        c.actor_precision = ActingPrecision::FixedQ8_8;
    }
    let trainer = Trainer::new(c);

    let mut engine_agent = new_agent(17, topo);
    let mut fl = fleets(17, n, k);
    let log = trainer.run_parallel(&mut engine_agent, &mut fl);

    let mut ref_agent = new_agent(17, topo);
    let mut fl = fleets(17, n, k);
    let _scalar = scalar_reference.then(simd::force_scalar);
    let (ref_curve, ref_weights) = pinned_serial_reference(&c, &mut ref_agent, &mut fl, q88);

    let tag = format!("n={n}, k={k}, q88={q88}, {topo}, scalar_reference={scalar_reference}");
    assert_eq!(
        curve_bits(&log),
        ref_curve,
        "curve diverged from the serial interleaving at {tag}"
    );
    let weights = engine_agent.net().save_weights();
    assert_eq!(
        weights, ref_weights,
        "final weights diverged from the serial interleaving at {tag}"
    );
    (ref_curve, weights)
}

/// `run_parallel(N)` ≡ the pinned serial interleaving, bit for bit, for
/// N ∈ {1, 2, 4} fleets of K ∈ {1, 2} lanes in both acting precisions.
#[test]
fn run_parallel_matches_pinned_serial_interleaving() {
    for &n in &[1usize, 2, 4] {
        for k in [1usize, 2] {
            for q88 in [false, true] {
                assert_matches_reference(n, k, q88, Topology::E2E, false);
            }
        }
    }
}

/// The equivalence holds with the serial reference on the kernels'
/// scalar tiles and the engine on their lanes: both tiles keep the
/// oracle's summation order, so curves and saved weights are the same
/// bytes. Pinned on all-trainable nets and on the frozen-trunk L4 tail
/// (the deployed point, where the round's backward stops at FC2 and
/// skips its input gradient).
#[test]
fn reference_equivalence_holds_lanes_vs_scalar() {
    for topo in [Topology::E2E, Topology::L4] {
        for q88 in [false, true] {
            assert_matches_reference(2, 2, q88, topo, true);
        }
    }
}

/// One fleet is literally `run_vec`: same curve, same weights.
#[test]
fn one_fleet_equals_run_vec() {
    let c = cfg(80, 9, 3);
    let trainer = Trainer::new(c);

    let mut a1 = QAgent::new(&spec(), 9);
    let mut fl = fleets(9, 1, 3);
    let par = trainer.run_parallel(&mut a1, &mut fl);

    let mut a2 = QAgent::new(&spec(), 9);
    let mut venv = fleets(9, 1, 3).pop().expect("one fleet");
    let vec = trainer.run_vec(&mut a2, &mut venv);

    assert_eq!(curve_bits(&par), curve_bits(&vec));
    assert_eq!(a1.net().save_weights(), a2.net().save_weights());
}

/// The trajectory is invariant across pool sizes {1, 2, 7} — in both
/// acting precisions, on all-trainable nets and on the frozen-trunk L4
/// tail. On multi-thread pools the round overlaps the TD forward pair,
/// and in Q8.8 acting the learner's backward with the actors' forward;
/// neither may show.
#[test]
fn pool_invariance() {
    for topo in [Topology::E2E, Topology::L4] {
        for q88 in [false, true] {
            let mut reference: Option<(CurveBits, Vec<u8>)> = None;
            for pool_threads in [1usize, 2, 7] {
                let pool = ThreadPool::new(pool_threads);
                let _installed = pool.install();
                let mut c = cfg(64, 23, 2);
                if q88 {
                    c.actor_precision = ActingPrecision::FixedQ8_8;
                }
                let mut agent = new_agent(23, topo);
                let mut fl = fleets(23, 2, 2);
                let log = Trainer::new(c).run_parallel(&mut agent, &mut fl);
                let got = (curve_bits(&log), agent.net().save_weights());
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        want, &got,
                        "trajectory changed under {pool_threads} threads \
                         (q88={q88}, {topo})"
                    ),
                }
            }
        }
    }
}

/// The snapshot refresh cadence is real: actors on a never-refreshed
/// snapshot act differently from actors refreshed every update, and the
/// refresh counter reports it.
#[test]
fn snapshot_refresh_cadence_is_observable() {
    let run = |refresh: u64| {
        let mut c = cfg(160, 31, 2);
        c.actor_precision = ActingPrecision::FixedQ8_8;
        c.snapshot_refresh = refresh;
        // A learning rate big enough that updates move Q8.8 codes, so
        // stale vs fresh snapshots must pick different actions.
        c.lr = 0.05;
        let mut agent = QAgent::new(&spec(), 31);
        let mut fl = fleets(31, 2, 2);
        let (log, stats) = Trainer::new(c).run_parallel_timed(&mut agent, &mut fl, &mut ());
        (curve_bits(&log), agent.net().save_weights(), stats)
    };
    let (fresh_curve, fresh_weights, fresh_stats) = run(1);
    let (stale_curve, stale_weights, stale_stats) = run(u64::MAX);
    assert!(
        fresh_stats.snapshot_refreshes > 0,
        "refresh cadence never fired"
    );
    assert_eq!(stale_stats.snapshot_refreshes, 0);
    assert!(
        fresh_curve != stale_curve || fresh_weights != stale_weights,
        "refreshing the acting snapshot must change the trajectory"
    );
}

/// Zero steady-state frame allocation: once the replay high-water mark
/// is reached, evicted frames recycle through the rollout pool and
/// doubling the run length allocates **nothing** more — and the total
/// is far below the two-tensors-per-transition cost the old layout paid.
#[test]
fn rollout_frame_allocations_reach_steady_state() {
    let run = |iters: u64| {
        let mut c = cfg(iters, 13, 2);
        c.replay_capacity = 16;
        let mut agent = QAgent::new(&spec(), 13);
        let mut fl = fleets(13, 2, 2);
        let (_, stats) = Trainer::new(c).run_parallel_timed(&mut agent, &mut fl, &mut ());
        stats
    };
    let short = run(200);
    let long = run(400);
    assert_eq!(
        short.frame_allocs, long.frame_allocs,
        "frame allocations must stop growing once replay is at capacity"
    );
    // Memory win vs the unshared layout: the old Transition stored two
    // owned tensors, so 400 transitions cost 800 frame buffers; shared
    // + recycled frames stay within capacity + lanes + episode churn.
    assert!(
        long.frame_allocs < long.transitions,
        "frame pool did not beat one-allocation-per-transition \
         (allocs={}, transitions={})",
        long.frame_allocs,
        long.transitions
    );
}
