//! Deployment-mode (Q8.8) acting: correctness, freshness and measured
//! fidelity.
//!
//! Pins that [`QAgent`]'s quantised acting mode (1) selects exactly the
//! actions the [`QuantizedNet`] engine's Q-values imply, bit for bit,
//! at every pool size, (2) never acts on a stale snapshot after a
//! weight update, within a run or across runs, and (3) — the paper's argmax-fidelity
//! claim, **measured, not assumed** — agrees with float greedy acting on
//! at least 80 % of frames once the policy has trained.

use mramrl_env::{DepthCamera, DroneEnv, EnvKind, VecEnv};
use mramrl_nn::quant::{QWorkspace, QuantizedNet};
use mramrl_nn::{argmax, simd, NetworkSpec, Tensor};
use mramrl_rl::{evaluate_vec, ActingPrecision, QAgent, TrainLog, Trainer, TrainerConfig};

fn spec() -> NetworkSpec {
    NetworkSpec::micro(16, 1, 5)
}

fn obs_batch(n: usize, hw: usize, seed: u64) -> Tensor {
    let data: Vec<f32> = (0..n * hw * hw)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (h % 1000) as f32 / 1000.0
        })
        .collect();
    Tensor::from_vec(&[n, 1, hw, hw], data)
}

fn tiny_env(seed: u64) -> DroneEnv {
    DroneEnv::new(EnvKind::IndoorApartment, seed)
        .with_camera(DepthCamera::new(16, 16, 1.5, 20.0, 0.01))
}

/// Quantised greedy actions equal argmax over the Q-values of an
/// independent quantisation of the agent's weights, run on the scalar
/// tile, at every pool size — the agent adds routing, never arithmetic.
#[test]
fn quantised_acting_matches_engine_bitwise() {
    let obs = obs_batch(4, 16, 7);
    for pool_threads in [1usize, 2, 7] {
        let pool = mramrl_nn::pool::ThreadPool::new(pool_threads);
        let _installed = pool.install();
        let mut agent = QAgent::new(&spec(), 3).with_acting_precision(ActingPrecision::FixedQ8_8);
        let engine = QuantizedNet::from_network(&spec(), agent.net()).expect("own spec");
        let want: Vec<usize> = {
            let _scalar = simd::force_scalar();
            let mut ws = QWorkspace::for_net(&engine);
            let q = engine.q_values_batch(&obs, &mut ws);
            (0..q.batch()).map(|i| argmax(q.sample(i))).collect()
        };
        assert_eq!(agent.greedy_actions(&obs), want, "pool={pool_threads}");
    }
}

/// `q_values_batch` row `i` equals `q_values(obs_i)` bitwise in
/// deployment mode (the serial/batched contract holds through the
/// agent's routing layer).
#[test]
fn quantised_batched_q_values_match_serial() {
    let mut agent = QAgent::new(&spec(), 9).with_acting_precision(ActingPrecision::FixedQ8_8);
    let obs = obs_batch(3, 16, 21);
    let batched = agent.q_values_batch(&obs);
    for i in 0..3 {
        let single = agent.q_values(&Tensor::from_vec(&[1, 16, 16], obs.sample(i).to_vec()));
        assert_eq!(
            single
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            batched
                .sample(i)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "sample {i}"
        );
    }
}

/// A weight update invalidates the snapshot: acting after the update
/// reflects the new weights (no stale-snapshot acting).
#[test]
fn snapshot_refreshes_after_weight_update() {
    let mut agent = QAgent::new(&spec(), 5).with_acting_precision(ActingPrecision::FixedQ8_8);
    let obs = obs_batch(2, 16, 3);
    let before = agent.q_values_batch(&obs);

    // Push the output layer hard enough that Q8.8 values must move.
    let sgd = mramrl_nn::Sgd::new(0.5);
    let t = mramrl_rl::Transition {
        state: std::sync::Arc::new(Tensor::filled(&[1, 16, 16], 0.4)),
        action: 2,
        reward: 5.0,
        next_state: std::sync::Arc::new(Tensor::filled(&[1, 16, 16], 0.6)),
        terminal: true,
    };
    for _ in 0..10 {
        agent.accumulate_td(&t);
        agent.apply_update(&sgd, 1, u64::MAX);
    }
    let after = agent.q_values_batch(&obs);
    assert_ne!(before.data(), after.data(), "stale Q8.8 snapshot");

    // And the refreshed snapshot matches a from-scratch quantisation.
    let fresh = QuantizedNet::from_network(&spec(), agent.net()).expect("own spec");
    let mut ws = QWorkspace::for_net(&fresh);
    let want = fresh.q_values_batch(&obs, &mut ws);
    assert_eq!(after.data(), want.data());
}

/// Across runs: a Q8.8-acting `run_parallel` that follows an earlier
/// run and a `net_mut()` weight edit on the same agent acts on the
/// edited weights, not on a snapshot cached before the edit. The agent
/// with that history must train exactly like a fresh agent loaded with
/// the same weights. The actors never refresh, so a stale run-start
/// snapshot would steer the whole second run.
#[test]
fn run_after_a_weight_edit_acts_on_the_current_weights() {
    let run = |agent: &mut QAgent| -> (TrainLog, Vec<u8>) {
        let mut cfg = TrainerConfig::online(64, 41);
        cfg.num_envs = 2;
        cfg.actor_precision = ActingPrecision::FixedQ8_8;
        cfg.snapshot_refresh = u64::MAX;
        let envs = (0..4).map(|i| tiny_env(41 + i)).collect();
        let mut fleets = VecEnv::from_envs(envs).split(2);
        let log = Trainer::new(cfg).run_parallel(agent, &mut fleets);
        (log, agent.net().save_weights())
    };
    let edited = spec().build(4242).save_weights();

    let mut agent = QAgent::new(&spec(), 40);
    run(&mut agent);
    agent.quantized_snapshot(); // cache a snapshot of the old weights
    agent
        .net_mut()
        .load_weights(&edited)
        .expect("same structure");
    agent.net_mut().zero_grads();
    agent.sync_target();
    let (log, weights) = run(&mut agent);

    let mut fresh = QAgent::new(&spec(), 7);
    fresh.load_transfer(&edited).expect("same structure");
    let (want_log, want_weights) = run(&mut fresh);
    let curve = |l: &TrainLog| -> Vec<(u64, u32, u32)> {
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
    };
    assert_eq!(curve(&log), curve(&want_log), "curve");
    assert_eq!(weights, want_weights, "final weights");
}

/// The measured fidelity claim: after a short training run, float and
/// Q8.8 greedy acting agree on ≥ 80 % of on-policy frames.
#[test]
fn trained_policy_argmax_fidelity_at_least_80_pct() {
    let mut env = VecEnv::from_envs(vec![tiny_env(5)]);
    let mut agent = QAgent::new(&spec(), 1);
    let _ = Trainer::new(TrainerConfig::online(400, 1)).run_vec(&mut agent, &mut env);

    let mut obs = env.reset(0);
    let (mut agree, trials) = (0usize, 50usize);
    for _ in 0..trials {
        let x = Tensor::from_vec(&[1, 16, 16], obs.data().to_vec());
        agent.set_acting_precision(ActingPrecision::Float32);
        let af = agent.greedy_action(&x);
        agent.set_acting_precision(ActingPrecision::FixedQ8_8);
        let aq = agent.greedy_action(&x);
        agree += usize::from(af == aq);
        let s = env.step(&[mramrl_env::Action::from_index(af)]).remove(0);
        obs = if s.crashed {
            env.reset(0)
        } else {
            s.observation
        };
    }
    assert!(
        agree * 5 >= trials * 4,
        "only {agree}/{trials} greedy actions agreed after training"
    );
}

/// Deployment-mode `evaluate_vec`: a VecEnv fleet acting through the
/// quantised engine produces a finite, seed-deterministic evaluation.
#[test]
fn evaluate_vec_runs_deployment_mode() {
    let run = || {
        let mut venv = VecEnv::from_envs(vec![tiny_env(4), tiny_env(5), tiny_env(6)]);
        let mut agent = QAgent::new(&spec(), 4).with_acting_precision(ActingPrecision::FixedQ8_8);
        evaluate_vec(&mut agent, &mut venv, 120, 0.05, 4)
    };
    let a = run();
    assert!(a.sfd >= 0.0 && a.mean_reward.is_finite());
    assert!(a.episodes > 0);
    let b = run();
    assert_eq!(a, b, "deployment-mode evaluation must be deterministic");
}

/// Float and quantised evaluate_vec run the same harness; the quantised
/// one must not silently fall back to float (different Q-values ⇒
/// generally different trajectories ⇒ usually different SFD; equality of
/// Q-values rows is the real check).
#[test]
fn deployment_mode_actually_quantises() {
    let mut agent = QAgent::new(&spec(), 8);
    let obs = obs_batch(2, 16, 13);
    agent.set_acting_precision(ActingPrecision::Float32);
    let qf = agent.q_values_batch(&obs);
    agent.set_acting_precision(ActingPrecision::FixedQ8_8);
    let qq = agent.q_values_batch(&obs);
    // Quantised values sit on the Q8.8 grid; float ones generally don't.
    let on_grid = |v: f32| (v * 256.0 - (v * 256.0).round()).abs() < 1e-4;
    assert!(qq.data().iter().all(|&v| on_grid(v)));
    assert!(
        qf.data().iter().zip(qq.data()).any(|(a, b)| a != b),
        "quantised path returned float bits"
    );
}
