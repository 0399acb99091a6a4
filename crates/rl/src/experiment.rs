//! The Fig. 10 / Fig. 11 experiment driver: TL on meta-environments, then
//! online RL per test environment × topology.

use std::collections::HashMap;

use mramrl_env::{DroneEnv, EnvKind, VecEnv};
use mramrl_nn::NetworkSpec;

use crate::agent::QAgent;
use crate::trainer::{evaluate_vec, EvalResult, TrainLog, Trainer, TrainerConfig};
use crate::Topology;

/// Caches the meta-trained weights per meta-environment so the four
/// topologies (and both indoor tests) share one TL phase, as deployment
/// would (§II-D: the meta-model is trained once, then downloaded).
#[derive(Debug, Default)]
pub struct TransferCache {
    weights: HashMap<EnvKind, Vec<u8>>,
}

impl TransferCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the meta-trained weights for `meta`, training them (E2E,
    /// from-scratch schedule) on first use. `camera_px` must match the
    /// spec's input resolution.
    pub fn get_or_train(
        &mut self,
        meta: EnvKind,
        spec: &NetworkSpec,
        tl_iters: u64,
        seed: u64,
        camera_px: usize,
    ) -> Vec<u8> {
        if let Some(w) = self.weights.get(&meta) {
            return w.clone();
        }
        let cam =
            mramrl_env::DepthCamera::new(camera_px, camera_px, 90.0f32.to_radians(), 20.0, 0.02);
        let mut env = VecEnv::from_envs(vec![DroneEnv::new(meta, seed).with_camera(cam)]);
        let mut agent = QAgent::new(spec, seed);
        Topology::E2E.apply(agent.net_mut());
        let cfg = TrainerConfig::transfer_learning(tl_iters, seed);
        let _ = Trainer::new(cfg).run_vec(&mut agent, &mut env);
        let bytes = agent.net().save_weights();
        self.weights.insert(meta, bytes.clone());
        bytes
    }

    /// Number of cached meta models.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` when nothing has been trained yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

/// One (environment × topology) deployment result.
#[derive(Debug, Clone)]
pub struct EnvRun {
    /// Test environment.
    pub env: EnvKind,
    /// Training topology used online.
    pub topology: Topology,
    /// Full training log (curves, episodes).
    pub log: TrainLog,
    /// Frozen-policy evaluation after training (the Fig. 11 measurement).
    pub eval: EvalResult,
}

/// The Fig. 10/11 experiment matrix.
///
/// # Examples
///
/// ```no_run
/// use mramrl_rl::Fig10Experiment;
///
/// let exp = Fig10Experiment::quick(42);
/// let runs = exp.run_all();
/// assert_eq!(runs.len(), 4 * 4); // 4 envs × {L2,L3,L4,E2E}
/// ```
#[derive(Debug, Clone)]
pub struct Fig10Experiment {
    /// Network specification (micro-AlexNet by default).
    pub spec: NetworkSpec,
    /// TL iterations per meta environment.
    pub tl_iters: u64,
    /// Online RL iterations per (env × topology) run.
    pub online_iters: u64,
    /// Base seed.
    pub seed: u64,
    /// Camera resolution (square). 16 for quick runs, 40 for full.
    pub camera_px: usize,
}

impl Fig10Experiment {
    /// Full-scale defaults (minutes of CPU): 40 px camera, 3 k TL,
    /// 8 k online — the DESIGN.md §6 scaling of the paper's 60 k.
    pub fn full(seed: u64) -> Self {
        Self {
            spec: NetworkSpec::micro(40, 1, 5),
            tl_iters: 3000,
            online_iters: 8000,
            seed,
            camera_px: 40,
        }
    }

    /// Small smoke-test scale (seconds of CPU).
    pub fn quick(seed: u64) -> Self {
        Self {
            spec: NetworkSpec::micro(16, 1, 5),
            tl_iters: 250,
            online_iters: 400,
            seed,
            camera_px: 16,
        }
    }

    fn make_env(&self, kind: EnvKind, seed: u64) -> DroneEnv {
        let cam = mramrl_env::DepthCamera::new(
            self.camera_px,
            self.camera_px,
            90.0f32.to_radians(),
            20.0,
            0.02,
        );
        DroneEnv::new(kind, seed).with_camera(cam)
    }

    /// Runs the four topologies on one test environment, sharing the
    /// cached TL model.
    pub fn run_env(&self, cache: &mut TransferCache, env_kind: EnvKind) -> Vec<EnvRun> {
        self.run_env_with_meta(cache, env_kind, env_kind.meta())
    }

    /// Like [`Fig10Experiment::run_env`] but with an explicit meta
    /// environment (the richer-meta ablation swaps it).
    pub fn run_env_with_meta(
        &self,
        cache: &mut TransferCache,
        env_kind: EnvKind,
        meta: EnvKind,
    ) -> Vec<EnvRun> {
        let tl = cache.get_or_train(meta, &self.spec, self.tl_iters, self.seed, self.camera_px);
        Topology::ALL
            .iter()
            .map(|&topology| {
                let mut agent = QAgent::new(&self.spec, self.seed ^ 0xA5A5);
                agent
                    .load_transfer(&tl)
                    .expect("TL weights match the shared spec");
                topology.apply(agent.net_mut());
                // One drone: the paper's one-image-at-a-time platform.
                let mut env = VecEnv::from_envs(vec![self.make_env(env_kind, self.seed)]);
                let cfg = TrainerConfig::online(self.online_iters, self.seed);
                let log = Trainer::new(cfg).run_vec(&mut agent, &mut env);
                // Frozen-policy SFD measurement (greedy + 2 % residual ε).
                let eval_steps = (self.online_iters / 2).max(200);
                let eval = evaluate_vec(&mut agent, &mut env, eval_steps, 0.02, self.seed);
                EnvRun {
                    env: env_kind,
                    topology,
                    log,
                    eval,
                }
            })
            .collect()
    }

    /// Runs the whole Fig. 10 matrix: 4 test environments × 4 topologies.
    pub fn run_all(&self) -> Vec<EnvRun> {
        let mut cache = TransferCache::new();
        EnvKind::TESTS
            .iter()
            .flat_map(|&k| self.run_env(&mut cache, k))
            .collect()
    }
}

/// Normalises each topology's SFD to the E2E baseline within one
/// environment (the Fig. 11 y-axis).
///
/// Returns `(topology, normalised_sfd)` for every run in `runs` that
/// shares `env`. The E2E entry is 1.0 by construction.
pub fn normalized_sfd(runs: &[EnvRun], env: EnvKind) -> Vec<(Topology, f32)> {
    let e2e = runs
        .iter()
        .find(|r| r.env == env && r.topology == Topology::E2E)
        .map(|r| r.eval.sfd)
        .unwrap_or(0.0);
    runs.iter()
        .filter(|r| r.env == env)
        .map(|r| {
            let norm = if e2e > 0.0 { r.eval.sfd / e2e } else { 0.0 };
            (r.topology, norm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cache_trains_once_per_meta() {
        let exp = Fig10Experiment::quick(9);
        let mut cache = TransferCache::new();
        let a = cache.get_or_train(EnvKind::MetaIndoor, &exp.spec, 60, 9, exp.camera_px);
        let b = cache.get_or_train(EnvKind::MetaIndoor, &exp.spec, 60, 9, exp.camera_px);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let _ = cache.get_or_train(EnvKind::MetaOutdoor, &exp.spec, 60, 9, exp.camera_px);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn run_env_covers_all_topologies() {
        let mut exp = Fig10Experiment::quick(3);
        exp.tl_iters = 60;
        exp.online_iters = 80;
        let mut cache = TransferCache::new();
        let runs = exp.run_env(&mut cache, EnvKind::IndoorApartment);
        assert_eq!(runs.len(), 4);
        let topos: Vec<Topology> = runs.iter().map(|r| r.topology).collect();
        assert_eq!(topos, Topology::ALL.to_vec());
        for r in &runs {
            assert!(!r.log.curve.is_empty());
        }
    }

    #[test]
    fn normalized_sfd_e2e_is_unity() {
        let mut exp = Fig10Experiment::quick(4);
        exp.tl_iters = 60;
        exp.online_iters = 120;
        let mut cache = TransferCache::new();
        let runs = exp.run_env(&mut cache, EnvKind::IndoorApartment);
        let norm = normalized_sfd(&runs, EnvKind::IndoorApartment);
        let e2e = norm.iter().find(|(t, _)| *t == Topology::E2E).unwrap();
        assert!((e2e.1 - 1.0).abs() < 1e-6);
        assert_eq!(norm.len(), 4);
    }

    #[test]
    fn explicit_meta_changes_transfer_source() {
        let mut exp = Fig10Experiment::quick(5);
        exp.tl_iters = 60;
        exp.online_iters = 60;
        let mut cache = TransferCache::new();
        let _ = exp.run_env_with_meta(&mut cache, EnvKind::OutdoorTown, EnvKind::MetaOutdoorRich);
        assert_eq!(cache.len(), 1);
        assert!(cache.weights.contains_key(&EnvKind::MetaOutdoorRich));
    }
}
