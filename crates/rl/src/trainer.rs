//! The online training loop (TL phase and deployment phase share it).
//!
//! One engine drives every training call. [`Trainer::run_parallel`] is
//! the actor/learner architecture: `N` rollout fleets (each a
//! [`VecEnv`], optionally acting in [`ActingPrecision::FixedQ8_8`]
//! deployment precision from a periodically refreshed snapshot) feed a
//! [`ShardedReplay`] — one shard per fleet, no cross-fleet coordination
//! on the push path — and one batched learner drains the shards on a
//! **deterministic schedule**: a fixed-order transition merge and a
//! pinned sampling/update interleaving, the same bit-identity
//! discipline as the pool combinators. [`Trainer::run_vec`] is the
//! one-fleet case of that schedule, and a one-lane `VecEnv` is the
//! paper's §V "one image at a time" platform model: wrap a single
//! [`mramrl_env::DroneEnv`] with [`VecEnv::from_envs`].
//!
//! The pinned schedule (see `docs/training.md` for the proof sketch):
//! per round, the learner first drains the previous round's replay
//! state (sample indices are pre-drawn from the single RNG), then the
//! actors run one fused `N·K`-wide forward, choose ε-greedy actions
//! fleet-major, step all lanes in one pooled scatter and push
//! fleet-major into their shards. This is a *rotation* of the classic
//! act-then-learn round, so `run_parallel(1 fleet)` is bit-identical to
//! `run_vec`, and the merged shard order equals the serial
//! interleaving's single buffer.
//!
//! With more than one executor on the persistent `mramrl_nn::pool`, the
//! whole vec-step runs multi-core: lane rendering fans
//! out inside [`VecEnv::step`] / [`mramrl_env::step_fleets`], the agent
//! overlaps its independent target/online forwards, and in
//! deployment-precision acting the trainer also overlaps the learner's
//! float backward and update with the actors' Q8.8 forward (disjoint
//! nets — the snapshot is frozen), so each of the round's two learner
//! steps fills both executors. A float pass reached at top level — the
//! end-to-end backward, the SGD step, the float actors' forward —
//! splits inside its layers by the pool's one parallel rule. Every
//! schedule is bit-identical to the serial one at any `NN_POOL_THREADS`
//! (see `docs/threading.md`).

use std::sync::Arc;
use std::time::Instant;

use mramrl_env::{step_fleets, Action, EnvKind, Image, VecEnv};
use mramrl_nn::{QWorkspace, QuantizedNet, Sgd, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::agent::{ActingPrecision, QAgent, TdForward};
use crate::metrics::{MovingAverage, SafeFlightTracker};
use crate::policy::EpsilonSchedule;
use crate::replay::{ShardedReplay, Transition, TransitionBatch};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Total environment steps (= training images, the paper's
    /// "iterations"), summed across all lanes of all fleets.
    pub iters: u64,
    /// Images per weight update (the paper's batch size N, Fig. 3(b)).
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Per-element gradient clip.
    pub grad_clip: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Replay capacity (transitions, total across shards; the sharded
    /// drivers round each shard down to whole rounds — see
    /// [`ShardedReplay::for_fleets`]).
    pub replay_capacity: usize,
    /// Target-network sync period, in weight updates.
    pub target_sync: u64,
    /// Moving-average window for the cumulative-reward curve.
    pub metrics_window: usize,
    /// Emit one curve point per this many iterations.
    pub log_every: u64,
    /// RNG seed for exploration/replay sampling.
    pub seed: u64,
    /// Environment lanes **per fleet**: [`Trainer::build_vec_env`] and
    /// [`Trainer::build_fleets`] size their fleets from this, and the
    /// learner's TD batches are one transition per lane per round. A
    /// hand-built `VecEnv` passed to the trainer keeps its own lane
    /// count. Default 1.
    pub num_envs: usize,
    /// Datapath the rollout actors of [`Trainer::run_parallel`] select
    /// actions on. [`ActingPrecision::Float32`] acts on the live online
    /// network; [`ActingPrecision::FixedQ8_8`] acts through a frozen
    /// Q8.8 snapshot refreshed every [`TrainerConfig::snapshot_refresh`]
    /// weight updates — the software mirror of a drone fleet running the
    /// 16-bit silicon datapath while a basestation learner trains in
    /// float. TD math is always float. Default `Float32` (which keeps
    /// `run_vec`'s historical trajectories bit-for-bit).
    pub actor_precision: ActingPrecision,
    /// Deployment-precision actors re-snapshot the online network every
    /// this many weight updates (ignored under `Float32` acting). The
    /// refresh happens at the learner's phase boundary, so it is part of
    /// the pinned schedule — determinism stays seed-only. Default 16.
    pub snapshot_refresh: u64,
}

impl TrainerConfig {
    /// Defaults for an online deployment run of `iters` steps: batch 4
    /// (the paper's headline fps operating point), transfer-style low
    /// exploration, metrics window scaled like the paper's (15000/60000
    /// of the run length).
    pub fn online(iters: u64, seed: u64) -> Self {
        Self {
            iters,
            batch_size: 4,
            lr: 2e-3,
            grad_clip: 1.0,
            gamma: 0.95,
            epsilon: EpsilonSchedule::transfer((iters / 2).max(1)),
            replay_capacity: 2048,
            target_sync: 64,
            metrics_window: ((iters as usize) / 4).max(16),
            log_every: (iters / 64).max(1),
            seed,
            num_envs: 1,
            actor_precision: ActingPrecision::Float32,
            snapshot_refresh: 16,
        }
    }

    /// Defaults for the from-scratch TL (meta-environment) phase.
    pub fn transfer_learning(iters: u64, seed: u64) -> Self {
        Self {
            epsilon: EpsilonSchedule::scratch((iters * 2 / 3).max(1)),
            lr: 3e-3,
            ..Self::online(iters, seed)
        }
    }
}

/// One sampled point of the Fig. 10 curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index.
    pub iter: u64,
    /// Cumulative reward (moving average of rewards).
    pub cumulative_reward: f32,
    /// Return (moving average of per-episode mean rewards).
    pub avg_return: f32,
}

/// The result of one training run.
#[derive(Debug, Clone)]
pub struct TrainLog {
    /// Sampled learning curves.
    pub curve: Vec<CurvePoint>,
    /// Completed episodes (crashes).
    pub episodes: u64,
    /// Post-convergence safe flight distance (metres): mean over the last
    /// third of episodes.
    pub sfd: f32,
    /// Mean SFD over all episodes.
    pub sfd_overall: f32,
    /// Final cumulative reward.
    pub final_reward: f32,
}

/// Wall-clock and allocation accounting for one
/// [`Trainer::run_parallel_timed`] run — the instrument behind the
/// learner-bound vs actor-bound regime cells in `BENCH_batch.json`.
///
/// Under the overlapped deployment-precision schedule the phase times
/// are measured per role, so `learner_ns` vs `actor_ns + env_ns`
/// compares how much work each side did — the bound-ness signal —
/// rather than partitioning wall-clock. That round runs in two steps:
/// the learner's TD forward pair (target ‖ online, alone on the pool),
/// then its backward and weight update ‖ the actors' Q8.8 forward,
/// each timed inside its own closure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Nanoseconds in the actors' action-selection (batched Q forward +
    /// ε-greedy choice).
    pub actor_ns: u64,
    /// Nanoseconds stepping environments (pooled lane scatter).
    pub env_ns: u64,
    /// Nanoseconds in the learner (batch fill, TD accumulation, weight
    /// updates, target syncs, hooks excluded). Under Q8.8 acting this is
    /// the TD forward step's wall time plus the backward-and-update
    /// closure's own time, which overlaps `actor_ns`.
    pub learner_ns: u64,
    /// Environment transitions generated (= iterations run, rounded up
    /// to whole rounds).
    pub transitions: u64,
    /// Weight updates applied.
    pub updates: u64,
    /// Times the deployment-precision actor snapshot was refreshed.
    pub snapshot_refreshes: u64,
    /// Fresh frame-buffer allocations in the rollout path. Bounded by
    /// the replay high-water mark: once the frame pool warms up, evicted
    /// transitions recycle their buffers and this stops growing — the
    /// rollout analogue of `Workspace::footprint()` stability, pinned by
    /// the footprint test.
    pub frame_allocs: u64,
}

/// Observer of the learner's target-sync boundaries in
/// [`Trainer::run_parallel_hooked`].
///
/// The hook fires immediately after a weight update crossed
/// `target_sync` and copied the online weights into the target network
/// — the natural publish point for serving layers
/// (`mramrl_serve::LearnerPublisher` pushes
/// [`QAgent::quantized_snapshot_shared`] into a `SnapshotStore` here).
/// It runs at the pinned phase boundary, outside any overlap, and must
/// not mutate weights if bit-identity with the unhooked run is to hold
/// (reading, or building the agent's cached Q8.8 snapshot, is fine).
pub trait LearnerHook {
    /// Called after update number `updates` synced the target network.
    fn on_target_sync(&mut self, agent: &mut QAgent, updates: u64);

    /// Called at the end of every learner phase with the cumulative
    /// weight-update count — including rounds that applied no update.
    /// This is the metering boundary for write-stream observers
    /// (`EnduranceScheduler` models one NVM write-back burst per update
    /// here); like [`LearnerHook::on_target_sync`], it runs outside any
    /// overlap and must not mutate the agent. The default does nothing.
    fn on_round(&mut self, updates: u64) {
        let _ = updates;
    }
}

/// The no-op hook: plain training.
impl LearnerHook for () {
    fn on_target_sync(&mut self, _agent: &mut QAgent, _updates: u64) {}
}

/// Caller-owned rollout workspace: the actor side's persistent buffers.
///
/// Steady-state acting allocates nothing: observations are written in
/// place into one batched tensor, Q-values land in a reused output, and
/// frame buffers cycle through a free pool fed by replay evictions
/// (`Arc::try_unwrap` on the evicted transition's frames).
struct RolloutWs {
    /// Batched observations `[lanes, 1, H, W]`, overwritten in place.
    obs: Tensor,
    /// Batched Q-values `[lanes, actions]`, overwritten in place.
    q: Tensor,
    /// Per-lane handle to the frame currently in `obs` (becomes the next
    /// transition's `state`).
    prev: Vec<Arc<Tensor>>,
    /// Recycled frame buffers.
    free: Vec<Tensor>,
    frame_shape: [usize; 3],
    frame_allocs: u64,
}

impl RolloutWs {
    /// Resets every fleet and builds the workspace from the first
    /// observations (all lanes must share one camera geometry).
    fn init(fleets: &mut [VecEnv]) -> Self {
        let mut first: Vec<Image> = Vec::new();
        for fl in fleets.iter_mut() {
            first.extend(fl.reset_all());
        }
        let (h, w) = (first[0].height(), first[0].width());
        let mut ws = Self {
            obs: observation_batch(&first),
            q: Tensor::zeros(&[1]),
            prev: Vec::with_capacity(first.len()),
            free: Vec::new(),
            frame_shape: [1, h, w],
            frame_allocs: 0,
        };
        for img in &first {
            let frame = ws.frame(img.data());
            ws.prev.push(frame);
        }
        ws
    }

    /// A shared frame holding `data`: reuses a pooled buffer when one is
    /// free, allocates (and counts) otherwise.
    fn frame(&mut self, data: &[f32]) -> Arc<Tensor> {
        let mut t = match self.free.pop() {
            Some(t) => t,
            None => {
                self.frame_allocs += 1;
                Tensor::zeros(&self.frame_shape)
            }
        };
        t.data_mut().copy_from_slice(data);
        Arc::new(t)
    }

    /// Returns an evicted transition's frames to the pool (each frame
    /// comes back once its last sharing transition is evicted).
    fn recycle(&mut self, t: Transition) {
        for arc in [t.state, t.next_state] {
            if let Ok(tensor) = Arc::try_unwrap(arc) {
                self.free.push(tensor);
            }
        }
    }
}

/// The learner side of the pinned schedule: the reused TD batch, the
/// gradients accumulated toward the next weight update, and the update
/// count. A learner phase fills the TD batch from the merged shard view
/// at the pre-drawn indices, accumulates, and applies a weight update
/// once `batch_size` gradients have built up. It consumes no RNG (the
/// indices are drawn by the caller, keeping the single stream valid
/// under overlap) and is a no-op while the replay is empty (`idx`
/// empty). The phase splits at the TD step's forward/backward seam so
/// the trainer can schedule the halves apart.
#[derive(Default)]
struct Learner {
    batch: Option<TransitionBatch>,
    accumulated: usize,
    updates: u64,
}

impl Learner {
    /// First half of a phase: fill the TD batch and run its two
    /// forwards ([`QAgent::td_forward`]). `None` while the replay is
    /// empty.
    fn forward(
        &mut self,
        agent: &mut QAgent,
        replay: &ShardedReplay,
        idx: &[usize],
    ) -> Option<TdForward> {
        if idx.is_empty() {
            return None;
        }
        let b = self.batch.get_or_insert_with(|| {
            let shape = replay
                .merged_get(0)
                .expect("non-empty replay")
                .state
                .shape()
                .to_vec();
            TransitionBatch::zeros(idx.len(), &shape)
        });
        replay.fill_batch(idx, b);
        Some(agent.td_forward(b))
    }

    /// Second half: the online backward ([`QAgent::td_backward`]) and,
    /// once `batch_size` gradients have built up, the weight update.
    /// Returns `true` when that update also synced the target network.
    fn backward(
        &mut self,
        agent: &mut QAgent,
        sgd: &Sgd,
        cfg: &TrainerConfig,
        fwd: TdForward,
    ) -> bool {
        let b = self.batch.as_ref().expect("forward filled the batch");
        agent.td_backward(b, fwd);
        self.accumulated += b.len();
        if self.accumulated >= cfg.batch_size {
            let synced = agent.apply_update(sgd, self.accumulated, cfg.target_sync);
            self.accumulated = 0;
            self.updates += 1;
            synced
        } else {
            false
        }
    }

    /// A whole phase, both halves back to back — the same composition as
    /// [`QAgent::accumulate_td_batch`].
    fn phase(
        &mut self,
        agent: &mut QAgent,
        sgd: &Sgd,
        cfg: &TrainerConfig,
        replay: &ShardedReplay,
        idx: &[usize],
    ) -> bool {
        match self.forward(agent, replay, idx) {
            Some(fwd) => self.backward(agent, sgd, cfg, fwd),
            None => false,
        }
    }
}

/// Runs the Q-learning loop of §II on fleets of drones ([`VecEnv`]).
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    cfg: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `iters`, `batch_size` or `snapshot_refresh` is zero.
    pub fn new(cfg: TrainerConfig) -> Self {
        assert!(cfg.iters > 0 && cfg.batch_size > 0, "empty training run");
        assert!(cfg.snapshot_refresh > 0, "snapshot refresh period is zero");
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.cfg
    }

    /// Builds the [`VecEnv`] this configuration asks for:
    /// [`TrainerConfig::num_envs`] lanes of `kind`, lane `i` seeded
    /// `cfg.seed.wrapping_add(i)` — the canonical way to size the fleet
    /// for [`Trainer::run_vec`].
    ///
    /// # Panics
    ///
    /// Panics if `num_envs` is zero.
    pub fn build_vec_env(&self, kind: EnvKind) -> VecEnv {
        VecEnv::new(kind, self.cfg.seed, self.cfg.num_envs)
    }

    /// Builds `n` rollout fleets of [`TrainerConfig::num_envs`] lanes
    /// each for [`Trainer::run_parallel`]: one flat-seeded `VecEnv` of
    /// `n·num_envs` lanes (global lane `i` seeded
    /// `cfg.seed.wrapping_add(i)`, the same rule as
    /// [`Trainer::build_vec_env`]) split fleet-major, so fleet `f` owns
    /// global lanes `f·num_envs ..`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `num_envs` is zero.
    pub fn build_fleets(&self, kind: EnvKind, n: usize) -> Vec<VecEnv> {
        assert!(n > 0, "need at least one fleet");
        VecEnv::new(kind, self.cfg.seed, self.cfg.num_envs * n).split(n)
    }

    /// The vectorized loop: `K = venv.len()` lanes act together. Each
    /// vec-step runs **one** batched Q forward for action selection
    /// (`[K, ...]` observations), records `K` transitions, accumulates a
    /// `K`-sized replayed TD batch via [`QAgent::accumulate_td_batch`]
    /// (one TD gradient per image) and applies the §III-D batched update
    /// once `batch_size` gradients have accumulated. `iters` counts
    /// total environment steps across lanes, so the work done is the
    /// same at every lane count.
    ///
    /// Size the `VecEnv` with [`Trainer::build_vec_env`] (which reads
    /// [`TrainerConfig::num_envs`]); a hand-built `venv` also works —
    /// its lane count wins. Lane stepping and the batched network passes
    /// parallelise on the persistent `mramrl_nn::pool` without changing
    /// a single bit of the trajectory — determinism stays seed-only.
    ///
    /// This *is* [`Trainer::run_parallel`] with one fleet (the engines
    /// are literally the same function), so its trajectories are pinned
    /// by the actor/learner suite's serial reference, `K = 1` included.
    pub fn run_vec(&self, agent: &mut QAgent, venv: &mut VecEnv) -> TrainLog {
        self.run_parallel_core(agent, core::slice::from_mut(venv), &mut ())
            .0
    }

    /// The actor/learner driver: `fleets.len()` rollout fleets feed a
    /// [`ShardedReplay`] (shard `f` is fleet `f`'s private push target)
    /// and one batched learner drains the merged view on the pinned
    /// schedule. Build the fleets with [`Trainer::build_fleets`].
    ///
    /// **Determinism contract**: the result (TrainLog curve bits and
    /// final weights) is identical to the *pinned serial interleaving*
    /// of the same fleets — one round-robin loop, single replay buffer,
    /// single RNG — documented in `docs/training.md` and executed by the
    /// reference driver in the `actor_learner` test suite, at any
    /// `NN_POOL_THREADS`. One fleet reduces to
    /// [`Trainer::run_vec`] exactly.
    ///
    /// `iters` counts environment steps across **all** lanes of all
    /// fleets, so doubling the fleet count halves the rounds, not the
    /// work. With [`TrainerConfig::actor_precision`] =
    /// [`ActingPrecision::FixedQ8_8`] the actors run the integer
    /// datapath from a frozen snapshot (refreshed every
    /// [`TrainerConfig::snapshot_refresh`] updates at the phase
    /// boundary) and the learner's float backward and update overlap
    /// the actors' forward on the pool, after its TD forward pair ran
    /// on both executors — a pure scheduling choice, same bits.
    ///
    /// # Panics
    ///
    /// Panics if `fleets` is empty or the fleets have unequal widths.
    pub fn run_parallel(&self, agent: &mut QAgent, fleets: &mut [VecEnv]) -> TrainLog {
        self.run_parallel_core(agent, fleets, &mut ()).0
    }

    /// [`Trainer::run_parallel`] with a [`LearnerHook`] observing every
    /// target sync — the learner → serving handoff
    /// (`mramrl_serve::LearnerPublisher` publishes the quantized
    /// snapshot to a `SnapshotStore` here, so served decisions track the
    /// newest generation mid-training).
    pub fn run_parallel_hooked(
        &self,
        agent: &mut QAgent,
        fleets: &mut [VecEnv],
        hook: &mut dyn LearnerHook,
    ) -> TrainLog {
        self.run_parallel_core(agent, fleets, hook).0
    }

    /// [`Trainer::run_parallel_hooked`] returning phase accounting —
    /// the bench harness's entry point for the learner-bound vs
    /// actor-bound regime cells.
    pub fn run_parallel_timed(
        &self,
        agent: &mut QAgent,
        fleets: &mut [VecEnv],
        hook: &mut dyn LearnerHook,
    ) -> (TrainLog, ParallelStats) {
        self.run_parallel_core(agent, fleets, hook)
    }

    /// The one engine behind `run_vec` / `run_parallel*`: the rotated
    /// act/learn schedule (learner drains the previous round, then the
    /// actors extend the replay), which makes the learner phase
    /// overlappable with the actors' forward in deployment precision
    /// while staying bit-identical to the classic act-then-learn round
    /// — the first learner phase of a run is empty, and one trailing
    /// learner phase after the loop completes the rotation.
    fn run_parallel_core(
        &self,
        agent: &mut QAgent,
        fleets: &mut [VecEnv],
        hook: &mut dyn LearnerHook,
    ) -> (TrainLog, ParallelStats) {
        let cfg = &self.cfg;
        let n = fleets.len();
        assert!(n > 0, "need at least one fleet");
        let k = fleets[0].len();
        assert!(
            fleets.iter().all(|f| f.len() == k),
            "fleets must have equal lane counts"
        );
        let lanes = n * k;

        // The trainer owns the acting datapath: TD math runs float on
        // the live net; `cfg.actor_precision` selects the actors'
        // forward (a frozen trainer-held snapshot in Q8.8 mode — the
        // agent's own lazily-invalidated snapshot machinery would
        // re-quantize after every update). The caller's precision comes
        // back on return.
        let caller_precision = agent.acting_precision();
        agent.set_acting_precision(ActingPrecision::Float32);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_5EED);
        let sgd = Sgd::new(cfg.lr).with_grad_clip(cfg.grad_clip);
        let mut replay = ShardedReplay::for_fleets(cfg.replay_capacity, n, k);

        let mut cum_reward = MovingAverage::new(cfg.metrics_window);
        let mut return_ma = MovingAverage::new((cfg.metrics_window / 64).max(4));
        let mut sfd = SafeFlightTracker::new();
        let mut curve = Vec::new();

        let mut ep_reward = vec![0.0f32; lanes];
        let mut ep_actions = vec![0u64; lanes];
        let mut learner = Learner::default();
        let mut last_refresh = 0u64;
        let mut next_log = 0u64;
        let mut stats = ParallelStats::default();

        let mut ws = RolloutWs::init(fleets);
        let mut actor_snap: Option<Arc<QuantizedNet>> = match cfg.actor_precision {
            ActingPrecision::Float32 => None,
            ActingPrecision::FixedQ8_8 => Some(agent.quantized_snapshot_shared()),
        };
        let mut qws = QWorkspace::new();

        let mut idx: Vec<usize> = Vec::with_capacity(lanes);
        let mut actions: Vec<usize> = vec![0; lanes];
        let mut act: Vec<Action> = Vec::with_capacity(lanes);

        let mut iter = 0u64;
        while iter < cfg.iters {
            // 1. Pre-draw this learner phase's sample indices — they
            //    depend only on the merged length, so drawing them before
            //    the (possibly overlapped) phase keeps the single RNG
            //    stream identical to the serial interleaving's.
            replay.sample_indices(&mut rng, lanes, &mut idx);

            // 2. Learner phase (drains the previous rounds' replay) and
            //    the actors' fused [lanes]-wide Q forward. In Q8.8
            //    acting the actors read a frozen snapshot, disjoint from
            //    both learner nets, so the round runs in two steps that
            //    each fill both executors: the TD forward pair (target ‖
            //    online, overlapped inside `Learner::forward` at top
            //    level), then the online backward and weight update ‖
            //    the actors' forward. Float acting needs the updated
            //    weights, so its phase runs alone at top level, where the
            //    pool's parallel rule splits each pass inside its layers
            //    (`dW ∥ dX` backwards, chunked SGD step, sample slabs and
            //    row bands in the actors' forward). Every schedule
            //    produces identical bits.
            let synced = match &actor_snap {
                Some(snap) => {
                    let t0 = Instant::now();
                    let fwd = learner.forward(agent, &replay, &idx);
                    stats.learner_ns += t0.elapsed().as_nanos() as u64;
                    let backward = || {
                        let t0 = Instant::now();
                        let s = fwd.is_some_and(|f| learner.backward(agent, &sgd, cfg, f));
                        (s, t0.elapsed().as_nanos() as u64)
                    };
                    let snap = Arc::clone(snap);
                    let (ws, qws) = (&mut ws, &mut qws);
                    let actor = move || {
                        let t0 = Instant::now();
                        ws.q.copy_from(snap.q_values_batch(&ws.obs, qws));
                        t0.elapsed().as_nanos() as u64
                    };
                    let ((synced, learner_ns), actor_ns) = mramrl_nn::pool::join2(backward, actor);
                    stats.learner_ns += learner_ns;
                    stats.actor_ns += actor_ns;
                    synced
                }
                None => {
                    let t0 = Instant::now();
                    let synced = learner.phase(agent, &sgd, cfg, &replay, &idx);
                    stats.learner_ns += t0.elapsed().as_nanos() as u64;
                    let t0 = Instant::now();
                    agent.q_values_batch_into(&ws.obs, &mut ws.q);
                    stats.actor_ns += t0.elapsed().as_nanos() as u64;
                    synced
                }
            };
            if synced {
                hook.on_target_sync(agent, learner.updates);
            }
            hook.on_round(learner.updates);
            // Snapshot refresh on its update cadence, at the phase
            // boundary (the refreshed snapshot is first used next
            // round) — part of the pinned schedule.
            if actor_snap.is_some()
                && learner.updates.saturating_sub(last_refresh) >= cfg.snapshot_refresh
            {
                actor_snap = Some(agent.quantized_snapshot_shared());
                last_refresh = learner.updates;
                stats.snapshot_refreshes += 1;
            }

            // 3. ε-greedy selection, fleet-major (one RNG draw per lane,
            //    plus one more per exploring lane — the serial order).
            let t0 = Instant::now();
            for (lane, a) in actions.iter_mut().enumerate().take(lanes) {
                *a = cfg.epsilon.choose_slice(ws.q.sample(lane), iter, &mut rng);
            }
            act.clear();
            act.extend(actions.iter().map(|&a| Action::from_index(a)));
            stats.actor_ns += t0.elapsed().as_nanos() as u64;

            // 4. Step every lane of every fleet in one pooled scatter.
            let t0 = Instant::now();
            let steps = step_fleets(fleets, &act);
            stats.env_ns += t0.elapsed().as_nanos() as u64;

            // 5. Metrics and shard pushes, fleet-major — fleet `f`
            //    touches only shard `f`.
            for (lane, step) in steps.iter().enumerate() {
                let (f, j) = (lane / k, lane % k);
                cum_reward.push(step.reward);
                ep_reward[lane] += step.reward;
                ep_actions[lane] += 1;
                let next = ws.frame(step.observation.data());
                let transition = Transition {
                    state: core::mem::replace(&mut ws.prev[lane], Arc::clone(&next)),
                    action: actions[lane],
                    reward: step.reward,
                    next_state: next,
                    terminal: step.crashed,
                };
                if let Some(evicted) = replay.push(f, transition) {
                    ws.recycle(evicted);
                }
                if step.crashed {
                    return_ma.push(ep_reward[lane] / ep_actions[lane].max(1) as f32);
                    sfd.record_episode(fleets[f].episode_distance(j));
                    ep_reward[lane] = 0.0;
                    ep_actions[lane] = 0;
                    let img = fleets[f].reset(j);
                    ws.prev[lane] = ws.frame(img.data());
                    ws.obs.sample_mut(lane).copy_from_slice(img.data());
                } else {
                    ws.obs
                        .sample_mut(lane)
                        .copy_from_slice(step.observation.data());
                }
            }
            stats.transitions += lanes as u64;

            // Exactly one curve point per `log_every` window — the first
            // round at or past each window start. End-of-run state lives
            // in `TrainLog::final_reward`, so no extra final point is
            // emitted.
            if iter >= next_log {
                curve.push(CurvePoint {
                    iter,
                    cumulative_reward: cum_reward.value(),
                    avg_return: return_ma.value(),
                });
                next_log = (iter / cfg.log_every + 1) * cfg.log_every;
            }
            iter += lanes as u64;
        }
        // Trailing learner phase: the rotation owes one drain of the
        // final round's pushes (the classic schedule learns *after*
        // acting each round).
        replay.sample_indices(&mut rng, lanes, &mut idx);
        let t0 = Instant::now();
        let synced = learner.phase(agent, &sgd, cfg, &replay, &idx);
        stats.learner_ns += t0.elapsed().as_nanos() as u64;
        if synced {
            hook.on_target_sync(agent, learner.updates);
        }
        hook.on_round(learner.updates);

        // Censored final episodes still inform SFD, lane by lane.
        for fleet in fleets.iter() {
            for j in 0..k {
                if fleet.episode_distance(j) > 0.0 {
                    sfd.record_episode(fleet.episode_distance(j));
                }
            }
        }

        agent.set_acting_precision(caller_precision);
        stats.updates = learner.updates;
        stats.frame_allocs = ws.frame_allocs;
        let episodes = sfd.episodes() as u64;
        let tail = (sfd.episodes() / 3).max(3);
        (
            TrainLog {
                episodes,
                sfd: sfd.tail_mean(tail),
                sfd_overall: sfd.mean(),
                final_reward: cum_reward.value(),
                curve,
            },
            stats,
        )
    }
}

/// Stacks per-lane depth images (one camera geometry) into a batched
/// `[lanes, 1, H, W]` observation tensor.
fn observation_batch(images: &[Image]) -> Tensor {
    let (h, w) = (images[0].height(), images[0].width());
    let mut obs = Tensor::zeros(&[images.len(), 1, h, w]);
    for (lane, img) in images.iter().enumerate() {
        obs.sample_mut(lane).copy_from_slice(img.data());
    }
    obs
}

/// Result of a frozen-policy evaluation flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean distance per episode (the paper's SFD), metres.
    pub sfd: f32,
    /// Episodes completed (crashes; the trailing partial episode counts
    /// once if it flew).
    pub episodes: u64,
    /// Mean per-step reward.
    pub mean_reward: f32,
}

/// Evaluates a frozen policy over a [`VecEnv`] for `steps` environment
/// steps with a small residual exploration `eps` (breaks limit cycles
/// without materially perturbing the policy), one batched Q forward per
/// vec-step. No learning happens. `steps` counts total environment
/// steps across all lanes (rounded up to a whole vec-step).
///
/// This is the measurement used for Fig. 11's safe-flight distance: it
/// decouples the SFD statistic from the exploration schedule that is
/// still active at the end of training.
///
/// **Deployment-mode fixed-point evaluation**: set the agent to
/// [`crate::ActingPrecision::FixedQ8_8`] first and every batched Q
/// forward here runs through the agent's Q8.8 snapshot instead of the
/// float network — `K` lanes acting through the quantised engine, as a
/// drone fleet on the 16-bit silicon datapath would. The policy is
/// frozen, so the snapshot is quantised exactly once for the whole
/// evaluation (see `docs/fixed_point.md`).
///
/// # Panics
///
/// Panics if `steps` is zero or `eps` is outside `[0, 1]`.
pub fn evaluate_vec(
    agent: &mut QAgent,
    venv: &mut VecEnv,
    steps: u64,
    eps: f32,
    seed: u64,
) -> EvalResult {
    assert!(steps > 0, "evaluation needs steps");
    assert!((0.0..=1.0).contains(&eps), "eps must be a probability");
    let k = venv.len();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xEAA1_EAA1);
    let schedule = EpsilonSchedule::new(eps.max(1e-6), eps.max(1e-6), 1);
    let mut sfd = SafeFlightTracker::new();
    let mut reward_sum = 0.0f64;

    // One batched observation and one Q output, overwritten in place,
    // as in the trainer's rollout.
    let mut obs = observation_batch(&venv.reset_all());
    let mut q = Tensor::zeros(&[1]);
    let mut stepped = 0u64;
    while stepped < steps {
        agent.q_values_batch_into(&obs, &mut q);
        let act: Vec<Action> = (0..k)
            .map(|i| Action::from_index(schedule.choose_slice(q.sample(i), stepped, &mut rng)))
            .collect();
        for (i, s) in venv.step(&act).iter().enumerate() {
            reward_sum += f64::from(s.reward);
            if s.crashed {
                sfd.record_episode(venv.episode_distance(i));
                obs.sample_mut(i).copy_from_slice(venv.reset(i).data());
            } else {
                obs.sample_mut(i).copy_from_slice(s.observation.data());
            }
        }
        stepped += k as u64;
    }
    for i in 0..k {
        if venv.episode_distance(i) > 0.0 {
            sfd.record_episode(venv.episode_distance(i));
        }
    }
    EvalResult {
        sfd: sfd.mean(),
        episodes: sfd.episodes() as u64,
        mean_reward: (reward_sum / stepped as f64) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mramrl_env::{DroneEnv, EnvKind};
    use mramrl_nn::NetworkSpec;

    fn tiny_env() -> DroneEnv {
        DroneEnv::new(EnvKind::IndoorApartment, 5)
            .with_camera(mramrl_env::DepthCamera::new(16, 16, 1.5, 20.0, 0.01))
    }

    /// The single-drone platform model: one lane.
    fn one_lane() -> VecEnv {
        VecEnv::from_envs(vec![tiny_env()])
    }

    #[test]
    fn run_produces_curves_and_episodes() {
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 1);
        let log = Trainer::new(TrainerConfig::online(300, 1)).run_vec(&mut agent, &mut one_lane());
        assert!(!log.curve.is_empty());
        assert!(log.curve.iter().all(|p| p.cumulative_reward.is_finite()));
        assert!(log.episodes > 0, "a fresh agent must crash sometimes");
        assert!(log.sfd >= 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), seed);
            Trainer::new(TrainerConfig::online(120, seed)).run_vec(&mut agent, &mut one_lane())
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a.final_reward, b.final_reward);
        assert_eq!(a.episodes, b.episodes);
    }

    #[test]
    fn frozen_topology_trains_without_touching_conv() {
        use crate::Topology;
        let spec = NetworkSpec::micro(16, 1, 5);
        let mut agent = QAgent::new(&spec, 2);
        Topology::L2.apply(agent.net_mut());
        let conv_before: Vec<f32> = agent
            .net()
            .layers()
            .take(1)
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.value.data().to_vec()))
            .collect();
        let _ = Trainer::new(TrainerConfig::online(100, 2)).run_vec(&mut agent, &mut one_lane());
        let conv_after: Vec<f32> = agent
            .net()
            .layers()
            .take(1)
            .flat_map(|l| l.params().into_iter().flat_map(|p| p.value.data().to_vec()))
            .collect();
        assert_eq!(conv_before, conv_after);
    }

    #[test]
    fn run_vec_produces_curves_and_episodes() {
        let mut venv = mramrl_env::VecEnv::from_envs(vec![tiny_env(), tiny_env(), tiny_env()]);
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 1);
        let mut cfg = TrainerConfig::online(300, 1);
        cfg.num_envs = 3;
        let log = Trainer::new(cfg).run_vec(&mut agent, &mut venv);
        assert!(!log.curve.is_empty());
        assert!(log.curve.iter().all(|p| p.cumulative_reward.is_finite()));
        assert!(log.episodes > 0, "a fresh agent must crash sometimes");
        assert!(log.sfd >= 0.0);
    }

    #[test]
    fn run_vec_deterministic_given_seed() {
        let run = |seed| {
            let mut agent = QAgent::new(&NetworkSpec::micro(40, 1, 5), seed);
            let mut cfg = TrainerConfig::online(120, seed);
            cfg.num_envs = 2;
            let trainer = Trainer::new(cfg);
            let mut venv = trainer.build_vec_env(mramrl_env::EnvKind::IndoorApartment);
            assert_eq!(venv.len(), 2, "build_vec_env must honour num_envs");
            trainer.run_vec(&mut agent, &mut venv)
        };
        let (a, b) = (run(3), run(3));
        assert_eq!(a.final_reward, b.final_reward);
        assert_eq!(a.episodes, b.episodes);
    }

    #[test]
    fn run_logs_once_per_log_window() {
        // iters = 11 with log_every = 3: the pre-fix unconditional
        // final-iteration clause logged window 3 twice (curve iters
        // [0, 3, 6, 9, 10]); the cadence contract is one point per
        // window, at its first iteration.
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 1);
        let mut cfg = TrainerConfig::online(11, 1);
        cfg.log_every = 3;
        let log = Trainer::new(cfg).run_vec(&mut agent, &mut one_lane());
        let iters: Vec<u64> = log.curve.iter().map(|p| p.iter).collect();
        assert_eq!(iters, vec![0, 3, 6, 9]);
    }

    #[test]
    fn run_vec_logs_once_per_log_window() {
        // k = 2 lanes with log_every = 3 (k does not divide log_every):
        // the pre-fix `iter % log_every < k` gate fired on both iter 6
        // (6 % 3 = 0) and iter 4 (4 % 3 = 1), and the final-step clause
        // added iter 8 — curve iters [0, 4, 6, 8], logging window 2
        // twice. Post-fix: the first vec-step at or past each window
        // start, once per window.
        let mut venv = mramrl_env::VecEnv::from_envs(vec![tiny_env(), tiny_env()]);
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 1);
        let mut cfg = TrainerConfig::online(10, 1);
        cfg.num_envs = 2;
        cfg.log_every = 3;
        let log = Trainer::new(cfg).run_vec(&mut agent, &mut venv);
        let iters: Vec<u64> = log.curve.iter().map(|p| p.iter).collect();
        assert_eq!(iters, vec![0, 4, 6]);
        let windows: Vec<u64> = iters.iter().map(|i| i / 3).collect();
        for w in windows.windows(2) {
            assert!(w[0] < w[1], "duplicate or out-of-order log window");
        }
    }

    #[test]
    fn training_restores_the_callers_acting_precision() {
        // The engine acts in float while it trains (TD math is float;
        // Q8.8 actors use a trainer-held snapshot), but an agent built
        // for deployment-precision acting must come back acting in
        // Q8.8 — otherwise a following `evaluate_vec` silently measures
        // the float policy.
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 6)
            .with_acting_precision(ActingPrecision::FixedQ8_8);
        let mut cfg = TrainerConfig::online(40, 6);
        cfg.actor_precision = ActingPrecision::FixedQ8_8;
        let _ = Trainer::new(cfg).run_vec(&mut agent, &mut one_lane());
        assert_eq!(agent.acting_precision(), ActingPrecision::FixedQ8_8);
        let mut fleets = VecEnv::from_envs(vec![tiny_env(), tiny_env()]).split(2);
        let _ = Trainer::new(TrainerConfig::online(40, 6)).run_parallel(&mut agent, &mut fleets);
        assert_eq!(agent.acting_precision(), ActingPrecision::FixedQ8_8);
    }

    #[test]
    fn evaluate_vec_reports_flight() {
        let mut venv = mramrl_env::VecEnv::from_envs(vec![tiny_env(), tiny_env()]);
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 4);
        let r = evaluate_vec(&mut agent, &mut venv, 100, 0.05, 4);
        assert!(r.sfd >= 0.0);
        assert!(r.mean_reward.is_finite());
        assert!(r.episodes > 0);
    }

    #[test]
    fn config_presets_scale_with_iters() {
        let short = TrainerConfig::online(100, 0);
        let long = TrainerConfig::online(10_000, 0);
        assert!(long.metrics_window > short.metrics_window);
        assert!(long.log_every > short.log_every);
        let tl = TrainerConfig::transfer_learning(100, 0);
        assert!(tl.epsilon.value(0) > short.epsilon.value(0));
    }

    #[test]
    fn run_parallel_reports_stats() {
        let mut cfg = TrainerConfig::online(96, 3);
        cfg.num_envs = 2;
        let trainer = Trainer::new(cfg);
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), 3);
        let mut fleets =
            mramrl_env::VecEnv::from_envs(vec![tiny_env(), tiny_env(), tiny_env(), tiny_env()])
                .split(2);
        let (log, stats) = trainer.run_parallel_timed(&mut agent, &mut fleets, &mut ());
        assert!(!log.curve.is_empty());
        assert_eq!(stats.transitions, 96);
        assert!(stats.updates > 0);
        assert!(stats.actor_ns > 0 && stats.env_ns > 0 && stats.learner_ns > 0);
        assert!(stats.frame_allocs > 0);
    }

    #[test]
    fn build_fleets_covers_flat_lane_seeds() {
        let mut cfg = TrainerConfig::online(10, 21);
        cfg.num_envs = 3;
        let fleets = Trainer::new(cfg).build_fleets(EnvKind::OutdoorForest, 2);
        assert_eq!(fleets.len(), 2);
        assert!(fleets.iter().all(|f| f.len() == 3));
        // Fleet 1, lane 0 must equal flat lane 3 (seed 21 + 3).
        let mut a = fleets[1].clone();
        let mut b = VecEnv::new(EnvKind::OutdoorForest, 21u64.wrapping_add(3), 1);
        assert_eq!(a.reset(0), b.reset(0));
    }
}
