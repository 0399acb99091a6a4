//! The deep Q-learning agent.

// `argmax` is the stack's single first-on-ties rule: batched action
// selection must never diverge from `Tensor::argmax`-based serial
// selection on ties.
use mramrl_nn::{
    argmax, Loss, Network, NetworkSpec, QWorkspace, QuantizedNet, Sgd, Tensor, Workspace,
};

use crate::replay::{Transition, TransitionBatch};

/// What the forward half of a batched TD step hands its backward half
/// ([`QAgent::td_forward`] → [`QAgent::td_backward`]).
pub(crate) struct TdForward {
    /// Target-net Q-values over the next states, `[N, actions]`.
    next_q: Tensor,
    /// The online pass's output: Q over the states (vanilla) or over the
    /// next states (Double-DQN's a* pick).
    online_out: Tensor,
}

/// Numeric precision the agent *acts* with (Q-value evaluation for
/// action selection). Training math — TD targets, gradients, SGD — is
/// always float: the paper trains in float-equivalent wide arithmetic
/// and deploys inference on the 16-bit datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActingPrecision {
    /// Act on the float online network (the training default).
    #[default]
    Float32,
    /// Deployment mode: act through a Q8.8 [`QuantizedNet`] snapshot of
    /// the online network, batched — the software mirror of the drone
    /// fleet running the silicon's 16-bit inference datapath. The
    /// snapshot is (re)taken lazily and invalidated whenever the online
    /// weights can change ([`QAgent::apply_update`],
    /// [`QAgent::load_transfer`], [`QAgent::net_mut`], ...), so acting
    /// always reflects the current weights; frozen-policy evaluation
    /// quantises exactly once.
    FixedQ8_8,
}

/// A Q-learning agent: online network + target network + Bellman updates.
///
/// The Q update follows Eq. 1 of the paper,
/// `Q(s,a) ← r + γ·max_a' Q(s',a')`, realised as a gradient step on
/// `½(Q(s,a) − y)²`. The target `y` is computed from a periodically-synced
/// copy of the network (a standard stabiliser; sync period configurable).
///
/// # Examples
///
/// ```
/// use mramrl_rl::QAgent;
/// use mramrl_nn::{NetworkSpec, Tensor};
///
/// let spec = NetworkSpec::micro(16, 1, 5);
/// let mut agent = QAgent::new(&spec, 7);
/// let obs = Tensor::zeros(&[1, 16, 16]);
/// let action = agent.greedy_action(&obs);
/// assert!(action < 5);
/// ```
pub struct QAgent {
    net: Network,
    target: Network,
    /// The spec both networks were built from (kept for Q8.8 snapshots).
    spec: NetworkSpec,
    /// Reusable scratch for the online net's batched passes.
    ws: Workspace,
    /// Reusable scratch for the target net's TD-target forwards.
    target_ws: Workspace,
    /// Which datapath action selection runs on.
    acting: ActingPrecision,
    /// Lazily-built Q8.8 snapshot of the online net (deployment mode);
    /// `None` whenever the online weights may have changed since.
    qsnap: Option<std::sync::Arc<QuantizedNet>>,
    /// Reusable scratch for the snapshot's batched passes.
    qws: QWorkspace,
    gamma: f32,
    loss: Loss,
    double_q: bool,
    steps_since_sync: u64,
}

impl QAgent {
    /// Default discount factor.
    pub const DEFAULT_GAMMA: f32 = 0.95;

    /// Builds an agent (online + target nets) from a spec.
    pub fn new(spec: &NetworkSpec, seed: u64) -> Self {
        let net = spec.build(seed);
        let mut target = spec.build(seed.wrapping_add(1));
        target
            .copy_weights_from(&net)
            .expect("structurally identical by construction");
        let ws = net.workspace();
        let target_ws = target.workspace();
        Self {
            net,
            target,
            spec: spec.clone(),
            ws,
            target_ws,
            acting: ActingPrecision::Float32,
            qsnap: None,
            qws: QWorkspace::new(),
            gamma: Self::DEFAULT_GAMMA,
            loss: Loss::SquaredError,
            double_q: false,
            steps_since_sync: 0,
        }
    }

    /// Selects the acting datapath (builder form of
    /// [`QAgent::set_acting_precision`]).
    #[must_use]
    pub fn with_acting_precision(mut self, p: ActingPrecision) -> Self {
        self.set_acting_precision(p);
        self
    }

    /// Switches the acting datapath: [`ActingPrecision::FixedQ8_8`]
    /// routes [`QAgent::q_values`], [`QAgent::q_values_batch`],
    /// [`QAgent::greedy_action`] and [`QAgent::greedy_actions`] through
    /// a Q8.8 snapshot of the online network — deployment-mode acting,
    /// as the silicon would run it. TD accumulation stays float.
    pub fn set_acting_precision(&mut self, p: ActingPrecision) {
        self.acting = p;
    }

    /// The acting datapath currently selected.
    pub fn acting_precision(&self) -> ActingPrecision {
        self.acting
    }

    /// The current Q8.8 snapshot of the online network, (re)building it
    /// if the weights changed since the last one — the engine behind
    /// [`ActingPrecision::FixedQ8_8`], exposed for fidelity measurements
    /// and deployment tooling (weight-byte accounting, cost models).
    pub fn quantized_snapshot(&mut self) -> &QuantizedNet {
        if self.qsnap.is_none() {
            let snap = QuantizedNet::from_network(&self.spec, &self.net)
                .expect("agent's network is built from its own spec");
            self.qsnap = Some(std::sync::Arc::new(snap));
        }
        self.qsnap.as_ref().expect("just built")
    }

    /// [`QAgent::quantized_snapshot`] as a shared, owned handle — the
    /// snapshot handoff API for serving. The returned `Arc` is the
    /// agent's own cached snapshot (no extra quantisation or copy), so
    /// a serving layer can publish it to in-flight inference workers
    /// while online learning continues: the agent drops *its* reference
    /// on the next weight change, but every handed-out clone keeps the
    /// frozen generation alive until its last batch completes (see
    /// `mramrl_serve::SnapshotStore` and `docs/serving.md`).
    pub fn quantized_snapshot_shared(&mut self) -> std::sync::Arc<QuantizedNet> {
        self.quantized_snapshot();
        self.qsnap.clone().expect("just built")
    }

    /// Drops the Q8.8 snapshot; the next quantised act re-snapshots.
    fn invalidate_quantized(&mut self) {
        self.qsnap = None;
    }

    /// Selects the TD loss (squared error by default; Huber for bounded
    /// gradients under crash-penalty outliers).
    #[must_use]
    pub fn with_loss(mut self, loss: Loss) -> Self {
        self.loss = loss;
        self
    }

    /// Enables Double-DQN targets: the online network picks the argmax
    /// action, the target network scores it — the standard fix for
    /// max-operator overestimation (an extension beyond the paper's
    /// vanilla Eq. 1, off by default).
    #[must_use]
    pub fn with_double_q(mut self, enabled: bool) -> Self {
        self.double_q = enabled;
        self
    }

    /// Overrides the discount factor.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1)`.
    #[must_use]
    pub fn with_gamma(mut self, gamma: f32) -> Self {
        assert!((0.0..1.0).contains(&gamma), "gamma must be in [0,1)");
        self.gamma = gamma;
        self
    }

    /// The online network.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Mutable online network (topology application, weight loading).
    /// Invalidates any Q8.8 acting snapshot — the caller may mutate
    /// weights through the returned reference.
    pub fn net_mut(&mut self) -> &mut Network {
        self.invalidate_quantized();
        &mut self.net
    }

    /// Does nothing: there is one GEMM kernel per datapath. Kept for
    /// `perfbench`, whose per-layer probe calls it; ROADMAP item 3's
    /// benchmark PR removes it.
    #[doc(hidden)]
    pub fn set_gemm_backend(&mut self, _: mramrl_nn::backend::Blocked) {}

    /// Discount factor.
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Q-values for an observation, on the selected acting datapath
    /// (float network, or the Q8.8 snapshot in deployment mode).
    pub fn q_values(&mut self, obs: &Tensor) -> Tensor {
        match self.acting {
            ActingPrecision::Float32 => self.net.forward(obs),
            ActingPrecision::FixedQ8_8 => {
                // Batch-of-1 through the agent's reusable workspace:
                // unlike the engine's `forward` wrapper, which builds a
                // throwaway workspace per call, the snapshot's layer
                // buffers are reused across calls. Each call still
                // allocates the `[1, ...]` copy of `obs` and the
                // returned Q-value tensor. Bit-identical to the wrapper
                // by the batched ≡ serial contract.
                self.quantized_snapshot();
                let Self { qsnap, qws, .. } = self;
                qsnap
                    .as_ref()
                    .expect("ensured above")
                    .forward_batch(&obs.clone().unsqueezed0(), qws)
                    .clone()
                    .squeezed0()
            }
        }
    }

    /// Greedy action for an observation.
    pub fn greedy_action(&mut self, obs: &Tensor) -> usize {
        self.q_values(obs).argmax()
    }

    /// Q-values for a batch of observations `[N, ...]` → `[N, actions]`,
    /// on the selected acting datapath.
    ///
    /// One batched pass against the agent's reusable workspace; row `i`
    /// is bit-identical to `q_values(obs_i)` on either datapath.
    pub fn q_values_batch(&mut self, obs: &Tensor) -> Tensor {
        match self.acting {
            ActingPrecision::Float32 => self.net.forward_batch(obs, &mut self.ws).clone(),
            ActingPrecision::FixedQ8_8 => {
                self.quantized_snapshot();
                let Self { qsnap, qws, .. } = self;
                qsnap
                    .as_ref()
                    .expect("ensured above")
                    .q_values_batch(obs, qws)
                    .clone()
            }
        }
    }

    /// [`QAgent::q_values_batch`] into a caller-owned output tensor —
    /// the rollout hot path's form: `out`'s allocation is reused
    /// whenever its volume already matches (see [`Tensor::copy_from`]),
    /// so steady-state acting allocates nothing.
    pub fn q_values_batch_into(&mut self, obs: &Tensor, out: &mut Tensor) {
        match self.acting {
            ActingPrecision::Float32 => {
                let Self { net, ws, .. } = self;
                out.copy_from(net.forward_batch(obs, ws));
            }
            ActingPrecision::FixedQ8_8 => {
                self.quantized_snapshot();
                let Self { qsnap, qws, .. } = self;
                out.copy_from(
                    qsnap
                        .as_ref()
                        .expect("ensured above")
                        .q_values_batch(obs, qws),
                );
            }
        }
    }

    /// Greedy action per sample for a batch of observations, on the
    /// selected acting datapath (the deployment-mode batched act: a
    /// `VecEnv` fleet choosing actions through the quantised net).
    pub fn greedy_actions(&mut self, obs: &Tensor) -> Vec<usize> {
        match self.acting {
            ActingPrecision::Float32 => {
                let q = self.net.forward_batch(obs, &mut self.ws);
                (0..q.batch()).map(|i| argmax(q.sample(i))).collect()
            }
            ActingPrecision::FixedQ8_8 => {
                self.quantized_snapshot();
                let Self { qsnap, qws, .. } = self;
                let q = qsnap
                    .as_ref()
                    .expect("ensured above")
                    .q_values_batch(obs, qws);
                (0..q.batch()).map(|i| argmax(q.sample(i))).collect()
            }
        }
    }

    /// Accumulates one Bellman gradient step for a transition; returns the
    /// TD error. Gradients build up in the network's accumulators until
    /// [`QAgent::apply_update`] (batch-of-N semantics, §III-D).
    pub fn accumulate_td(&mut self, t: &Transition) -> f32 {
        let y = if t.terminal {
            t.reward
        } else if self.double_q {
            // Double-DQN: online argmax, target evaluation.
            let a_star = self.net.forward(&t.next_state).argmax();
            let next_q = self.target.forward(&t.next_state);
            t.reward + self.gamma * next_q.data()[a_star]
        } else {
            let next_q = self.target.forward(&t.next_state);
            t.reward + self.gamma * next_q.max_value()
        };
        let q = self.net.forward(&t.state);
        let td = q.data()[t.action] - y;
        let mut grad = Tensor::zeros(q.shape());
        grad.data_mut()[t.action] = self.loss.gradient(q.data()[t.action], y);
        self.net.backward(&grad);
        td
    }

    /// Batched Bellman accumulation: one target-network forward, one
    /// online forward and one batched backward for all `N` transitions —
    /// every network pass is a single batched GEMM chain instead of `N`
    /// serial ones. Returns the per-sample TD errors.
    ///
    /// It runs in two halves, which the trainer's deployed round
    /// schedules separately: the **forward half** — the target net's
    /// TD-target pass over `next_states` and the online net's pass over
    /// `states` — touches two disjoint networks and workspaces, so
    /// [`mramrl_nn::pool::join2`] puts them on both executors; the
    /// **backward half** (TD errors, loss gradient, online backward)
    /// touches only the online net, so the trainer overlaps it with the
    /// Q8.8 actors' forward. On a one-executor pool, or when called from
    /// inside a pool task, the joins run their halves in order. No
    /// schedule affects a single bit of either result.
    ///
    /// From zeroed gradient accumulators (the batch boundary,
    /// i.e. right after [`QAgent::apply_update`]), the accumulated
    /// gradients and returned TD errors are **bit-identical** to calling
    /// [`QAgent::accumulate_td`] serially on the same transitions in
    /// order, at any `NN_POOL_THREADS` —
    /// the equivalence proptests pin this.
    pub fn accumulate_td_batch(&mut self, batch: &TransitionBatch) -> Vec<f32> {
        let fwd = self.td_forward(batch);
        self.td_backward(batch, fwd)
    }

    /// The forward half of [`QAgent::accumulate_td_batch`]: the target
    /// net's forward over `next_states` and the online net's next pass,
    /// overlapped as one [`mramrl_nn::pool::join2`].
    /// Vanilla: the online pass runs over the *states*, and its
    /// activations stay in the online workspace for
    /// [`QAgent::td_backward`]. Double-DQN: the online net picks a* over
    /// the *next* states (the backward half re-runs the states forward,
    /// exactly as the serial path re-runs forward).
    pub(crate) fn td_forward(&mut self, batch: &TransitionBatch) -> TdForward {
        let Self {
            net,
            target,
            ws,
            target_ws,
            ..
        } = self;
        let run_target = || target.forward_batch(&batch.next_states, target_ws).clone();
        let run_online = || {
            if self.double_q {
                net.forward_batch(&batch.next_states, ws).clone()
            } else {
                net.forward_batch(&batch.states, ws).clone()
            }
        };
        let (next_q, online_out) = mramrl_nn::pool::join2(run_target, run_online);
        TdForward { next_q, online_out }
    }

    /// The backward half of [`QAgent::accumulate_td_batch`]: TD targets
    /// from `fwd`, per-sample TD errors, and one batched online backward
    /// from the activations [`QAgent::td_forward`] left in the online
    /// workspace. Touches only the online net and its workspace.
    pub(crate) fn td_backward(&mut self, batch: &TransitionBatch, fwd: TdForward) -> Vec<f32> {
        let n = batch.len();
        let TdForward { next_q, online_out } = fwd;
        let a_star: Option<Vec<usize>> = self
            .double_q
            .then(|| (0..n).map(|i| argmax(online_out.sample(i))).collect());

        let mut y = vec![0.0f32; n];
        for i in 0..n {
            y[i] = if batch.terminals[i] {
                batch.rewards[i]
            } else if let Some(a_star) = &a_star {
                batch.rewards[i] + self.gamma * next_q.sample(i)[a_star[i]]
            } else {
                let max = next_q
                    .sample(i)
                    .iter()
                    .copied()
                    .fold(f32::NEG_INFINITY, f32::max);
                batch.rewards[i] + self.gamma * max
            };
        }

        // One batched online forward + backward (the double-Q branch must
        // re-run forward over the states; the vanilla branch already has
        // the right activations cached in the workspace).
        let q = if self.double_q {
            self.net.forward_batch(&batch.states, &mut self.ws)
        } else {
            &online_out
        };
        let actions = q.shape()[1];
        let mut td = vec![0.0f32; n];
        let mut grad = Tensor::zeros(&[n, actions]);
        for i in 0..n {
            let qa = q.sample(i)[batch.actions[i]];
            td[i] = qa - y[i];
            grad.sample_mut(i)[batch.actions[i]] = self.loss.gradient(qa, y[i]);
        }
        self.net
            .backward_batch(&grad, &mut self.ws)
            .expect("td_forward ran the online forward");
        td
    }

    /// Applies the accumulated gradients (one training-iteration weight
    /// update) and advances the target-sync counter. Returns `true` when
    /// this update crossed the sync period and copied the online weights
    /// into the target network — the learner's natural publish point
    /// (see `LearnerHook::on_target_sync` in the trainer).
    pub fn apply_update(&mut self, sgd: &Sgd, batch_size: usize, target_sync: u64) -> bool {
        self.net.apply_sgd(sgd, batch_size);
        // Online weights changed: a Q8.8 acting snapshot is stale now.
        self.invalidate_quantized();
        self.steps_since_sync += 1;
        if self.steps_since_sync >= target_sync {
            self.sync_target();
            true
        } else {
            false
        }
    }

    /// Copies online weights into the target network.
    pub fn sync_target(&mut self) {
        self.target
            .copy_weights_from(&self.net)
            .expect("structures never diverge");
        self.steps_since_sync = 0;
    }

    /// Loads transfer-learned weights into both networks (the deployment
    /// "download" of §II-D).
    ///
    /// # Errors
    ///
    /// Propagates [`mramrl_nn::NnError`] on structural mismatch.
    pub fn load_transfer(&mut self, bytes: &[u8]) -> Result<(), mramrl_nn::NnError> {
        self.net.load_weights(bytes)?;
        self.invalidate_quantized();
        self.sync_target();
        Ok(())
    }
}

impl core::fmt::Debug for QAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "QAgent(γ={}, {:?})", self.gamma, self.net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> NetworkSpec {
        NetworkSpec::micro(8, 1, 5)
    }

    fn transition(r: f32, terminal: bool) -> Transition {
        Transition {
            state: std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.4)),
            action: 2,
            reward: r,
            next_state: std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.6)),
            terminal,
        }
    }

    #[test]
    fn terminal_target_is_reward_only() {
        let mut agent = QAgent::new(&spec(), 1);
        let t = transition(-1.0, true);
        let q_before = agent.q_values(&t.state).data()[2];
        let td = agent.accumulate_td(&t);
        assert!((td - (q_before + 1.0)).abs() < 1e-5);
    }

    #[test]
    fn nonterminal_target_uses_discounted_max() {
        let mut agent = QAgent::new(&spec(), 2).with_gamma(0.9);
        let t = transition(0.5, false);
        let q_before = agent.q_values(&t.state).data()[2];
        let next_max = agent.target.forward(&t.next_state).max_value();
        let td = agent.accumulate_td(&t);
        assert!((td - (q_before - (0.5 + 0.9 * next_max))).abs() < 1e-5);
    }

    #[test]
    fn repeated_updates_move_q_toward_target() {
        let mut agent = QAgent::new(&spec(), 3).with_gamma(0.0);
        let sgd = Sgd::new(0.01);
        let t = transition(1.0, true);
        let before = (agent.q_values(&t.state).data()[2] - 1.0).abs();
        for _ in 0..100 {
            agent.accumulate_td(&t);
            agent.apply_update(&sgd, 1, u64::MAX);
        }
        let after = (agent.q_values(&t.state).data()[2] - 1.0).abs();
        assert!(after < 0.2 * before, "before {before}, after {after}");
    }

    #[test]
    fn target_sync_copies_weights() {
        let mut agent = QAgent::new(&spec(), 4);
        let sgd = Sgd::new(0.05);
        let t = transition(1.0, true);
        for _ in 0..5 {
            agent.accumulate_td(&t);
            agent.apply_update(&sgd, 1, u64::MAX); // never auto-sync
        }
        let online = agent.net.forward(&t.state);
        let target = agent.target.forward(&t.state);
        assert_ne!(online.data(), target.data());
        agent.sync_target();
        let target = agent.target.forward(&t.state);
        let online = agent.net.forward(&t.state);
        assert_eq!(online.data(), target.data());
    }

    #[test]
    fn double_q_target_uses_online_argmax() {
        let mut plain = QAgent::new(&spec(), 6).with_gamma(0.9);
        let mut double = QAgent::new(&spec(), 6).with_gamma(0.9).with_double_q(true);
        let t = transition(0.2, false);
        // Both see identical weights; the targets differ only when the
        // online argmax is not the target argmax — but the TD math must
        // satisfy: double-Q target ≤ vanilla target (max dominates).
        let td_plain = plain.accumulate_td(&t);
        let td_double = double.accumulate_td(&t);
        // q[a] identical ⇒ smaller target ⇒ larger TD error.
        assert!(td_double >= td_plain - 1e-6);
    }

    #[test]
    fn huber_loss_clamps_gradient() {
        let mut agent = QAgent::new(&spec(), 7).with_loss(Loss::Huber { delta: 0.05 });
        let t = transition(-1.0, true);
        let _ = agent.accumulate_td(&t);
        // The accumulated output-layer gradient is bounded by delta.
        let g = agent.net.grad_norm();
        assert!(g > 0.0);
        let mut agent2 = QAgent::new(&spec(), 7);
        let _ = agent2.accumulate_td(&t);
        assert!(agent.net.grad_norm() <= agent2.net.grad_norm() + 1e-6);
    }

    #[test]
    fn batched_td_matches_serial_bitwise() {
        for double_q in [false, true] {
            let ts: Vec<Transition> = (0..4)
                .map(|i| {
                    let mut t = transition(0.1 * i as f32, i == 3);
                    t.state = std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.1 + 0.2 * i as f32));
                    t.next_state =
                        std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.9 - 0.2 * i as f32));
                    t.action = i % 5;
                    t
                })
                .collect();
            let refs: Vec<&Transition> = ts.iter().collect();
            let batch = TransitionBatch::from_transitions(&refs);

            let mut serial = QAgent::new(&spec(), 17).with_double_q(double_q);
            let serial_td: Vec<f32> = ts.iter().map(|t| serial.accumulate_td(t)).collect();
            let mut batched = QAgent::new(&spec(), 17).with_double_q(double_q);
            let batched_td = batched.accumulate_td_batch(&batch);

            assert_eq!(serial_td, batched_td, "double_q={double_q}");
            let grads = |a: &QAgent| -> Vec<f32> {
                a.net()
                    .layers()
                    .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
                    .collect()
            };
            assert_eq!(grads(&serial), grads(&batched), "double_q={double_q}");
        }
    }

    #[test]
    fn greedy_actions_match_serial_argmax() {
        let mut agent = QAgent::new(&spec(), 21);
        let obs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::filled(&[1, 8, 8], 0.2 + 0.3 * i as f32))
            .collect();
        let serial: Vec<usize> = obs.iter().map(|o| agent.greedy_action(o)).collect();
        let mut data = Vec::new();
        for o in &obs {
            data.extend_from_slice(o.data());
        }
        let batch = Tensor::from_vec(&[3, 1, 8, 8], data);
        assert_eq!(agent.greedy_actions(&batch), serial);
        let q = agent.q_values_batch(&batch);
        assert_eq!(q.shape(), &[3, 5]);
    }

    #[test]
    fn transfer_load_applies_to_both_networks() {
        let donor = spec().build(77);
        let bytes = donor.save_weights();
        let mut agent = QAgent::new(&spec(), 5);
        agent.load_transfer(&bytes).unwrap();
        let x = Tensor::filled(&[1, 8, 8], 0.3);
        let online = agent.net.forward(&x);
        let target = agent.target.forward(&x);
        assert_eq!(online.data(), target.data());
    }
}
