//! Q-learning with transfer learning and partial-layer online training.
//!
//! Implements the paper's learning stack (§II):
//!
//! * deep Q-learning over depth images — the CNN estimates `Q(s, ·)` for
//!   the five drone actions, updated with the Bellman target
//!   `r + γ·max_a' Q(s', a')` (Eq. 1);
//! * ε-greedy exploration with linear decay ([`EpsilonSchedule`]);
//! * an experience [`ReplayBuffer`] and a periodically-synced target
//!   network (stability additions over the paper's vanilla Eq. 1,
//!   both standard practice and both documented);
//! * the four **training topologies** of §VI-B ([`Topology`]): `E2E`
//!   trains everything, `L2`/`L3`/`L4` train only the last 2/3/4 FC
//!   layers — the axis the whole hardware co-design exploits;
//! * the TL → online-RL experiment driver ([`experiment`]) and the
//!   metrics of Fig. 10/11: cumulative reward, per-episode return and
//!   safe flight distance ([`metrics`]);
//! * deployment-mode acting ([`ActingPrecision::FixedQ8_8`]): action
//!   selection through a batched Q8.8 snapshot of the online network —
//!   the 16-bit datapath the silicon flies with (`docs/fixed_point.md`)
//!   — while TD training stays float;
//! * the actor/learner training architecture ([`Trainer::run_parallel`]):
//!   N rollout fleets feeding a [`ShardedReplay`] (one shard per fleet)
//!   and one batched learner on a pinned deterministic schedule —
//!   bit-identical to the serial interleaving at any pool size
//!   (`docs/training.md`).
//!
//! # Examples
//!
//! ```
//! use mramrl_rl::{Topology, QAgent};
//! use mramrl_nn::NetworkSpec;
//!
//! let spec = NetworkSpec::micro(16, 1, 5);
//! let mut agent = QAgent::new(&spec, 42);
//! Topology::L3.apply(agent.net_mut());
//! assert!(agent.net().trainable_fraction() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
pub mod experiment;
pub mod metrics;
mod policy;
mod replay;
mod trainer;
pub mod wear;

pub use agent::{ActingPrecision, QAgent};
pub use experiment::{EnvRun, Fig10Experiment, TransferCache};
pub use metrics::{MovingAverage, SafeFlightTracker};
pub use mramrl_nn::Topology;
pub use policy::EpsilonSchedule;
pub use replay::{ReplayBuffer, ShardedReplay, Transition, TransitionBatch};
pub use trainer::{
    evaluate_vec, EvalResult, LearnerHook, ParallelStats, TrainLog, Trainer, TrainerConfig,
};

#[cfg(test)]
mod tests {
    #[test]
    fn send_public_types() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::QAgent>();
        assert_send::<crate::ReplayBuffer>();
        assert_send::<crate::Topology>();
    }
}
