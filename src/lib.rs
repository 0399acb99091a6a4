//! # mramrl
//!
//! A full reproduction of *"Transfer and Online Reinforcement Learning in
//! STT-MRAM Based Embedded Systems for Autonomous Drones"* (Yoon, Anwar,
//! Rakshit, Raychowdhury — DATE 2019) as a Rust workspace.
//!
//! This facade crate re-exports the whole stack; see the README for the
//! architecture map and `crates/bench` for the per-figure reproduction
//! binaries.
//!
//! * [`nn`] — from-scratch CNN library (the paper's modified AlexNet).
//! * [`env`](mod@env) — procedural drone worlds + ray-cast stereo-depth camera.
//! * [`rl`] — Q-learning, transfer learning, the L2/L3/L4/E2E topologies.
//! * [`serve`] — fleet inference serving: dynamic request batching over
//!   hot-swappable Q8.8 snapshots.
//! * [`mem`] — STT-MRAM stack, SRAM buffers, placement, endurance.
//! * [`systolic`] — the 32×32 PE array and its Type I/II/III mappings.
//! * [`accel`] — the latency/energy/power model (Fig. 12/13).
//! * [`core`] — the co-design API: [`Platform`], [`Mission`],
//!   [`DeploymentSim`], [`headline`].
//! * [`dse`] — design-space exploration, from the paper's SRAM ×
//!   topology grid to the fleet-scale SRAM × MRAM × technology ×
//!   topology × batch × scenario sweep and its 4-axis Pareto frontier.
//!
//! # Examples
//!
//! ```
//! use mramrl::{headline, Calibration};
//!
//! let h = headline(Calibration::date19());
//! assert!(h.latency_reduction_pct > 80.0); // the paper's headline claim
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mramrl_accel as accel;
pub use mramrl_core as core;
pub use mramrl_dse as dse;
pub use mramrl_env as env;
pub use mramrl_fixed as fixed;
pub use mramrl_mem as mem;
pub use mramrl_nn as nn;
pub use mramrl_rl as rl;
pub use mramrl_serve as serve;
pub use mramrl_systolic as systolic;

pub use mramrl_core::{
    headline, Calibration, CoreError, DeploymentSim, Headline, Mission, Platform, PlatformModel,
    Topology, ENV_CLASSES,
};
pub use mramrl_env::{DroneEnv, EnvKind};
pub use mramrl_nn::{NetworkSpec, Tensor};
pub use mramrl_rl::{Fig10Experiment, QAgent, Trainer, TrainerConfig, TransferCache};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        let h = crate::headline(crate::Calibration::date19());
        assert!(h.velocity_gain > 1.0);
    }
}
