//! The paper's contribution as a library: algorithm–hardware co-design
//! for transfer + online RL on STT-MRAM embedded platforms.
//!
//! `mramrl-core` ties the substrates together:
//!
//! * [`Platform`] — a deployable design point: training [`Topology`] ×
//!   SRAM capacity × the STT-MRAM stack, with memory placement validated
//!   by `mramrl-mem` and costs from `mramrl-accel`; the paper's four
//!   canonical points are [`PAPER_DESIGN_POINTS`], and `mramrl-dse`
//!   sweeps the space around them;
//! * [`Mission`] — the Fig. 1 operational analysis: required fps
//!   (`v / d_min`) per environment class versus the fps a platform
//!   sustains, giving each design's maximum safe velocity;
//! * [`DeploymentSim`] — runs the actual RL loop (`mramrl-rl` on
//!   `mramrl-env`) while metering what the full-size platform would have
//!   spent per frame: energy, NVM write traffic (the placement's write
//!   stream), endurance wear;
//! * [`headline`] — the paper's abstract in one struct.
//!
//! # Examples
//!
//! ```
//! use mramrl_core::{Platform, Topology};
//!
//! // The paper's proposed design: TL + L3-resident buffer, 30 MB SRAM.
//! let platform = Platform::proposed()?;
//! assert!(platform.is_nvm_write_free(Topology::L3));
//! // E2E does not even place on this platform:
//! assert!(Platform::new(Topology::E2E, 30.0, 128.0).is_err());
//! # Ok::<(), mramrl_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deployment;
mod error;
pub mod mission;
mod platform;
mod summary;

pub use deployment::{DeploymentReport, DeploymentSim};
pub use error::CoreError;
pub use mission::{EnvClass, Mission, ENV_CLASSES};
pub use platform::{Platform, PAPER_DESIGN_POINTS};
pub use summary::{headline, Headline};

pub use mramrl_accel::{Calibration, PlatformModel};
pub use mramrl_nn::Topology;

#[cfg(test)]
mod tests {
    #[test]
    fn send_public_types() {
        fn assert_send<T: Send>() {}
        assert_send::<crate::Platform>();
        assert_send::<crate::Mission>();
        assert_send::<crate::Headline>();
    }
}
