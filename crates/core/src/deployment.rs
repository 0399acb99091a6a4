//! The deployment simulator: the RL loop with hardware cost metering.
//!
//! Runs the *algorithm* (micro-AlexNet Q-learning in a simulated world)
//! while accounting what the *full-size platform* would have spent per
//! frame — the bridge between the paper's Fig. 10/11 (learning) and
//! Fig. 12/13 (hardware) results, and the source of the endurance
//! ablation's write-traffic numbers.

use mramrl_env::{DroneEnv, EnvKind, VecEnv};
use mramrl_mem::WearTracker;
use mramrl_nn::Topology;
use mramrl_rl::{QAgent, Trainer, TrainerConfig};

use crate::platform::Platform;

/// Outcome of a metered deployment.
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    /// Topology flown.
    pub topology: Topology,
    /// Frames processed (training iterations).
    pub frames: u64,
    /// Completed episodes.
    pub episodes: u64,
    /// Post-convergence safe flight distance, metres.
    pub sfd_m: f32,
    /// Final cumulative reward.
    pub final_reward: f32,
    /// Platform energy for the whole run, joules.
    pub energy_j: f64,
    /// Platform compute time for the whole run, seconds.
    pub compute_s: f64,
    /// Bytes written to the STT-MRAM stack over the run.
    pub nvm_bytes_written: u64,
    /// Fraction of the stack's endurance budget consumed.
    pub nvm_wear_fraction: f64,
}

/// Couples a [`Platform`] with the RL stack.
///
/// # Examples
///
/// ```no_run
/// use mramrl_core::{DeploymentSim, Platform, Topology};
/// use mramrl_env::EnvKind;
///
/// let platform = Platform::proposed()?;
/// let sim = DeploymentSim::new(platform, EnvKind::IndoorApartment, 42);
/// let report = sim.fly(500);
/// assert!(report.energy_j > 0.0);
/// # Ok::<(), mramrl_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct DeploymentSim {
    platform: Platform,
    env_kind: EnvKind,
    seed: u64,
    camera_px: usize,
}

impl DeploymentSim {
    /// Creates a simulator for a platform in an environment.
    pub fn new(platform: Platform, env_kind: EnvKind, seed: u64) -> Self {
        Self {
            platform,
            env_kind,
            seed,
            camera_px: 16,
        }
    }

    /// Sets the micro camera resolution (default 16 px for speed).
    #[must_use]
    pub fn with_camera_px(mut self, px: usize) -> Self {
        self.camera_px = px;
        self
    }

    /// The platform under test.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Flies `frames` training iterations: runs the micro-scale RL loop
    /// and meters full-size platform costs per frame.
    pub fn fly(&self, frames: u64) -> DeploymentReport {
        let topo = self.platform.topology();
        // Algorithm side: micro net in the simulated world.
        let spec = mramrl_nn::NetworkSpec::micro(self.camera_px, 1, 5);
        let mut agent = QAgent::new(&spec, self.seed);
        topo.apply(agent.net_mut());
        let cam = mramrl_env::DepthCamera::new(
            self.camera_px,
            self.camera_px,
            90.0f32.to_radians(),
            20.0,
            0.02,
        );
        let mut env = VecEnv::from_envs(vec![
            DroneEnv::new(self.env_kind, self.seed).with_camera(cam)
        ]);
        let log =
            Trainer::new(TrainerConfig::online(frames, self.seed)).run_vec(&mut agent, &mut env);

        // Hardware side: full-size per-frame costs × frames.
        let model = self.platform.model();
        let batch = 4usize;
        let iterations = frames / batch as u64;
        let it = model.iteration(topo, batch);
        let energy_j = it.total_mj * iterations as f64 * 1e-3;
        let compute_s = it.total_ms * iterations as f64 * 1e-3;

        // NVM write traffic, the placement's write stream: one weight
        // update per iteration writes back the MRAM-resident trainable
        // weights, every frame pays the spilled-gradient RMW. Both are
        // zero on a write-free placement.
        let plan = self.platform.placement();
        let nvm_bytes_written = iterations * plan.nvm_writeback_bytes_per_update()
            + frames * plan.nvm_rmw_bytes_per_frame();
        // Wear on the stack technology the platform was built with.
        let mut wear = WearTracker::new(
            model.params().mram.clone(),
            (self.platform.mram_capacity_mb() * 1.0e6) as u64,
        );
        wear.record_write_bytes(nvm_bytes_written);

        DeploymentReport {
            topology: topo,
            frames,
            episodes: log.episodes,
            sfd_m: log.sfd,
            final_reward: log.final_reward,
            energy_j,
            compute_s,
            nvm_bytes_written,
            nvm_wear_fraction: wear.wear_fraction(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proposed_sim() -> DeploymentSim {
        DeploymentSim::new(Platform::proposed().unwrap(), EnvKind::IndoorApartment, 7)
    }

    #[test]
    fn write_free_platform_reports_zero_nvm_traffic() {
        let report = proposed_sim().fly(120);
        assert_eq!(report.nvm_bytes_written, 0);
        assert_eq!(report.nvm_wear_fraction, 0.0);
        assert!(report.energy_j > 0.0);
        assert!(report.frames == 120);
    }

    #[test]
    fn e2e_platform_accumulates_nvm_writes() {
        let platform = Platform::new(Topology::E2E, 30.0, 256.0).unwrap();
        let sim = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7);
        let report = sim.fly(120);
        // 30 iterations × ~108 MB weights + 120 frames × 75.5 MB spill.
        assert!(
            report.nvm_bytes_written > 10_000_000_000,
            "{}",
            report.nvm_bytes_written
        );
        assert!(report.nvm_wear_fraction > 0.0);
    }

    #[test]
    fn partially_spilled_tail_charges_only_its_trainable_weights() {
        // L3 in 12.7 MB places but is not write-free: FC3 keeps neither
        // its weights nor its gradients on-die. The frozen trunk also
        // lives in MRAM and must not be charged.
        let platform = Platform::new(Topology::L3, 12.7, 128.0).unwrap();
        let plan = platform.placement().clone();
        let per_update = plan.nvm_writeback_bytes_per_update();
        let per_frame = plan.nvm_rmw_bytes_per_frame();
        assert!(per_update > 0 && per_frame > 0);
        assert!(plan.mram_weight_bytes() > 12 * per_update);
        let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(120);
        // One weight update per batch-4 iteration.
        assert_eq!(report.nvm_bytes_written, 30 * per_update + 120 * per_frame);
        assert!(report.nvm_wear_fraction > 0.0);
    }

    #[test]
    fn wear_follows_the_platform_technology() {
        // The same E2E placement on an RRAM stack writes the same bytes
        // as on STT-MRAM, but RRAM's 1e9-cycle endurance wears 1000×
        // faster than STT-MRAM's 1e12 — the report must charge RRAM.
        use mramrl_accel::{Calibration, SystemParams};
        use mramrl_mem::tech::TechParams;
        let mut rram = SystemParams::date19();
        rram.mram = TechParams::rram();
        let platform =
            Platform::with_system(Topology::E2E, 30.0, 256.0, rram, Calibration::date19()).unwrap();
        let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(8);
        assert!(report.nvm_bytes_written > 0);
        let mut want = WearTracker::new(TechParams::rram(), 256_000_000);
        want.record_write_bytes(report.nvm_bytes_written);
        assert_eq!(report.nvm_wear_fraction, want.wear_fraction());
        let mut stt = WearTracker::new(TechParams::stt_mram(), 256_000_000);
        stt.record_write_bytes(report.nvm_bytes_written);
        assert!(report.nvm_wear_fraction > 100.0 * stt.wear_fraction());
    }

    #[test]
    fn l3_cheaper_than_e2e_per_run() {
        let l3 = proposed_sim().fly(120);
        let e2e = DeploymentSim::new(
            Platform::new(Topology::E2E, 30.0, 256.0).unwrap(),
            EnvKind::IndoorApartment,
            7,
        )
        .fly(120);
        assert!(
            e2e.energy_j > 2.0 * l3.energy_j,
            "{} vs {}",
            e2e.energy_j,
            l3.energy_j
        );
        assert!(e2e.compute_s > 2.0 * l3.compute_s);
    }

    #[test]
    fn learning_metrics_propagate() {
        let report = proposed_sim().fly(200);
        assert!(report.episodes > 0);
        assert!(report.sfd_m >= 0.0);
        assert_eq!(report.topology, Topology::L3);
    }
}
