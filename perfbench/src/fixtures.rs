//! The inputs every workload shares: the fleets and the batch. The net
//! is `mramrl_bench::batch_td_spec`, the micro40-fc-heavy net.

use mramrl_env::{DepthCamera, DroneEnv, EnvKind, VecEnv};
use mramrl_nn::Tensor;

/// Camera side, pixels.
pub const HW: usize = 40;
/// Rollout fleets of the online workloads.
pub const FLEETS: usize = 2;
/// Lanes per fleet.
pub const LANES: usize = 16;
/// Batch shape of every per-layer measurement: one TD batch and one
/// actor forward of the online workloads (one lane each), one cap flush
/// of fleet serving.
pub const BATCH: usize = FLEETS * LANES;

/// `FLEETS` fleets of `LANES` indoor-apartment drones with a 40×40
/// depth camera; global lane `i` is seeded `seed + i`.
pub fn fleets(seed: u64) -> Vec<VecEnv> {
    let envs: Vec<DroneEnv> = (0..BATCH as u64)
        .map(|i| {
            DroneEnv::new(EnvKind::IndoorApartment, seed.wrapping_add(i))
                .with_camera(DepthCamera::new(HW, HW, 1.5, 20.0, 0.01))
        })
        .collect();
    VecEnv::from_envs(envs).split(FLEETS)
}

/// One `[BATCH, 1, HW, HW]` observation batch: the first frame of
/// every lane of [`fleets`]`(seed)`.
pub fn first_frames(seed: u64) -> Tensor {
    let mut data = Vec::with_capacity(BATCH * HW * HW);
    for mut fleet in fleets(seed) {
        for img in fleet.reset_all() {
            data.extend_from_slice(img.data());
        }
    }
    Tensor::from_vec(&[BATCH, 1, HW, HW], data)
}
