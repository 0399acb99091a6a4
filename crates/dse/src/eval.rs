//! Per-point scoring and the pool-parallel sweep.

use mramrl_accel::{Calibration, SystemParams};
use mramrl_core::Platform;
use mramrl_mem::WearTracker;

use crate::space::{tech_params, DesignSpace, DseConfig};

/// Fixed work-unit size for the parallel sweep. Deliberately
/// independent of the pool width: the chunk grid — and with it every
/// writer→slot assignment — is the same at any `NN_POOL_THREADS`, which
/// is half of the byte-identity argument (the other half is that
/// [`evaluate`] is a pure function of its config).
const SWEEP_CHUNK: usize = 16;

/// One scored configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The configuration evaluated.
    pub config: DseConfig,
    /// Whether the network placed into the hierarchy at all.
    pub placeable: bool,
    /// Whether online training keeps the stack read-only.
    pub nvm_write_free: bool,
    /// SRAM the placement uses (weights + gradients + scratch), MB; 0
    /// when the design does not place. Not part of the rendered report.
    pub sram_used_mb: f64,
    /// Sustained throughput at the configured batch, fps.
    pub fps: f64,
    /// Energy per processed frame, mJ.
    pub energy_per_frame_mj: f64,
    /// Online-training latency per image (forward + backward + update
    /// share), ms.
    pub train_latency_ms: f64,
    /// Modeled stack write rate under the scenario mix, bytes/s.
    pub nvm_write_bytes_per_s: f64,
    /// Modeled stack lifetime in years; `None` means unbounded (the
    /// write stream is empty) — never *unknown*, all three swept
    /// technologies have finite endurance.
    pub lifetime_years: Option<f64>,
}

/// Scores one configuration with the analytic cost model of its solved
/// placement. Pure: no global state, no RNG, no clock — the same config
/// always produces the same bits. A zero batch sustains no training
/// iteration, so it scores like an unplaceable point.
pub fn evaluate(cfg: &DseConfig) -> DseResult {
    let mut params = SystemParams::date19();
    params.mram = tech_params(cfg.tech);
    let unplaceable = DseResult {
        config: *cfg,
        placeable: false,
        nvm_write_free: false,
        sram_used_mb: 0.0,
        fps: 0.0,
        energy_per_frame_mj: 0.0,
        train_latency_ms: 0.0,
        nvm_write_bytes_per_s: 0.0,
        lifetime_years: None,
    };
    let platform = match Platform::with_system(
        cfg.topology,
        cfg.sram_mb,
        cfg.mram_mb,
        params,
        Calibration::date19(),
    ) {
        Ok(p) if cfg.batch > 0 => p,
        _ => return unplaceable,
    };

    let fps = platform.max_fps(cfg.batch);
    let energy_per_frame_mj = platform.energy_per_frame_mj(cfg.batch);
    let train_latency_ms = platform.model().per_image(cfg.topology).total_ms();
    let nvm_write_free = platform.is_nvm_write_free(cfg.topology);

    // The placement's write stream at the sustained rate: one weight
    // update per batch writes back the MRAM-resident trainable weights,
    // every frame pays the spilled-gradient read-modify-write. Both are
    // zero on a write-free placement, whose lifetime is then unbounded.
    // The scenario mix scales how often training happens at all.
    let plan = platform.placement();
    let nvm_write_bytes_per_s = cfg.mix.online_duty()
        * (fps / cfg.batch as f64 * plan.nvm_writeback_bytes_per_update() as f64
            + fps * plan.nvm_rmw_bytes_per_frame() as f64);
    let lifetime_years = WearTracker::new(tech_params(cfg.tech), (cfg.mram_mb * 1.0e6) as u64)
        .lifetime_years(nvm_write_bytes_per_s);

    DseResult {
        config: *cfg,
        placeable: true,
        nvm_write_free,
        sram_used_mb: platform.sram_used_mb(),
        fps,
        energy_per_frame_mj,
        train_latency_ms,
        nvm_write_bytes_per_s,
        lifetime_years,
    }
}

/// Evaluates the whole space serially, in enumeration order — the
/// reference the parallel sweep must match bit for bit (and the
/// baseline for the report's measured speedup).
pub fn sweep_serial(space: &DesignSpace) -> Vec<DseResult> {
    space.enumerate().iter().map(evaluate).collect()
}

/// Evaluates the whole space on the installed `mramrl_nn::pool`,
/// scattering fixed `SWEEP_CHUNK`-sized slices of the result vector
/// across the workers. Each slot is written by exactly one task from
/// its own config alone, so the output equals [`sweep_serial`]'s at any
/// pool size.
pub fn sweep(space: &DesignSpace) -> Vec<DseResult> {
    let configs = space.enumerate();
    let mut slots: Vec<Option<DseResult>> = vec![None; configs.len()];
    mramrl_nn::pool::current().scatter_chunks(&mut slots, SWEEP_CHUNK, |chunk_idx, slice| {
        let base = chunk_idx * SWEEP_CHUNK;
        for (j, slot) in slice.iter_mut().enumerate() {
            *slot = Some(evaluate(&configs[base + j]));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot written by exactly one chunk task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use mramrl_core::Topology;
    use mramrl_mem::TechKind;
    use mramrl_nn::pool::ThreadPool;

    use super::*;
    use crate::space::ScenarioMix;

    fn cfg(topology: Topology, sram: f64, mram: f64, tech: TechKind) -> DseConfig {
        DseConfig {
            index: 0,
            topology,
            sram_mb: sram,
            mram_mb: mram,
            tech,
            batch: 4,
            mix: ScenarioMix::continuous(),
        }
    }

    #[test]
    fn proposed_point_is_write_free_and_unbounded() {
        let r = evaluate(&cfg(Topology::L3, 30.0, 128.0, TechKind::SttMram));
        assert!(r.placeable && r.nvm_write_free);
        assert_eq!(r.nvm_write_bytes_per_s, 0.0);
        assert!(r.lifetime_years.is_none());
        assert!(r.fps > 0.0 && r.energy_per_frame_mj > 0.0);
    }

    #[test]
    fn e2e_point_has_finite_lifetime() {
        let r = evaluate(&cfg(Topology::E2E, 30.0, 256.0, TechKind::SttMram));
        assert!(r.placeable && !r.nvm_write_free);
        assert!(r.nvm_write_bytes_per_s > 0.0);
        let years = r.lifetime_years.expect("finite endurance");
        assert!(years.is_finite() && years > 0.0);
    }

    #[test]
    fn write_rate_is_the_plans_write_stream_at_the_sustained_fps() {
        // L3 in 12.7 MB places but is not write-free; only FC3, not the
        // frozen trunk, is charged.
        let c = cfg(Topology::L3, 12.7, 128.0, TechKind::SttMram);
        let r = evaluate(&c);
        assert!(r.placeable && !r.nvm_write_free);
        let p = Platform::new(Topology::L3, 12.7, 128.0).unwrap();
        let plan = p.placement();
        let per_s = r.fps / 4.0 * plan.nvm_writeback_bytes_per_update() as f64
            + r.fps * plan.nvm_rmw_bytes_per_frame() as f64;
        assert_eq!(r.nvm_write_bytes_per_s.to_bits(), per_s.to_bits());
        assert_eq!(r.sram_used_mb.to_bits(), p.sram_used_mb().to_bits());
    }

    #[test]
    fn weaker_endurance_means_shorter_life() {
        let stt = evaluate(&cfg(Topology::E2E, 30.0, 256.0, TechKind::SttMram));
        let pcm = evaluate(&cfg(Topology::E2E, 30.0, 256.0, TechKind::Pcm));
        assert!(pcm.lifetime_years.unwrap() < stt.lifetime_years.unwrap());
    }

    #[test]
    fn patrol_duty_extends_lifetime() {
        let mut c = cfg(Topology::E2E, 30.0, 256.0, TechKind::SttMram);
        let busy = evaluate(&c);
        c.mix = ScenarioMix::patrol();
        let idle = evaluate(&c);
        assert!(idle.lifetime_years.unwrap() > busy.lifetime_years.unwrap());
        assert_eq!(idle.fps.to_bits(), busy.fps.to_bits());
    }

    #[test]
    fn unplaceable_point_scores_zero() {
        let r = evaluate(&cfg(Topology::E2E, 30.0, 128.0, TechKind::SttMram));
        assert!(!r.placeable);
        assert_eq!(r.fps, 0.0);
        assert_eq!(r.sram_used_mb, 0.0);
    }

    #[test]
    fn zero_batch_scores_like_an_unplaceable_point() {
        let space = DesignSpace {
            batches: vec![0, 4],
            ..DesignSpace::tiny()
        };
        let results = sweep(&space);
        let (zero, four): (Vec<_>, Vec<_>) = results.iter().partition(|r| r.config.batch == 0);
        assert!(zero.iter().all(|r| !r.placeable && r.fps == 0.0));
        assert!(four.iter().any(|r| r.placeable && r.fps > 0.0));
    }

    #[test]
    fn parallel_sweep_matches_serial_at_every_pool_size() {
        let space = DesignSpace::tiny();
        let reference = sweep_serial(&space);
        for threads in [1usize, 2, 7] {
            let pool = ThreadPool::new(threads);
            let _g = pool.install();
            assert_eq!(sweep(&space), reference, "pool={threads}");
        }
    }
}
