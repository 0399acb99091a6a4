//! A deployable design point.

use mramrl_accel::{Calibration, PlatformModel, SystemParams};
use mramrl_mem::{PlacementPlan, PlacementRequest};
use mramrl_nn::spec::NetworkSpec;
use mramrl_nn::Topology;

use crate::error::CoreError;

/// The paper's canonical design points as `(topology, sram_mb, mram_mb)`:
/// the three §II-D embedded architectures (SRAM sized for the L2/L3/L4
/// tails on the 128 MB stack) plus the E2E baseline, which only places on
/// an oversized 256 MB stack. One table, shared by the ablation binaries
/// and the `mramrl_dse` design space.
pub const PAPER_DESIGN_POINTS: [(Topology, f64, f64); 4] = [
    (Topology::L2, 12.7, 128.0),
    (Topology::L3, 30.0, 128.0),
    (Topology::L4, 63.0, 128.0),
    (Topology::E2E, 30.0, 256.0),
];

/// A concrete embedded design: the full DATE-19 AlexNet placed into an
/// SRAM + stacked-STT-MRAM hierarchy sized for a training topology, with
/// the cost model of that placement attached.
///
/// # Examples
///
/// ```
/// use mramrl_core::{Platform, Topology};
///
/// // The three architectures the paper studies (§II-D): SRAM sized for
/// // 4 %, 11 % and 26 % of the weights.
/// let l2 = Platform::new(Topology::L2, 12.7, 128.0)?;
/// let l3 = Platform::new(Topology::L3, 30.0, 128.0)?;
/// let l4 = Platform::new(Topology::L4, 63.0, 128.0)?;
/// assert!(l2.is_nvm_write_free(Topology::L2));
/// assert!(l3.sram_used_mb() < 30.0);
/// assert!(l4.sram_used_mb() > 60.0);
/// # Ok::<(), mramrl_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    topology: Topology,
    placement: PlacementPlan,
    model: PlatformModel,
    sram_mb: f64,
    mram_mb: f64,
}

impl Platform {
    /// Builds a platform for `topology` with the given SRAM and MRAM
    /// capacities (decimal MB), using the `date19` calibration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Placement`] if the network cannot be placed
    /// (e.g. E2E gradient accumulators exceeding the stack) and
    /// [`CoreError::InvalidConfig`] for capacities that are not positive
    /// (NaN included).
    pub fn new(topology: Topology, sram_mb: f64, mram_mb: f64) -> Result<Self, CoreError> {
        Self::with_system(
            topology,
            sram_mb,
            mram_mb,
            SystemParams::date19(),
            Calibration::date19(),
        )
    }

    /// The general constructor: explicit [`SystemParams`] (so the
    /// stack technology, I/O width and clock can deviate from the paper's
    /// STT-MRAM system — the `mramrl_dse` technology axis goes through
    /// here) plus an explicit calibration profile.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Platform::new`].
    pub fn with_system(
        topology: Topology,
        sram_mb: f64,
        mram_mb: f64,
        params: SystemParams,
        calib: Calibration,
    ) -> Result<Self, CoreError> {
        if !(sram_mb > 0.0 && mram_mb > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("capacities must be positive (sram {sram_mb}, mram {mram_mb})"),
            });
        }
        let spec = NetworkSpec::date19_alexnet();
        let n = spec.param_layer_names().len();
        let layers: Vec<(String, u64, bool)> = spec
            .layer_weight_bytes()
            .into_iter()
            .enumerate()
            .map(|(i, (name, bytes))| (name, bytes, topology.trains(i, n)))
            .collect();
        let req = PlacementRequest::new(
            layers,
            params.scratchpad_bytes,
            (sram_mb * 1.0e6) as u64,
            (mram_mb * 1.0e6) as u64,
        );
        let placement = PlacementPlan::solve(&req)?;
        let model = PlatformModel::for_placement(spec, params, calib, placement.placements());
        Ok(Self {
            topology,
            placement,
            model,
            sram_mb,
            mram_mb,
        })
    }

    /// The paper's proposed design point: 30 MB SRAM holding the FC3–FC5
    /// tail (L3 topology), 128 MB STT-MRAM stack.
    ///
    /// # Errors
    ///
    /// Never fails in practice; propagates placement errors for API
    /// consistency.
    pub fn proposed() -> Result<Self, CoreError> {
        Self::new(Topology::L3, 30.0, 128.0)
    }

    /// The design topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// The solved memory placement.
    pub fn placement(&self) -> &PlacementPlan {
        &self.placement
    }

    /// The attached cost model.
    pub fn model(&self) -> &PlatformModel {
        &self.model
    }

    /// SRAM capacity (MB).
    pub fn sram_capacity_mb(&self) -> f64 {
        self.sram_mb
    }

    /// MRAM capacity (MB).
    pub fn mram_capacity_mb(&self) -> f64 {
        self.mram_mb
    }

    /// SRAM actually used (MB) — Fig. 5's 29.4 MB for the proposed design.
    pub fn sram_used_mb(&self) -> f64 {
        self.placement.sram_used_mb()
    }

    /// `true` if online training under `topo` never writes the NVM
    /// (requires the placement to keep all trainable weights + gradients
    /// on-die).
    pub fn is_nvm_write_free(&self, topo: Topology) -> bool {
        topo.is_nvm_write_free() && self.placement.is_write_free_nvm()
    }

    /// Supported fps at batch `n` for this platform's topology.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_fps(&self, n: usize) -> f64 {
        self.model.max_fps(self.topology, n)
    }

    /// Per-frame training energy (mJ) at batch `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn energy_per_frame_mj(&self, n: usize) -> f64 {
        self.model.energy_per_frame_mj(self.topology, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_points_all_place() {
        // The shared table must stay placeable: it feeds the ablation
        // binaries and the DSE space alike.
        for (topo, sram, mram) in PAPER_DESIGN_POINTS {
            let p = Platform::new(topo, sram, mram)
                .unwrap_or_else(|e| panic!("{topo} @ {sram}/{mram} MB: {e}"));
            // The three L-architectures are write-free by construction;
            // the E2E baseline never is.
            assert_eq!(p.is_nvm_write_free(topo), topo != Topology::E2E);
        }
    }

    #[test]
    fn proposed_matches_fig5() {
        let p = Platform::proposed().unwrap();
        assert!(
            (p.sram_used_mb() - 29.4).abs() < 0.05,
            "{}",
            p.sram_used_mb()
        );
        assert!((p.placement().mram_weight_mb() - 99.8).abs() < 0.5);
        assert!(p.is_nvm_write_free(Topology::L3));
    }

    #[test]
    fn e2e_rejected_on_proposed_memories() {
        // The paper's point, as a type-checked fact: E2E cannot place.
        assert!(matches!(
            Platform::new(Topology::E2E, 30.0, 128.0),
            Err(CoreError::Placement(_))
        ));
    }

    #[test]
    fn e2e_places_on_an_oversized_stack_but_writes_nvm() {
        let p = Platform::new(Topology::E2E, 30.0, 256.0).unwrap();
        assert!(!p.is_nvm_write_free(Topology::E2E));
    }

    #[test]
    fn l4_needs_the_bigger_sram() {
        let roomy = Platform::new(Topology::L4, 63.0, 128.0).unwrap();
        assert!(roomy.is_nvm_write_free(Topology::L4));
        // In 30 MB, FC2 cannot keep weights+gradients on-die, and the
        // cost model charges the placement it was given.
        let tight = Platform::new(Topology::L4, 30.0, 128.0).unwrap();
        assert!(!tight.is_nvm_write_free(Topology::L4));
        assert!(tight.max_fps(4) < roomy.max_fps(4));
    }

    #[test]
    fn fps_accessor_consistent_with_model() {
        let p = Platform::proposed().unwrap();
        assert_eq!(p.max_fps(4), p.model().max_fps(Topology::L3, 4));
        assert!(p.energy_per_frame_mj(4) > 0.0);
    }

    #[test]
    fn with_system_date19_matches_default_constructor() {
        let a = Platform::proposed().unwrap();
        let b = Platform::with_system(
            Topology::L3,
            30.0,
            128.0,
            SystemParams::date19(),
            Calibration::date19(),
        )
        .unwrap();
        assert_eq!(a.max_fps(4).to_bits(), b.max_fps(4).to_bits());
        assert_eq!(
            a.energy_per_frame_mj(4).to_bits(),
            b.energy_per_frame_mj(4).to_bits()
        );
    }

    #[test]
    fn with_system_tech_axis_changes_update_cost() {
        use mramrl_mem::tech::TechParams;
        let mut pcm = SystemParams::date19();
        pcm.mram = TechParams::pcm();
        let date = Platform::new(Topology::E2E, 30.0, 256.0).unwrap();
        let slow =
            Platform::with_system(Topology::E2E, 30.0, 256.0, pcm, Calibration::date19()).unwrap();
        // PCM writes (150 ns) are slower than STT-MRAM (30 ns): the E2E
        // weight write-back must get more expensive, nothing else about
        // the placement changes.
        let (ms_date, _) = date.model().update_cost(Topology::E2E);
        let (ms_pcm, _) = slow.model().update_cost(Topology::E2E);
        assert!(ms_pcm > ms_date, "{ms_pcm} vs {ms_date}");
        assert_eq!(
            date.placement().mram_weight_bytes(),
            slow.placement().mram_weight_bytes()
        );
    }

    #[test]
    fn invalid_capacity_rejected() {
        assert!(matches!(
            Platform::new(Topology::L2, 0.0, 128.0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn nan_capacity_is_an_invalid_config() {
        for (sram, mram) in [(f64::NAN, 128.0), (30.0, f64::NAN)] {
            assert!(
                matches!(
                    Platform::new(Topology::L3, sram, mram),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "{sram}/{mram}"
            );
        }
    }
}
