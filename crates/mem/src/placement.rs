//! Layer-to-memory placement planning (Fig. 5 / §III-D).
//!
//! Given the per-layer weight footprints and which layers are trained
//! online, the planner decides what lives in the STT-MRAM stack versus the
//! SRAM global buffer, mirroring the paper's policy:
//!
//! * frozen layers → STT-MRAM (read-only during flight);
//! * online-trained layers → SRAM, **twice** (weights + gradient-sum
//!   accumulator, §III-D), filled from the output end of the network;
//! * a fixed scratchpad region (4.2 MB in the paper) for PE staging;
//! * trainable layers that do not fit keep their weights in MRAM and spill
//!   their gradient accumulator to MRAM too — each training image then pays
//!   an MRAM read-modify-write (this is what makes E2E infeasible: FC1's
//!   75.5 MB gradient buffer can never fit on-die).

use core::fmt;

use crate::error::MemError;
use crate::MB;

/// Where a layer's weights ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// Stacked STT-MRAM (read-only during flight).
    Mram,
    /// On-die SRAM global buffer (read/write).
    Sram,
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StorageClass::Mram => "STT-MRAM",
            StorageClass::Sram => "SRAM",
        })
    }
}

/// One layer's placement outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlacement {
    /// Layer name (e.g. `"FC3"`).
    pub name: String,
    /// Weight footprint in bytes (16-bit weights + biases).
    pub weight_bytes: u64,
    /// Whether the layer is trained online.
    pub trainable: bool,
    /// Where the weights live.
    pub weights_in: StorageClass,
    /// Where the gradient-sum accumulator lives (`None` for frozen layers).
    pub gradients_in: Option<StorageClass>,
}

impl LayerPlacement {
    /// `true` if this trainable layer's gradient accumulator spilled to
    /// MRAM (the per-image RMW penalty case).
    pub fn gradient_spilled(&self) -> bool {
        self.gradients_in == Some(StorageClass::Mram)
    }
}

/// Input to the planner.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRequest {
    /// Layers in forward order: `(name, weight_bytes, trainable)`.
    pub layers: Vec<(String, u64, bool)>,
    /// Scratchpad bytes reserved for PE staging (paper: 4.2 MB).
    pub scratch_bytes: u64,
    /// SRAM global-buffer capacity in bytes.
    pub sram_capacity_bytes: u64,
    /// STT-MRAM stack capacity in bytes.
    pub mram_capacity_bytes: u64,
}

impl PlacementRequest {
    /// Convenience constructor.
    pub fn new(
        layers: Vec<(String, u64, bool)>,
        scratch_bytes: u64,
        sram_capacity_bytes: u64,
        mram_capacity_bytes: u64,
    ) -> Self {
        Self {
            layers,
            scratch_bytes,
            sram_capacity_bytes,
            mram_capacity_bytes,
        }
    }
}

/// The planner's output: per-layer placements plus aggregate footprints.
///
/// # Examples
///
/// ```
/// use mramrl_mem::{PlacementPlan, PlacementRequest};
///
/// // A toy 3-layer net: train the last layer only, in a tight SRAM.
/// let req = PlacementRequest::new(
///     vec![
///         ("conv".into(), 1000, false),
///         ("fc1".into(), 800, false),
///         ("fc2".into(), 100, true),
///     ],
///     50,
///     300,
///     10_000,
/// );
/// let plan = PlacementPlan::solve(&req)?;
/// assert_eq!(plan.mram_weight_bytes(), 1800);
/// assert_eq!(plan.sram_used_bytes(), 100 + 100 + 50);
/// assert!(plan.spilled_layers().is_empty());
/// # Ok::<(), mramrl_mem::MemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    placements: Vec<LayerPlacement>,
    scratch_bytes: u64,
    sram_capacity_bytes: u64,
}

impl PlacementPlan {
    /// Solves the placement for `req`.
    ///
    /// # Errors
    ///
    /// * [`MemError::CapacityExceeded`] if the scratchpad alone exceeds the
    ///   SRAM or the frozen+spilled weights exceed the MRAM capacity.
    pub fn solve(req: &PlacementRequest) -> Result<Self, MemError> {
        if req.scratch_bytes > req.sram_capacity_bytes {
            return Err(MemError::CapacityExceeded {
                region: "scratchpad".into(),
                need_bytes: req.scratch_bytes,
                have_bytes: req.sram_capacity_bytes,
            });
        }
        let mut free_sram = req.sram_capacity_bytes - req.scratch_bytes;
        let mut placements: Vec<LayerPlacement> = Vec::with_capacity(req.layers.len());

        // Walk from the output end: the last layers are the cheap ones and
        // the first to earn an SRAM slot (paper trains the FC tail).
        for (name, bytes, trainable) in req.layers.iter().rev() {
            let placement = if *trainable {
                let need = bytes * 2; // weights + gradient-sum accumulator
                if need <= free_sram {
                    free_sram -= need;
                    LayerPlacement {
                        name: name.clone(),
                        weight_bytes: *bytes,
                        trainable: true,
                        weights_in: StorageClass::Sram,
                        gradients_in: Some(StorageClass::Sram),
                    }
                } else {
                    // Try to at least keep the gradient accumulator on-die.
                    let grads_in = if *bytes <= free_sram {
                        free_sram -= *bytes;
                        StorageClass::Sram
                    } else {
                        StorageClass::Mram
                    };
                    LayerPlacement {
                        name: name.clone(),
                        weight_bytes: *bytes,
                        trainable: true,
                        weights_in: StorageClass::Mram,
                        gradients_in: Some(grads_in),
                    }
                }
            } else {
                LayerPlacement {
                    name: name.clone(),
                    weight_bytes: *bytes,
                    trainable: false,
                    weights_in: StorageClass::Mram,
                    gradients_in: None,
                }
            };
            placements.push(placement);
        }
        placements.reverse();

        let plan = Self {
            placements,
            scratch_bytes: req.scratch_bytes,
            sram_capacity_bytes: req.sram_capacity_bytes,
        };
        let mram_need = plan.mram_weight_bytes() + plan.mram_gradient_bytes();
        if mram_need > req.mram_capacity_bytes {
            return Err(MemError::CapacityExceeded {
                region: "stt-mram stack".into(),
                need_bytes: mram_need,
                have_bytes: req.mram_capacity_bytes,
            });
        }
        Ok(plan)
    }

    /// Per-layer placements in forward order.
    pub fn placements(&self) -> &[LayerPlacement] {
        &self.placements
    }

    /// Looks up one layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerPlacement> {
        self.placements.iter().find(|p| p.name == name)
    }

    /// Total weight bytes resident in MRAM.
    pub fn mram_weight_bytes(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.weights_in == StorageClass::Mram)
            .map(|p| p.weight_bytes)
            .sum()
    }

    /// Total gradient-accumulator bytes spilled to MRAM.
    pub fn mram_gradient_bytes(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.gradient_spilled())
            .map(|p| p.weight_bytes)
            .sum()
    }

    /// Total weight bytes resident in SRAM.
    pub fn sram_weight_bytes(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.weights_in == StorageClass::Sram)
            .map(|p| p.weight_bytes)
            .sum()
    }

    /// Total gradient-accumulator bytes in SRAM.
    pub fn sram_gradient_bytes(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.gradients_in == Some(StorageClass::Sram))
            .map(|p| p.weight_bytes)
            .sum()
    }

    /// Total SRAM usage (weights + gradients + scratch).
    pub fn sram_used_bytes(&self) -> u64 {
        self.sram_weight_bytes() + self.sram_gradient_bytes() + self.scratch_bytes
    }

    /// SRAM usage in decimal MB.
    pub fn sram_used_mb(&self) -> f64 {
        self.sram_used_bytes() as f64 / MB
    }

    /// MRAM weight footprint in decimal MB.
    pub fn mram_weight_mb(&self) -> f64 {
        self.mram_weight_bytes() as f64 / MB
    }

    /// Trainable layers whose gradient accumulators spilled to MRAM.
    pub fn spilled_layers(&self) -> Vec<&LayerPlacement> {
        self.placements
            .iter()
            .filter(|p| p.gradient_spilled())
            .collect()
    }

    /// NVM write-back bytes per weight update: every trainable layer
    /// whose weights could not be kept in SRAM writes them back to the
    /// stack after each update. Frozen layers are never written.
    ///
    /// With [`PlacementPlan::nvm_rmw_bytes_per_frame`] this is the one
    /// model of online training's NVM write stream: a run of `u` updates
    /// over `f` frames writes `u · write-back + f · RMW` bytes. The
    /// deployment simulator, the design-space evaluator and the endurance
    /// scheduler all charge it.
    pub fn nvm_writeback_bytes_per_update(&self) -> u64 {
        self.placements
            .iter()
            .filter(|p| p.trainable && p.weights_in == StorageClass::Mram)
            .map(|p| p.weight_bytes)
            .sum()
    }

    /// NVM read-modify-write bytes per training frame: each gradient
    /// accumulator spilled to MRAM is read, summed into and written back
    /// once per image, so the per-frame stream equals
    /// [`PlacementPlan::mram_gradient_bytes`].
    pub fn nvm_rmw_bytes_per_frame(&self) -> u64 {
        self.mram_gradient_bytes()
    }

    /// `true` when every trainable layer fits entirely on-die — the
    /// condition for "no NVM writes in the real-time loop".
    pub fn is_write_free_nvm(&self) -> bool {
        self.placements
            .iter()
            .filter(|p| p.trainable)
            .all(|p| p.weights_in == StorageClass::Sram && !p.gradient_spilled())
    }

    /// Scratchpad bytes.
    pub fn scratch_bytes(&self) -> u64 {
        self.scratch_bytes
    }

    /// SRAM capacity this plan was solved against.
    pub fn sram_capacity_bytes(&self) -> u64 {
        self.sram_capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DATE-19 AlexNet per-layer weight bytes (16-bit, incl. biases);
    /// values cross-checked against Fig. 3(a) in `mramrl-nn`.
    fn date19_layers(trainable_tail: usize) -> Vec<(String, u64, bool)> {
        let weights: [(&str, u64); 10] = [
            ("CONV1", 34_944),
            ("CONV2", 614_656),
            ("CONV3", 885_120),
            ("CONV4", 1_327_488),
            ("CONV5", 884_992),
            ("FC1", 37_752_832),
            ("FC2", 8_390_656),
            ("FC3", 4_196_352),
            ("FC4", 2_098_176),
            ("FC5", 5_125),
        ];
        let n = weights.len();
        weights
            .iter()
            .enumerate()
            .map(|(i, (name, w))| ((*name).to_string(), w * 2, i >= n - trainable_tail))
            .collect()
    }

    fn solve(tail: usize, sram_mb: f64) -> PlacementPlan {
        // 256 MB stack so even the E2E baseline (weights + spilled gradient
        // accumulators ≈ 199 MB) is placeable for benchmarking purposes.
        let req = PlacementRequest::new(
            date19_layers(tail),
            4_200_000,
            (sram_mb * MB) as u64,
            256_000_000,
        );
        PlacementPlan::solve(&req).unwrap()
    }

    #[test]
    fn e2e_does_not_fit_the_proposed_128mb_stack() {
        // §II-C: "E2E RL on an environment is not feasible with NVM based
        // embedded platforms" — literally: weights + spilled gradient
        // accumulators exceed the date19 stack capacity.
        let req = PlacementRequest::new(date19_layers(10), 4_200_000, 30_000_000, 128_000_000);
        assert!(matches!(
            PlacementPlan::solve(&req),
            Err(MemError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn fig5_l3_design_point() {
        // The paper's headline design: last 3 FC layers in a 30 MB buffer.
        let plan = solve(3, 30.0);
        // 12.6 MB weights + 12.6 MB gradients + 4.2 MB scratch = 29.4 MB.
        assert!(
            (plan.sram_used_mb() - 29.4).abs() < 0.05,
            "{}",
            plan.sram_used_mb()
        );
        // "The rest ... add up to 100 MB" in MRAM.
        assert!(
            (plan.mram_weight_mb() - 100.0).abs() < 1.0,
            "{}",
            plan.mram_weight_mb()
        );
        assert!(plan.is_write_free_nvm());
        assert!(plan.spilled_layers().is_empty());
    }

    #[test]
    fn l2_needs_only_12_6_mb_sram() {
        let plan = solve(2, 30.0);
        // FC4+FC5 = 4.2 MB ×2 + 4.2 scratch ≈ 12.6 MB.
        assert!(
            (plan.sram_used_mb() - 12.6).abs() < 0.05,
            "{}",
            plan.sram_used_mb()
        );
        assert!(plan.is_write_free_nvm());
    }

    #[test]
    fn l4_does_not_fit_30mb_but_fits_63mb() {
        // FC2–FC5: 29.38 MB weights + same gradients + 4.2 scratch ≈ 63 MB.
        let tight = solve(4, 30.0);
        assert!(!tight.is_write_free_nvm());
        // FC2 stays in MRAM: it alone is written back per update.
        assert_eq!(tight.nvm_writeback_bytes_per_update(), 8_390_656 * 2);
        let roomy = solve(4, 63.0);
        assert!(roomy.is_write_free_nvm());
        assert!(
            (roomy.sram_used_mb() - 62.96).abs() < 0.2,
            "{}",
            roomy.sram_used_mb()
        );
    }

    #[test]
    fn e2e_spills_fc1_gradients() {
        // All 10 layers trainable in a 30 MB buffer: FC1's 75.5 MB gradient
        // accumulator must spill to MRAM → per-image RMW penalty.
        let plan = solve(10, 30.0);
        assert!(!plan.is_write_free_nvm());
        let fc1 = plan.layer("FC1").unwrap();
        assert!(fc1.gradient_spilled());
        assert_eq!(fc1.weights_in, StorageClass::Mram);
    }

    #[test]
    fn e2e_small_conv_gradients_stay_on_die() {
        let plan = solve(10, 30.0);
        // Tail-first policy gives FC3..FC5 full SRAM residency; conv
        // gradients are small and also land on-die.
        let conv1 = plan.layer("CONV1").unwrap();
        assert_eq!(conv1.gradients_in, Some(StorageClass::Sram));
    }

    #[test]
    fn scratch_larger_than_sram_errors() {
        let req = PlacementRequest::new(date19_layers(2), 40_000_000, 30_000_000, 128_000_000);
        assert!(matches!(
            PlacementPlan::solve(&req),
            Err(MemError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn mram_capacity_enforced() {
        let req = PlacementRequest::new(date19_layers(2), 0, 30_000_000, 10_000_000);
        assert!(matches!(
            PlacementPlan::solve(&req),
            Err(MemError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn write_stream_charges_trainable_mram_weights_and_spilled_gradients() {
        // L3 in 12.7 MB: FC4/FC5 take the SRAM, FC3 keeps neither its
        // weights nor its gradient accumulator on-die.
        let l3 = solve(3, 12.7);
        assert_eq!(l3.nvm_writeback_bytes_per_update(), 4_196_352 * 2);
        assert_eq!(l3.nvm_rmw_bytes_per_frame(), 4_196_352 * 2);
        // The frozen trunk stays in MRAM but is never written.
        assert!(l3.mram_weight_bytes() > 12 * l3.nvm_writeback_bytes_per_update());
        // A write-free plan has an empty stream.
        let free = solve(3, 30.0);
        assert_eq!(free.nvm_writeback_bytes_per_update(), 0);
        assert_eq!(free.nvm_rmw_bytes_per_frame(), 0);
    }

    #[test]
    fn frozen_layers_have_no_gradients() {
        let plan = solve(3, 30.0);
        assert_eq!(plan.layer("CONV3").unwrap().gradients_in, None);
        assert_eq!(
            plan.layer("FC5").unwrap().gradients_in,
            Some(StorageClass::Sram)
        );
    }
}
