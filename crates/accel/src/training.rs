//! Training-iteration costs, supported fps and the Fig. 13 results.

use mramrl_mem::{LayerPlacement, StorageClass};
use mramrl_nn::spec::NetworkSpec;
pub use mramrl_nn::Topology;

use crate::bwd::backward_costs;
use crate::calib::Calibration;
use crate::cost::{IterationCost, LayerCost, PerImageCost};
use crate::fwd::forward_costs;
use crate::paper::fig5_residency;
use crate::params::SystemParams;
use crate::power::PowerModel;

/// Camera-frame DRAM→buffer load per frame, ms (derived: ~150 kB over the
/// DDR link, §III-A).
const FRAME_LOAD_MS: f64 = 0.3;

/// The end-to-end platform cost model.
///
/// Owns the per-layer forward/backward tables (Fig. 12) and derives
/// per-image costs, weight-update costs, training-iteration latency/energy
/// and the supported frame rate per batch size (Fig. 13). What is
/// resident where is one input, a [`LayerPlacement`] per parameterised
/// layer: the backward table and the weight update both read it.
///
/// # Examples
///
/// ```
/// use mramrl_accel::{Calibration, PlatformModel, Topology};
///
/// let model = PlatformModel::new(Calibration::date19());
/// // Fig. 13(a) anchor: L4 at batch 4 sustains ≈15 fps, E2E only a few.
/// let l4 = model.max_fps(Topology::L4, 4);
/// let e2e = model.max_fps(Topology::E2E, 4);
/// assert!(l4 > 14.0 && l4 < 16.0);
/// assert!(e2e < 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformModel {
    params: SystemParams,
    calib: Calibration,
    spec: NetworkSpec,
    residency: Vec<LayerPlacement>,
    fwd: Vec<LayerCost>,
    bwd: Vec<LayerCost>,
}

impl PlatformModel {
    /// Builds the model for the paper's full AlexNet on the date-19
    /// platform parameters.
    pub fn new(calib: Calibration) -> Self {
        Self::with_spec(NetworkSpec::date19_alexnet(), SystemParams::date19(), calib)
    }

    /// Builds the model for an arbitrary network spec (e.g. the
    /// micro-AlexNet, or an architecture sweep) under the paper's own
    /// accounting: the [`fig5_residency`] memory map.
    pub fn with_spec(spec: NetworkSpec, params: SystemParams, calib: Calibration) -> Self {
        let residency = fig5_residency(&spec, &params);
        Self::for_placement(spec, params, calib, &residency)
    }

    /// Builds the model that costs a given placement — typically a solved
    /// [`mramrl_mem::PlacementPlan`]'s `placements()` — so the fps and
    /// energy of a design read the same residency as its NVM write
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if the placement's layers (names and weight bytes) are not
    /// `spec`'s parameterised layers in forward order.
    pub fn for_placement(
        spec: NetworkSpec,
        params: SystemParams,
        calib: Calibration,
        placement: &[LayerPlacement],
    ) -> Self {
        let fwd = forward_costs(&spec, &params.array, &calib);
        let bwd = backward_costs(&spec, &params, &calib, placement);
        let model = Self {
            params,
            calib,
            spec,
            residency: placement.to_vec(),
            fwd,
            bwd,
        };
        assert_eq!(
            model.layer_weight_bytes(),
            model.spec.layer_weight_bytes(),
            "placement layers must be the spec's parameterised layers in order"
        );
        model
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// System parameters.
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The network spec being costed.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Per-layer `(name, weight_bytes)` this model's update/write-back
    /// costs charge for, at the platform's 16-bit precision (weights +
    /// biases), parameterised layers in forward order — the same
    /// accounting the `mramrl_mem` placement planner consumes.
    pub fn layer_weight_bytes(&self) -> Vec<(String, u64)> {
        let layer = |p: &LayerPlacement| (p.name.clone(), p.weight_bytes);
        self.residency.iter().map(layer).collect()
    }

    /// Cross-checks this cost model against a Q8.8 engine snapshot
    /// ([`mramrl_nn::QuantizedNet`]): every byte the model charges for a
    /// layer must be a byte the engine actually stores, name for name.
    /// This is the contract that keeps the analytical numbers (Fig. 12
    /// latencies, §III-D update traffic) attached to the executable
    /// datapath instead of to a separate hand-kept table.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching layer.
    pub fn verify_engine_bytes(&self, engine: &mramrl_nn::QuantizedNet) -> Result<(), String> {
        let ours = self.layer_weight_bytes();
        let theirs = engine.layer_weight_bytes();
        if ours.len() != theirs.len() {
            return Err(format!(
                "layer count mismatch: model charges {} parameterised layers, engine stores {}",
                ours.len(),
                theirs.len()
            ));
        }
        for ((on, ob), (en, eb)) in ours.iter().zip(&theirs) {
            if on != en || ob != eb {
                return Err(format!(
                    "layer byte mismatch: model {on}={ob} B vs engine {en}={eb} B"
                ));
            }
        }
        Ok(())
    }

    /// The Fig. 12(a) forward table.
    pub fn forward_table(&self) -> &[LayerCost] {
        &self.fwd
    }

    /// The Fig. 12(b) backward table: every layer's backward (E2E
    /// accounting) under this model's residency.
    pub fn backward_table(&self) -> &[LayerCost] {
        &self.bwd
    }

    /// Total forward latency per image, ms.
    pub fn forward_ms(&self) -> f64 {
        self.fwd.iter().map(|c| c.latency_ms).sum()
    }

    /// Total forward energy per image, mJ.
    pub fn forward_mj(&self) -> f64 {
        self.fwd.iter().map(|c| c.energy_mj).sum()
    }

    /// Backward-table rows a topology trains.
    fn trainable_rows(&self, topo: Topology) -> impl Iterator<Item = &LayerCost> + Clone {
        let n = self.bwd.len();
        (0..n)
            .filter(move |&i| topo.trains(i, n))
            .map(|i| &self.bwd[i])
    }

    /// Per-image training cost for a topology (Fig. 13(b)): full forward
    /// plus backward over the trained tail, using the Fig. 12(b) rows
    /// exactly as the paper does.
    pub fn per_image(&self, topo: Topology) -> PerImageCost {
        let rows = self.trainable_rows(topo);
        let backward_ms = rows.clone().map(|c| c.latency_ms).sum();
        let backward_mj = rows.map(|c| c.energy_mj).sum();
        PerImageCost {
            forward_ms: self.forward_ms(),
            backward_ms,
            forward_mj: self.forward_mj(),
            backward_mj,
        }
    }

    /// Weight-update cost per training iteration: SRAM traffic for every
    /// trained layer, plus the full MRAM write-back (at the 30 ns-pulse
    /// bandwidth) for the trained layers whose weights are MRAM-resident
    /// — the E2E tax, and the price of a tail that does not fit on-die.
    pub fn update_cost(&self, topo: Topology) -> (f64, f64) {
        let n = self.residency.len();
        let mut ms = 0.0;
        let mut mj = 0.0;
        let sram_bw = 512.0; // GB/s: 4096-bit port at 1 GHz
        for (i, place) in self.residency.iter().enumerate() {
            if !topo.trains(i, n) {
                continue;
            }
            let bytes = place.weight_bytes as f64;
            // Read gradient sum + read weights + write weights on-die.
            ms += 3.0 * bytes / sram_bw / 1.0e6;
            mj += 3.0 * bytes * 8.0 * 0.08 * 1e-9; // SRAM pJ/bit
            if place.weights_in == StorageClass::Mram {
                // Write updated weights back to the stack.
                ms += bytes / self.params.mram_write_gbytes_per_s() / 1.0e6;
                mj += bytes * 8.0 * self.params.mram.write_energy_pj_per_bit * 1e-9;
            }
        }
        (ms, mj)
    }

    /// Full training-iteration cost at batch `n` and the supported fps
    /// (Fig. 13(a)).
    ///
    /// Per frame: one inference forward (the drone must act), one training
    /// forward + truncated backward, and the DDR frame load. Per
    /// iteration: the weight update and the fitted system overhead.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn iteration(&self, topo: Topology, n: usize) -> IterationCost {
        assert!(n > 0, "batch must be positive");
        let img = self.per_image(topo);
        let per_frame_ms = self.forward_ms() + img.total_ms() + FRAME_LOAD_MS;
        let per_frame_mj = self.forward_mj() + img.total_mj();
        let (update_ms, update_mj) = self.update_cost(topo);
        let fixed_ms = update_ms + self.calib.iteration_overhead_ms;
        let total_ms = n as f64 * per_frame_ms + fixed_ms;
        let overhead_mj = self.calib.iteration_overhead_ms * PowerModel::date19().p0_mw * 1e-3;
        IterationCost {
            batch: n,
            per_frame_ms,
            fixed_ms,
            total_ms,
            total_mj: n as f64 * per_frame_mj + update_mj + overhead_mj,
            fps: n as f64 / (total_ms * 1e-3),
        }
    }

    /// Supported frame rate for a topology at batch `n` (Fig. 13(a)).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn max_fps(&self, topo: Topology, n: usize) -> f64 {
        self.iteration(topo, n).fps
    }

    /// Percent reduction `(1 − a/b)·100` of per-image training latency and
    /// energy of `topo` versus the E2E baseline (the headline numbers).
    pub fn reduction_vs_e2e(&self, topo: Topology) -> (f64, f64) {
        let a = self.per_image(topo);
        let b = self.per_image(Topology::E2E);
        (
            (1.0 - a.total_ms() / b.total_ms()) * 100.0,
            (1.0 - a.total_mj() / b.total_mj()) * 100.0,
        )
    }

    /// Energy per processed frame (inference + training share at batch
    /// `n`), in mJ — the abstract's "energy per image frame".
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn energy_per_frame_mj(&self, topo: Topology, n: usize) -> f64 {
        let it = self.iteration(topo, n);
        it.total_mj / n as f64
    }
}

#[cfg(test)]
mod tests {
    use mramrl_mem::{PlacementPlan, PlacementRequest};

    use super::*;
    use crate::paper;

    fn model() -> PlatformModel {
        PlatformModel::new(Calibration::date19())
    }

    #[test]
    fn fig13b_per_image_latencies() {
        let m = model();
        // Paper (from Fig. 12): L2 12.53, L3 13.71, L4 17.55, E2E 106.15.
        let expect = [
            (Topology::L2, 12.53),
            (Topology::L3, 13.71),
            (Topology::L4, 17.55),
            (Topology::E2E, 106.15),
        ];
        for (t, paper_ms) in expect {
            let ours = m.per_image(t).total_ms();
            let err = (ours - paper_ms).abs() / paper_ms;
            assert!(err < 0.03, "{t}: {ours} vs {paper_ms}");
        }
    }

    #[test]
    fn headline_reductions() {
        let (lat, en) = model().reduction_vs_e2e(Topology::L4);
        assert!(
            (lat - paper::LATENCY_REDUCTION_PCT).abs() < 1.5,
            "lat {lat}"
        );
        assert!(
            (en - paper::ENERGY_REDUCTION_PCT).abs() < 4.0,
            "energy {en}"
        );
    }

    #[test]
    fn fig13a_fps_anchors() {
        let m = model();
        let l4 = m.max_fps(Topology::L4, 4);
        assert!((l4 - paper::FPS_L4_BATCH4).abs() < 1.0, "L4@4 {l4}");
        let e2e = m.max_fps(Topology::E2E, 4);
        // Our E2E model is ~2× the paper's 3 fps (documented deviation);
        // the feasibility conclusion is unchanged.
        assert!(e2e < 8.0, "E2E@4 {e2e}");
        assert!(l4 / e2e > 2.0, "ratio {}", l4 / e2e);
    }

    #[test]
    fn fps_increases_with_batch() {
        let m = model();
        for t in Topology::ALL {
            let f4 = m.max_fps(t, 4);
            let f8 = m.max_fps(t, 8);
            let f16 = m.max_fps(t, 16);
            assert!(f4 < f8 && f8 < f16, "{t}: {f4} {f8} {f16}");
        }
    }

    #[test]
    fn fps_ordering_l2_fastest() {
        let m = model();
        for n in [4usize, 8, 16] {
            let f: Vec<f64> = Topology::ALL.iter().map(|&t| m.max_fps(t, n)).collect();
            assert!(
                f[0] > f[1] && f[1] > f[2] && f[2] > f[3],
                "batch {n}: {f:?}"
            );
        }
    }

    #[test]
    fn e2e_update_pays_mram_writeback() {
        let m = model();
        let (e2e_ms, e2e_mj) = m.update_cost(Topology::E2E);
        let (l4_ms, l4_mj) = m.update_cost(Topology::L4);
        // ~99.8 MB at 4.27 GB/s ≈ 23.4 ms.
        assert!(e2e_ms > 20.0 && e2e_ms < 28.0, "{e2e_ms}");

        // On the paper's map FC2 stays MRAM-resident, so L4's update adds
        // exactly FC2's 16.78 MB write-back to the on-die traffic.
        let mut on_die = m.residency.to_vec();
        on_die[6].weights_in = StorageClass::Sram;
        let sram_only = PlatformModel::for_placement(
            m.spec().clone(),
            m.params().clone(),
            m.calibration().clone(),
            &on_die,
        );
        let fc2_bytes = m.residency[6].weight_bytes;
        assert_eq!(
            (m.residency[6].name.as_str(), fc2_bytes),
            ("FC2", 16_781_312)
        );
        let write_back_ms = fc2_bytes as f64 / m.params().mram_write_gbytes_per_s() / 1.0e6;
        let extra_ms = l4_ms - sram_only.update_cost(Topology::L4).0;
        assert!(
            (extra_ms - write_back_ms).abs() < 1e-9,
            "{extra_ms} vs {write_back_ms}"
        );

        // A 63 MB buffer holds FC2–FC5 with their gradients: no write-back.
        let spec = NetworkSpec::date19_alexnet();
        let n = spec.param_layer_names().len();
        let layers = spec
            .layer_weight_bytes()
            .into_iter()
            .enumerate()
            .map(|(i, (name, bytes))| (name, bytes, Topology::L4.trains(i, n)))
            .collect();
        let req = PlacementRequest::new(layers, 4_200_000, 63_000_000, 128_000_000);
        let plan = PlacementPlan::solve(&req).unwrap();
        let roomy = PlatformModel::for_placement(
            spec,
            SystemParams::date19(),
            Calibration::date19(),
            plan.placements(),
        );
        let (roomy_ms, roomy_mj) = roomy.update_cost(Topology::L4);
        assert!(roomy_ms < 1.0, "{roomy_ms}");
        assert!(e2e_mj > 20.0 * roomy_mj, "{e2e_mj} vs {roomy_mj}");
        assert!(l4_mj > roomy_mj);
    }

    #[test]
    #[should_panic(expected = "placement layers")]
    fn placement_for_another_net_is_rejected() {
        // Same layer names as the paper's net, different sizes.
        PlatformModel::for_placement(
            NetworkSpec::micro(40, 1, 5),
            SystemParams::date19(),
            Calibration::ideal(),
            &model().residency,
        );
    }

    #[test]
    fn energy_per_frame_reduction_headline() {
        // Abstract: "83.4% lower energy per image frame" (L4 vs E2E).
        // The paper's number is the per-image *training* energy (our
        // `reduction_vs_e2e`, tested above at ~79 %). The all-in per-frame
        // reduction — including the per-frame inference pass and the
        // amortised iteration overhead, which L-topologies pay too — is
        // necessarily smaller; we report it honestly (~65–72 %).
        let m = model();
        let l4 = m.energy_per_frame_mj(Topology::L4, 4);
        let e2e = m.energy_per_frame_mj(Topology::E2E, 4);
        let red = (1.0 - l4 / e2e) * 100.0;
        assert!(red > 60.0 && red < 80.0, "{red}");
    }

    #[test]
    fn ideal_profile_preserves_all_orderings() {
        let m = PlatformModel::new(Calibration::ideal());
        let l4 = m.per_image(Topology::L4).total_ms();
        let e2e = m.per_image(Topology::E2E).total_ms();
        assert!(e2e > 3.0 * l4, "{e2e} vs {l4}");
        assert!(m.max_fps(Topology::L2, 4) > m.max_fps(Topology::E2E, 4));
    }

    #[test]
    fn iteration_totals_consistent() {
        let m = model();
        let it = m.iteration(Topology::L4, 8);
        assert_eq!(it.batch, 8);
        assert!((it.total_ms - (8.0 * it.per_frame_ms + it.fixed_ms)).abs() < 1e-9);
        assert!((it.fps - 8.0 / (it.total_ms * 1e-3)).abs() < 1e-9);
    }

    #[test]
    fn micro_spec_model_works() {
        let m = PlatformModel::with_spec(
            NetworkSpec::micro(40, 1, 5),
            SystemParams::date19(),
            Calibration::ideal(),
        );
        assert!(m.forward_ms() > 0.0);
        assert!(m.per_image(Topology::E2E).total_ms() > m.per_image(Topology::L2).total_ms());
    }

    #[test]
    fn per_layer_bytes_match_quantised_engine() {
        // The cost model's byte accounting is pinned to the executable
        // Q8.8 engine: same layers, same names, same bytes.
        let spec = NetworkSpec::micro(40, 1, 5);
        let net = spec.build(11);
        let engine = mramrl_nn::QuantizedNet::from_network(&spec, &net).unwrap();
        let m = PlatformModel::with_spec(spec, SystemParams::date19(), Calibration::ideal());
        m.verify_engine_bytes(&engine).unwrap();
        let total: u64 = m.layer_weight_bytes().iter().map(|(_, b)| *b).sum();
        assert_eq!(total, engine.weight_bytes());
    }

    #[test]
    fn engine_byte_mismatch_is_reported() {
        // An engine snapshotted from a *different* architecture must be
        // rejected with a descriptive error, not silently costed.
        let spec = NetworkSpec::micro(40, 1, 5);
        let other = NetworkSpec::micro(16, 1, 5);
        let engine = mramrl_nn::QuantizedNet::from_network(&other, &other.build(0)).unwrap();
        let m = PlatformModel::with_spec(spec, SystemParams::date19(), Calibration::ideal());
        let err = m.verify_engine_bytes(&engine).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }
}
