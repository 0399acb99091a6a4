//! Per-layer backward-propagation costs (§V / Fig. 12(b)).
//!
//! Each FC row is costed from the layer's residency (the model's one
//! per-layer [`LayerPlacement`] input):
//!
//! * **FC, SRAM-resident weights**: two streaming passes — one
//!   vector-transposed-matrix product for the input gradient (Fig. 8) and
//!   one outer-product pass writing the weight-gradient sums. Cost =
//!   `2 × forward`. Matches Fig. 12(b)'s FC3/FC4 within 1 %.
//! * **FC, MRAM-resident weights, gradient accumulator on-die** (FC2 in
//!   E2E): one more full weight stream (the transposed traversal cannot
//!   reuse the forward-streamed layout). Cost = `3 × forward`. Matches
//!   FC2 within 8 %.
//! * **FC with a spilled gradient accumulator** (FC1: its 75.5 MB sum
//!   buffer exceeds the entire on-die budget): each image pays a
//!   read-modify-write of the accumulator against the STT-MRAM stack at
//!   the write-pulse-limited 4.27 GB/s. Cost = `2 × forward + RMW`.
//!   Matches FC1 (29.19 ms) within 2 % — **the single number that makes
//!   E2E infeasible, derived entirely from Table 1**.
//! * **Conv (GEMM, §V-B)**: weight gradient ≈ forward MACs; input
//!   gradient on the stride-dilated delta costs `(in_hw / out_hw) ×`
//!   forward MACs (17× for CONV1's stride 4); im2col/col2im expansion
//!   multiplies streaming by [`GEMM_EXPANSION`]. The `date19` profile pins
//!   these to Fig. 12(b) (see the fidelity contract); `ideal` derives.

use mramrl_mem::{LayerPlacement, StorageClass};
use mramrl_nn::spec::NetworkSpec;
use mramrl_systolic::{ConvMapping, FcMapping, RfPolicy};

use crate::calib::Calibration;
use crate::cost::{LayerCost, Provenance};
use crate::fwd::{geometry, LayerGeom};
use crate::params::SystemParams;
use crate::power::PowerModel;

/// GEMM im2col/col2im expansion factor for derived conv backward
/// (extra streaming passes over the expanded matrices).
const GEMM_EXPANSION: f64 = 2.5;

/// Computes the Fig. 12(b) backward table for `spec`, one row per layer
/// of `residency` (which lists `spec`'s parameterised layers in order).
pub(crate) fn backward_costs(
    spec: &NetworkSpec,
    params: &SystemParams,
    calib: &Calibration,
    residency: &[LayerPlacement],
) -> Vec<LayerCost> {
    let array = &params.array;
    let power = PowerModel::date19();
    let geoms = geometry(spec);

    let mut out = Vec::with_capacity(geoms.len());
    let mut conv_idx = 0usize;
    for (geom, place) in geoms.iter().zip(residency) {
        match geom {
            LayerGeom::Fc { name, in_f, out_f } => {
                let mapping = FcMapping::plan_transposed(array, *in_f, *out_f);
                let fwd_ms = mapping.latency_ms(array.clock_ghz);
                let spilled = place.gradient_spilled();
                let mram_resident = place.weights_in == StorageClass::Mram;
                let passes = if mram_resident && !spilled { 3.0 } else { 2.0 };
                let mut latency_ms = passes * fwd_ms;
                let mut stream_bits = (mapping.weight_words * 16) as f64 * passes;
                let mut nvm_write_mj = 0.0;
                if spilled {
                    let bytes = geom.weight_bytes() as f64;
                    latency_ms += bytes / params.mram_write_gbytes_per_s() / 1.0e6
                        + bytes / params.mram_read_gbytes_per_s() / 1.0e6;
                    stream_bits += bytes * 16.0;
                    // Explicit NVM write energy (Table 1: 4.5 pJ/bit).
                    nvm_write_mj = bytes * 8.0 * params.mram.write_energy_pj_per_bit * 1e-9;
                }
                let stream = stream_bits / (latency_ms * 1e-3) / 1.0e9;
                let power_mw = power.power_mw(mapping.active_pes, stream);
                out.push(LayerCost {
                    name: name.clone(),
                    latency_ms,
                    active_pes: mapping.active_pes,
                    power_mw,
                    energy_mj: power_mw * latency_ms * 1e-3 + nvm_write_mj,
                    nvm_write: mram_resident || spilled,
                    provenance: Provenance::Derived,
                });
            }
            LayerGeom::Conv { name, shape } => {
                let mapping = ConvMapping::plan(array, shape, RfPolicy::Date19)
                    .expect("paper layers always map");
                // Forward latency in this profile (anchored or roofline).
                let fwd_ms = match &calib.conv_fwd_ms_override {
                    Some(ms) if conv_idx < ms.len() => ms[conv_idx],
                    _ => {
                        let flow =
                            mramrl_systolic::ConvDataflow::new(array).forward(shape, &mapping);
                        flow.total_cycles as f64 / array.clock_ghz * 1e-6
                    }
                };
                let dx_ratio =
                    f64::from(shape.in_h * shape.in_w) / f64::from(shape.out_h() * shape.out_w());
                let derived_ms = fwd_ms * (1.0 + dx_ratio) * GEMM_EXPANSION;
                let (latency_ms, provenance) = match &calib.conv_bwd_ms_override {
                    Some(ms) if conv_idx < ms.len() => (ms[conv_idx], Provenance::Anchored),
                    _ => (derived_ms, Provenance::Derived),
                };
                let active_pes = match &calib.conv_bwd_active_pes {
                    Some(pes) if conv_idx < pes.len() => pes[conv_idx],
                    _ => mapping.active_pes,
                };
                // GEMM streams expanded matrices: approximate traffic as
                // (1 + dx_ratio) × (input + output + weights) elements.
                let elems = (shape.input_elems() + shape.output_elems() + shape.weights()) as f64
                    * (1.0 + dx_ratio);
                let stream = elems * 16.0 / (latency_ms * 1e-3) / 1.0e9;
                let power_mw = power.power_mw(active_pes, stream.min(256.0));
                out.push(LayerCost {
                    name: name.clone(),
                    latency_ms,
                    active_pes,
                    power_mw,
                    energy_mj: power_mw * latency_ms * 1e-3,
                    nvm_write: true,
                    provenance,
                });
                conv_idx += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn table(calib: Calibration) -> Vec<LayerCost> {
        let spec = NetworkSpec::date19_alexnet();
        let params = SystemParams::date19();
        let residency = paper::fig5_residency(&spec, &params);
        backward_costs(&spec, &params, &calib, &residency)
    }

    #[test]
    fn fc1_spill_rmw_matches_paper_within_3pct() {
        // The headline derived number: 2×stream + 75.5 MB RMW at the
        // 30 ns-pulse-limited 4.27 GB/s ⇒ ≈28.6 ms (paper: 29.19 ms).
        let t = table(Calibration::date19());
        let fc1 = t.iter().find(|c| c.name == "FC1").unwrap();
        assert_eq!(fc1.provenance, Provenance::Derived);
        assert!(fc1.nvm_write);
        let err = (fc1.latency_ms - 29.19).abs() / 29.19;
        assert!(err < 0.03, "{} ms", fc1.latency_ms);
    }

    #[test]
    fn fc_tail_is_twice_forward_within_2pct() {
        let t = table(Calibration::date19());
        for (name, paper_ms) in [("FC3", 1.182), ("FC4", 0.594)] {
            let c = t.iter().find(|c| c.name == name).unwrap();
            let err = (c.latency_ms - paper_ms).abs() / paper_ms;
            assert!(err < 0.02, "{name}: {} vs {paper_ms}", c.latency_ms);
            assert!(!c.nvm_write);
        }
    }

    #[test]
    fn fc2_three_pass_within_9pct() {
        let t = table(Calibration::date19());
        let fc2 = t.iter().find(|c| c.name == "FC2").unwrap();
        let err = (fc2.latency_ms - 3.839).abs() / 3.839;
        assert!(err < 0.09, "{} ms", fc2.latency_ms);
        assert!(fc2.nvm_write);
    }

    #[test]
    fn anchored_conv_rows_exact() {
        let t = table(Calibration::date19());
        for (ours, paper) in t[..5].iter().zip(&paper::BWD[..5]) {
            assert_eq!(ours.latency_ms, paper.latency_ms, "{}", ours.name);
            assert_eq!(ours.active_pes, paper.active_pes, "{}", ours.name);
            assert!(ours.nvm_write);
        }
    }

    #[test]
    fn total_latency_within_2pct_of_fig12b() {
        let total: f64 = table(Calibration::date19())
            .iter()
            .map(|c| c.latency_ms)
            .sum();
        assert!(
            (total - paper::BWD_TOTAL_MS).abs() / paper::BWD_TOTAL_MS < 0.02,
            "{total} vs {}",
            paper::BWD_TOTAL_MS
        );
    }

    #[test]
    fn total_energy_within_20pct_of_fig12b() {
        let total: f64 = table(Calibration::date19())
            .iter()
            .map(|c| c.energy_mj)
            .sum();
        assert!(
            (total - paper::BWD_TOTAL_MJ).abs() / paper::BWD_TOTAL_MJ < 0.20,
            "{total} vs {}",
            paper::BWD_TOTAL_MJ
        );
    }

    #[test]
    fn ideal_derives_conv_bwd_stride1_within_25pct() {
        let t = table(Calibration::ideal());
        // In the ideal profile conv backward derives from the roofline ×
        // (1+dX)×expansion; check stride-1 layers stay in the right decade
        // relative to each other (CONV2..CONV5 paper: 4.6–5.6 ms).
        for c in &t[1..5] {
            assert_eq!(c.provenance, Provenance::Derived);
            assert!(
                c.latency_ms > 0.3 && c.latency_ms < 6.0,
                "{}: {}",
                c.name,
                c.latency_ms
            );
        }
    }

    #[test]
    fn backward_dominates_forward() {
        // §V: training cost is backward-dominated — the premise for
        // truncating backprop at all.
        let bwd: f64 = table(Calibration::date19())
            .iter()
            .map(|c| c.latency_ms)
            .sum();
        assert!(bwd > 5.0 * paper::FWD_TOTAL_MS);
    }

    #[test]
    fn only_tail_layers_skip_nvm_writes() {
        let t = table(Calibration::date19());
        let flags: Vec<bool> = t.iter().map(|c| c.nvm_write).collect();
        assert_eq!(
            flags,
            vec![true, true, true, true, true, true, true, false, false, false]
        );
    }
}
