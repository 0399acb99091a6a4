//! Per-layer forward-propagation costs (§IV / Fig. 12(a)).

use mramrl_nn::spec::{LayerSpec, NetworkSpec};
use mramrl_systolic::{ArraySpec, ConvDataflow, ConvMapping, ConvShape, FcMapping, RfPolicy};

use crate::calib::Calibration;
use crate::cost::{LayerCost, Provenance};
use crate::power::PowerModel;

/// The geometry the cost model walks: conv shapes (with resolved input
/// sizes) and FC dimensions, in network order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LayerGeom {
    Conv { name: String, shape: ConvShape },
    Fc { name: String, in_f: u32, out_f: u32 },
}

impl LayerGeom {
    pub(crate) fn name(&self) -> &str {
        match self {
            LayerGeom::Conv { name, .. } | LayerGeom::Fc { name, .. } => name,
        }
    }

    /// Weight bytes at 16-bit (incl. biases).
    pub(crate) fn weight_bytes(&self) -> u64 {
        match self {
            LayerGeom::Conv { shape, .. } => (shape.weights() + u64::from(shape.out_c)) * 2,
            LayerGeom::Fc { in_f, out_f, .. } => {
                (u64::from(*in_f) * u64::from(*out_f) + u64::from(*out_f)) * 2
            }
        }
    }
}

/// Extracts the parameterised-layer geometry from a network spec.
///
/// # Panics
///
/// Panics if the spec does not validate (construction bug, not input).
pub(crate) fn geometry(spec: &NetworkSpec) -> Vec<LayerGeom> {
    let shapes = spec.validate().expect("spec must validate");
    let mut input: Vec<usize> = spec.input_shape.to_vec();
    let mut out = Vec::new();
    for (l, shape_after) in spec.layers.iter().zip(&shapes) {
        match l {
            LayerSpec::Conv {
                name,
                in_c,
                out_c,
                k,
                stride,
                pad,
            } => {
                out.push(LayerGeom::Conv {
                    name: name.clone(),
                    shape: ConvShape::new(
                        input[1] as u32,
                        input[2] as u32,
                        *in_c as u32,
                        *out_c as u32,
                        *k as u32,
                        *k as u32,
                        *stride as u32,
                        *pad as u32,
                    ),
                });
            }
            LayerSpec::Fc { name, in_f, out_f } => out.push(LayerGeom::Fc {
                name: name.clone(),
                in_f: *in_f as u32,
                out_f: *out_f as u32,
            }),
            _ => {}
        }
        input = shape_after.clone();
    }
    out
}

/// Stream rate estimate for a pass: `bits / latency`.
fn stream_gbit_s(bits: f64, latency_ms: f64) -> f64 {
    if latency_ms <= 0.0 {
        0.0
    } else {
        bits / (latency_ms * 1e-3) / 1.0e9
    }
}

/// Computes the Fig. 12(a) forward table for `spec`.
pub(crate) fn forward_costs(
    spec: &NetworkSpec,
    array: &ArraySpec,
    calib: &Calibration,
) -> Vec<LayerCost> {
    let power = PowerModel::date19();
    let mut out = Vec::new();
    let mut conv_idx = 0usize;
    for geom in geometry(spec) {
        match geom {
            LayerGeom::Conv { name, shape } => {
                let mapping = ConvMapping::plan(array, &shape, RfPolicy::Date19)
                    .expect("paper layers always map");
                let flow = ConvDataflow::new(array).forward(&shape, &mapping);
                let roofline_ms = flow.total_cycles as f64 / array.clock_ghz * 1e-6;
                let (latency_ms, provenance) = match &calib.conv_fwd_ms_override {
                    Some(ms) if conv_idx < ms.len() => (ms[conv_idx], Provenance::Anchored),
                    _ => (roofline_ms, Provenance::Derived),
                };
                // Traffic for the power model: weights + inputs + psums.
                let traffic_bits = (flow.ingest_cycles * 128) as f64;
                let stream = stream_gbit_s(traffic_bits, latency_ms);
                let power_mw = power.power_mw(mapping.active_pes, stream);
                out.push(LayerCost {
                    name,
                    latency_ms,
                    active_pes: mapping.active_pes,
                    power_mw,
                    energy_mj: power_mw * latency_ms * 1e-3,
                    nvm_write: false,
                    provenance,
                });
                conv_idx += 1;
            }
            LayerGeom::Fc { name, in_f, out_f } => {
                let mapping = FcMapping::plan(array, in_f, out_f);
                let latency_ms = mapping.latency_ms(array.clock_ghz);
                // FC streams the full weight matrix through the 128-bit
                // ingest links.
                let stream = stream_gbit_s((mapping.weight_words * 16) as f64, latency_ms);
                let power_mw = power.power_mw(mapping.active_pes, stream);
                out.push(LayerCost {
                    name,
                    latency_ms,
                    active_pes: mapping.active_pes,
                    power_mw,
                    energy_mj: power_mw * latency_ms * 1e-3,
                    nvm_write: false,
                    provenance: Provenance::Derived,
                });
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
        forward_costs(&NetworkSpec::date19_alexnet(), &ArraySpec::date19(), &calib)
    }

    #[test]
    fn ten_rows_in_network_order() {
        let t = table(Calibration::date19());
        assert_eq!(t.len(), 10);
        assert_eq!(t[0].name, "CONV1");
        assert_eq!(t[5].name, "FC1");
        assert_eq!(t[9].name, "FC5");
    }

    #[test]
    fn active_pes_match_fig12a_exactly() {
        for (ours, paper) in table(Calibration::date19()).iter().zip(&paper::FWD) {
            assert_eq!(ours.active_pes, paper.active_pes, "{}", ours.name);
        }
    }

    #[test]
    fn fc_latencies_derived_within_six_percent() {
        let t = table(Calibration::date19());
        for (ours, paper) in t[5..9].iter().zip(&paper::FWD[5..9]) {
            assert_eq!(ours.provenance, Provenance::Derived);
            let err = (ours.latency_ms - paper.latency_ms).abs() / paper.latency_ms;
            assert!(
                err < 0.06,
                "{}: {} vs {}",
                ours.name,
                ours.latency_ms,
                paper.latency_ms
            );
        }
    }

    #[test]
    fn anchored_conv_latencies_exact() {
        let t = table(Calibration::date19());
        for (ours, paper) in t[..5].iter().zip(&paper::FWD[..5]) {
            assert_eq!(ours.provenance, Provenance::Anchored);
            assert_eq!(ours.latency_ms, paper.latency_ms, "{}", ours.name);
        }
    }

    #[test]
    fn ideal_conv_rooflines_are_optimistic() {
        let t = table(Calibration::ideal());
        for (ours, paper) in t[..5].iter().zip(&paper::FWD[..5]) {
            assert_eq!(ours.provenance, Provenance::Derived);
            assert!(
                ours.latency_ms < paper.latency_ms,
                "{}: roofline {} vs paper {}",
                ours.name,
                ours.latency_ms,
                paper.latency_ms
            );
        }
    }

    #[test]
    fn total_latency_close_to_paper() {
        let total: f64 = table(Calibration::date19())
            .iter()
            .map(|c| c.latency_ms)
            .sum();
        assert!(
            (total - paper::FWD_TOTAL_MS).abs() / paper::FWD_TOTAL_MS < 0.03,
            "{total}"
        );
    }

    #[test]
    fn total_energy_within_ten_percent() {
        let total: f64 = table(Calibration::date19())
            .iter()
            .map(|c| c.energy_mj)
            .sum();
        assert!(
            (total - paper::FWD_TOTAL_MJ).abs() / paper::FWD_TOTAL_MJ < 0.10,
            "{total} vs {}",
            paper::FWD_TOTAL_MJ
        );
    }

    #[test]
    fn forward_never_writes_nvm() {
        assert!(table(Calibration::date19()).iter().all(|c| !c.nvm_write));
    }

    #[test]
    fn micro_spec_also_costs() {
        let t = forward_costs(
            &NetworkSpec::micro(40, 1, 5),
            &ArraySpec::date19(),
            &Calibration::ideal(),
        );
        assert_eq!(t.len(), 10);
        assert!(t.iter().all(|c| c.latency_ms > 0.0 && c.energy_mj > 0.0));
    }
}
