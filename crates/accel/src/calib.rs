//! Calibration profiles (see the crate-level fidelity contract).

/// A calibration profile for the platform model: only the values the
/// `ideal` and `date19` profiles set differently. Everything both would
/// set alike (the power fit, the conv GEMM expansion, the frame load, one
/// inference forward per frame) is a model constant, and what lives where
/// on-die is the model's residency input, not a calibration value.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Human-readable profile name.
    pub name: &'static str,
    /// Conv forward latencies pinned to Fig. 12(a) (ms, CONV1..CONV5);
    /// `None` = use the first-principles roofline.
    pub conv_fwd_ms_override: Option<[f64; 5]>,
    /// Conv backward latencies pinned to Fig. 12(b) (ms, CONV1..CONV5);
    /// `None` = derive as `fwd × (1 + dX/fwd MACs) × GEMM expansion`.
    pub conv_bwd_ms_override: Option<[f64; 5]>,
    /// Conv backward active PEs (Fig. 12(b) reports GEMM occupancies that
    /// differ from the forward mapping); `None` = reuse forward mapping.
    pub conv_bwd_active_pes: Option<[u32; 5]>,
    /// Fixed per-training-iteration overhead (batch assembly, control,
    /// DSP hand-off), ms. `date19` fits this single constant to the
    /// Fig. 13(a) anchor `L4 @ batch 4 = 15 fps` without FC2's
    /// write-back. On the paper's 30 MB buffer FC2 is MRAM-resident, so
    /// L4's update also writes its 16.8 MB back (≈3.9 ms per iteration)
    /// and the anchor reads ≈14.9 fps. Refitting would move every
    /// Fig. 13(a) cell, so the constant stays as fitted.
    pub iteration_overhead_ms: f64,
}

impl Calibration {
    /// First-principles profile: everything derived, no paper anchoring.
    pub fn ideal() -> Self {
        Self {
            name: "ideal",
            conv_fwd_ms_override: None,
            conv_bwd_ms_override: None,
            conv_bwd_active_pes: None,
            iteration_overhead_ms: 0.0,
        }
    }

    /// Paper-anchored profile (see the crate-level fidelity contract):
    /// conv latencies and backward occupancies pinned to Fig. 12; one
    /// overhead constant fitted to Fig. 13(a)'s `L4@4 = 15 fps`.
    pub fn date19() -> Self {
        Self {
            name: "date19",
            conv_fwd_ms_override: Some([0.245, 1.087, 0.804, 1.28, 1.116]),
            conv_bwd_ms_override: Some([38.95, 5.518, 4.71, 5.579, 4.661]),
            conv_bwd_active_pes: Some([1024, 432, 260, 260, 208]),
            // Solve 4 / (4·t_frame(L4) + F) = 15 fps with t_frame(L4) =
            // inference fwd (11.93) + train fwd (11.93) + train bwd FC2..5
            // (5.62) + frame load (0.3) ≈ 29.8 ms ⇒ F ≈ 147.5 ms.
            iteration_overhead_ms: 147.5,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::date19()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_expected() {
        let ideal = Calibration::ideal();
        let date19 = Calibration::date19();
        assert!(ideal.conv_fwd_ms_override.is_none());
        assert!(date19.conv_fwd_ms_override.is_some());
        assert_eq!(ideal.iteration_overhead_ms, 0.0);
        assert!(date19.iteration_overhead_ms > 100.0);
    }

    #[test]
    fn date19_overrides_match_fig12() {
        let c = Calibration::date19();
        let fwd = c.conv_fwd_ms_override.unwrap();
        assert_eq!(fwd[0], 0.245);
        assert_eq!(fwd[4], 1.116);
        let bwd = c.conv_bwd_ms_override.unwrap();
        assert_eq!(bwd[0], 38.95);
        assert_eq!(c.conv_bwd_active_pes.unwrap()[4], 208);
    }
}
