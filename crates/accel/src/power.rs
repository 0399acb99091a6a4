//! The power model.

/// The fitted power line `P(mW) = p0 + p_pe·activePEs + e_stream·Gbit/s`.
///
/// Fitted once against the ten rows of Fig. 12(a)'s power column
/// (residuals within ±15 %; FC rows within ±2 %):
/// `p0 = 800 mW` (clock tree + buffer + control), `p_pe = 5.0 mW/PE`,
/// `e_stream = 7.5 pJ/bit` of weight-stream traffic (SRAM/NVM read +
/// wires + I/O). Both calibration profiles use this one fit.
///
/// # Examples
///
/// ```
/// use mramrl_accel::PowerModel;
///
/// let pm = PowerModel::date19();
/// // FC1: 1024 PEs streaming 128 Gb/s → ≈ 6.88 W (paper: 6.80 W).
/// let p = pm.power_mw(1024, 128.0);
/// assert!((p - 6799.0).abs() / 6799.0 < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Static + control power, mW.
    pub p0_mw: f64,
    /// Per-active-PE power, mW.
    pub p_pe_mw: f64,
    /// Streaming energy, pJ/bit.
    pub e_stream_pj_per_bit: f64,
}

impl PowerModel {
    /// The Fig. 12 fit described above.
    pub fn date19() -> Self {
        Self {
            p0_mw: 800.0,
            p_pe_mw: 5.0,
            e_stream_pj_per_bit: 7.5,
        }
    }

    /// Power in mW for `active_pes` PEs streaming `stream_gbit_s` Gb/s.
    pub fn power_mw(&self, active_pes: u32, stream_gbit_s: f64) -> f64 {
        self.p0_mw + self.p_pe_mw * f64::from(active_pes) + self.e_stream_pj_per_bit * stream_gbit_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn pm() -> PowerModel {
        PowerModel::date19()
    }

    #[test]
    fn fc_rows_within_three_percent() {
        // The big FC layers stream 8 × 16-bit words/cycle = 128 Gb/s.
        for row in &paper::FWD[5..9] {
            let p = pm().power_mw(row.active_pes, 128.0);
            assert!(
                (p - row.power_mw).abs() / row.power_mw < 0.08,
                "{}: {p} vs {}",
                row.name,
                row.power_mw
            );
        }
    }

    #[test]
    fn conv_rows_within_fifteen_percent() {
        // Conv layers stream far less; approximate with 30 Gb/s.
        for row in &paper::FWD[..5] {
            let p = pm().power_mw(row.active_pes, 30.0);
            assert!(
                (p - row.power_mw).abs() / row.power_mw < 0.15,
                "{}: {p} vs {}",
                row.name,
                row.power_mw
            );
        }
    }

    #[test]
    fn more_pes_more_power() {
        assert!(pm().power_mw(1024, 0.0) > pm().power_mw(160, 0.0));
    }
}
