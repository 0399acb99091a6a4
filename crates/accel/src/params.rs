//! Aggregate system parameters (Fig. 4(b) + Table 1).

use mramrl_mem::tech::TechParams;
use mramrl_systolic::ArraySpec;

/// Everything Fig. 4(b) lists, in one place.
///
/// # Examples
///
/// ```
/// use mramrl_accel::SystemParams;
///
/// let p = SystemParams::date19();
/// assert_eq!(p.array.total_pes(), 1024);
/// assert_eq!(p.global_buffer_bytes, 30_000_000);
/// assert!((p.peak_tops_per_watt - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// The PE array (32×32, 1 GHz, 4.5 KB RFs, 128-bit links).
    pub array: ArraySpec,
    /// Global buffer capacity in bytes (30 MB).
    pub global_buffer_bytes: u64,
    /// Scratchpad region within the buffer (4.2 MB).
    pub scratchpad_bytes: u64,
    /// STT-MRAM technology (Table 1).
    pub mram: TechParams,
    /// Stack interface width (1024 I/O).
    pub stack_io_bits: u32,
    /// Per-pin stack rate in Gb/s (2.0).
    pub stack_io_gbps: f64,
    /// Operating voltage (0.8 V).
    pub voltage: f64,
    /// Peak efficiency headline (1.5 TOPS/W).
    pub peak_tops_per_watt: f64,
    /// Technology node label.
    pub technology: &'static str,
}

impl SystemParams {
    /// The paper's configuration, verbatim from Fig. 4(b) and Table 1.
    pub fn date19() -> Self {
        Self {
            array: ArraySpec::date19(),
            global_buffer_bytes: 30_000_000,
            scratchpad_bytes: 4_200_000,
            mram: TechParams::stt_mram(),
            stack_io_bits: 1024,
            stack_io_gbps: 2.0,
            voltage: 0.8,
            peak_tops_per_watt: 1.5,
            technology: "NanGate 15nm FreePDK",
        }
    }

    /// STT-MRAM stack read bandwidth, GB/s.
    pub fn mram_read_gbytes_per_s(&self) -> f64 {
        f64::from(self.stack_io_bits) * self.stack_io_gbps / 8.0
    }

    /// STT-MRAM stack write bandwidth, GB/s (write-pulse limited —
    /// `1024 bit / 30 ns ≈ 4.27 GB/s`, the number the co-design pivots on).
    pub fn mram_write_gbytes_per_s(&self) -> f64 {
        f64::from(self.stack_io_bits) / self.mram.write_latency_ns / 8.0
    }

    /// Renders the Fig. 4(b) parameter table as aligned text rows.
    pub fn table(&self) -> Vec<(String, String)> {
        vec![
            ("Technology".into(), self.technology.into()),
            (
                "Number of PEs".into(),
                format!(
                    "{} ({} row, {} column)",
                    self.array.total_pes(),
                    self.array.rows,
                    self.array.cols
                ),
            ),
            (
                "Global buffer/scratchpad".into(),
                format!(
                    "{:.0}MB/{:.1}MB",
                    self.global_buffer_bytes as f64 / 1.0e6,
                    self.scratchpad_bytes as f64 / 1.0e6
                ),
            ),
            (
                "Register file per PE".into(),
                format!("{:.1}KB", f64::from(self.array.pe.rf_bytes) / 1024.0),
            ),
            ("Operation voltage".into(), format!("{}V", self.voltage)),
            ("Clock speed".into(), format!("{}Ghz", self.array.clock_ghz)),
            (
                "Peak throughput".into(),
                format!("{}TOPS/W", self.peak_tops_per_watt),
            ),
            (
                "Arithmetic precision".into(),
                format!("{} bit fixed-point", self.array.pe.word_bits),
            ),
            (
                "Bandwidth between PEs".into(),
                format!("{} bit", self.array.pe.link_bits),
            ),
            (
                "STT-MRAM stack I/O".into(),
                format!("{} pins x {} Gb/s", self.stack_io_bits, self.stack_io_gbps),
            ),
        ]
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        Self::date19()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4b_values() {
        let p = SystemParams::date19();
        assert_eq!(p.array.rows, 32);
        assert_eq!(p.global_buffer_bytes, 30_000_000);
        assert_eq!(p.scratchpad_bytes, 4_200_000);
        assert_eq!(p.voltage, 0.8);
        assert_eq!(p.array.pe.rf_bytes, 4608);
    }

    #[test]
    fn stack_bandwidths() {
        let p = SystemParams::date19();
        assert!((p.mram_read_gbytes_per_s() - 256.0).abs() < 1e-9);
        assert!((p.mram_write_gbytes_per_s() - 4.2667).abs() < 1e-3);
    }

    #[test]
    fn table_covers_fig4b_rows() {
        let t = SystemParams::date19().table();
        assert!(t.len() >= 9);
        assert!(t
            .iter()
            .any(|(k, v)| k == "Number of PEs" && v.contains("1024")));
        assert!(t.iter().any(|(_, v)| v.contains("16 bit fixed-point")));
    }
}
