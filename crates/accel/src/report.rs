//! Ours-vs-paper comparison helpers for `make_report`'s
//! `results/REPORT.md`.

use crate::cost::LayerCost;
use crate::paper::PaperLayerRow;

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowComparison {
    /// Layer name.
    pub name: String,
    /// Our latency (ms).
    pub ours_ms: f64,
    /// Paper latency (ms).
    pub paper_ms: f64,
    /// Latency error, percent (signed).
    pub latency_err_pct: f64,
    /// Our energy (mJ).
    pub ours_mj: f64,
    /// Paper energy (mJ).
    pub paper_mj: f64,
    /// Energy error, percent (signed).
    pub energy_err_pct: f64,
    /// Provenance tag ("derived"/"anchored").
    pub provenance: &'static str,
}

/// Pairs a modelled table with the paper reference.
///
/// # Panics
///
/// Panics if the tables have different lengths or misordered names
/// (programming error — both stem from the same network spec).
pub fn compare_rows(ours: &[LayerCost], paper: &[PaperLayerRow]) -> Vec<RowComparison> {
    assert_eq!(ours.len(), paper.len(), "table length mismatch");
    ours.iter()
        .zip(paper)
        .map(|(o, p)| {
            assert_eq!(o.name, p.name, "row order mismatch");
            RowComparison {
                name: o.name.clone(),
                ours_ms: o.latency_ms,
                paper_ms: p.latency_ms,
                latency_err_pct: (o.latency_ms / p.latency_ms - 1.0) * 100.0,
                ours_mj: o.energy_mj,
                paper_mj: p.energy_mj,
                energy_err_pct: (o.energy_mj / p.energy_mj - 1.0) * 100.0,
                provenance: match o.provenance {
                    crate::cost::Provenance::Derived => "derived",
                    crate::cost::Provenance::Anchored => "anchored",
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::paper;
    use crate::training::PlatformModel;

    #[test]
    fn forward_comparison_all_rows() {
        let m = PlatformModel::new(Calibration::date19());
        let cmp = compare_rows(m.forward_table(), &paper::FWD);
        assert_eq!(cmp.len(), 10);
        // Anchored conv rows: exactly zero latency error.
        for row in &cmp[..5] {
            assert_eq!(row.provenance, "anchored");
            assert!(row.latency_err_pct.abs() < 1e-9);
        }
        // Derived FC rows: small error.
        for row in &cmp[5..9] {
            assert_eq!(row.provenance, "derived");
            assert!(
                row.latency_err_pct.abs() < 6.0,
                "{}: {}",
                row.name,
                row.latency_err_pct
            );
        }
    }

    #[test]
    fn backward_comparison_derived_fc() {
        let m = PlatformModel::new(Calibration::date19());
        let cmp = compare_rows(m.backward_table(), &paper::BWD);
        let fc1 = cmp.iter().find(|r| r.name == "FC1").unwrap();
        assert_eq!(fc1.provenance, "derived");
        assert!(fc1.latency_err_pct.abs() < 3.0, "{}", fc1.latency_err_pct);
    }
}
