//! FIG13 — Fig. 13(a): max supported fps vs batch size; Fig. 13(b):
//! per-image training latency/energy and the headline reductions.

use mramrl_accel::{paper, Calibration, PlatformModel, Topology};
use mramrl_bench::{fmt, Table};
use mramrl_core::headline;

fn main() {
    let model = PlatformModel::new(Calibration::date19());

    let mut a = Table::new(
        "Fig. 13(a) — max frames per second vs batch size (date19)",
        &["Topology", "batch 4", "batch 8", "batch 16"],
    );
    for topo in Topology::ALL {
        a.row_owned(vec![
            topo.to_string(),
            fmt(model.max_fps(topo, 4), 1),
            fmt(model.max_fps(topo, 8), 1),
            fmt(model.max_fps(topo, 16), 1),
        ]);
    }
    a.print();
    a.save("fig13a_fps");
    println!(
        "Paper anchors at batch 4: L4 = {} fps (ours {:.1}), E2E = {} fps (ours {:.1}; deviation documented in tests/paper_claims.rs)\n",
        paper::FPS_L4_BATCH4,
        model.max_fps(Topology::L4, 4),
        paper::FPS_E2E_BATCH4,
        model.max_fps(Topology::E2E, 4),
    );

    let mut b = Table::new(
        "Fig. 13(b) — per-image training latency and energy (date19)",
        &["Topology", "Latency [ms]", "Energy [mJ]"],
    );
    for topo in Topology::ALL {
        let c = model.per_image(topo);
        b.row_owned(vec![
            topo.to_string(),
            fmt(c.total_ms(), 2),
            fmt(c.total_mj(), 1),
        ]);
    }
    b.print();
    b.save("fig13b_per_image");

    let h = headline(Calibration::date19());
    println!(
        "Headline (L4 vs E2E): latency -{:.1}% (paper Fig.12-derived: {:.1}%), energy -{:.1}% (paper: {:.1}%)",
        h.latency_reduction_pct,
        paper::LATENCY_REDUCTION_PCT,
        h.energy_reduction_pct,
        paper::ENERGY_REDUCTION_PCT,
    );
    println!(
        "Velocity gain L4/E2E at batch 4: {:.1}x (paper: >3x; our E2E fps is ~2x the paper's, see results/REPORT.md)",
        h.velocity_gain
    );
}
