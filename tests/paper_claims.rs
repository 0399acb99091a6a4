//! Integration tests pinning every quantitative claim the paper makes to
//! the reproduction's outputs (the executable counterpart of
//! `make_report`'s `results/REPORT.md`).

use mramrl::accel::{paper, PlatformModel};
use mramrl::dse::{DesignSpace, DseResult, ScenarioMix};
use mramrl::mem::TechKind;
use mramrl::{headline, Calibration, Mission, NetworkSpec, Platform, Topology};

/// The §II-D co-design grid through the design-space evaluator: the
/// given SRAM capacities × the four topologies on the paper's 128 MB
/// STT-MRAM stack, batch 4, learning on every frame.
fn codesign_grid(sram_mb: &[f64]) -> Vec<DseResult> {
    mramrl::dse::sweep(&DesignSpace {
        sram_mb: sram_mb.to_vec(),
        mram_mb: vec![128.0],
        techs: vec![TechKind::SttMram],
        topologies: Topology::ALL.to_vec(),
        batches: vec![4],
        mixes: vec![ScenarioMix::continuous()],
    })
}

fn point(grid: &[DseResult], topo: Topology) -> &DseResult {
    grid.iter()
        .find(|r| r.config.topology == topo)
        .expect("topology in grid")
}

#[test]
fn claim_fig1_fps_equals_v_over_dmin() {
    for (v, name, fps) in paper::FIG1_SPOT_CHECKS {
        let class = mramrl::ENV_CLASSES.iter().find(|c| c.name == name).unwrap();
        assert!((Mission::required_fps(v, class.d_min) - fps).abs() < 0.005);
    }
}

#[test]
fn claim_fig3a_weight_census_exact() {
    let spec = NetworkSpec::date19_alexnet();
    assert_eq!(spec.total_weights(), 56_190_341);
    let census = spec.weight_census();
    let fc_sum: u64 = census
        .iter()
        .filter(|c| c.name.starts_with("FC"))
        .map(|c| c.weights)
        .sum();
    assert_eq!(fc_sum, 52_443_141); // the paper's "sum" row
}

#[test]
fn claim_4_11_26_percent_topologies() {
    let spec = NetworkSpec::date19_alexnet();
    let pct = |k| spec.trainable_fraction_for_tail(k) * 100.0;
    assert!((pct(2) - 3.743).abs() < 0.01); // "4%"
    assert!((pct(3) - 11.21).abs() < 0.01); // "11%"
    assert!((pct(4) - 26.14).abs() < 0.01); // "26%"
}

#[test]
fn claim_fig5_memory_footprints() {
    let p = Platform::proposed().unwrap();
    assert!((p.sram_used_mb() - 29.4).abs() < 0.05);
    assert!((p.placement().mram_weight_mb() - 99.8).abs() < 0.5);
}

#[test]
fn claim_fig12_tables_within_tolerance() {
    let m = PlatformModel::new(Calibration::date19());
    let fwd_ms: f64 = m.forward_table().iter().map(|c| c.latency_ms).sum();
    assert!((fwd_ms - paper::FWD_TOTAL_MS).abs() / paper::FWD_TOTAL_MS < 0.03);
    let bwd_ms: f64 = m.backward_table().iter().map(|c| c.latency_ms).sum();
    assert!((bwd_ms - paper::BWD_TOTAL_MS).abs() / paper::BWD_TOTAL_MS < 0.02);
    // Every derived FC row within 8 % of Fig. 12.
    for (ours, p) in m.forward_table()[5..9].iter().zip(&paper::FWD[5..9]) {
        assert!(
            (ours.latency_ms - p.latency_ms).abs() / p.latency_ms < 0.08,
            "{}",
            p.name
        );
    }
    for (ours, p) in m.backward_table()[5..9].iter().zip(&paper::BWD[5..9]) {
        assert!(
            (ours.latency_ms - p.latency_ms).abs() / p.latency_ms < 0.08,
            "{}",
            p.name
        );
    }
}

#[test]
fn claim_headline_reductions_and_fps() {
    let h = headline(Calibration::date19());
    // "79.4% (83.45%) decrease in latency (energy)" — per Fig. 12 the
    // roles are swapped; both numbers appear, each within a small band.
    assert!((h.latency_reduction_pct - 83.5).abs() < 1.5);
    assert!((h.energy_reduction_pct - 79.4).abs() < 4.0);
    // "for a batch-size of 4, we can support 15fps for L4".
    assert!((h.fps_l4_batch4 - 15.0).abs() < 1.0);
    // "compared to just 3fps for E2E" — ours is ~6 (documented); the
    // infeasibility conclusion (below indoor requirements at speed) holds.
    assert!(h.fps_e2e_batch4 < Mission::required_fps(5.0, 0.7));
    // "more than 3X increase in the velocity of the drone" — we reproduce
    // ≥2× against our (more favourable) E2E model.
    assert!(h.velocity_gain > 2.0);
}

#[test]
fn claim_e2e_not_feasible_on_nvm_platform() {
    // §II-C / §VI: E2E cannot even place on the proposed memories…
    assert!(Platform::new(Topology::E2E, 30.0, 128.0).is_err());
    // …and on an oversized stack it still writes the NVM in flight.
    let p = Platform::new(Topology::E2E, 30.0, 256.0).unwrap();
    assert!(!p.is_nvm_write_free(Topology::E2E));
    // While all L topologies are write-free on their architectures.
    for (t, sram) in [
        (Topology::L2, 12.7),
        (Topology::L3, 30.0),
        (Topology::L4, 63.0),
    ] {
        assert!(
            Platform::new(t, sram, 128.0).unwrap().is_nvm_write_free(t),
            "{t}"
        );
    }
}

#[test]
fn claim_table1_drives_the_write_wall() {
    // The FC1 backward RMW (the number that kills E2E) follows from
    // Table 1 alone: 75.5 MB / (1024 bit / 30 ns) ≈ 17.7 ms per image.
    let m = PlatformModel::new(Calibration::date19());
    let fc1 = m.backward_table().iter().find(|c| c.name == "FC1").unwrap();
    assert!(fc1.latency_ms > 25.0, "{}", fc1.latency_ms);
    let fc2 = m.backward_table().iter().find(|c| c.name == "FC2").unwrap();
    assert!(fc1.latency_ms > 7.0 * fc2.latency_ms);
}

#[test]
fn claim_orderings_hold_without_anchoring() {
    // Everything the paper *concludes* must survive the ideal (fully
    // derived, zero-anchored) profile.
    let m = PlatformModel::new(Calibration::ideal());
    let per = |t| m.per_image(t).total_ms();
    assert!(per(Topology::L2) < per(Topology::L3));
    assert!(per(Topology::L3) < per(Topology::L4));
    assert!(per(Topology::L4) < per(Topology::E2E) / 3.0);
    let h = headline(Calibration::ideal());
    assert!(h.latency_reduction_pct > 50.0);
    assert!(h.energy_reduction_pct > 50.0);
}

#[test]
fn claim_write_free_sram_thresholds() {
    // §II-D's three embedded architectures: L2 trains without NVM writes
    // from 12.7 MB of SRAM, L3 from 30 MB, L4 from 63 MB; E2E never.
    let grid = codesign_grid(&[8.0, 12.7, 30.0, 45.0, 63.0]);
    let min_sram = |topo| {
        grid.iter()
            .filter(|r| r.config.topology == topo && r.nvm_write_free)
            .map(|r| r.config.sram_mb)
            .min_by(f64::total_cmp)
    };
    assert_eq!(min_sram(Topology::L2), Some(12.7));
    assert_eq!(min_sram(Topology::L3), Some(30.0));
    assert_eq!(min_sram(Topology::L4), Some(63.0));
    assert_eq!(min_sram(Topology::E2E), None);
}

#[test]
fn claim_30mb_sram_trains_l2_and_l3_write_free() {
    let row = codesign_grid(&[30.0]);
    assert!(point(&row, Topology::L2).nvm_write_free);
    assert!(point(&row, Topology::L3).nvm_write_free);
    // L4 places but is degraded: FC2 writes the stack on every update.
    let l4 = point(&row, Topology::L4);
    assert!(l4.placeable && !l4.nvm_write_free);
    assert!(l4.nvm_write_bytes_per_s > 0.0);
    assert!(!point(&row, Topology::E2E).placeable);
}

#[test]
fn claim_write_free_capacity_buys_fps_and_energy() {
    // Figs. 5 and 13: keeping the trained tail on-die is what buys the
    // frame rate. A capacity that places the tail but writes the stack
    // (MRAM-resident weights written back per update, spilled gradients
    // read-modify-written per image) is slower and costlier per frame
    // than the capacity that keeps it write-free.
    let grid = codesign_grid(&[8.0, 12.7, 30.0, 63.0]);
    let at = |topo, sram| {
        grid.iter()
            .find(|r| r.config.topology == topo && r.config.sram_mb == sram)
            .expect("point in grid")
    };
    for (topo, tight, roomy) in [
        (Topology::L2, 8.0, 12.7),
        (Topology::L3, 12.7, 30.0),
        (Topology::L4, 30.0, 63.0),
    ] {
        let (t, r) = (at(topo, tight), at(topo, roomy));
        assert!(t.placeable && !t.nvm_write_free, "{topo} @ {tight}");
        assert!(r.nvm_write_free, "{topo} @ {roomy}");
        assert!(t.fps < r.fps, "{topo}: {} vs {} fps", t.fps, r.fps);
        assert!(
            t.energy_per_frame_mj > r.energy_per_frame_mj,
            "{topo}: {} vs {} mJ",
            t.energy_per_frame_mj,
            r.energy_per_frame_mj
        );
    }
}

#[test]
fn claim_smaller_tails_sustain_higher_fps() {
    let row = codesign_grid(&[63.0]);
    let fps = |topo| point(&row, topo).fps;
    assert!(fps(Topology::L2) > fps(Topology::L3));
    assert!(fps(Topology::L3) > fps(Topology::L4));
}
