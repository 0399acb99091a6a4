//! Cross-checks the deployment simulator's endurance accounting against
//! the `mramrl_mem` primitives it is built from: an independent
//! `WearTracker` fed the reported byte count must land on the same wear
//! fraction, and the `EnduranceScheduler`'s baseline stream must
//! reproduce the iteration-side write traffic.

use mramrl_core::{DeploymentSim, Platform, Topology, PAPER_DESIGN_POINTS};
use mramrl_env::EnvKind;
use mramrl_mem::tech::TechParams;
use mramrl_mem::{EnduranceScheduler, SchedulerPolicy, WearTracker};

const FRAMES: u64 = 120;

fn paper_platform(topo: Topology) -> Platform {
    let (t, sram, mram) = PAPER_DESIGN_POINTS
        .into_iter()
        .find(|(t, _, _)| *t == topo)
        .expect("topology in paper table");
    Platform::new(t, sram, mram).expect("paper point places")
}

#[test]
fn deployment_wear_matches_independent_tracker() {
    let platform = paper_platform(Topology::E2E);
    let capacity = (platform.mram_capacity_mb() * 1.0e6) as u64;
    let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(FRAMES);

    let mut tracker = WearTracker::new(TechParams::stt_mram(), capacity);
    tracker.record_write_bytes(report.nvm_bytes_written);
    assert_eq!(
        tracker.wear_fraction().to_bits(),
        report.nvm_wear_fraction.to_bits(),
        "deployment wear fraction must equal a WearTracker fed the same bytes"
    );
    // The fraction is exactly cycles / endurance for the stack technology.
    let endurance = TechParams::stt_mram().endurance_writes.unwrap() as f64;
    assert!((tracker.cell_cycles() / endurance - report.nvm_wear_fraction).abs() < 1e-15);
}

#[test]
fn write_free_paper_points_report_zero_wear() {
    for (topo, _, _) in PAPER_DESIGN_POINTS {
        if topo == Topology::E2E {
            continue;
        }
        let report =
            DeploymentSim::new(paper_platform(topo), EnvKind::IndoorApartment, 7).fly(FRAMES);
        assert_eq!(report.nvm_bytes_written, 0, "{topo}");
        assert_eq!(report.nvm_wear_fraction, 0.0, "{topo}");
    }
}

#[test]
fn scheduler_baseline_reproduces_deployment_iteration_traffic() {
    let platform = paper_platform(Topology::E2E);
    let capacity = (platform.mram_capacity_mb() * 1.0e6) as u64;
    let per_frame = platform.placement().nvm_rmw_bytes_per_frame();
    // The scheduler reads its per-update write-back off the same plan.
    let mut sched = EnduranceScheduler::for_plan(
        platform.placement(),
        TechParams::stt_mram(),
        capacity,
        SchedulerPolicy::passthrough(),
    );
    let report = DeploymentSim::new(platform, EnvKind::IndoorApartment, 7).fly(FRAMES);

    // The deployment write model is the placement's write stream: one
    // write-back per iteration plus the per-frame spilled-gradient RMW.
    // A passthrough scheduler's baseline stream, advanced one update per
    // iteration, must account for the iteration half exactly.
    let iterations = FRAMES / 4;
    sched.advance_to(iterations);
    assert_eq!(
        sched.baseline_wear().bytes_written() + FRAMES * per_frame,
        report.nvm_bytes_written
    );
}
