//! XTRA2 — endurance ablation: NVM write traffic and wear of a training
//! mission under each topology (the unstated third reason the NVM must
//! stay read-only in flight), plus the **active policy**: the same
//! missions re-run with the [`EnduranceScheduler`] hooked into live
//! `Trainer::run_parallel` training, reporting the modeled wear with
//! the online write scheduler off (naive per-update write-back) and on
//! (coalesced + region-steered) from one run each — the hook's baseline
//! stream *is* the scheduler-off case.

use mramrl_bench::{arg_u64, fmt, knob_meta, Table};
use mramrl_core::{DeploymentSim, Platform, PAPER_DESIGN_POINTS};
use mramrl_env::EnvKind;
use mramrl_mem::tech::TechParams;
use mramrl_mem::{EnduranceScheduler, SchedulerPolicy};
use mramrl_nn::NetworkSpec;
use mramrl_rl::{QAgent, Trainer, TrainerConfig};

fn main() {
    let (_pool, _guard) = mramrl_bench::init_pool_threads();
    let frames = arg_u64("frames", 200);
    let seed = arg_u64("seed", 11);

    let mut t = Table::new(
        "Endurance ablation — one training mission per topology",
        &[
            "Topology",
            "Frames",
            "Platform energy [J]",
            "NVM bytes written",
            "Wear fraction",
            "SFD [m]",
        ],
    );
    let mut sched_t = Table::new(
        "Active policy — EnduranceScheduler hooked into live run_parallel",
        &[
            "Topology",
            "Updates",
            "Bytes (sched off)",
            "Bytes (sched on)",
            "Hot-cell wear off",
            "Hot-cell wear on",
            "Wear delta",
        ],
    );

    for (topo, sram, mram) in PAPER_DESIGN_POINTS {
        let platform = Platform::new(topo, sram, mram).expect("design places");
        let capacity = (platform.mram_capacity_mb() * 1.0e6) as u64;

        // Passive accounting: the metered deployment, as before.
        let report =
            DeploymentSim::new(platform.clone(), EnvKind::IndoorApartment, seed).fly(frames);
        t.row_owned(vec![
            topo.to_string(),
            report.frames.to_string(),
            fmt(report.energy_j, 2),
            report.nvm_bytes_written.to_string(),
            format!("{:.2e}", report.nvm_wear_fraction),
            fmt(f64::from(report.sfd_m), 1),
        ]);

        // Active policy: live parallel training with the scheduler
        // hooked on the learner's round boundary. Its report carries
        // both streams — baseline (scheduler off) and scheduled (on).
        let mut sched = EnduranceScheduler::for_plan(
            platform.placement(),
            TechParams::stt_mram(),
            capacity,
            SchedulerPolicy::date19(),
        );
        let mut cfg = TrainerConfig::online(frames, seed);
        cfg.num_envs = 2;
        let trainer = Trainer::new(cfg);
        let mut agent = QAgent::new(&NetworkSpec::micro(16, 1, 5), seed);
        topo.apply(agent.net_mut());
        let mut fleets = mramrl_bench::train_bench_fleets(16, 2, 2);
        trainer.run_parallel_hooked(&mut agent, &mut fleets, &mut sched);
        let r = sched.report();
        sched_t.row_owned(vec![
            topo.to_string(),
            r.updates.to_string(),
            r.baseline_bytes.to_string(),
            r.scheduled_bytes.to_string(),
            format!("{:.2e}", r.baseline_wear_fraction),
            format!("{:.2e}", r.scheduled_wear_fraction),
            if sched.is_active() {
                format!("{:.0}x", r.wear_reduction_factor)
            } else {
                "write-free".into()
            },
        ]);
    }
    t.print();
    sched_t.print();
    let mut meta = knob_meta();
    meta.push(("frames".into(), frames.to_string()));
    meta.push(("seed".into(), seed.to_string()));
    t.save_with_meta("ablation_endurance", &meta);
    sched_t.save_with_meta("ablation_endurance_scheduler", &meta);
    println!(
        "Reading: the L-topologies never touch the NVM in flight; E2E writes ~GBs per\n\
         minute of flight. On STT-MRAM (1e12 cycles) that is survivable for years —\n\
         latency and energy are the binding constraints, endurance seals RRAM/PCM.\n\
         The scheduler table shows the same E2E stream with the online write scheduler\n\
         engaged: coalescing x steering divides hot-cell wear by the policy product\n\
         while the training bits (curve, weights) are untouched — the hook only\n\
         observes the update counter."
    );
}
