//! XTRA4 — SRAM-capacity × topology design-space sweep: which
//! architectures can train which topologies with a read-only NVM, and
//! what they cost.

use mramrl_bench::{fmt, knob_meta, Table};
use mramrl_core::Topology;
use mramrl_dse::{DesignSpace, ScenarioMix};
use mramrl_mem::TechKind;

fn main() {
    let (_pool, _guard) = mramrl_bench::init_pool_threads();
    // The paper's SRAM break-points (12.7 / 30 / 63 MB) bracketed by an
    // under- and a mid-margin capacity, on the paper's 128 MB STT-MRAM
    // stack: 20 points, SRAM-major.
    let space = DesignSpace {
        sram_mb: vec![8.0, 12.7, 30.0, 45.0, 63.0],
        mram_mb: vec![128.0],
        techs: vec![TechKind::SttMram],
        topologies: Topology::ALL.to_vec(),
        batches: vec![4],
        mixes: vec![ScenarioMix::continuous()],
    };
    let results = mramrl_dse::sweep(&space);
    let mut t = Table::new(
        "Design-space sweep — SRAM capacity × topology",
        &[
            "SRAM [MB]",
            "Topology",
            "Placeable",
            "NVM write-free",
            "SRAM used [MB]",
            "fps @ batch 4",
            "Energy/frame [mJ]",
        ],
    );
    for r in &results {
        let placed = |v: f64, digits| {
            if r.placeable {
                fmt(v, digits)
            } else {
                "-".into()
            }
        };
        t.row_owned(vec![
            fmt(r.config.sram_mb, 1),
            r.config.topology.to_string(),
            if r.placeable { "yes" } else { "no" }.into(),
            if r.nvm_write_free { "yes" } else { "no" }.into(),
            placed(r.sram_used_mb, 2),
            placed(r.fps, 1),
            placed(r.energy_per_frame_mj, 0),
        ]);
    }
    t.print();
    // Analytic sweep: no frames/seed axis, but the knob snapshot still
    // documents the run environment.
    t.save_with_meta("ablation_design_space", &knob_meta());

    println!("Write-free frontier (min SRAM per topology):");
    for topo in Topology::ALL {
        let min_sram = results
            .iter()
            .filter(|r| r.config.topology == topo && r.nvm_write_free)
            .map(|r| r.config.sram_mb)
            .min_by(f64::total_cmp);
        match min_sram {
            Some(mb) => println!("  {topo}: {mb} MB"),
            None => println!("  {topo}: never write-free"),
        }
    }
}
