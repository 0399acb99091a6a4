//! Design-space exploration: how big an SRAM does each training topology
//! need, and what does each design cost per frame?
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use mramrl::dse::{self, DesignSpace, ScenarioMix};
use mramrl::mem::TechKind;
use mramrl::Topology;

fn main() {
    // SRAM capacities × the four topologies on the paper's 128 MB
    // STT-MRAM stack, at batch 4 with online learning on every frame.
    let space = DesignSpace {
        sram_mb: vec![8.0, 12.7, 30.0, 45.0, 63.0],
        mram_mb: vec![128.0],
        techs: vec![TechKind::SttMram],
        topologies: Topology::ALL.to_vec(),
        batches: vec![4],
        mixes: vec![ScenarioMix::continuous()],
    };
    let results = dse::sweep(&space);
    println!(
        "{:<10} {:<6} {:>10} {:>15} {:>14} {:>12} {:>16}",
        "SRAM [MB]", "topo", "placeable", "NVM write-free", "SRAM used", "fps@4", "mJ/frame"
    );
    for r in &results {
        let placed = |text: String| if r.placeable { text } else { "-".into() };
        println!(
            "{:<10} {:<6} {:>10} {:>15} {:>14} {:>12} {:>16}",
            r.config.sram_mb,
            r.config.topology.to_string(),
            r.placeable,
            r.nvm_write_free,
            placed(format!("{:.2}", r.sram_used_mb)),
            placed(format!("{:.1}", r.fps)),
            placed(format!("{:.0}", r.energy_per_frame_mj)),
        );
    }

    println!("\nWrite-free frontier (the paper's three architectures):");
    for topo in [Topology::L2, Topology::L3, Topology::L4] {
        let min_sram = results
            .iter()
            .filter(|r| r.config.topology == topo && r.nvm_write_free)
            .map(|r| r.config.sram_mb)
            .min_by(f64::total_cmp);
        if let Some(mb) = min_sram {
            println!("  {topo}: ≥ {mb} MB SRAM");
        }
    }
    println!("  E2E: no SRAM size in the sweep keeps the NVM read-only.");
}
