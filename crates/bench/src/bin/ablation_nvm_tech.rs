//! XTRA1 — §III-C ablation: swap the NVM technology and recompute the
//! costs that depend on the write path. Shows the co-design conclusion is
//! portable across NVMs ("all NVM suffer from high write latency and
//! energy; hence the algorithm-hardware co-design ... is applicable to
//! similar other platforms").

use mramrl_accel::SystemParams;
use mramrl_bench::{fmt, knob_meta, Table};
use mramrl_mem::tech::TechParams;
use mramrl_mem::WearTracker;
use mramrl_nn::NetworkSpec;

fn main() {
    let (_pool, _guard) = mramrl_bench::init_pool_threads();
    let spec = NetworkSpec::date19_alexnet();
    // FC1's gradient accumulator is as large as its 16-bit weights.
    let fc1_grad_bytes = spec
        .layer_weight_bytes()
        .into_iter()
        .find_map(|(name, bytes)| (name == "FC1").then_some(bytes))
        .expect("the paper net has an FC1");
    let model_bytes = spec.total_weight_bytes(); // all 56.19 M weights at 16 bit

    let mut t = Table::new(
        "§III-C ablation — the E2E write path under different NVMs",
        &[
            "NVM",
            "Write BW [GB/s]",
            "FC1 grad RMW/image [ms]",
            "Model write-back [ms]",
            "Write-back energy [mJ]",
            "E2E lifetime @336 MB/s",
        ],
    );
    for tech in [
        TechParams::stt_mram(),
        TechParams::rram(),
        TechParams::pcm(),
    ] {
        // Write bandwidth through the paper's stack interface.
        let bw = SystemParams {
            mram: tech.clone(),
            ..SystemParams::date19()
        }
        .mram_write_gbytes_per_s(); // GB/s
        let rmw_ms = fc1_grad_bytes as f64 / bw / 1.0e6;
        let wb_ms = model_bytes as f64 / bw / 1.0e6;
        let wb_mj = model_bytes as f64 * 8.0 * tech.write_energy_pj_per_bit * 1e-9;
        let wear = WearTracker::new(tech.clone(), 128_000_000);
        let life = wear
            .lifetime_years(336.0e6)
            .map_or("unlimited".to_string(), |y| format!("{y:.1} years"));
        t.row_owned(vec![
            tech.kind.to_string(),
            fmt(bw, 2),
            fmt(rmw_ms, 1),
            fmt(wb_ms, 1),
            fmt(wb_mj, 1),
            life,
        ]);
    }
    t.print();
    t.save_with_meta("ablation_nvm_tech", &knob_meta());

    println!(
        "Reading: every NVM makes per-image gradient write-back prohibitive (tens of ms\n\
         per image on STT-MRAM, worse elsewhere), and RRAM/PCM additionally wear out in\n\
         under ~15 years of E2E training — the TL + SRAM-tail co-design avoids all of it."
    );
}
