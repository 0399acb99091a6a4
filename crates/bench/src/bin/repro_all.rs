//! Runs the whole reproduction suite in order, writing every CSV into
//! `results/`. Learning-curve experiments run at quick scale unless
//! `--full` is passed (budget minutes for `--full`).
//!
//! Every flag is forwarded verbatim to each child binary, so
//! `repro_all -- --iters 2 --tl 2` shrinks every learning-curve
//! experiment at once. The GEMM kernels' AVX2 lanes are switched by
//! `NN_SIMD` (see `docs/gemm_backends.md`), which changes speed, never
//! a bit of the results.

use std::path::Path;
use std::process::Command;

/// `cargo run --bin repro_all` builds only this binary, so on a cold
/// target dir the siblings may not exist yet — build them before
/// dispatching rather than failing one by one.
fn ensure_siblings(dir: &Path, bins: &[&str]) {
    if bins.iter().all(|b| dir.join(b).exists()) {
        return;
    }
    eprintln!("repro_all: sibling binaries missing; running `cargo build -p mramrl_bench --bins`");
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "-p", "mramrl_bench", "--bins"]);
    if dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    match cmd.status() {
        Ok(s) if s.success() => {}
        Ok(s) => eprintln!("repro_all: cargo build exited with {s}; continuing anyway"),
        Err(e) => eprintln!("repro_all: cannot invoke cargo ({e}); continuing anyway"),
    }
}

fn run(bin: &str, extra: &[String]) -> bool {
    println!("\n===================================================================");
    println!("== {bin}");
    println!("===================================================================");
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let status = Command::new(dir.join(bin)).args(extra).status();
    match status {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("{bin} exited with {s}");
            false
        }
        Err(e) => {
            eprintln!("cannot run {bin}: {e}");
            false
        }
    }
}

fn main() {
    let extra: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig01_min_fps",
        "fig03_network",
        "fig04_system",
        "table1_mram",
        "fig05_memory_map",
        "fig12_layer_costs",
        "fig13_fps_energy",
        "ablation_nvm_tech",
        "ablation_design_space",
        "ablation_endurance",
        "fig10_learning_curves",
        "fig11_safe_flight",
        "ablation_meta_richness",
        "make_report",
    ];
    let exe = std::env::current_exe().expect("own path");
    ensure_siblings(exe.parent().expect("bin dir"), &bins);
    let mut failed = Vec::new();
    for bin in bins {
        if !run(bin, &extra) {
            failed.push(bin);
        }
    }
    println!("\n===================================================================");
    if failed.is_empty() {
        println!(
            "repro_all: all {} experiments completed; CSVs in results/",
            bins.len()
        );
    } else {
        println!("repro_all: FAILED: {failed:?}");
        std::process::exit(1);
    }
}
