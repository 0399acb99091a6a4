//! Run-checks for every reproduction binary, not just compile checks.
//!
//! Each test executes one `src/bin/` binary (via the `CARGO_BIN_EXE_*`
//! paths Cargo provides to integration tests) at tiny sizes — the RL
//! binaries with `--iters/--tl/--seeds/--frames` overrides — into a
//! per-test results directory, and asserts on exit status, stdout table
//! markers, and the CSV/report artifacts. The `repro_all` orchestrator is
//! itself run end-to-end with the tiny flags it forwards to its children.

use std::path::PathBuf;
use std::process::Command;

/// Unique per-test results dir under the target tmp space.
fn results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mramrl_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Runs `exe args`, returning stdout; panics on failure with full output.
fn run(exe: &str, args: &[&str], results: &PathBuf) -> String {
    let out = Command::new(exe)
        .args(args)
        .env("MRAMRL_RESULTS", results)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} exited with {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn csv_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "csv"))
                .count()
        })
        .unwrap_or(0)
}

macro_rules! static_bin_smoke {
    ($($test:ident => $exe:expr;)*) => {$(
        #[test]
        fn $test() {
            let dir = results_dir(stringify!($test));
            let stdout = run($exe, &[], &dir);
            assert!(
                stdout.contains("###") || stdout.contains('|'),
                "{} printed no table:\n{stdout}",
                $exe
            );
            assert!(csv_count(&dir) > 0, "{} wrote no CSV into {dir:?}", $exe);
            let _ = std::fs::remove_dir_all(&dir);
        }
    )*};
}

static_bin_smoke! {
    fig01_runs => env!("CARGO_BIN_EXE_fig01_min_fps");
    fig03_runs => env!("CARGO_BIN_EXE_fig03_network");
    fig04_runs => env!("CARGO_BIN_EXE_fig04_system");
    fig05_runs => env!("CARGO_BIN_EXE_fig05_memory_map");
    fig12_runs => env!("CARGO_BIN_EXE_fig12_layer_costs");
    fig13_runs => env!("CARGO_BIN_EXE_fig13_fps_energy");
    table1_runs => env!("CARGO_BIN_EXE_table1_mram");
    ablation_nvm_tech_runs => env!("CARGO_BIN_EXE_ablation_nvm_tech");
    ablation_design_space_runs => env!("CARGO_BIN_EXE_ablation_design_space");
}

#[test]
fn ablation_endurance_runs_tiny() {
    let dir = results_dir("endurance");
    let stdout = run(
        env!("CARGO_BIN_EXE_ablation_endurance"),
        &["--frames", "5"],
        &dir,
    );
    assert!(stdout.contains('|'), "no table:\n{stdout}");
    // The active-policy table: scheduler off vs on from the hooked run.
    assert!(
        stdout.contains("EnduranceScheduler"),
        "no scheduler table:\n{stdout}"
    );
    assert!(stdout.contains("write-free"), "L-topologies not marked");
    assert!(csv_count(&dir) >= 2, "expected passive + scheduler CSVs");
    // Saved tables record the active knob configuration.
    let sched_csv = std::fs::read_to_string(dir.join("ablation_endurance_scheduler.csv"))
        .expect("scheduler CSV saved");
    assert!(sched_csv.contains("# pool_threads="), "{sched_csv}");
    assert!(sched_csv.contains("# frames=5"), "{sched_csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_dse_json_runs_tiny() {
    let dir = results_dir("dse");
    let stdout = run(
        env!("CARGO_BIN_EXE_bench_dse_json"),
        &["--tiny", "--reps", "1"],
        &dir,
    );
    assert!(stdout.contains("Pareto frontier"), "no table:\n{stdout}");
    let json = std::fs::read_to_string(dir.join("BENCH_dse_tiny.json")).expect("JSON artifact");
    for needle in [
        "\"bench\": \"dse_pareto\"",
        "\"frontier_size\"",
        "\"lifetime_years\"",
        "\"speedup\"",
        "\"determinism\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    let csv = std::fs::read_to_string(dir.join("dse_pareto_tiny.csv")).expect("CSV artifact");
    assert!(csv.lines().count() > 16, "CSV misses points:\n{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig10_learning_curves_runs_tiny() {
    let dir = results_dir("fig10");
    let stdout = run(
        env!("CARGO_BIN_EXE_fig10_learning_curves"),
        &["--iters", "4", "--tl", "4"],
        &dir,
    );
    assert!(stdout.contains("Fig. 10"), "no summary:\n{stdout}");
    // One learning-curve CSV per test environment.
    assert!(csv_count(&dir) >= 4, "expected >=4 CSVs in {dir:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig11_safe_flight_runs_tiny() {
    let dir = results_dir("fig11");
    let stdout = run(
        env!("CARGO_BIN_EXE_fig11_safe_flight"),
        &["--iters", "4", "--tl", "4", "--seeds", "1"],
        &dir,
    );
    assert!(stdout.contains("Fig. 11"), "no summary:\n{stdout}");
    assert!(csv_count(&dir) > 0, "no CSV in {dir:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablation_meta_richness_runs_tiny() {
    let dir = results_dir("meta");
    let stdout = run(
        env!("CARGO_BIN_EXE_ablation_meta_richness"),
        &["--iters", "4", "--tl", "4"],
        &dir,
    );
    assert!(stdout.contains('|'), "no table:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_batch_json_runs_tiny() {
    let dir = results_dir("batch_json");
    let stdout = run(
        env!("CARGO_BIN_EXE_bench_batch_json"),
        &["--tiny", "--reps", "1"],
        &dir,
    );
    assert!(stdout.contains('|'), "no table:\n{stdout}");
    assert!(
        stdout.contains("speedup batched(32) vs serial(32)"),
        "no speedup line:\n{stdout}"
    );
    assert!(csv_count(&dir) > 0, "no CSV in {dir:?}");
    let json = std::fs::read_to_string(dir.join("BENCH_batch.json"))
        .expect("BENCH_batch.json written into MRAMRL_RESULTS");
    for needle in [
        "\"bench\": \"batch_td\"",
        "\"speedup_batched32_vs_serial32\"",
        "\"backend\": \"blocked\"",
        // The SIMD tier's cells and acceptance keys (schema-pinned:
        // present even when the host has no AVX2 — the simd column
        // then measures the scalar tile).
        "\"backend\": \"simd\"",
        "\"mode\": \"qgemm-conv1\"",
        "\"qgemm_conv1_gmacs\"",
        "\"qgemm_conv1_shape\": [32, 363, 256]",
        "\"simd_available\"",
        "\"speedup_qgemm_simd_vs_blocked\"",
        // The actor/learner train-throughput family: the single-fleet
        // baseline, the parallel cells, and the regime accounting.
        "\"mode\": \"train-vec\"",
        "\"mode\": \"train-parallel-f32\"",
        "\"mode\": \"train-parallel-q8.8\"",
        "\"speedup_train_parallel_vs_run_vec\"",
        "\"train_regimes\"",
        "\"learner_frac\"",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}:\n{json}");
    }
    assert!(
        stdout.contains("speedup qgemm simd vs blocked"),
        "no qgemm speedup line:\n{stdout}"
    );
    assert!(
        stdout.contains("speedup train-parallel vs best run_vec"),
        "no train speedup line:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_serve_json_runs_tiny() {
    let dir = results_dir("serve_json");
    let stdout = run(
        env!("CARGO_BIN_EXE_bench_serve_json"),
        &["--tiny", "--clients", "4", "--requests", "3"],
        &dir,
    );
    assert!(stdout.contains('|'), "no table:\n{stdout}");
    assert!(
        stdout.contains("speedup coalesced vs batch1"),
        "no speedup line:\n{stdout}"
    );
    assert!(csv_count(&dir) > 0, "no CSV in {dir:?}");
    let json = std::fs::read_to_string(dir.join("BENCH_serve.json"))
        .expect("BENCH_serve.json written into MRAMRL_RESULTS");
    for needle in [
        "\"bench\": \"serve\"",
        "\"mode\": \"coalesced\"",
        "\"mode\": \"batch1\"",
        "\"p50_us\"",
        "\"p99_us\"",
        "\"decisions_per_sec\"",
        "\"speedup_coalesced_vs_batch1\"",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}:\n{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_matrix_runs_tiny() {
    let dir = results_dir("scenario_matrix");
    let stdout = run(
        env!("CARGO_BIN_EXE_scenario_matrix"),
        &[
            "--iters",
            "4",
            "--tl",
            "4",
            "--eval-steps",
            "8",
            "--lanes",
            "2",
        ],
        &dir,
    );
    assert!(stdout.contains('|'), "no table:\n{stdout}");
    // The full grid: every world generator × every degradation level.
    for needle in [
        "narrow-corridor",
        "cluttered-forest",
        "height-band",
        "nominal",
        "degraded",
        "severe",
        "grid-mean SFD E2E",
    ] {
        assert!(
            stdout.contains(needle),
            "stdout missing {needle}:\n{stdout}"
        );
    }
    assert!(csv_count(&dir) > 0, "no CSV in {dir:?}");
    let json = std::fs::read_to_string(dir.join("BENCH_scenarios.json"))
        .expect("BENCH_scenarios.json written into MRAMRL_RESULTS");
    for needle in [
        "\"bench\": \"scenario_matrix\"",
        "\"acting_precision\": \"q8.8\"",
        "\"worlds\": [\"indoor-apartment\", \"outdoor-forest\", \"outdoor-town\", \
         \"narrow-corridor\", \"cluttered-forest\", \"height-band\"]",
        "\"degradations\": [\"nominal\", \"degraded\", \"severe\"]",
        "\"topology\": \"E2E\"",
        "\"sfd_m\"",
        "\"grid_mean_sfd_m\"",
        "\"e2e_severe_retention\"",
        "\"determinism\"",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}:\n{json}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn make_report_writes_report() {
    let dir = results_dir("report");
    run(env!("CARGO_BIN_EXE_make_report"), &[], &dir);
    let report = std::fs::read_to_string(dir.join("REPORT.md")).expect("REPORT.md written");
    for needle in ["Fig. 12(a) forward", "Fig. 13(a) fps matrix", "Headline:"] {
        assert!(report.contains(needle), "REPORT.md missing {needle:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The orchestrator end-to-end: forwards tiny-size flags to every child
/// binary (children that don't know a flag ignore it), so the whole
/// reproduction pipeline is exercised in one pass.
#[test]
fn repro_all_tiny_end_to_end() {
    let dir = results_dir("repro_all");
    let stdout = run(
        env!("CARGO_BIN_EXE_repro_all"),
        &["--iters", "2", "--tl", "2", "--seeds", "1", "--frames", "5"],
        &dir,
    );
    assert!(
        stdout.contains("all 14 experiments completed"),
        "repro_all summary missing:\n{stdout}"
    );
    assert!(
        dir.join("REPORT.md").exists(),
        "repro_all did not produce REPORT.md"
    );
    assert!(csv_count(&dir) >= 10, "expected >=10 CSVs in {dir:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
