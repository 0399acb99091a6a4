//! Assembles the hardware-track ours-vs-paper comparison into one
//! markdown report (`results/REPORT.md`); `tests/paper_claims.rs` pins
//! the same claims as tests.

use std::fmt::Write as _;

use mramrl_accel::{compare_rows, paper, Calibration, PlatformModel, Topology};
use mramrl_bench::results_dir;
use mramrl_core::{headline, Mission, Platform};

fn main() {
    let mut md = String::new();
    let _ = writeln!(md, "# mramrl machine-generated reproduction report\n");

    // Fig. 12 comparisons under both profiles.
    for calib in [Calibration::date19(), Calibration::ideal()] {
        let name = calib.name;
        let model = PlatformModel::new(calib);
        for (title, ours, reference) in [
            ("Fig. 12(a) forward", model.forward_table(), &paper::FWD),
            ("Fig. 12(b) backward", model.backward_table(), &paper::BWD),
        ] {
            let _ = writeln!(md, "## {title} — `{name}` profile\n");
            let _ = writeln!(md, "| layer | ours [ms] | paper [ms] | err | ours [mJ] | paper [mJ] | err | provenance |");
            let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
            for r in compare_rows(ours, reference) {
                let _ = writeln!(
                    md,
                    "| {} | {:.4} | {:.4} | {:+.1}% | {:.3} | {:.3} | {:+.1}% | {} |",
                    r.name,
                    r.ours_ms,
                    r.paper_ms,
                    r.latency_err_pct,
                    r.ours_mj,
                    r.paper_mj,
                    r.energy_err_pct,
                    r.provenance
                );
            }
            let _ = writeln!(md);
        }
    }

    // Fig. 13 + headline.
    let model = PlatformModel::new(Calibration::date19());
    let _ = writeln!(md, "## Fig. 13(a) fps matrix — `date19`\n");
    let _ = writeln!(md, "| topology | batch 4 | batch 8 | batch 16 |");
    let _ = writeln!(md, "|---|---|---|---|");
    for t in Topology::ALL {
        let _ = writeln!(
            md,
            "| {t} | {:.1} | {:.1} | {:.1} |",
            model.max_fps(t, 4),
            model.max_fps(t, 8),
            model.max_fps(t, 16)
        );
    }
    let h = headline(Calibration::date19());
    let _ = writeln!(
        md,
        "\nHeadline: latency −{:.1}% / energy −{:.1}% (L4 vs E2E); L4@4 = {:.1} fps; velocity ×{:.1}.\n",
        h.latency_reduction_pct, h.energy_reduction_pct, h.fps_l4_batch4, h.velocity_gain
    );

    // Mission envelope of the proposed platform.
    if let Ok(p) = Platform::proposed() {
        let _ = writeln!(md, "## Velocity envelope, proposed platform (batch 4)\n");
        let _ = writeln!(md, "| class | d_min [m] | max v [m/s] |");
        let _ = writeln!(md, "|---|---|---|");
        for (c, v) in Mission::velocity_envelope(&p, 4) {
            let _ = writeln!(md, "| {} | {:.1} | {:.1} |", c.name, c.d_min, v);
        }
    }

    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("REPORT.md");
    match std::fs::write(&path, &md) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}; dumping to stdout\n", path.display());
            println!("{md}");
        }
    }
}
