//! Report rendering: `BENCH_dse.json` and the per-point CSV.
//!
//! Everything except the optional `timing` section is a pure function
//! of the sweep results, which are themselves byte-identical across
//! pool sizes — so the determinism gate renders
//! with `timing = None` and compares whole strings.

use std::fmt::Write as _;

use crate::eval::DseResult;
use crate::space::DesignSpace;

/// Wall-clock measurements of the sweep, serial vs pooled. Lives in its
/// own JSON section precisely because it is the *only* nondeterministic
/// content in the report.
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Serial reference sweep, milliseconds.
    pub serial_ms: f64,
    /// Pooled sweep, milliseconds.
    pub parallel_ms: f64,
    /// Worker count the pooled sweep ran with.
    pub pool_threads: usize,
}

impl SweepTiming {
    /// Serial / parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_infinite() {
        "null".into()
    } else {
        format!("{v:.4}")
    }
}

fn json_life(v: Option<f64>) -> String {
    match v {
        Some(y) => format!("{y:.4}"),
        None => "null".into(),
    }
}

fn point_json(r: &DseResult) -> String {
    let c = &r.config;
    format!(
        "{{\"index\": {}, \"topology\": \"{}\", \"sram_mb\": {}, \"mram_mb\": {}, \
         \"tech\": \"{}\", \"batch\": {}, \"mix\": \"{}\", \"fps\": {}, \
         \"energy_per_frame_mj\": {}, \"train_latency_ms\": {}, \
         \"nvm_write_bytes_per_s\": {}, \"lifetime_years\": {}, \"write_free\": {}}}",
        c.index,
        c.topology,
        c.sram_mb,
        c.mram_mb,
        c.tech,
        c.batch,
        c.mix.name(),
        json_f64(r.fps),
        json_f64(r.energy_per_frame_mj),
        json_f64(r.train_latency_ms),
        json_f64(r.nvm_write_bytes_per_s),
        json_life(r.lifetime_years),
        r.nvm_write_free,
    )
}

fn axis_f64(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(", "))
}

fn axis_str(vals: &[String]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", items.join(", "))
}

/// Renders the machine-readable report. With `timing = None` the output
/// is a pure function of `(space, results, frontier)`.
pub fn render_json(
    space: &DesignSpace,
    results: &[DseResult],
    frontier: &[usize],
    timing: Option<&SweepTiming>,
) -> String {
    let placeable = results.iter().filter(|r| r.placeable).count();
    let write_free = results.iter().filter(|r| r.nvm_write_free).count();

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"dse_pareto\",\n");
    s.push_str("  \"objectives\": [\"fps max\", \"energy_per_frame_mj min\", \"train_latency_ms min\", \"lifetime_years max\"],\n");
    s.push_str("  \"space\": {\n");
    let _ = writeln!(s, "    \"sram_mb\": {},", axis_f64(&space.sram_mb));
    let _ = writeln!(s, "    \"mram_mb\": {},", axis_f64(&space.mram_mb));
    let techs: Vec<String> = space.techs.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(s, "    \"techs\": {},", axis_str(&techs));
    let topos: Vec<String> = space.topologies.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(s, "    \"topologies\": {},", axis_str(&topos));
    let batches: Vec<String> = space.batches.iter().map(|b| b.to_string()).collect();
    let _ = writeln!(s, "    \"batches\": [{}],", batches.join(", "));
    let mixes: Vec<String> = space.mixes.iter().map(|m| m.name().to_string()).collect();
    let _ = writeln!(s, "    \"mixes\": {}", axis_str(&mixes));
    s.push_str("  },\n");
    let _ = writeln!(s, "  \"points\": {},", results.len());
    let _ = writeln!(s, "  \"placeable\": {placeable},");
    let _ = writeln!(s, "  \"write_free\": {write_free},");
    let _ = writeln!(s, "  \"frontier_size\": {},", frontier.len());
    s.push_str("  \"frontier\": [\n");
    for (n, &i) in frontier.iter().enumerate() {
        let comma = if n + 1 < frontier.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{}", point_json(&results[i]), comma);
    }
    s.push_str("  ],\n");
    s.push_str("  \"determinism\": \"every field above is byte-identical across NN_POOL_THREADS in {1,2,7} and NN_SIMD on or off; only `timing` varies run to run\"");
    match timing {
        Some(t) => {
            s.push_str(",\n");
            let _ = writeln!(
                s,
                "  \"timing\": {{\"serial_ms\": {:.1}, \"parallel_ms\": {:.1}, \"pool_threads\": {}, \"speedup\": {:.2}}}",
                t.serial_ms,
                t.parallel_ms,
                t.pool_threads,
                t.speedup()
            );
        }
        None => s.push('\n'),
    }
    s.push_str("}\n");
    s
}

/// Renders every point (not just the frontier) as CSV, with a final
/// `pareto` column.
pub fn render_csv(results: &[DseResult], frontier: &[usize]) -> String {
    let mut s = String::from(
        "index,topology,sram_mb,mram_mb,tech,batch,mix,placeable,write_free,\
         fps,energy_per_frame_mj,train_latency_ms,nvm_write_bytes_per_s,lifetime_years,pareto\n",
    );
    let mut on_frontier = vec![false; results.len()];
    for &i in frontier {
        on_frontier[i] = true;
    }
    for (i, r) in results.iter().enumerate() {
        let c = &r.config;
        let life = match r.lifetime_years {
            Some(y) => format!("{y:.4}"),
            None => "inf".into(),
        };
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{},{}",
            c.index,
            c.topology,
            c.sram_mb,
            c.mram_mb,
            c.tech,
            c.batch,
            c.mix.name(),
            r.placeable,
            r.nvm_write_free,
            r.fps,
            r.energy_per_frame_mj,
            r.train_latency_ms,
            r.nvm_write_bytes_per_s,
            life,
            on_frontier[i],
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::sweep_serial;
    use crate::pareto::pareto_frontier;
    use crate::space::DesignSpace;

    #[test]
    fn json_is_a_pure_function_of_the_results() {
        let space = DesignSpace::tiny();
        let results = sweep_serial(&space);
        let frontier = pareto_frontier(&results);
        let a = render_json(&space, &results, &frontier, None);
        let b = render_json(&space, &results, &frontier, None);
        assert_eq!(a, b);
        assert!(a.contains("\"bench\": \"dse_pareto\""));
        assert!(a.contains("\"points\": 16"));
        assert!(!a.contains("\"timing\""));
    }

    #[test]
    fn timing_section_is_additive() {
        let space = DesignSpace::tiny();
        let results = sweep_serial(&space);
        let frontier = pareto_frontier(&results);
        let bare = render_json(&space, &results, &frontier, None);
        let timed = render_json(
            &space,
            &results,
            &frontier,
            Some(&SweepTiming {
                serial_ms: 100.0,
                parallel_ms: 25.0,
                pool_threads: 4,
            }),
        );
        assert!(timed.contains("\"speedup\": 4.00"));
        // Identical up to the timing section.
        let cut = bare.find("\"determinism\"").unwrap();
        assert_eq!(&bare[..cut], &timed[..cut]);
    }

    #[test]
    fn csv_has_one_row_per_point() {
        let space = DesignSpace::tiny();
        let results = sweep_serial(&space);
        let frontier = pareto_frontier(&results);
        let csv = render_csv(&results, &frontier);
        assert_eq!(csv.lines().count(), results.len() + 1);
        assert!(csv.lines().any(|l| l.ends_with(",true")));
    }

    #[test]
    fn speedup_handles_degenerate_timing() {
        let t = SweepTiming {
            serial_ms: 10.0,
            parallel_ms: 0.0,
            pool_threads: 1,
        };
        assert_eq!(t.speedup(), 0.0);
    }
}
