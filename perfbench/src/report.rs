//! The run-context header and the result line.

use std::path::Path;

use crate::stats::Fnv;
use crate::Args;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports: operations attempted and failed, and the
/// metrics of its mode (end to end, or per layer under `--trace 1`).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Records `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("perfbench: {bad} of {n} failed: {what}");
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Prints the metric table, then the JSON result as the last line.
    /// A non-finite value cannot be written as JSON; it is reported as
    /// 0 and counted as a failed operation.
    pub fn print(mut self) {
        for m in &self.metrics {
            println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let mut body = Vec::with_capacity(self.metrics.len());
        let mut non_finite = 0;
        for m in &self.metrics {
            let v = if m.value.is_finite() {
                m.value
            } else {
                eprintln!("perfbench: metric {} is not finite", m.name);
                non_finite += 1;
                0.0
            };
            body.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            ));
        }
        self.failed += non_finite;
        self.attempted = self.attempted.max(1);
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Prints the run-context header: host cores, the resolved GEMM and
/// QGEMM backends, SIMD availability, pool width, seed and the source
/// revision. The backends and pool are the process defaults (the
/// `NN_GEMM_BACKEND` / `NN_POOL_THREADS` knobs), recorded, not pinned.
pub fn print_context(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "context: {{\"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \"seed\": {}, \
         \"nproc\": {}, \"gemm_backend\": \"{}\", \"qgemm_backend\": \"{}\", \
         \"simd_available\": {}, \"simd_active\": {}, \"pool_threads\": {}, \"revision\": \"{}\"}}",
        args.workload,
        u8::from(args.trace),
        args.seconds.as_secs_f64(),
        args.seed,
        nproc,
        mramrl_nn::backend::default_backend().name(),
        mramrl_nn::qgemm::default_backend().name(),
        mramrl_nn::simd::available(),
        mramrl_nn::simd::simd_active(),
        mramrl_nn::pool::global().threads(),
        revision(),
    );
}

/// The git commit when the run sits in a git checkout, else a digest of
/// the sources the benchmark builds (`src`, `crates`, the manifests).
fn revision() -> String {
    if let Some(commit) = git_head(Path::new(".git")) {
        return commit;
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("src-fnv:{:016x}", h.finish())
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            if let Ok(c) = std::fs::read_to_string(git.join(r)) {
                return Some(c.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        let keep = matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        );
        if keep {
            out.push(p.to_path_buf());
        }
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n != "target") {
                collect_files(&path, out);
            }
        }
    }
}
