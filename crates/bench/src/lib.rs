//! Reproduction harness utilities: table rendering, CSV output, run modes.
//!
//! Each paper artifact has one binary in `src/bin/` (see DESIGN.md §4).
//! Binaries print the table/series to stdout and write a CSV under
//! `results/` (override with `MRAMRL_RESULTS`). Learning-curve binaries
//! run at a quick scale by default; pass `--full` for the DESIGN.md §6
//! full scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// A printable/saveable table.
///
/// # Examples
///
/// ```
/// use mramrl_bench::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&["1", "2"]);
/// assert!(t.to_markdown().contains("| 1 | 2 |"));
/// assert_eq!(t.to_csv(), "x,y\n1,2\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs headers");
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = format!("### {}\n\n", self.title);
        s.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        s.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for r in &self.rows {
            s.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        s
    }

    /// Renders CSV (no quoting: cells are numeric/simple by construction).
    pub fn to_csv(&self) -> String {
        let mut s = self.headers.join(",");
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        s
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Writes the CSV into the results dir as `<name>.csv`, returning the
    /// path (best-effort: IO errors are reported to stderr, not fatal —
    /// reproduction output still reaches stdout).
    pub fn save(&self, name: &str) -> Option<PathBuf> {
        self.save_with_meta(name, &[])
    }

    /// Like [`Table::save`], but prefixes the CSV with `# key=value`
    /// comment lines recording the active run configuration (knobs,
    /// seeds, frame counts) — so a saved table says how it was made.
    pub fn save_with_meta(&self, name: &str, meta: &[(String, String)]) -> Option<PathBuf> {
        let dir = results_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return None;
        }
        let path = dir.join(format!("{name}.csv"));
        let mut body = String::new();
        for (k, v) in meta {
            body.push_str(&format!("# {k}={v}\n"));
        }
        body.push_str(&self.to_csv());
        match fs::write(&path, body) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The standard knob snapshot every figure binary records in its saved
/// table ([`Table::save_with_meta`]): the installed pool width and
/// whether the SIMD kernel tier is active. Call it *after*
/// [`init_pool_threads`] so the values reflect what the run actually
/// used.
pub fn knob_meta() -> Vec<(String, String)> {
    vec![
        (
            "pool_threads".to_string(),
            mramrl_nn::pool::current_threads().to_string(),
        ),
        (
            "simd".to_string(),
            mramrl_nn::simd::simd_active().to_string(),
        ),
    ]
}

/// The results directory (`MRAMRL_RESULTS` or `./results`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MRAMRL_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Where a machine-readable bench artifact (`BENCH_*.json`) goes: the
/// `MRAMRL_RESULTS` dir when set (isolated runs, smoke tests), else the
/// repository root / current directory — so committed perf trajectories
/// like `BENCH_batch.json` live next to the code they measure.
pub fn bench_json_path(file_name: &str) -> PathBuf {
    std::env::var_os("MRAMRL_RESULTS")
        .map(|d| PathBuf::from(d).join(file_name))
        .unwrap_or_else(|| PathBuf::from(file_name))
}

/// Writes a JSON string to [`bench_json_path`] (best-effort, like
/// [`Table::save`]); returns the path on success.
pub fn save_bench_json(file_name: &str, json: &str) -> Option<PathBuf> {
    let path = bench_json_path(file_name);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return None;
            }
        }
    }
    match fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// `true` if `--full` (or `MRAMRL_FULL=1`) was requested.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
        || std::env::var("MRAMRL_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Parses `--name value` from argv, with a default.
pub fn arg_u64(name: &str, default: u64) -> u64 {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| *a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Resolves the worker-pool size for a figure binary: `--pool-threads N`
/// wins, else the ambient global pool (the `NN_POOL_THREADS` knob).
/// Installs a fresh in-process [`mramrl_nn::pool::ThreadPool`] via
/// [`mramrl_nn::pool::install_handle`] — the same injection
/// `bench_batch_json` uses, no env-var games — and returns the pool with
/// its install guard. Keep the returned pair alive for the whole of
/// `main`; dropping it uninstalls the pool.
pub fn init_pool_threads() -> (
    mramrl_nn::pool::ThreadPool,
    mramrl_nn::pool::HandleInstallGuard,
) {
    let threads =
        arg_u64("pool-threads", mramrl_nn::pool::global().threads() as u64).max(1) as usize;
    let pool = mramrl_nn::pool::ThreadPool::new(threads);
    let guard = mramrl_nn::pool::install_handle(pool.handle());
    eprintln!("pool threads: {}", pool.threads());
    (pool, guard)
}

/// The batched-TD benchmark network: the 40×40 micro-AlexNet conv trunk
/// with its FC tail re-proportioned to the paper's Fig. 3(a) census
/// (~97 % of weights in the FC layers — the composition whose online
/// training the whole co-design exploits). Shared by the
/// `bench_batch_json` emitter and the repository benchmark under
/// `perfbench/`, so both measure the same network.
pub fn batch_td_spec() -> mramrl_nn::NetworkSpec {
    use mramrl_nn::LayerSpec;
    let mut spec = mramrl_nn::NetworkSpec::micro(40, 1, 5);
    let mut fc_dims = [1024usize, 512, 512, 256, 5].into_iter();
    let mut prev = 0usize;
    for l in spec.layers.iter_mut() {
        if let LayerSpec::Fc { in_f, out_f, .. } = l {
            if prev != 0 {
                *in_f = prev;
            }
            *out_f = fc_dims.next().expect("five FC layers in the micro net");
            prev = *out_f;
        }
    }
    spec.validate().expect("re-proportioned spec must chain");
    spec
}

/// Tiny stand-in for [`batch_td_spec`] (16×16 micro net): same code
/// paths, seconds instead of minutes — what the smoke tests time.
pub fn batch_td_spec_tiny() -> mramrl_nn::NetworkSpec {
    mramrl_nn::NetworkSpec::micro(16, 1, 5)
}

/// The batch sizes every batch-TD measurement reports: 1 (batching
/// overhead floor), 8, 32 (the acceptance-bar point).
pub const BATCH_TD_SIZES: [usize; 3] = [1, 8, 32];

/// Deterministic synthetic transitions for the batch-TD workload
/// (`hw`×`hw` depth images, mixed actions/terminals), used by the
/// `bench_batch_json` and `bench_serve_json` emitters.
pub fn batch_td_transitions(n: usize, hw: usize) -> Vec<mramrl_rl::Transition> {
    let fill = |len: usize, seed: u32| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(seed.wrapping_mul(0x9E37_79B9));
                (h % 2000) as f32 / 1000.0 - 1.0
            })
            .collect()
    };
    (0..n)
        .map(|i| mramrl_rl::Transition {
            state: std::sync::Arc::new(mramrl_nn::Tensor::from_vec(
                &[1, hw, hw],
                fill(hw * hw, i as u32),
            )),
            action: i % 5,
            reward: 0.1 * (i % 7) as f32 - 0.2,
            next_state: std::sync::Arc::new(mramrl_nn::Tensor::from_vec(
                &[1, hw, hw],
                fill(hw * hw, (i + 1000) as u32),
            )),
            terminal: i % 11 == 0,
        })
        .collect()
}

/// Rollout fleets for the train-throughput cells: `n` fleets × `k`
/// lanes of deterministic `hw`×`hw`-camera indoor worlds, flat-seeded
/// like `Trainer::build_fleets` so every topology-under-test steps the
/// identical lane set.
pub fn train_bench_fleets(hw: usize, n: usize, k: usize) -> Vec<mramrl_env::VecEnv> {
    let envs: Vec<mramrl_env::DroneEnv> = (0..n * k)
        .map(|i| {
            mramrl_env::DroneEnv::new(
                mramrl_env::EnvKind::IndoorApartment,
                42u64.wrapping_add(i as u64),
            )
            .with_camera(mramrl_env::DepthCamera::new(hw, hw, 1.5, 20.0, 0.01))
        })
        .collect();
    mramrl_env::VecEnv::from_envs(envs).split(n)
}

/// The [`mramrl_rl::QAgent`] on `spec` that both batch-TD
/// measurements drive.
pub fn batch_td_agent(spec: &mramrl_nn::NetworkSpec) -> mramrl_rl::QAgent {
    mramrl_rl::QAgent::new(spec, 42)
}

/// The Q8.8 deployment-mode engine snapshot of the batch-TD workload
/// net — what the quantised-inference bench cells drive. Shares seed 42
/// with [`batch_td_agent`] so the float and fixed-point cells measure
/// the same weights.
pub fn batch_td_qnet(spec: &mramrl_nn::NetworkSpec) -> mramrl_nn::QuantizedNet {
    mramrl_nn::QuantizedNet::from_network(spec, &spec.build(42))
        .expect("spec-built net always snapshots")
}

/// Stacks the first `n` transitions' states into one `[n, 1, hw, hw]`
/// observation batch (the inference-cell input).
pub fn batch_td_obs(ts: &[mramrl_rl::Transition], n: usize) -> mramrl_nn::Tensor {
    let mut shape = vec![n];
    shape.extend_from_slice(ts[0].state.shape());
    let mut data = Vec::with_capacity(n * ts[0].state.len());
    for t in &ts[..n] {
        data.extend_from_slice(t.state.data());
    }
    mramrl_nn::Tensor::from_vec(&shape, data)
}

/// Formats a float with `digits` decimals, trimming to a compact cell.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Signed-percent formatter (`+3.2%` / `-1.0%`).
pub fn fmt_pct(v: f64) -> String {
    format!("{v:+.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_shapes() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1", "2"]);
        t.row_owned(vec!["3".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.contains("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.to_csv().lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_pct(3.21), "+3.2%");
        assert_eq!(fmt_pct(-1.0), "-1.0%");
    }

    #[test]
    fn results_dir_default() {
        if std::env::var_os("MRAMRL_RESULTS").is_none() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }

    #[test]
    fn arg_default_when_absent() {
        assert_eq!(arg_u64("definitely-not-passed", 7), 7);
    }

    #[test]
    fn knob_meta_covers_the_standard_knobs() {
        let meta = knob_meta();
        for key in ["pool_threads", "simd"] {
            assert!(meta.iter().any(|(k, _)| k == key), "missing {key}");
        }
    }

    #[test]
    fn save_with_meta_prefixes_comment_lines() {
        let dir = std::env::temp_dir().join("mramrl_meta_test");
        std::env::set_var("MRAMRL_RESULTS", &dir);
        let mut t = Table::new("T", &["a"]);
        t.row(&["1"]);
        let path = t
            .save_with_meta("meta_demo", &[("seed".into(), "42".into())])
            .unwrap();
        std::env::remove_var("MRAMRL_RESULTS");
        let body = fs::read_to_string(path).unwrap();
        assert!(body.starts_with("# seed=42\n"));
        assert!(body.ends_with("a\n1\n"));
        let _ = fs::remove_dir_all(dir);
    }
}
