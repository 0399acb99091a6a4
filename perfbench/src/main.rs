//! The repository benchmark: online-tail vs online-e2e training and
//! fleet serving on the micro40-fc-heavy net, measured end to end and
//! layer by layer. See `README.md` for the workloads, the metrics, the
//! predictions and the public surface this program calls.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload online-tail --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the run-context header and a human-readable table.

mod fixtures;
mod layers;
mod online;
mod report;
mod serve;
mod stats;

use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["online-tail", "online-e2e", "fleet-serve"];

/// Parsed command line.
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// `true`: report the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    report::print_context(&args);
    let outcome = match args.workload.as_str() {
        "online-tail" => online::run(online::Mode::Tail, &args),
        "online-e2e" => online::run(online::Mode::E2e, &args),
        "fleet-serve" => serve::run(&args),
        _ => unreachable!("parse_args validated the workload"),
    };
    outcome.print();
}
