//! Machine-readable serving throughput/latency: writes `BENCH_serve.json`.
//!
//! Drives the `mramrl_serve` dynamic-batching service with a closed
//! loop of synthetic drone clients (each thread submits its next
//! observation as soon as its previous decision returns) and measures
//! client-side request latency (p50/p99) and sustained decisions/sec,
//! serving the Fig. 3(a)-proportioned micro AlexNet Q8.8 snapshot
//! ([`mramrl_bench::batch_td_qnet`]).
//!
//! Two modes, same load:
//!
//! * `coalesced` — batch cap 32 with a 2 ms deadline, the serving
//!   configuration the crate exists for;
//! * `batch1` — batch cap 1, zero deadline: the request-per-call
//!   baseline every coalescing claim is measured against.
//!
//! The JSON records both cells plus `speedup_coalesced_vs_batch1`
//! (acceptance bar: ≥ 3× — the engine's
//! own batch-32 vs batch-1 ratio is ~6×, see `BENCH_batch.json`, so
//! the serving layer must preserve at least half of it end-to-end).
//!
//! Flags: `--clients N` (default 32), `--requests M` per client
//! (default 20), `--tiny` (16×16 smoke-test net;
//! smoke tests pass `--tiny --clients 4 --requests 3`).

use std::sync::Arc;
use std::time::Instant;

use mramrl_bench::{
    arg_u64, batch_td_qnet, batch_td_spec, batch_td_spec_tiny, batch_td_transitions, fmt,
    save_bench_json, Table,
};
use mramrl_nn::Tensor;
use mramrl_serve::{ServeConfig, Service, SnapshotStore};

struct Cell {
    mode: &'static str,
    max_batch: usize,
    max_delay_us: u64,
    p50_us: f64,
    p99_us: f64,
    decisions_per_sec: f64,
    avg_batch: f64,
    max_batch_seen: u64,
}

/// Percentile (nearest-rank) of an ascending-sorted latency list, µs.
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

fn run_mode(
    mode: &'static str,
    net: Arc<mramrl_nn::QuantizedNet>,
    max_batch: usize,
    max_delay_us: u64,
    clients: usize,
    per_client: usize,
    obs: &[Tensor],
) -> Cell {
    let service = Service::spawn(
        Arc::new(SnapshotStore::new(net)),
        ServeConfig {
            max_batch,
            max_delay_us,
            pool: None,
        },
    );
    let t0 = Instant::now();
    let mut workers = Vec::new();
    for c in 0..clients {
        let client = service.client();
        let obs: Vec<Tensor> = obs.to_vec();
        workers.push(std::thread::spawn(move || {
            let mut lat_us = Vec::with_capacity(per_client);
            for i in 0..per_client {
                let o = obs[(c + i) % obs.len()].clone();
                let sent = Instant::now();
                let _ = client.decide(c as u64, o);
                lat_us.push(sent.elapsed().as_nanos() as f64 / 1_000.0);
            }
            lat_us
        }));
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(clients * per_client);
    for w in workers {
        lat_us.extend(w.join().expect("client thread"));
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    assert_eq!(stats.requests, (clients * per_client) as u64);
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Cell {
        mode,
        max_batch,
        max_delay_us,
        p50_us: percentile(&lat_us, 50.0),
        p99_us: percentile(&lat_us, 99.0),
        decisions_per_sec: stats.requests as f64 / wall,
        avg_batch: stats.requests as f64 / stats.batches.max(1) as f64,
        max_batch_seen: stats.max_batch_seen,
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let clients = arg_u64("clients", 32).max(1) as usize;
    let per_client = arg_u64("requests", 20).max(1) as usize;
    let (spec, net_name) = if tiny {
        (batch_td_spec_tiny(), "micro16-tiny")
    } else {
        (batch_td_spec(), "micro40-fc-heavy")
    };
    // Distinct deterministic observations, shared with the batch-TD
    // bench fixtures so the serving cells measure the same frames.
    let obs: Vec<Tensor> = batch_td_transitions(32, spec.input_shape[1])
        .into_iter()
        .map(|t| Arc::try_unwrap(t.state).unwrap_or_else(|a| (*a).clone()))
        .collect();
    let net = Arc::new(batch_td_qnet(&spec));

    let cells = vec![
        run_mode(
            "coalesced",
            Arc::clone(&net),
            32,
            2_000,
            clients,
            per_client,
            &obs,
        ),
        run_mode("batch1", Arc::clone(&net), 1, 0, clients, per_client, &obs),
    ];

    let mut table = Table::new(
        format!(
            "Serving throughput/latency — {net_name}, q8.8, {clients} clients × {per_client} requests"
        ),
        &[
            "mode",
            "max_batch",
            "deadline_us",
            "p50_us",
            "p99_us",
            "decisions/s",
            "avg_batch",
            "max_seen",
        ],
    );
    for c in &cells {
        table.row_owned(vec![
            c.mode.to_string(),
            c.max_batch.to_string(),
            c.max_delay_us.to_string(),
            fmt(c.p50_us, 1),
            fmt(c.p99_us, 1),
            fmt(c.decisions_per_sec, 1),
            fmt(c.avg_batch, 2),
            c.max_batch_seen.to_string(),
        ]);
    }
    table.print();
    table.save("bench_serve");

    let speedup = cells[0].decisions_per_sec / cells[1].decisions_per_sec;
    println!("speedup coalesced vs batch1: {speedup:.2}x (bar: >= 3x)");

    let mut json = String::from("{\n  \"bench\": \"serve\",\n");
    json.push_str(&format!(
        "  \"net\": \"{net_name}\",\n  \"clients\": {clients},\n  \"requests_per_client\": {per_client},\n",
    ));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"max_batch\": {}, \"max_delay_us\": {}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"decisions_per_sec\": {:.1}, \"avg_batch\": {:.2}, \
             \"max_batch_seen\": {}}}{}\n",
            c.mode,
            c.max_batch,
            c.max_delay_us,
            c.p50_us,
            c.p99_us,
            c.decisions_per_sec,
            c.avg_batch,
            c.max_batch_seen,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"speedup_coalesced_vs_batch1\": {speedup:.3}\n}}\n"
    ));
    if let Some(path) = save_bench_json("BENCH_serve.json", &json) {
        println!("wrote {}", path.display());
    }
}
