//! Drone-fleet inference serving: dynamic request batching over
//! hot-swappable [`QuantizedNet`](mramrl_nn::QuantizedNet) snapshots.
//!
//! The paper's deployment story (Yoon et al., DATE 2019) is a fleet of
//! drones acting through a frozen STT-MRAM-resident net, and the
//! workspace's own measurements (`BENCH_batch.json`) show batch-32
//! Q8.8 inference is ~6× batch-1 — so a request coalescer is the
//! single biggest serving-throughput lever. This crate is that layer:
//!
//! * [`SnapshotStore`] — a double-buffered, generation-counted holder
//!   for the currently-served Q8.8 snapshot. Online learning publishes
//!   a new snapshot ([`SnapshotStore::publish_agent`] via
//!   [`QAgent::quantized_snapshot_shared`](mramrl_rl::QAgent::quantized_snapshot_shared));
//!   in-flight batches keep the frozen generation alive through their
//!   own `Arc` — a swap can never tear a batch. [`LearnerPublisher`]
//!   wires the actor/learner trainer's target syncs straight into the
//!   store (`Trainer::run_parallel_hooked`), so served decisions track
//!   the newest generation mid-training.
//! * [`Service`] / [`ServiceClient`] — a long-lived worker thread that
//!   coalesces concurrent per-drone requests into engine batches under
//!   the dynamic-batching policy of [`ServeConfig`]: flush when
//!   `max_batch` requests are waiting **or** the oldest request's
//!   latency deadline expires, whichever comes first.
//! * [`decide_batch`] — the shared flush body (stack observations, one
//!   batched engine pass, per-row argmax) used by both the live worker
//!   and the replay harness, so their decisions are the same code path.
//! * [`replay_trace`] / [`RequestTrace`] — the determinism harness: a
//!   trace of logical-time request and publish events replayed through
//!   the identical batching policy produces an [`ActionLog`] that is
//!   **bit-identical** across pool sizes, lanes on or off (the same
//!   discipline as the pool combinators; pinned in
//!   `crates/serve/tests/determinism.rs`).
//!
//! Policy, deadline semantics, snapshot lifecycle and the determinism
//! contract are documented in `docs/serving.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod replay;
mod service;
mod snapshot;

pub use batch::{decide_batch, Decision, ObsRequest};
pub use replay::{replay_trace, ActionLog, ActionRecord, RequestTrace, TraceEvent};
pub use service::{ServeConfig, ServeStats, Service, ServiceClient};
pub use snapshot::{LearnerPublisher, SnapshotStore};
