//! The live serving loop: a worker thread coalescing concurrent
//! requests into engine batches under the dynamic-batching policy.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mramrl_nn::pool::{self, PoolHandle};
use mramrl_nn::QWorkspace;

use crate::batch::{decide_batch, Decision, ObsRequest};
use crate::snapshot::SnapshotStore;

/// Dynamic-batching policy for the serving worker (and the replay
/// harness, which interprets `max_delay_us` in trace logical time).
///
/// A flush happens when `max_batch` requests are waiting **or** the
/// oldest waiting request has been queued for `max_delay_us`, whichever
/// comes first. `max_batch = 1` with a zero deadline degenerates to
/// request-per-call serving — the baseline `bench_serve_json` measures
/// coalescing against.
#[derive(Clone)]
pub struct ServeConfig {
    /// Flush as soon as this many requests are waiting (≥ 1).
    pub max_batch: usize,
    /// Latency deadline in microseconds, measured from the arrival of
    /// the oldest waiting request; a partial batch flushes when it
    /// expires. Zero means never hold a request back for coalescing.
    pub max_delay_us: u64,
    /// Pool the worker thread installs for its engine passes
    /// ([`pool::install_handle`]); `None` leaves the worker on the
    /// process default. Changes throughput only, never results — the
    /// engine is bit-identical at any pool size.
    pub pool: Option<PoolHandle>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay_us: 2_000,
            pool: None,
        }
    }
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeConfig")
            .field("max_batch", &self.max_batch)
            .field("max_delay_us", &self.max_delay_us)
            .field("pool", &self.pool.as_ref().map(PoolHandle::threads))
            .finish()
    }
}

/// Counters the service maintains, readable at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests received by the worker.
    pub requests: u64,
    /// Coalesced flushes (engine passes) performed.
    pub batches: u64,
    /// Largest single flush.
    pub max_batch_seen: u64,
}

#[derive(Default)]
struct StatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    max_batch_seen: AtomicU64,
}

enum SlotState {
    Waiting,
    Done(Decision),
    /// The worker dropped the request without deciding it.
    Failed,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// Settles a waiting slot and wakes its client; a settled slot
    /// keeps its first outcome.
    fn settle(&self, outcome: SlotState) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*st, SlotState::Waiting) {
            *st = outcome;
        }
        self.cv.notify_one();
    }

    fn wait(&self) -> Decision {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match *st {
                SlotState::Done(d) => return d,
                SlotState::Failed => {
                    drop(st);
                    panic!(
                        "serving worker dropped this request undecided \
                         (it panicked mid-flush or exited with the request queued)"
                    );
                }
                SlotState::Waiting => {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// The worker's end of a request's slot. A flush fulfils it; if the
/// worker drops it first — a panic mid-flush unwinds through the batch,
/// or the worker exits with the request still queued — the slot fails,
/// so its client wakes and panics instead of parking forever.
struct Pending(Arc<Slot>);

impl Pending {
    fn fulfill(self, d: Decision) {
        self.0.settle(SlotState::Done(d));
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        self.0.settle(SlotState::Failed);
    }
}

struct Submission {
    req: ObsRequest,
    slot: Pending,
}

/// A long-lived serving loop: one worker thread owns the engine
/// workspace and coalesces requests from any number of
/// [`ServiceClient`]s into batched engine passes.
///
/// The worker performs **one** [`SnapshotStore::snapshot`] load per
/// flush, so every decision of a batch is produced by — and stamped
/// with — exactly one snapshot generation, no matter how publishes
/// interleave with traffic.
///
/// Dropping (or [`Service::shutdown`]-ing) the service waits for the
/// worker, which first drains and answers every already-submitted
/// request; the worker only exits once every [`ServiceClient`] has been
/// dropped too, so drop clients before shutting down.
pub struct Service {
    tx: Option<mpsc::Sender<Submission>>,
    worker: Option<JoinHandle<()>>,
    store: Arc<SnapshotStore>,
    stats: Arc<StatsInner>,
}

impl Service {
    /// Spawns the worker thread serving `store` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_batch` is zero.
    pub fn spawn(store: Arc<SnapshotStore>, cfg: ServeConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let (tx, rx) = mpsc::channel::<Submission>();
        let stats = Arc::new(StatsInner::default());
        let worker_store = Arc::clone(&store);
        let worker_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("mramrl-serve".into())
            .spawn(move || worker_loop(&rx, &worker_store, &cfg, &worker_stats))
            .expect("spawn serving worker");
        Self {
            tx: Some(tx),
            worker: Some(worker),
            store,
            stats,
        }
    }

    /// A new client handle; clients are cheap and `Send`, one per
    /// caller thread.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            tx: self.tx.as_ref().expect("service live").clone(),
            store: Arc::clone(&self.store),
        }
    }

    /// The snapshot store this service serves from (publish new
    /// generations through it at any time).
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            max_batch_seen: self.stats.max_batch_seen.load(Ordering::Relaxed),
        }
    }

    /// A cheap `Send + 'static` probe of the served-request counter —
    /// for publisher threads that pace snapshot publishes against
    /// traffic without holding a reference to the service.
    pub fn stats_probe(&self) -> impl Fn() -> u64 + Send + 'static {
        let stats = Arc::clone(&self.stats);
        move || stats.requests.load(Ordering::Relaxed)
    }

    /// Stops accepting new submissions, waits for the worker to drain
    /// every pending request, and returns the final counters. Blocks
    /// until all [`ServiceClient`]s have been dropped.
    pub fn shutdown(mut self) -> ServeStats {
        self.join_worker();
        self.stats()
    }

    fn join_worker(&mut self) {
        self.tx = None; // close our end of the channel
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.join_worker();
    }
}

/// A handle for submitting observation requests to a [`Service`].
#[derive(Clone)]
pub struct ServiceClient {
    tx: mpsc::Sender<Submission>,
    store: Arc<SnapshotStore>,
}

impl ServiceClient {
    /// Submits one observation and blocks until its coalesced batch has
    /// been decided.
    ///
    /// # Panics
    ///
    /// Panics if `obs` does not match the served net's input shape
    /// (validated here, in the caller's thread, so a malformed request
    /// can never take down the shared worker), if the service worker
    /// has terminated, or if the worker drops this request undecided —
    /// for example when a snapshot with a different input shape is
    /// published while the request waits, and the worker's flush panics.
    pub fn decide(&self, drone_id: u64, obs: mramrl_nn::Tensor) -> Decision {
        let expected = self.store.input_shape();
        assert_eq!(
            obs.shape(),
            &expected,
            "observation shape does not match the served network input"
        );
        let slot = Arc::new(Slot::new());
        self.tx
            .send(Submission {
                req: ObsRequest { drone_id, obs },
                slot: Pending(Arc::clone(&slot)),
            })
            .expect("serving worker terminated");
        slot.wait()
    }
}

fn worker_loop(
    rx: &mpsc::Receiver<Submission>,
    store: &SnapshotStore,
    cfg: &ServeConfig,
    stats: &StatsInner,
) {
    let _pool_guard = cfg.pool.clone().map(pool::install_handle);
    let mut ws = QWorkspace::new();
    // Outer recv: block indefinitely for the batch-opening request.
    while let Ok(first) = rx.recv() {
        let deadline = Instant::now() + Duration::from_micros(cfg.max_delay_us);
        let mut pending = vec![first];
        // Inner fill: wait for more only while under max_batch and
        // before the oldest request's deadline.
        while pending.len() < cfg.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(sub) => pending.push(sub),
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        flush(store, &mut ws, pending, stats);
    }
}

fn flush(store: &SnapshotStore, ws: &mut QWorkspace, pending: Vec<Submission>, stats: &StatsInner) {
    let n = pending.len() as u64;
    stats.requests.fetch_add(n, Ordering::Relaxed);
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.max_batch_seen.fetch_max(n, Ordering::Relaxed);

    // One snapshot load per flush: the generation stamped below is the
    // snapshot every decision in this batch was computed with.
    let (net, generation) = store.snapshot();
    // A panic in the engine pass drops `slots` undecided, which fails
    // every client of this batch (see `Pending`).
    let (reqs, slots): (Vec<ObsRequest>, Vec<Pending>) =
        pending.into_iter().map(|s| (s.req, s.slot)).unzip();
    let decisions = decide_batch(&net, generation, &reqs, ws);
    for (slot, decision) in slots.into_iter().zip(decisions) {
        slot.fulfill(decision);
    }
}
