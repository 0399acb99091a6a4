//! Replayable request traces — the serving determinism harness.
//!
//! Live batching depends on wall-clock arrival times, which no two runs
//! reproduce. The replay harness removes the clock: a [`RequestTrace`]
//! carries *logical* microsecond timestamps, and [`replay_trace`] runs
//! the exact dynamic-batching policy ([`crate::ServeConfig`]) against
//! those timestamps. Fixed trace + fixed snapshots ⇒ a bit-identical
//! [`ActionLog`], across pool sizes, lanes on or off — the same
//! discipline the pool combinators pin (`docs/threading.md`), one layer
//! up.

use std::sync::Arc;

use mramrl_nn::{pool, QWorkspace, QuantizedNet, Tensor};

use crate::batch::{decide_batch, ObsRequest};
use crate::service::ServeConfig;
use crate::snapshot::SnapshotStore;

/// One logical-time event of a serving trace.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A drone submits an observation at logical time `at_us`.
    Request {
        /// Logical arrival time, microseconds.
        at_us: u64,
        /// Drone identity, echoed into the action log.
        drone_id: u64,
        /// The `[C, H, W]` observation.
        obs: Tensor,
    },
    /// Online learning publishes a new snapshot at logical time `at_us`.
    Publish {
        /// Logical publish time, microseconds.
        at_us: u64,
        /// The snapshot to serve from this point on.
        net: Arc<QuantizedNet>,
    },
}

impl TraceEvent {
    /// The event's logical timestamp.
    pub fn at_us(&self) -> u64 {
        match self {
            Self::Request { at_us, .. } | Self::Publish { at_us, .. } => *at_us,
        }
    }
}

/// A time-ordered sequence of [`TraceEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct RequestTrace {
    events: Vec<TraceEvent>,
}

impl RequestTrace {
    /// Builds a trace from events, stably sorted by timestamp (events
    /// sharing a timestamp keep their given order — part of what makes
    /// a trace a complete, reproducible description of a run).
    pub fn from_events(mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(TraceEvent::at_us);
        Self { events }
    }

    /// The events, in replay order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A deterministic synthetic fleet: `drones` drones each submit one
    /// request per step for `steps` steps, steps `period_us` apart,
    /// drones staggered 1 µs apart within a step. Observations are
    /// hash-derived values in `[0, 1)` from `seed` — no RNG state, so
    /// the same arguments always build the identical trace.
    pub fn synthetic_fleet(
        drones: u64,
        steps: u64,
        period_us: u64,
        obs_shape: [usize; 3],
        seed: u64,
    ) -> Self {
        let len = obs_shape.iter().product::<usize>();
        let mut events = Vec::with_capacity((drones * steps) as usize);
        for s in 0..steps {
            for d in 0..drones {
                let data: Vec<f32> = (0..len)
                    .map(|i| {
                        let h = hash3(seed, s * drones + d, i as u64);
                        (h >> 40) as f32 / (1u64 << 24) as f32
                    })
                    .collect();
                events.push(TraceEvent::Request {
                    at_us: s * period_us + d,
                    drone_id: d,
                    obs: Tensor::from_vec(&[obs_shape[0], obs_shape[1], obs_shape[2]], data),
                });
            }
        }
        Self::from_events(events)
    }
}

fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut h = a ^ 0x9E37_79B9_7F4A_7C15;
    for v in [b, c] {
        h ^= v.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h = h.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^ (h >> 29)
}

/// One decided request of an [`ActionLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionRecord {
    /// Decision sequence number (log order).
    pub seq: u64,
    /// The request's drone identity.
    pub drone_id: u64,
    /// Decided action index.
    pub action: u32,
    /// Snapshot generation that produced the decision.
    pub generation: u64,
}

/// The replayed run's complete output: one record per request, in
/// decision order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionLog {
    records: Vec<ActionRecord>,
}

impl ActionLog {
    /// The records, in decision order.
    pub fn records(&self) -> &[ActionRecord] {
        &self.records
    }

    /// Canonical byte serialisation (all fields little-endian, record
    /// order) — "byte-identical action logs" means equal `to_bytes`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.records.len() * 28);
        for r in &self.records {
            out.extend_from_slice(&r.seq.to_le_bytes());
            out.extend_from_slice(&r.drone_id.to_le_bytes());
            out.extend_from_slice(&r.action.to_le_bytes());
            out.extend_from_slice(&r.generation.to_le_bytes());
        }
        out
    }

    /// FNV-1a digest of [`ActionLog::to_bytes`], for cheap equality
    /// pinning across runs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// Replays `trace` through the dynamic-batching policy of `cfg`,
/// serving from `initial` (generation 0), and returns the action log.
///
/// Batching is decided purely in trace logical time:
///
/// * a pending batch flushes when it reaches `cfg.max_batch` requests;
/// * before each event at time `t`, the pending batch flushes if its
///   oldest request's deadline expired **strictly before** `t` (a
///   request arriving exactly at the deadline instant still joins);
/// * a [`TraceEvent::Publish`] advances the store's generation — later
///   flushes use the new snapshot, the still-pending batch keeps its
///   arrival order and flushes under the generation live at *flush*
///   time (one snapshot load per flush, exactly like the live worker);
/// * the trailing partial batch flushes at end of trace.
///
/// Decisions come from [`decide_batch`] — the same flush body as the
/// live worker. Engine passes run on the caller's thread and current
/// pool unless `cfg.pool` is set, in which case it is installed for the
/// duration; either way the log is bit-identical at any pool size,
/// lanes on or off (pinned in `crates/serve/tests/determinism.rs`).
pub fn replay_trace(
    trace: &RequestTrace,
    initial: Arc<QuantizedNet>,
    cfg: &ServeConfig,
) -> ActionLog {
    assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
    let _pool_guard = cfg.pool.clone().map(pool::install_handle);
    let store = SnapshotStore::new(initial);
    let mut ws = QWorkspace::new();
    let mut log = ActionLog::default();
    let mut seq = 0u64;
    let mut pending: Vec<ObsRequest> = Vec::new();
    let mut oldest_at = 0u64;

    let mut flush = |pending: &mut Vec<ObsRequest>, ws: &mut QWorkspace, seq: &mut u64| {
        let (net, generation) = store.snapshot();
        for d in decide_batch(&net, generation, pending, ws) {
            log.records.push(ActionRecord {
                seq: *seq,
                drone_id: d.drone_id,
                action: d.action as u32,
                generation: d.generation,
            });
            *seq += 1;
        }
        pending.clear();
    };

    for ev in trace.events() {
        if !pending.is_empty() && oldest_at + cfg.max_delay_us < ev.at_us() {
            flush(&mut pending, &mut ws, &mut seq);
        }
        match ev {
            TraceEvent::Request {
                at_us,
                drone_id,
                obs,
            } => {
                if pending.is_empty() {
                    oldest_at = *at_us;
                }
                pending.push(ObsRequest {
                    drone_id: *drone_id,
                    obs: obs.clone(),
                });
                if pending.len() >= cfg.max_batch {
                    flush(&mut pending, &mut ws, &mut seq);
                }
            }
            TraceEvent::Publish { net, .. } => {
                store.publish(Arc::clone(net));
            }
        }
    }
    if !pending.is_empty() {
        flush(&mut pending, &mut ws, &mut seq);
    }
    log
}
