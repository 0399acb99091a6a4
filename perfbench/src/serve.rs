//! `fleet-serve`: the deployment inference path. Every camera tick, 48
//! drones each submit one frame. One `replay_trace` call (a step)
//! decides two ticks under `ServeConfig { max_batch: 32, max_delay_us:
//! 2000 }`: per tick one cap flush of 32 drones and one flush of the
//! other 16. The first tick's 16 go by the deadline, when the second
//! tick's first frame arrives 33 ms later; the second tick's 16 go by
//! the end of the trace. Every 16 ticks the step's trace opens with a
//! hot-swap to the other of two snapshots quantized during set-up. One
//! load generator per vCPU replays the steps, each its own stream.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mramrl_nn::{argmax, QuantizedNet, Topology};
use mramrl_serve::{replay_trace, ActionLog, RequestTrace, ServeConfig, TraceEvent};

use crate::fixtures::{self, HW};
use crate::layers::{self, Acting};
use crate::report::Outcome;
use crate::stats::{median, ms, peak_rss_mb, window_percentiles, SetupClock};
use crate::Args;

/// Drones per tick.
const DRONES: u64 = 48;
/// Camera ticks per `replay_trace` call.
const TICKS_PER_STEP: u64 = 2;
/// Decisions per step.
const DECISIONS: u64 = DRONES * TICKS_PER_STEP;
/// Distinct step traces; steps cycle through them.
const STEP_TRACES: usize = 16;
/// Steps between hot-swaps (16 ticks).
const SWAP_EVERY: usize = 8;
/// Camera period, logical microseconds (30 fps).
const PERIOD_US: u64 = 33_333;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: 32,
        max_delay_us: 2_000,
        pool: None,
    }
}

/// One entry of the step cycle: its trace, the snapshot the replay
/// starts from, and the snapshot and generation that must decide it.
struct Step {
    trace: RequestTrace,
    initial: Arc<QuantizedNet>,
    served: Arc<QuantizedNet>,
    generation: u64,
}

/// The two Q8.8 snapshots a set-up builds.
type Snapshots = [Arc<QuantizedNet>; 2];

/// Builds the net twice from two seeds and quantizes each to Q8.8.
fn set_up(seed: u64) -> Snapshots {
    let spec = mramrl_bench::batch_td_spec();
    [seed, seed ^ 0x5EED_5EA7].map(|s| {
        Arc::new(QuantizedNet::from_network(&spec, &spec.build(s)).expect("net built from spec"))
    })
}

/// The step cycle. Step `i` serves drones' frames hashed from
/// `(seed, i)`; steps 0 and 8 open with a publish of the other
/// snapshot, so the cycle alternates A, B, A, … every 16 ticks.
fn step_cycle(seed: u64, snaps: &Snapshots) -> Vec<Step> {
    (0..STEP_TRACES)
        .map(|i| {
            let half = i / SWAP_EVERY;
            let before = Arc::clone(&snaps[half]);
            let after = Arc::clone(&snaps[1 - half]);
            let frames = RequestTrace::synthetic_fleet(
                DRONES,
                TICKS_PER_STEP,
                PERIOD_US,
                [1, HW, HW],
                seed.wrapping_mul(STEP_TRACES as u64).wrapping_add(i as u64),
            );
            if i % SWAP_EVERY == 0 {
                let mut events = vec![TraceEvent::Publish {
                    at_us: 0,
                    net: Arc::clone(&after),
                }];
                events.extend(frames.events().iter().cloned());
                Step {
                    trace: RequestTrace::from_events(events),
                    initial: before,
                    served: after,
                    generation: 1,
                }
            } else {
                Step {
                    trace: frames,
                    initial: Arc::clone(&after),
                    served: after,
                    generation: 0,
                }
            }
        })
        .collect()
}

/// What one load generator replayed.
struct Replayed {
    steps: u64,
    decisions: u64,
    elapsed: Duration,
    step_ms: Vec<f64>,
    /// The first log of each cycle slot, with its digest.
    first: Vec<Option<(ActionLog, u64)>>,
    checks: Outcome,
}

/// One load generator: replays the cycle from slot `offset` until
/// `budget` is spent (at least one step). With `setups`, it samples
/// set-ups between steps and leaves them out of its time. Each step's
/// log digest must equal the digest of the first replay of its slot.
fn generate(
    cycle: &[Step],
    offset: usize,
    budget: Duration,
    mut setups: Option<&mut SetupClock<Snapshots>>,
) -> Replayed {
    let cfg = serve_config();
    let mut run = Replayed {
        steps: 0,
        decisions: 0,
        elapsed: Duration::ZERO,
        step_ms: Vec::new(),
        first: vec![None; cycle.len()],
        checks: Outcome::default(),
    };
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    while run.steps == 0 || t0.elapsed() - paused < budget {
        let slot = (offset + run.steps as usize) % cycle.len();
        let step = &cycle[slot];
        let start = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            replay_trace(&step.trace, Arc::clone(&step.initial), &cfg)
        }));
        run.step_ms.push(ms(start.elapsed()));
        run.steps += 1;
        let Ok(log) = ran else {
            run.checks.count(DECISIONS, DECISIONS, "step panicked");
            break;
        };
        run.decisions += log.records().len() as u64;
        let digest = log.digest();
        let same = match &run.first[slot] {
            Some((_, d)) => *d == digest,
            None => {
                run.first[slot] = Some((log, digest));
                true
            }
        };
        run.checks.count(
            DECISIONS,
            if same { 0 } else { DECISIONS },
            "step log digest repeats",
        );
        if let Some(clock) = setups.as_deref_mut() {
            paused += clock.between_steps();
        }
    }
    run.elapsed = t0.elapsed() - paused;
    run
}

/// Totals of one measuring segment over its generators.
#[derive(Default)]
struct Segment {
    steps: u64,
    /// The generators' decisions per second, summed.
    per_s: f64,
    /// Each generator's median step time.
    p50s: Vec<f64>,
    /// Each generator's median, over its windows, of the window's p90.
    p90s: Vec<f64>,
}

impl Segment {
    /// The mean over the generators of `per_gen`. Each generator's
    /// statistic is taken on its own steps: the vCPUs of a shared host
    /// run at different speeds, and a percentile of the generators'
    /// steps pooled would fall in the gap between their two modes.
    fn mean(per_gen: &[f64]) -> f64 {
        per_gen.iter().sum::<f64>() / per_gen.len() as f64
    }
}

/// Runs one load generator per vCPU (`nproc`) for `budget`, as a base
/// station serving one stream of drones per core would; generator `g`
/// starts at slot `g · len / nproc`. The first generator, on this
/// thread, also samples the set-ups. Every generator's first log of a
/// slot must have the digest `first` holds for that slot; a slot seen
/// for the first time keeps its log there for the serial check.
fn segment(
    cycle: &[Step],
    budget: Duration,
    first: &mut [Option<(ActionLog, u64)>],
    setups: &mut SetupClock<Snapshots>,
    out: &mut Outcome,
) -> Segment {
    let gens = std::thread::available_parallelism().map_or(1, |n| n.get());
    let runs: Vec<Replayed> = std::thread::scope(|sc| {
        let others: Vec<_> = (1..gens)
            .map(|g| sc.spawn(move || generate(cycle, g * cycle.len() / gens, budget, None)))
            .collect();
        let mut runs = vec![generate(cycle, 0, budget, Some(setups))];
        runs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("generator thread")),
        );
        runs
    });
    let mut seg = Segment::default();
    for run in runs {
        out.attempted += run.checks.attempted;
        out.failed += run.checks.failed;
        seg.steps += run.steps;
        seg.per_s += run.decisions as f64 / run.elapsed.as_secs_f64();
        seg.p50s.push(median(&run.step_ms));
        seg.p90s
            .push(median(&window_percentiles(&run.step_ms, 90.0)));
        for (kept, logged) in first.iter_mut().zip(run.first) {
            let Some((log, digest)) = logged else {
                continue;
            };
            match kept {
                Some((_, d)) => out.count(
                    DECISIONS,
                    if *d == digest { 0 } else { DECISIONS },
                    "generators replay a slot to the same log",
                ),
                None => *kept = Some((log, digest)),
            }
        }
    }
    seg
}

/// The batched ≡ serial contract on the first log of every slot: each
/// decision equals the argmax of a per-request `QuantizedNet::forward`
/// on the snapshot that must serve it, in request order, under the
/// expected generation.
fn check_serial(cycle: &[Step], first: &[Option<(ActionLog, u64)>], out: &mut Outcome) {
    for (step, logged) in cycle.iter().zip(first) {
        let Some((log, _)) = logged else { continue };
        let requests = step.trace.events().iter().filter_map(|e| match e {
            TraceEvent::Request { drone_id, obs, .. } => Some((*drone_id, obs)),
            TraceEvent::Publish { .. } => None,
        });
        let mut bad = 0;
        let recs = log.records();
        let mut n = 0;
        for (i, (drone_id, obs)) in requests.enumerate() {
            n += 1;
            let ok = recs.get(i).is_some_and(|r| {
                r.seq == i as u64
                    && r.drone_id == drone_id
                    && r.generation == step.generation
                    && r.action as usize == argmax(step.served.forward(obs).data())
            });
            bad += u64::from(!ok);
        }
        bad += u64::from(recs.len() != n);
        out.count(n as u64, bad, "batched decision equals the serial argmax");
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let mut setups = SetupClock::new(move || set_up(seed));
    let cycle = step_cycle(seed, &setups.once());
    let mut first: Vec<Option<(ActionLog, u64)>> = vec![None; cycle.len()];

    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let seg = segment(&cycle, budget, &mut first, &mut setups, &mut out);
    let traced = args
        .trace
        .then(|| segment(&cycle, args.seconds / 2, &mut first, &mut setups, &mut out));
    check_serial(&cycle, &first, &mut out);

    let Some(traced) = traced else {
        out.metric("setup_s", setups.median_s(), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metric("frames_per_s", seg.per_s, "1/s");
        out.metric("step_p50_ms", Segment::mean(&seg.p50s), "ms");
        out.metric("step_p90_ms", Segment::mean(&seg.p90s), "ms");
        eprintln!(
            "perfbench: {} steps, {} set-ups timed, per-generator p50 {:?} ms",
            seg.steps,
            setups.count(),
            seg.p50s
        );
        return out;
    };

    // The deployed learner trains the L4 tail and acts in Q8.8; serving
    // itself runs no learner and no environment.
    layers::probe(
        &mut out,
        Topology::L4,
        Acting::Q88Snapshot,
        &fixtures::first_frames(args.seed),
        args.seed,
    );
    out.metric("rl.learner_share", 0.0, "ratio");
    out.metric("rl.updates", 0.0, "count");
    out.metric("rl.target_syncs", 0.0, "count");
    out.metric("rl.snapshot_refreshes", 0.0, "count");
    out.metric("env.resets", 0.0, "count");
    out.metric("rl.frame_allocs", 0.0, "count");
    out.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.per_s / seg.per_s),
        "%",
    );
    out
}
