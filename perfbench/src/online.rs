//! `online-tail` and `online-e2e`: the actor/learner trainer on two
//! fleets of sixteen 40×40 drones, driven through
//! `Trainer::run_parallel_hooked` in chunks of `CHUNK_ROUNDS` rounds
//! until the measuring time is up. A hook that only takes timestamps
//! at `LearnerHook::on_round` gives the round times from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mramrl_env::VecEnv;
use mramrl_rl::{
    ActingPrecision, LearnerHook, ParallelStats, QAgent, Topology, TrainLog, Trainer, TrainerConfig,
};

use crate::fixtures::{self, BATCH, LANES};
use crate::layers::{self, Acting};
use crate::report::Outcome;
use crate::stats::{median, ms, peak_rss_mb, percentile, window_percentiles, SetupClock};
use crate::Args;

/// Which online workload.
#[derive(Clone, Copy)]
pub enum Mode {
    /// The deployed design point: topology L4, Q8.8 acting from a
    /// snapshot refreshed every `SNAPSHOT_REFRESH` updates.
    Tail,
    /// The baseline: end-to-end backward, float acting.
    E2e,
}

impl Mode {
    fn topology(self) -> Topology {
        match self {
            Self::Tail => Topology::L4,
            Self::E2e => Topology::E2E,
        }
    }

    fn precision(self) -> ActingPrecision {
        match self {
            Self::Tail => ActingPrecision::FixedQ8_8,
            Self::E2e => ActingPrecision::Float32,
        }
    }

    fn acting(self) -> Acting {
        match self {
            Self::Tail => Acting::Q88Snapshot,
            Self::E2e => Acting::Float,
        }
    }
}

/// Rounds per `run_parallel_hooked` call. Every call starts a fresh
/// replay of `TrainerConfig::online`'s 2048 transitions (64 rounds of
/// 32 lanes), so a chunk of 128 rounds fills it and then runs as long
/// again with FIFO eviction and frame recycling on every push.
const CHUNK_ROUNDS: u64 = 128;
/// Rounds of the untimed warm-up.
const WARM_UP_ROUNDS: u64 = 4;
/// Updates between Q8.8 snapshot refreshes in `online-tail`.
const SNAPSHOT_REFRESH: u64 = 16;

/// One trainable system: the agent and its fleets.
struct Rig {
    agent: QAgent,
    fleets: Vec<VecEnv>,
}

/// Builds the agent and net, applies the topology, builds the fleets
/// and, in `online-tail`, quantizes the Q8.8 image a drone needs before
/// its first decision.
fn set_up(mode: Mode, seed: u64) -> Rig {
    let mut agent = QAgent::new(&mramrl_bench::batch_td_spec(), seed);
    mode.topology().apply(agent.net_mut());
    if let Mode::Tail = mode {
        agent.quantized_snapshot_shared();
    }
    Rig {
        agent,
        fleets: fixtures::fleets(seed),
    }
}

fn config(mode: Mode, seed: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::online(CHUNK_ROUNDS * BATCH as u64, seed);
    cfg.num_envs = LANES;
    cfg.actor_precision = mode.precision();
    cfg.snapshot_refresh = SNAPSHOT_REFRESH;
    cfg
}

/// What one chunk must do by the trainer's pinned schedule:
/// `(rounds, updates, snapshot refreshes)`. The first learner phase
/// sees an empty replay; every later one, and the trailing one, adds
/// one TD sample per lane.
fn schedule(cfg: &TrainerConfig, lanes: u64) -> (u64, u64, u64) {
    let rounds = cfg.iters.div_ceil(lanes);
    let (mut acc, mut updates, mut last, mut refreshes) = (0u64, 0u64, 0u64, 0u64);
    let learn = |acc: &mut u64, updates: &mut u64| {
        *acc += lanes;
        if *acc >= cfg.batch_size as u64 {
            *acc = 0;
            *updates += 1;
        }
    };
    for round in 0..rounds {
        if round > 0 {
            learn(&mut acc, &mut updates);
        }
        if cfg.actor_precision == ActingPrecision::FixedQ8_8
            && updates - last >= cfg.snapshot_refresh
        {
            refreshes += 1;
            last = updates;
        }
    }
    learn(&mut acc, &mut updates);
    (rounds, updates, refreshes)
}

/// The hook: a timestamp and the update count at every round boundary,
/// and a count of target syncs. It never touches the agent.
#[derive(Default)]
struct RoundClock {
    stamps: Vec<Instant>,
    updates: u64,
    syncs: u64,
}

impl LearnerHook for RoundClock {
    fn on_target_sync(&mut self, _agent: &mut QAgent, _updates: u64) {
        self.syncs += 1;
    }

    fn on_round(&mut self, updates: u64) {
        self.stamps.push(Instant::now());
        self.updates = updates;
    }
}

/// Totals over the chunks of one measuring segment.
#[derive(Default)]
struct Segment {
    chunks: u64,
    transitions: u64,
    elapsed: Duration,
    round_ms: Vec<f64>,
    /// The p90 of every whole window of `round_ms`, window by window.
    round_p90s: Vec<f64>,
    stats: ParallelStats,
    syncs: u64,
    resets: u64,
}

impl Segment {
    fn transitions_per_s(&self) -> f64 {
        self.transitions as f64 / self.elapsed.as_secs_f64()
    }

    /// Runs one chunk on `rig` and adds it to the totals. `timed`
    /// drives `run_parallel_timed` and keeps the trainer's own phase
    /// accounting; otherwise `run_parallel_hooked`. The chunk's round,
    /// transition and update counts are checked against `expect`, the
    /// [`schedule`]. `None` if the chunk panicked, which counts as a
    /// failed chunk.
    fn chunk(
        &mut self,
        rig: &mut Rig,
        trainer: &Trainer,
        timed: bool,
        expect: (u64, u64, u64),
        out: &mut Outcome,
    ) -> Option<TrainLog> {
        let (rounds, updates, refreshes) = expect;
        let episodes0: u64 = rig.fleets.iter().map(VecEnv::total_episodes).sum();
        let mut clock = RoundClock::default();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if timed {
                let (log, stats) =
                    trainer.run_parallel_timed(&mut rig.agent, &mut rig.fleets, &mut clock);
                (log, Some(stats))
            } else {
                let log = trainer.run_parallel_hooked(&mut rig.agent, &mut rig.fleets, &mut clock);
                (log, None)
            }
        }));
        self.chunks += 1;
        let Ok((log, stats)) = ran else {
            out.check(false, "training chunk panicked");
            return None;
        };
        let mut ok = clock.stamps.len() as u64 == rounds + 1 && clock.updates == updates;
        if let Some(s) = stats {
            ok &= s.transitions == rounds * BATCH as u64
                && s.updates == updates
                && s.snapshot_refreshes == refreshes;
            self.stats.actor_ns += s.actor_ns;
            self.stats.env_ns += s.env_ns;
            self.stats.learner_ns += s.learner_ns;
            self.stats.updates += s.updates;
            self.stats.snapshot_refreshes += s.snapshot_refreshes;
            self.stats.frame_allocs += s.frame_allocs;
        }
        out.check(
            ok,
            "chunk rounds, transitions and updates match the schedule",
        );
        self.transitions += rounds * BATCH as u64;
        self.syncs += clock.syncs;
        let round_ms: Vec<f64> = clock.stamps.windows(2).map(|w| ms(w[1] - w[0])).collect();
        self.round_p90s.extend(window_percentiles(&round_ms, 90.0));
        self.round_ms.extend(round_ms);
        let episodes1: u64 = rig.fleets.iter().map(VecEnv::total_episodes).sum();
        self.resets += episodes1 - episodes0;
        Some(log)
    }
}

/// Runs chunks on both rigs of `pair`, which one seed built, until
/// `budget` is spent (at least one chunk each), with set-ups sampled
/// between chunks and left out of the time. The two rigs take turns,
/// chunk for chunk, so both are measured, and every chunk's `TrainLog`
/// must be bit-identical on the two. The segment stops when less than
/// half a turn's mean time is left, so the measured time ends near
/// `budget`, not up to a whole turn past it. A panic ends the segment.
fn segment(
    pair: &mut [Rig; 2],
    trainer: &Trainer,
    timed: bool,
    budget: Duration,
    setups: &mut SetupClock<Rig>,
    out: &mut Outcome,
) -> Segment {
    let expect = schedule(trainer.config(), BATCH as u64);
    let mut seg = Segment::default();
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut turns = 0u32;
    'turns: while turns == 0 || {
        let measured = t0.elapsed() - paused;
        measured + measured / (2 * turns) < budget
    } {
        let mut logs = Vec::with_capacity(2);
        for rig in pair.iter_mut() {
            let Some(log) = seg.chunk(rig, trainer, timed, expect, out) else {
                break 'turns;
            };
            logs.push(log);
            paused += setups.between_steps();
        }
        out.check(
            same_log(&logs[0], &logs[1]),
            "two rigs of one seed give bit-identical TrainLogs, chunk for chunk",
        );
        turns += 1;
    }
    seg.elapsed = t0.elapsed() - paused;
    seg
}

/// Bit equality of two training logs (every curve point, counters and
/// flight distances).
fn same_log(a: &TrainLog, b: &TrainLog) -> bool {
    a.curve.len() == b.curve.len()
        && a.curve.iter().zip(&b.curve).all(|(p, q)| {
            p.iter == q.iter
                && p.cumulative_reward.to_bits() == q.cumulative_reward.to_bits()
                && p.avg_return.to_bits() == q.avg_return.to_bits()
        })
        && a.episodes == b.episodes
        && a.sfd.to_bits() == b.sfd.to_bits()
        && a.sfd_overall.to_bits() == b.sfd_overall.to_bits()
        && a.final_reward.to_bits() == b.final_reward.to_bits()
}

pub fn run(mode: Mode, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let trainer = Trainer::new(config(mode, args.seed));

    let seed = args.seed;
    let mut setups = SetupClock::new(move || set_up(mode, seed));
    // Warm-up, untimed: a few rounds on a throwaway rig start the pool
    // and fault in the code and the allocator's pages.
    let warm = Trainer::new(TrainerConfig {
        iters: WARM_UP_ROUNDS * BATCH as u64,
        ..config(mode, seed)
    });
    let mut spare = set_up(mode, seed);
    warm.run_parallel_hooked(
        &mut spare.agent,
        &mut spare.fleets,
        &mut RoundClock::default(),
    );
    drop(spare);
    let mut pair = [setups.once(), setups.once()];

    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let seg = segment(
        &mut pair,
        &trainer,
        false,
        untraced_budget,
        &mut setups,
        &mut out,
    );

    if !args.trace {
        out.metric("setup_s", setups.median_s(), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.metric("frames_per_s", seg.transitions_per_s(), "1/s");
        out.metric("step_p50_ms", percentile(&seg.round_ms, 50.0), "ms");
        out.metric("step_p90_ms", median(&seg.round_p90s), "ms");
        eprintln!(
            "perfbench: {} chunks, {} rounds, {} set-ups timed",
            seg.chunks,
            seg.round_ms.len(),
            setups.count()
        );
        return out;
    }

    // Traced: the same loop with the trainer's own phase accounting.
    let traced = segment(
        &mut pair,
        &trainer,
        true,
        args.seconds / 2,
        &mut setups,
        &mut out,
    );
    let s = &traced.stats;
    let phases = (s.learner_ns + s.actor_ns + s.env_ns).max(1) as f64;
    layers::probe(
        &mut out,
        mode.topology(),
        mode.acting(),
        &fixtures::first_frames(args.seed),
        args.seed,
    );
    out.metric("rl.learner_share", s.learner_ns as f64 / phases, "ratio");
    out.metric("rl.updates", s.updates as f64, "count");
    out.metric("rl.target_syncs", traced.syncs as f64, "count");
    out.metric(
        "rl.snapshot_refreshes",
        s.snapshot_refreshes as f64,
        "count",
    );
    out.metric("env.resets", traced.resets as f64, "count");
    out.metric(
        "rl.frame_allocs",
        s.frame_allocs as f64 / traced.chunks as f64,
        "count",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (1.0 - traced.transitions_per_s() / seg.transitions_per_s()),
        "%",
    );
    out
}
