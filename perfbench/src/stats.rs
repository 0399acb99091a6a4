//! Small statistics helpers: percentiles, rank correlation, a digest
//! and the process's peak resident memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `p`-th percentile (0..=100) of `xs`, interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Consecutive samples per window of [`window_percentiles`].
pub const STEP_WINDOW: usize = 16;

/// The `p`-th percentile of each whole window of [`STEP_WINDOW`]
/// consecutive samples of `xs`; a trailing part window is left out.
/// The host's speed drifts over seconds, so a percentile taken over a
/// whole run mostly reports how slow the host's slowest seconds were.
/// Inside one window (under a second of steps) the host barely
/// changes, so the median over windows of these values is the tail the
/// program itself gives, at the host's typical speed.
pub fn window_percentiles(xs: &[f64], p: f64) -> Vec<f64> {
    xs.chunks_exact(STEP_WINDOW)
        .map(|w| percentile(w, p))
        .collect()
}

/// Median, in microseconds, of `reps` durations returned by `body`,
/// after one discarded warm-up call. `body` times its own measured
/// section with [`time`], so untimed preparation can sit around it.
pub fn median_us(reps: usize, mut body: impl FnMut() -> Duration) -> f64 {
    body();
    let t: Vec<f64> = (0..reps).map(|_| us(body())).collect();
    median(&t)
}

/// Wall time of one call of `f`. The result goes through `black_box`,
/// so the measured work cannot be optimized away.
pub fn time<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time between two bursts of set-ups in a run.
const SETUP_EVERY: Duration = Duration::from_secs(2);
/// Set-ups per burst.
const SETUP_BURST: usize = 2;

/// Set-up times sampled across a whole run. The host's speed drifts
/// over seconds, so set-ups made in one burst at the start would all
/// see one moment of it; spread over the run, their median sees the
/// same host as the measured loop does.
pub struct SetupClock<T> {
    set_up: Box<dyn FnMut() -> T>,
    secs: Vec<f64>,
    last: Instant,
}

impl<T> SetupClock<T> {
    pub fn new(set_up: impl FnMut() -> T + 'static) -> Self {
        Self {
            set_up: Box::new(set_up),
            secs: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Sets up once, records the time and returns what it built.
    pub fn once(&mut self) -> T {
        let t0 = Instant::now();
        let built = (self.set_up)();
        self.secs.push(t0.elapsed().as_secs_f64());
        self.last = Instant::now();
        built
    }

    /// Called between measured steps: when `SETUP_EVERY` has passed
    /// since the last set-up, sets up `SETUP_BURST` times and drops what
    /// was built. Returns the wall time spent, for the caller to leave
    /// out of its measured time.
    pub fn between_steps(&mut self) -> Duration {
        let t0 = Instant::now();
        if self.last.elapsed() >= SETUP_EVERY {
            for _ in 0..SETUP_BURST {
                drop(self.once());
            }
        }
        t0.elapsed()
    }

    /// Median set-up time, seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.secs)
    }

    /// Set-ups timed so far.
    pub fn count(&self) -> usize {
        self.secs.len()
    }
}

/// Ranks with ties averaged (1-based).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut r = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman rank correlation of two equal-length series (Pearson
/// correlation of their tie-averaged ranks).
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman needs paired series");
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va * vb).sqrt()
}

/// FNV-1a, for digests of logs and sources.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long` counters, `ru_maxrss` first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process, in MiB (`ru_maxrss`, which
/// Linux reports in KiB). `NaN` if the call fails.
pub fn peak_rss_mb() -> f64 {
    let mut u = RUsage {
        times: [0; 4],
        counters: [0; 14],
    };
    // SAFETY: `u` matches the C layout and outlives the call;
    // RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.counters[0] as f64 / 1024.0
    } else {
        f64::NAN
    }
}
