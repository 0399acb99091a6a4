//! Exploration policy.

use rand::rngs::SmallRng;
use rand::Rng;

/// Linearly-decaying ε-greedy schedule.
///
/// # Examples
///
/// ```
/// use mramrl_rl::EpsilonSchedule;
///
/// let eps = EpsilonSchedule::new(1.0, 0.05, 100);
/// assert_eq!(eps.value(0), 1.0);
/// assert!((eps.value(50) - 0.525).abs() < 1e-6);
/// assert_eq!(eps.value(1000), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonSchedule {
    start: f32,
    end: f32,
    decay_steps: u64,
}

impl EpsilonSchedule {
    /// Creates a schedule from `start` to `end` over `decay_steps`.
    ///
    /// # Panics
    ///
    /// Panics if values are outside `[0, 1]` or `start < end`.
    pub fn new(start: f32, end: f32, decay_steps: u64) -> Self {
        assert!((0.0..=1.0).contains(&start) && (0.0..=1.0).contains(&end));
        assert!(start >= end, "epsilon must decay");
        assert!(decay_steps > 0, "decay steps must be positive");
        Self {
            start,
            end,
            decay_steps,
        }
    }

    /// Exploration-heavy schedule for learning from scratch (TL phase).
    pub fn scratch(decay_steps: u64) -> Self {
        Self::new(1.0, 0.05, decay_steps)
    }

    /// Low-exploration schedule for online RL on a transferred model —
    /// the TL model already avoids most "unsafe actions early on" (§II-D).
    pub fn transfer(decay_steps: u64) -> Self {
        Self::new(0.25, 0.02, decay_steps)
    }

    /// ε at `step`.
    ///
    /// The interpolation fraction is computed in **f64**: casting the
    /// step counter to f32 quantises above 2²⁴, which made schedules
    /// longer than 2²⁴ steps collapse runs of nearby steps onto one ε
    /// and land on the boundary value several steps early. Moving the
    /// division to f64 was a documented one-time rounding change (any
    /// given ε may shift by ≤ 1 ulp); the shape of the schedule and the
    /// short-schedule doctest values are unchanged.
    #[allow(clippy::cast_precision_loss)]
    pub fn value(&self, step: u64) -> f32 {
        if step >= self.decay_steps {
            return self.end;
        }
        let f = (step as f64 / self.decay_steps as f64) as f32;
        self.start + (self.end - self.start) * f
    }

    /// Chooses an action from one Q-value row (one row of a
    /// `[K, actions]` batch): random with probability ε, else greedy with
    /// the shared [`mramrl_nn::argmax`] tie-break. One RNG draw per call,
    /// plus one more when exploring.
    pub fn choose_slice(&self, q: &[f32], step: u64, rng: &mut SmallRng) -> usize {
        if rng.gen_range(0.0f32..1.0) < self.value(step) {
            rng.gen_range(0..q.len())
        } else {
            mramrl_nn::argmax(q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn decay_endpoints() {
        let e = EpsilonSchedule::new(0.8, 0.1, 10);
        assert_eq!(e.value(0), 0.8);
        assert!((e.value(10) - 0.1).abs() < 1e-6);
        assert!((e.value(5) - 0.45).abs() < 1e-6);
    }

    #[test]
    fn greedy_when_epsilon_zero() {
        let e = EpsilonSchedule::new(0.0, 0.0, 1);
        let q = [0.0f32, 3.0, 1.0, -1.0, 2.0];
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            assert_eq!(e.choose_slice(&q, 100, &mut rng), 1);
        }
    }

    #[test]
    fn explores_when_epsilon_one() {
        let e = EpsilonSchedule::new(1.0, 1.0, 1);
        let q = [0.0f32, 3.0, 1.0, -1.0, 2.0];
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        for _ in 0..500 {
            counts[e.choose_slice(&q, 0, &mut rng)] += 1;
        }
        // Every action gets explored.
        assert!(counts.iter().all(|&c| c > 50), "{counts:?}");
    }

    #[test]
    fn long_schedule_keeps_decaying_near_the_boundary() {
        // decay_steps > 2^24: with the fraction computed via `step as
        // f32`, steps `decay-2` and `decay-1` both rounded to the same
        // f32 (33554436) and produced the same ε — the pre-fix code
        // fails the strict inequality below. In f64 the fractions stay
        // distinct through the final cast.
        let decay = (1u64 << 25) + 5;
        let e = EpsilonSchedule::new(1.0, 0.05, decay);
        assert!(
            e.value(decay - 2) > e.value(decay - 1),
            "{} vs {}",
            e.value(decay - 2),
            e.value(decay - 1)
        );

        // Monotone non-increasing across the whole >2^24-step schedule,
        // never below `end`.
        let steps = [
            0,
            1,
            1 << 20,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            decay / 2,
            decay - 4,
            decay - 2,
            decay - 1,
            decay,
            decay + 7,
        ];
        let mut prev = f32::INFINITY;
        for &s in &steps {
            let v = e.value(s);
            assert!(v <= prev, "ε increased at step {s}: {prev} -> {v}");
            assert!(v >= e.value(decay), "ε dipped below end at step {s}: {v}");
            prev = v;
        }
    }

    #[test]
    fn transfer_schedule_is_tamer() {
        assert!(EpsilonSchedule::transfer(100).value(0) < EpsilonSchedule::scratch(100).value(0));
    }

    #[test]
    #[should_panic(expected = "epsilon must decay")]
    fn increasing_epsilon_panics() {
        let _ = EpsilonSchedule::new(0.1, 0.5, 10);
    }
}
