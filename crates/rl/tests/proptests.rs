//! Property tests for the RL stack.

use mramrl_nn::{NetworkSpec, Tensor, Topology};
use mramrl_rl::{
    EpsilonSchedule, MovingAverage, QAgent, ReplayBuffer, SafeFlightTracker, Transition,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// Epsilon schedules are monotone non-increasing and bounded.
    #[test]
    fn epsilon_monotone(start in 0.2f32..1.0, end_frac in 0.0f32..1.0, steps in 1u64..10_000) {
        let end = start * end_frac;
        let sched = EpsilonSchedule::new(start, end, steps);
        let mut prev = f32::INFINITY;
        for s in (0..steps + 100).step_by((steps as usize / 17).max(1)) {
            let v = sched.value(s);
            prop_assert!(v <= prev + 1e-6);
            prop_assert!(v >= end - 1e-6 && v <= start + 1e-6);
            prev = v;
        }
    }

    /// Replay buffer never exceeds capacity and `latest` is always the
    /// last pushed item.
    #[test]
    fn replay_capacity_invariant(cap in 1usize..64, pushes in 1usize..200) {
        let mut buf = ReplayBuffer::new(cap);
        for i in 0..pushes {
            buf.push(Transition {
                state: std::sync::Arc::new(Tensor::filled(&[1], i as f32)),
                action: i % 5,
                reward: i as f32,
                next_state: std::sync::Arc::new(Tensor::zeros(&[1])),
                terminal: false,
            });
            prop_assert!(buf.len() <= cap);
            prop_assert_eq!(buf.latest().unwrap().reward, i as f32);
        }
        prop_assert_eq!(buf.len(), pushes.min(cap));
    }

    /// Samples always come from the retained window (the newest
    /// `min(cap, pushes)` items).
    #[test]
    fn replay_samples_from_window(cap in 1usize..32, pushes in 1usize..100, seed in 0u64..100) {
        let mut buf = ReplayBuffer::new(cap);
        for i in 0..pushes {
            buf.push(Transition {
                state: std::sync::Arc::new(Tensor::zeros(&[1])),
                action: 0,
                reward: i as f32,
                next_state: std::sync::Arc::new(Tensor::zeros(&[1])),
                terminal: false,
            });
        }
        let oldest_retained = pushes.saturating_sub(cap) as f32;
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let t = buf.sample(&mut rng).unwrap();
            prop_assert!(t.reward >= oldest_retained);
        }
    }

    /// Moving average of a constant stream is that constant; of a bounded
    /// stream stays within the bounds.
    #[test]
    fn moving_average_bounds(vals in proptest::collection::vec(-5.0f32..5.0, 1..300), window in 1usize..64) {
        let mut ma = MovingAverage::new(window);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in &vals {
            ma.push(v);
            lo = lo.min(v);
            hi = hi.max(v);
            prop_assert!(ma.value() >= lo - 1e-4 && ma.value() <= hi + 1e-4);
        }
    }

    /// SFD tail mean over all episodes equals the plain mean.
    #[test]
    fn sfd_tail_covers_all(dists in proptest::collection::vec(0.0f32..500.0, 1..50)) {
        let mut s = SafeFlightTracker::new();
        for &d in &dists {
            s.record_episode(d);
        }
        prop_assert!((s.tail_mean(dists.len() + 10) - s.mean()).abs() < 1e-3);
    }

    /// Topology tails partition trainable counts strictly monotonically on
    /// any micro network size.
    #[test]
    fn topology_monotone_any_size(hw in 8usize..33) {
        let mut net = NetworkSpec::micro(hw, 1, 5).build(0);
        let mut last = 0;
        for t in Topology::ALL {
            t.apply(&mut net);
            let c = net.trainable_param_count();
            prop_assert!(c > last);
            last = c;
        }
    }

    /// TD target respects terminal semantics for arbitrary rewards: the
    /// accumulated TD error equals Q(s,a) − r on terminal transitions.
    #[test]
    fn terminal_td_error_exact(r in -1.0f32..1.0, seed in 0u64..50) {
        let spec = NetworkSpec::micro(8, 1, 5);
        let mut agent = QAgent::new(&spec, seed);
        let t = Transition {
            state: std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.5)),
            action: 1,
            reward: r,
            next_state: std::sync::Arc::new(Tensor::filled(&[1, 8, 8], 0.9)),
            terminal: true,
        };
        let q = agent.q_values_batch(&(*t.state).clone().unsqueezed0()).data()[1];
        let td = agent.accumulate_td(&t);
        prop_assert!((td - (q - r)).abs() < 1e-5);
    }
}
