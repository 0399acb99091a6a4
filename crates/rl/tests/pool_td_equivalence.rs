//! Pooled TD-accumulation equivalence: `QAgent::accumulate_td_batch` —
//! with its concurrent target/online forwards and the pooled per-sample
//! conv passes underneath — must stay **bit-identical** to serial
//! `accumulate_td` calls at every pool size
//! (`NN_POOL_THREADS` ∈ {1, 2, 7}, swept in-process via
//! `ThreadPool::install`).

use mramrl_nn::pool::ThreadPool;
use mramrl_nn::{NetworkSpec, Tensor};
use mramrl_rl::{QAgent, Transition, TransitionBatch};
use proptest::prelude::*;

fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_add(seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (h % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn transitions(n: usize, hw: usize, seed: u64) -> Vec<Transition> {
    (0..n)
        .map(|i| Transition {
            state: std::sync::Arc::new(Tensor::from_vec(
                &[1, hw, hw],
                fill(hw * hw, seed ^ (2 * i) as u64),
            )),
            action: i % 5,
            reward: 0.1 * (i % 7) as f32 - 0.2,
            next_state: std::sync::Arc::new(Tensor::from_vec(
                &[1, hw, hw],
                fill(hw * hw, seed ^ (2 * i + 1) as u64),
            )),
            terminal: i % 3 == 0,
        })
        .collect()
}

fn all_grads(agent: &QAgent) -> Vec<f32> {
    agent
        .net()
        .layers()
        .flat_map(|l| l.params().into_iter().flat_map(|p| p.grad.data().to_vec()))
        .collect()
}

proptest! {
    /// Batched TD accumulation (gradients and TD errors) is bit-identical
    /// to the serial transition loop for every pool size ×
    /// Double-DQN setting.
    #[test]
    fn pooled_td_accumulation_matches_serial_bitwise(
        n in 1usize..6,
        seed in 0u64..1 << 40,
    ) {
        let double_q = seed % 2 == 0;
        let hw = 8usize;
        let spec = NetworkSpec::micro(hw, 1, 5);
        let ts = transitions(n, hw, seed);
        let refs: Vec<&Transition> = ts.iter().collect();
        let batch = TransitionBatch::from_transitions(&refs);

        let mut serial = QAgent::new(&spec, 17).with_double_q(double_q);
        let serial_td: Vec<f32> = ts.iter().map(|t| serial.accumulate_td(t)).collect();
        let serial_grads = all_grads(&serial);

        for pool_threads in [1usize, 2, 7] {
            let pool = ThreadPool::new(pool_threads);
            let _installed = pool.install();
            let mut batched = QAgent::new(&spec, 17).with_double_q(double_q);
            let batched_td = batched.accumulate_td_batch(&batch);
            prop_assert_eq!(
                bits(&serial_td), bits(&batched_td),
                "td pool={} n={} double_q={}", pool_threads, n, double_q
            );
            prop_assert_eq!(
                bits(&serial_grads), bits(&all_grads(&batched)),
                "grads pool={} n={} double_q={}", pool_threads, n, double_q
            );
        }
    }
}

/// The greedy-action batch path (concurrent forwards under the pool)
/// agrees with serial argmax selection at every pool size.
#[test]
fn pooled_greedy_actions_match_serial() {
    let spec = NetworkSpec::micro(8, 1, 5);
    let obs: Vec<Tensor> = (0..4)
        .map(|i| Tensor::from_vec(&[1, 8, 8], fill(64, 100 + i)))
        .collect();
    let mut data = Vec::new();
    for o in &obs {
        data.extend_from_slice(o.data());
    }
    let batch = Tensor::from_vec(&[4, 1, 8, 8], data);
    let mut serial = QAgent::new(&spec, 21);
    let want: Vec<usize> = obs
        .iter()
        .map(|o| serial.greedy_actions(&o.clone().unsqueezed0())[0])
        .collect();
    for pool_threads in [1usize, 2, 7] {
        let pool = ThreadPool::new(pool_threads);
        let _installed = pool.install();
        let mut agent = QAgent::new(&spec, 21);
        assert_eq!(agent.greedy_actions(&batch), want, "pool={pool_threads}");
    }
}
