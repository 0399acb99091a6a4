//! Experience replay: shared-frame transitions, a bounded ring buffer,
//! and the sharded buffer behind the actor/learner split.
//!
//! Frames are stored as [`Arc<Tensor>`] so consecutive transitions of one
//! lane share a single allocation (transition `t`'s `next_state` *is*
//! transition `t+1`'s `state` — the naive layout stores every observation
//! twice). [`ReplayBuffer::push`] hands the evicted transition back to the
//! caller so rollout loops can recycle its frame buffers instead of
//! re-allocating (see `RolloutWs` in the trainer).

use std::collections::VecDeque;
use std::sync::Arc;

use mramrl_nn::Tensor;
use rand::rngs::SmallRng;
use rand::Rng;

/// One `(s, a, r, s', terminal)` tuple — the data unit of Eq. 1.
///
/// States are shared frames: clone a `Transition` and you copy two `Arc`
/// pointers, not two images.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State (depth image), shared with the previous transition of the
    /// same lane.
    pub state: Arc<Tensor>,
    /// Action index taken.
    pub action: usize,
    /// Reward received.
    pub reward: f32,
    /// Next state, shared with the following transition of the same lane
    /// (unless this transition is terminal).
    pub next_state: Arc<Tensor>,
    /// `true` if the transition ended the episode (crash).
    pub terminal: bool,
}

/// A batch of transitions packed into batch-first tensors, ready for
/// [`crate::QAgent::accumulate_td_batch`].
///
/// `states`/`next_states` are `[N, ...]` (sample `i` is transition `i`);
/// the scalar fields are parallel vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionBatch {
    /// Batched states `[N, ...]`.
    pub states: Tensor,
    /// Actions taken, per sample.
    pub actions: Vec<usize>,
    /// Rewards received, per sample.
    pub rewards: Vec<f32>,
    /// Batched next states `[N, ...]`.
    pub next_states: Tensor,
    /// Episode-terminal flags, per sample.
    pub terminals: Vec<bool>,
}

impl TransitionBatch {
    /// Packs transitions into one batch (states stacked along a new
    /// leading axis).
    ///
    /// # Panics
    ///
    /// Panics if `ts` is empty or the state shapes disagree.
    pub fn from_transitions(ts: &[&Transition]) -> Self {
        assert!(!ts.is_empty(), "cannot batch zero transitions");
        let mut batch = Self::zeros(ts.len(), ts[0].state.shape());
        for (i, t) in ts.iter().enumerate() {
            batch.set(i, t);
        }
        batch
    }

    /// Allocates an `n`-slot batch of zeroed frames shaped `state_shape`,
    /// to be filled in place with [`TransitionBatch::set`] — the
    /// steady-state path allocates once and overwrites forever.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn zeros(n: usize, state_shape: &[usize]) -> Self {
        assert!(n > 0, "cannot batch zero transitions");
        let mut batched_shape = Vec::with_capacity(state_shape.len() + 1);
        batched_shape.push(n);
        batched_shape.extend_from_slice(state_shape);
        Self {
            states: Tensor::zeros(&batched_shape),
            actions: vec![0; n],
            rewards: vec![0.0; n],
            next_states: Tensor::zeros(&batched_shape),
            terminals: vec![false; n],
        }
    }

    /// Overwrites slot `i` with `t`. No allocation: frame data is copied
    /// into the existing batch tensors.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the frame shapes disagree with
    /// the batch's.
    pub fn set(&mut self, i: usize, t: &Transition) {
        self.states.sample_mut(i).copy_from_slice(t.state.data());
        self.next_states
            .sample_mut(i)
            .copy_from_slice(t.next_state.data());
        self.actions[i] = t.action;
        self.rewards[i] = t.reward;
        self.terminals[i] = t.terminal;
    }

    /// Number of transitions in the batch.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `false` always (construction forbids empty batches).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A bounded ring buffer of transitions with uniform sampling.
///
/// Internally a [`VecDeque`]: `push` appends at the back and pops the
/// front when full, so the deque order *is* the age order — no manual
/// ring arithmetic. [`ReplayBuffer::latest`] is simply the back element
/// and [`ReplayBuffer::iter`] walks oldest → newest.
///
/// # Examples
///
/// ```
/// use mramrl_rl::{ReplayBuffer, Transition};
/// use mramrl_nn::Tensor;
/// use std::sync::Arc;
///
/// let mut buf = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buf.push(Transition {
///         state: Arc::new(Tensor::filled(&[1], i as f32)),
///         action: 0,
///         reward: 0.0,
///         next_state: Arc::new(Tensor::zeros(&[1])),
///         terminal: false,
///     });
/// }
/// assert_eq!(buf.len(), 2); // oldest evicted
/// assert_eq!(buf.latest().unwrap().state.data()[0], 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    items: VecDeque<Transition>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            items: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a transition, evicting and returning the oldest when full.
    ///
    /// The returned transition lets the caller recycle its frame
    /// allocations (`Arc::try_unwrap` succeeds once no younger transition
    /// shares the frame).
    pub fn push(&mut self, t: Transition) -> Option<Transition> {
        let evicted = if self.items.len() == self.capacity {
            self.items.pop_front()
        } else {
            None
        };
        self.items.push_back(t);
        evicted
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The transition at age-order index `i` (0 = oldest).
    pub fn get(&self, i: usize) -> Option<&Transition> {
        self.items.get(i)
    }

    /// Transitions oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &Transition> {
        self.items.iter()
    }

    /// Uniformly samples one transition.
    pub fn sample<'a>(&'a self, rng: &mut SmallRng) -> Option<&'a Transition> {
        if self.items.is_empty() {
            None
        } else {
            Some(&self.items[rng.gen_range(0..self.items.len())])
        }
    }

    /// Uniformly samples `n` transitions **with replacement** (the
    /// batched analogue of `n` serial [`ReplayBuffer::sample`] calls —
    /// draws use the same RNG stream, one per sample).
    pub fn sample_batch<'a>(&'a self, rng: &mut SmallRng, n: usize) -> Option<Vec<&'a Transition>> {
        if self.items.is_empty() || n == 0 {
            None
        } else {
            Some(
                (0..n)
                    .map(|_| &self.items[rng.gen_range(0..self.items.len())])
                    .collect(),
            )
        }
    }

    /// The most recently pushed transition.
    pub fn latest(&self) -> Option<&Transition> {
        self.items.back()
    }
}

/// The replay half of the actor/learner split: one [`ReplayBuffer`]
/// shard per rollout fleet, merged for sampling by a **fixed-order map**
/// instead of a lock.
///
/// Fleet `f` pushes only into shard `f`, so the push path has no
/// cross-fleet coordination at all. The learner samples through
/// [`ShardedReplay::merged_get`], which presents the shards as a
/// single buffer ordered exactly as the **pinned serial interleaving**
/// would have pushed it — per round, fleet 0's `lanes` transitions, then
/// fleet 1's, and so on:
///
/// ```text
/// merged j  →  round = j / (S·k),  shard = (j mod S·k) / k,  lane = j mod k
///              shard-local index = round·k + lane        (S shards, k lanes)
/// ```
///
/// Because every fleet pushes the same number of transitions per round
/// and per-shard capacities are a multiple of `lanes`, all shards evict
/// whole rounds in lockstep and the merged view at any round boundary is
/// byte-identical (contents *and* order) to one buffer of capacity
/// `S·shard_capacity` fed by the serial interleaving — see
/// `docs/training.md` and the `sharded_replay` proptest suite.
///
/// The single-shard case is the identity map for any capacity, so the
/// one-fleet trainer keeps its historical replay semantics bit-for-bit.
#[derive(Debug, Clone)]
pub struct ShardedReplay {
    shards: Vec<ReplayBuffer>,
    lanes: usize,
}

impl ShardedReplay {
    /// Creates `n_shards` shards of `shard_capacity` transitions each,
    /// fed by fleets of `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, or if `n_shards > 1` and
    /// `shard_capacity` is not a multiple of `lanes` (lockstep eviction
    /// needs whole-round shards; see [`ShardedReplay::for_fleets`]).
    pub fn new(n_shards: usize, shard_capacity: usize, lanes: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(lanes > 0, "need at least one lane");
        assert!(
            n_shards == 1 || shard_capacity % lanes == 0,
            "multi-shard capacity must be a whole number of rounds \
             (shard_capacity {shard_capacity} % lanes {lanes} != 0)"
        );
        Self {
            shards: (0..n_shards)
                .map(|_| ReplayBuffer::new(shard_capacity))
                .collect(),
            lanes,
        }
    }

    /// Sizes shards from a total-capacity budget: `total_capacity`
    /// split over `n_shards`, rounded **down** to whole rounds of
    /// `lanes` (min one round) when sharded. One shard keeps the budget
    /// verbatim — the single-fleet trainer's historical semantics.
    pub fn for_fleets(total_capacity: usize, n_shards: usize, lanes: usize) -> Self {
        let per = if n_shards == 1 {
            total_capacity.max(1)
        } else {
            (total_capacity / n_shards / lanes).max(1) * lanes
        };
        Self::new(n_shards, per, lanes)
    }

    /// Number of shards (= fleets).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Lanes per fleet.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Read access to shard `f`.
    pub fn shard(&self, f: usize) -> &ReplayBuffer {
        &self.shards[f]
    }

    /// Pushes fleet `f`'s transition into shard `f` — no other shard is
    /// touched. Returns the shard's evicted transition, if any, for
    /// frame recycling.
    pub fn push(&mut self, f: usize, t: Transition) -> Option<Transition> {
        self.shards[f].push(t)
    }

    /// Total transitions across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ReplayBuffer::len).sum()
    }

    /// `true` when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ReplayBuffer::is_empty)
    }

    /// The transition at merged index `j` under the fixed-order map (see
    /// the type docs). Index 0 is the oldest surviving round's fleet-0
    /// lane-0 transition.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the shards are not round-aligned
    /// (unequal lengths — the trainer's symmetric push schedule keeps
    /// them aligned at every sampling point).
    pub fn merged_get(&self, j: usize) -> Option<&Transition> {
        let s = self.shards.len();
        if s == 1 {
            return self.shards[0].get(j);
        }
        debug_assert!(
            self.shards.iter().all(|b| b.len() == self.shards[0].len()),
            "merged view requires round-aligned shards"
        );
        let per_round = s * self.lanes;
        let (round, rest) = (j / per_round, j % per_round);
        let (shard, lane) = (rest / self.lanes, rest % self.lanes);
        self.shards[shard].get(round * self.lanes + lane)
    }

    /// Draws `n` merged indices with replacement into `out` (cleared
    /// first) — one `gen_range(0..len)` per draw, the **same RNG stream**
    /// a single [`ReplayBuffer::sample_batch`] of the merged buffer
    /// would consume. Leaves `out` empty when the buffer is empty.
    pub fn sample_indices(&self, rng: &mut SmallRng, n: usize, out: &mut Vec<usize>) {
        out.clear();
        let len = self.len();
        if len == 0 {
            return;
        }
        out.extend((0..n).map(|_| rng.gen_range(0..len)));
    }

    /// Copies the transitions at `indices` (merged view) into `batch`
    /// slots `0..indices.len()` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `indices.len() != batch.len()` or an index is out of
    /// range.
    pub fn fill_batch(&self, indices: &[usize], batch: &mut TransitionBatch) {
        assert_eq!(indices.len(), batch.len(), "index/batch size mismatch");
        for (slot, &j) in indices.iter().enumerate() {
            let t = self
                .merged_get(j)
                .unwrap_or_else(|| panic!("merged index {j} out of range"));
            batch.set(slot, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(v: f32) -> Transition {
        Transition {
            state: Arc::new(Tensor::filled(&[1], v)),
            action: 0,
            reward: v,
            next_state: Arc::new(Tensor::zeros(&[1])),
            terminal: false,
        }
    }

    #[test]
    fn ring_eviction_keeps_newest_and_returns_evicted() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..3 {
            assert!(buf.push(t(i as f32)).is_none());
        }
        for i in 3..5 {
            let evicted = buf.push(t(i as f32)).expect("full buffer must evict");
            assert_eq!(evicted.reward, (i - 3) as f32);
        }
        assert_eq!(buf.len(), 3);
        let rewards: Vec<f32> = buf.iter().map(|x| x.reward).collect();
        // 0,1 evicted; 2,3,4 remain — and iter() is oldest → newest.
        assert_eq!(rewards, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn wraparound_at_exactly_capacity() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.latest().unwrap().reward, 3.0);
        assert_eq!(
            buf.iter().map(|x| x.reward).collect::<Vec<_>>(),
            vec![0.0, 1.0, 2.0, 3.0]
        );
        // The push that triggers the first eviction.
        buf.push(t(4.0));
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.latest().unwrap().reward, 4.0);
        assert_eq!(
            buf.iter().map(|x| x.reward).collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn wraparound_far_past_capacity() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..17 {
            buf.push(t(i as f32));
            assert_eq!(buf.latest().unwrap().reward, i as f32);
            assert!(buf.len() <= 3);
        }
        assert_eq!(
            buf.iter().map(|x| x.reward).collect::<Vec<_>>(),
            vec![14.0, 15.0, 16.0]
        );
    }

    #[test]
    fn latest_is_last_pushed() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..7 {
            buf.push(t(i as f32));
            assert_eq!(buf.latest().unwrap().reward, i as f32);
        }
    }

    #[test]
    fn get_walks_age_order() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.get(0).unwrap().reward, 2.0);
        assert_eq!(buf.get(2).unwrap().reward, 4.0);
        assert!(buf.get(3).is_none());
    }

    #[test]
    fn sampling_covers_contents() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(t(i as f32));
        }
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(buf.sample(&mut rng).unwrap().reward as i32);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn sample_batch_matches_serial_draws() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(t(i as f32));
        }
        let mut rng_a = SmallRng::seed_from_u64(9);
        let mut rng_b = SmallRng::seed_from_u64(9);
        let batch = buf.sample_batch(&mut rng_a, 5).unwrap();
        let serial: Vec<&Transition> = (0..5).map(|_| buf.sample(&mut rng_b).unwrap()).collect();
        for (a, b) in batch.iter().zip(&serial) {
            assert_eq!(a.reward, b.reward);
        }
    }

    #[test]
    fn batch_packing_is_batch_major() {
        let a = t(1.0);
        let b = t(2.0);
        let batch = TransitionBatch::from_transitions(&[&a, &b]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.states.shape(), &[2, 1]);
        assert_eq!(batch.states.data(), &[1.0, 2.0]);
        assert_eq!(batch.rewards, vec![1.0, 2.0]);
        assert!(!batch.is_empty());
    }

    #[test]
    fn batch_set_overwrites_in_place() {
        let a = t(1.0);
        let b = t(2.0);
        let mut batch = TransitionBatch::zeros(2, a.state.shape());
        batch.set(0, &a);
        batch.set(1, &b);
        assert_eq!(batch, TransitionBatch::from_transitions(&[&a, &b]));
        batch.set(0, &b);
        assert_eq!(batch.states.data(), &[2.0, 2.0]);
    }

    #[test]
    fn empty_buffer_samples_none() {
        let buf = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(buf.sample(&mut rng).is_none());
        assert!(buf.sample_batch(&mut rng, 3).is_none());
        assert!(buf.latest().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn single_shard_merge_is_identity() {
        let mut sharded = ShardedReplay::for_fleets(5, 1, 2);
        let mut single = ReplayBuffer::new(5);
        for i in 0..9 {
            sharded.push(0, t(i as f32));
            single.push(t(i as f32));
        }
        assert_eq!(sharded.len(), single.len());
        for j in 0..single.len() {
            assert_eq!(
                sharded.merged_get(j).unwrap().reward,
                single.get(j).unwrap().reward
            );
        }
    }

    #[test]
    fn merged_order_is_round_major_fleet_order() {
        // 2 fleets × 2 lanes, capacity 1 round per shard is too tight to
        // see ordering — use 2 rounds. Reward encodes (round, fleet, lane)
        // as r*100 + f*10 + lane.
        let mut sharded = ShardedReplay::new(2, 4, 2);
        for round in 0..2 {
            for fleet in 0..2 {
                for lane in 0..2 {
                    sharded.push(fleet, t((round * 100 + fleet * 10 + lane) as f32));
                }
            }
        }
        let merged: Vec<f32> = (0..sharded.len())
            .map(|j| sharded.merged_get(j).unwrap().reward)
            .collect();
        assert_eq!(
            merged,
            vec![0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]
        );
    }

    #[test]
    fn sharded_push_evicts_per_shard() {
        let mut sharded = ShardedReplay::new(2, 2, 1);
        assert!(sharded.push(0, t(0.0)).is_none());
        assert!(sharded.push(0, t(1.0)).is_none());
        // Shard 0 full; shard 1 untouched.
        let evicted = sharded.push(0, t(2.0)).expect("shard 0 evicts");
        assert_eq!(evicted.reward, 0.0);
        assert!(sharded.push(1, t(3.0)).is_none());
        assert_eq!(sharded.shard(0).len(), 2);
        assert_eq!(sharded.shard(1).len(), 1);
    }

    #[test]
    fn for_fleets_rounds_capacity_to_whole_rounds() {
        let s = ShardedReplay::for_fleets(100, 4, 3);
        // 100 / 4 = 25 per shard, rounded down to 24 = 8 rounds of 3.
        assert_eq!(s.shard(0).capacity(), 24);
        // One shard keeps the budget verbatim.
        let one = ShardedReplay::for_fleets(100, 1, 3);
        assert_eq!(one.shard(0).capacity(), 100);
    }

    #[test]
    fn sample_indices_matches_sample_batch_stream() {
        let mut sharded = ShardedReplay::new(1, 8, 1);
        for i in 0..8 {
            sharded.push(0, t(i as f32));
        }
        let mut rng_a = SmallRng::seed_from_u64(7);
        let mut rng_b = SmallRng::seed_from_u64(7);
        let mut idx = Vec::new();
        sharded.sample_indices(&mut rng_a, 5, &mut idx);
        let via_buffer = sharded.shard(0).sample_batch(&mut rng_b, 5).unwrap();
        let via_idx: Vec<f32> = idx
            .iter()
            .map(|&j| sharded.merged_get(j).unwrap().reward)
            .collect();
        let direct: Vec<f32> = via_buffer.iter().map(|x| x.reward).collect();
        assert_eq!(via_idx, direct);
    }

    #[test]
    fn fill_batch_copies_selected_transitions() {
        let mut sharded = ShardedReplay::new(2, 2, 1);
        for fleet in 0..2 {
            for round in 0..2 {
                sharded.push(fleet, t((round * 10 + fleet) as f32));
            }
        }
        let mut batch = TransitionBatch::zeros(3, &[1]);
        sharded.fill_batch(&[0, 3, 2], &mut batch);
        // Merged order: [r0f0, r0f1, r1f0, r1f1] = [0, 1, 10, 11].
        assert_eq!(batch.rewards, vec![0.0, 11.0, 10.0]);
    }
}
