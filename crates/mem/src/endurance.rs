//! NVM write-endurance accounting and the endurance-aware write scheduler.
//!
//! The paper keeps the NVM read-only during flight for latency/energy
//! reasons; endurance is the third, unstated reason. This module quantifies
//! it for the `ablation_endurance` experiment: an E2E learner that writes
//! the full model back every training iteration wears the array orders of
//! magnitude faster than a TL+RL learner that never writes it.
//!
//! [`WearTracker`] is the passive accountant; [`EnduranceScheduler`] is
//! the active policy: it batches weight-update write-backs into fewer
//! flushes and steers consecutive flushes across placement regions, and
//! reports the modeled wear of the scheduled stream next to the naive
//! per-update in-place baseline. It models the write *stream* only —
//! attach it to a live training run through
//! `mramrl_rl::LearnerHook` and the arithmetic is untouched
//! (`docs/design_space.md` § scheduler contract).

use crate::placement::PlacementPlan;
use crate::tech::TechParams;

/// Tracks cumulative writes against a memory's endurance budget.
///
/// The model is uniform wear (ideal wear-levelling): cell program cycles =
/// total bits written / total bits of capacity. Real stacks do worse, so
/// lifetimes reported here are upper bounds — which only strengthens the
/// conclusion.
///
/// # Examples
///
/// ```
/// use mramrl_mem::{WearTracker, tech::TechParams};
///
/// let mut wear = WearTracker::new(TechParams::stt_mram(), 128_000_000);
/// wear.record_write_bytes(112_000_000); // one full-model write-back
/// assert!(wear.cell_cycles() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WearTracker {
    tech: TechParams,
    capacity_bytes: u64,
    bytes_written: u64,
}

impl WearTracker {
    /// Creates a tracker for a memory of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn new(tech: TechParams, capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        Self {
            tech,
            capacity_bytes,
            bytes_written: 0,
        }
    }

    /// Records `bytes` of write traffic.
    pub fn record_write_bytes(&mut self, bytes: u64) {
        self.bytes_written = self.bytes_written.saturating_add(bytes);
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Average program cycles seen by each cell (uniform wear).
    pub fn cell_cycles(&self) -> f64 {
        self.bytes_written as f64 / self.capacity_bytes as f64
    }

    /// Fraction of the endurance budget consumed (0 for unlimited
    /// technologies such as SRAM).
    pub fn wear_fraction(&self) -> f64 {
        match self.tech.endurance_writes {
            Some(e) => self.cell_cycles() / e as f64,
            None => 0.0,
        }
    }

    /// Projected lifetime in years under a sustained write rate of
    /// `bytes_per_second`, or `None` if the technology has unlimited
    /// endurance or the rate is zero.
    pub fn lifetime_years(&self, bytes_per_second: f64) -> Option<f64> {
        let endurance = self.tech.endurance_writes? as f64;
        if bytes_per_second <= 0.0 {
            return None;
        }
        let cycles_per_second = bytes_per_second / self.capacity_bytes as f64;
        Some(endurance / cycles_per_second / (365.25 * 24.0 * 3600.0))
    }
}

/// Policy knobs of the [`EnduranceScheduler`].
///
/// `coalesce_updates` weight updates are staged in the SRAM tail between
/// NVM flushes (the paper's §III-D gradient-sum accumulator already buys
/// the staging space — the scheduler just stops writing every
/// intermediate version back), and consecutive flushes rotate over
/// `regions` placement regions of the stack so no row of cells absorbs
/// every flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerPolicy {
    /// Weight updates coalesced into one NVM flush (≥ 1).
    pub coalesce_updates: u64,
    /// Placement regions rotated over by consecutive flushes (≥ 1).
    pub regions: u64,
}

impl SchedulerPolicy {
    /// The default deployment policy: 8-update coalescing over 8 regions.
    pub fn date19() -> Self {
        Self {
            coalesce_updates: 8,
            regions: 8,
        }
    }

    /// The identity policy — every update flushes in place. Scheduled
    /// wear then equals the baseline exactly (the scheduler's own
    /// null-hypothesis check).
    pub fn passthrough() -> Self {
        Self {
            coalesce_updates: 1,
            regions: 1,
        }
    }
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        Self::date19()
    }
}

/// Modeled-wear summary of an [`EnduranceScheduler`] run: the naive
/// per-update in-place write-back baseline next to the scheduled stream,
/// with any still-pending coalesced updates counted as one final flush.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearReport {
    /// Weight updates observed.
    pub updates: u64,
    /// NVM flushes the schedule issued (incl. the implicit final flush).
    pub flushes: u64,
    /// Bytes the baseline writes (`updates × bytes_per_update`).
    pub baseline_bytes: u64,
    /// Bytes the schedule writes (`flushes × bytes_per_update`).
    pub scheduled_bytes: u64,
    /// Program cycles on the hottest cell under the baseline: every
    /// update rewrites the same resident weights in place, so the hot
    /// cell sees one cycle per update.
    pub baseline_hot_cell_cycles: u64,
    /// Program cycles on the hottest cell under the schedule: the
    /// most-flushed region's flush count.
    pub scheduled_hot_cell_cycles: u64,
    /// Hot-cell endurance-budget fraction consumed by the baseline
    /// (0 for unlimited technologies).
    pub baseline_wear_fraction: f64,
    /// Hot-cell endurance-budget fraction consumed by the schedule.
    pub scheduled_wear_fraction: f64,
    /// `baseline_hot_cell_cycles / scheduled_hot_cell_cycles` — the
    /// modeled lifetime multiplier (→ `coalesce × regions` at steady
    /// state; 1.0 when the stream is empty).
    pub wear_reduction_factor: f64,
}

/// The endurance-aware online write scheduler.
///
/// Models the NVM weight write-back stream of an online learner whose
/// trainable tail did not fully fit in SRAM (the E2E case, and L4 on an
/// undersized buffer): the *baseline* writes the MRAM-resident trainable
/// weights back in place after every update; the *schedule* coalesces
/// [`SchedulerPolicy::coalesce_updates`] updates per flush and steers
/// consecutive flushes round-robin over [`SchedulerPolicy::regions`]
/// stack regions. Both streams are pure accounting on the scheduler's
/// own counters — attaching it to a live run (via
/// `mramrl_rl::LearnerHook`) cannot change a bit of the training
/// arithmetic, which is what keeps every pool and lanes bit-identity
/// contract intact.
///
/// For a write-free placement ([`PlacementPlan::is_write_free_nvm`])
/// `bytes_per_update` is zero and the scheduler is a recording no-op.
///
/// # Examples
///
/// ```
/// use mramrl_mem::endurance::{EnduranceScheduler, SchedulerPolicy};
/// use mramrl_mem::tech::TechParams;
///
/// let mut s = EnduranceScheduler::new(
///     TechParams::stt_mram(),
///     128_000_000,
///     112_000_000, // E2E-scale write-back per update
///     SchedulerPolicy::date19(),
/// );
/// for _ in 0..64 {
///     s.record_update();
/// }
/// let r = s.report();
/// assert_eq!(r.baseline_hot_cell_cycles, 64);
/// assert_eq!(r.scheduled_hot_cell_cycles, 1); // 8 flushes over 8 regions
/// assert_eq!(r.wear_reduction_factor, 64.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceScheduler {
    policy: SchedulerPolicy,
    bytes_per_update: u64,
    updates: u64,
    flushes: u64,
    pending: u64,
    next_region: usize,
    region_flushes: Vec<u64>,
    baseline: WearTracker,
    scheduled: WearTracker,
}

impl EnduranceScheduler {
    /// Creates a scheduler for a stack of `capacity_bytes` whose learner
    /// writes `bytes_per_update` back per weight update (0 → write-free
    /// no-op).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero or the policy has a zero knob.
    pub fn new(
        tech: TechParams,
        capacity_bytes: u64,
        bytes_per_update: u64,
        policy: SchedulerPolicy,
    ) -> Self {
        assert!(
            policy.coalesce_updates > 0 && policy.regions > 0,
            "policy knobs must be positive"
        );
        Self {
            policy,
            bytes_per_update,
            updates: 0,
            flushes: 0,
            pending: 0,
            next_region: 0,
            region_flushes: vec![0; policy.regions as usize],
            baseline: WearTracker::new(tech.clone(), capacity_bytes),
            scheduled: WearTracker::new(tech, capacity_bytes),
        }
    }

    /// Scheduler for a solved placement: the per-update write-back is
    /// [`PlacementPlan::nvm_writeback_bytes_per_update`]. The per-frame
    /// half of the plan's write stream
    /// ([`PlacementPlan::nvm_rmw_bytes_per_frame`]) is per-image and
    /// cannot be coalesced by update batching, so it stays outside the
    /// scheduler's stream.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero or the policy has a zero knob.
    pub fn for_plan(
        plan: &PlacementPlan,
        tech: TechParams,
        capacity_bytes: u64,
        policy: SchedulerPolicy,
    ) -> Self {
        Self::new(
            tech,
            capacity_bytes,
            plan.nvm_writeback_bytes_per_update(),
            policy,
        )
    }

    /// The policy in force.
    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Modeled write-back bytes per weight update.
    pub fn bytes_per_update(&self) -> u64 {
        self.bytes_per_update
    }

    /// Weight updates observed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// `true` when the modeled stream actually writes the NVM.
    pub fn is_active(&self) -> bool {
        self.bytes_per_update > 0
    }

    /// Records one weight update: the baseline stream writes the
    /// resident bytes in place; the scheduled stream stages it and
    /// flushes once `coalesce_updates` have accumulated.
    pub fn record_update(&mut self) {
        self.updates += 1;
        self.baseline.record_write_bytes(self.bytes_per_update);
        self.pending += 1;
        if self.pending >= self.policy.coalesce_updates {
            self.flush();
        }
    }

    /// Records updates until the observed count reaches `total` — the
    /// `mramrl_rl::LearnerHook` entry point, fed with the learner's
    /// cumulative update counter.
    pub fn advance_to(&mut self, total: u64) {
        while self.updates < total {
            self.record_update();
        }
    }

    /// Issues the pending coalesced flush, if any (steered to the next
    /// region in rotation). Idempotent when nothing is pending.
    pub fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        self.pending = 0;
        self.flushes += 1;
        self.scheduled.record_write_bytes(self.bytes_per_update);
        self.region_flushes[self.next_region] += 1;
        self.next_region = (self.next_region + 1) % self.region_flushes.len();
    }

    /// The modeled-wear comparison, counting any pending updates as one
    /// final flush (without mutating the schedule).
    pub fn report(&self) -> WearReport {
        let tail = u64::from(self.pending > 0);
        let flushes = self.flushes + tail;
        // The hottest region after the implicit tail flush: the rotation
        // target of the tail is `next_region`.
        let mut hottest = self.region_flushes.clone();
        if tail > 0 {
            hottest[self.next_region] += 1;
        }
        let scheduled_hot = hottest.into_iter().max().unwrap_or(0);
        let baseline_hot = if self.is_active() { self.updates } else { 0 };
        let budget = self.baseline.tech.endurance_writes;
        let frac = |cycles: u64| match budget {
            Some(e) => cycles as f64 / e as f64,
            None => 0.0,
        };
        WearReport {
            updates: self.updates,
            flushes,
            baseline_bytes: self.updates.saturating_mul(self.bytes_per_update),
            scheduled_bytes: flushes.saturating_mul(self.bytes_per_update),
            baseline_hot_cell_cycles: baseline_hot,
            scheduled_hot_cell_cycles: if self.is_active() { scheduled_hot } else { 0 },
            baseline_wear_fraction: frac(baseline_hot),
            scheduled_wear_fraction: frac(if self.is_active() { scheduled_hot } else { 0 }),
            wear_reduction_factor: if scheduled_hot > 0 && self.is_active() {
                baseline_hot as f64 / scheduled_hot as f64
            } else {
                1.0
            },
        }
    }

    /// Uniform-wear tracker of the baseline stream (for cross-checks
    /// against [`WearTracker`]-based accounting like `DeploymentSim`).
    pub fn baseline_wear(&self) -> &WearTracker {
        &self.baseline
    }

    /// Uniform-wear tracker of the scheduled stream.
    pub fn scheduled_wear(&self) -> &WearTracker {
        &self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stt() -> WearTracker {
        WearTracker::new(TechParams::stt_mram(), 128_000_000)
    }

    #[test]
    fn cell_cycles_uniform_wear() {
        let mut w = stt();
        w.record_write_bytes(256_000_000);
        assert_eq!(w.cell_cycles(), 2.0);
        assert!(w.wear_fraction() > 0.0);
    }

    #[test]
    fn e2e_wear_is_finite_but_long_for_stt() {
        // E2E at 3 fps writes ~112 MB per iteration at batch 1 ⇒ 336 MB/s.
        let w = stt();
        let years = w.lifetime_years(336.0e6).unwrap();
        // STT endurance 1e12: lifetime is decades — endurance is fine,
        // latency/energy are the binding constraints (paper's framing).
        assert!(years > 100.0, "{years}");
    }

    #[test]
    fn e2e_wear_kills_rram_and_pcm() {
        // Same traffic on the §III-C alternatives is fatal:
        let rram = WearTracker::new(TechParams::rram(), 128_000_000);
        let years = rram.lifetime_years(336.0e6).unwrap();
        assert!(years < 15.0, "rram {years}");
        let pcm = WearTracker::new(TechParams::pcm(), 128_000_000);
        let years = pcm.lifetime_years(336.0e6).unwrap();
        assert!(years < 1.5, "pcm {years}");
    }

    #[test]
    fn sram_has_no_endurance_limit() {
        let mut w = WearTracker::new(TechParams::sram(), 30_000_000);
        w.record_write_bytes(u64::MAX / 2);
        assert_eq!(w.wear_fraction(), 0.0);
        assert!(w.lifetime_years(1.0e9).is_none());
    }

    #[test]
    fn zero_rate_has_no_lifetime() {
        assert!(stt().lifetime_years(0.0).is_none());
    }

    #[test]
    fn write_counter_saturates() {
        let mut w = stt();
        w.record_write_bytes(u64::MAX);
        w.record_write_bytes(u64::MAX);
        assert_eq!(w.bytes_written(), u64::MAX);
    }

    fn sched(policy: SchedulerPolicy) -> EnduranceScheduler {
        EnduranceScheduler::new(TechParams::stt_mram(), 128_000_000, 1_000_000, policy)
    }

    #[test]
    fn passthrough_policy_equals_baseline() {
        let mut s = sched(SchedulerPolicy::passthrough());
        s.advance_to(100);
        let r = s.report();
        assert_eq!(r.baseline_bytes, r.scheduled_bytes);
        assert_eq!(r.baseline_hot_cell_cycles, r.scheduled_hot_cell_cycles);
        assert_eq!(r.wear_reduction_factor, 1.0);
    }

    #[test]
    fn coalescing_divides_bytes_and_steering_divides_hot_cycles() {
        let mut s = sched(SchedulerPolicy {
            coalesce_updates: 4,
            regions: 2,
        });
        s.advance_to(80);
        let r = s.report();
        assert_eq!(r.updates, 80);
        assert_eq!(r.flushes, 20);
        assert_eq!(r.scheduled_bytes, r.baseline_bytes / 4);
        assert_eq!(r.baseline_hot_cell_cycles, 80);
        assert_eq!(r.scheduled_hot_cell_cycles, 10); // 20 flushes over 2 regions
        assert_eq!(r.wear_reduction_factor, 8.0);
        assert!(r.scheduled_wear_fraction < r.baseline_wear_fraction);
    }

    #[test]
    fn pending_tail_counts_as_one_flush_in_report() {
        let mut s = sched(SchedulerPolicy {
            coalesce_updates: 8,
            regions: 4,
        });
        s.advance_to(3); // below the coalescing threshold: nothing flushed yet
        let r = s.report();
        assert_eq!(r.flushes, 1);
        assert_eq!(r.scheduled_hot_cell_cycles, 1);
        // The report is non-mutating: recording more updates still
        // coalesces from the original pending count.
        s.advance_to(8);
        assert_eq!(s.report().flushes, 1);
    }

    #[test]
    fn write_free_plan_is_a_noop() {
        let mut s = EnduranceScheduler::new(
            TechParams::stt_mram(),
            128_000_000,
            0,
            SchedulerPolicy::date19(),
        );
        s.advance_to(500);
        let r = s.report();
        assert!(!s.is_active());
        assert_eq!(r.baseline_bytes, 0);
        assert_eq!(r.scheduled_bytes, 0);
        assert_eq!(r.baseline_hot_cell_cycles, 0);
        assert_eq!(r.wear_reduction_factor, 1.0);
    }

    #[test]
    fn for_plan_charges_mram_resident_trainable_bytes() {
        use crate::placement::PlacementRequest;
        // Tail-first SRAM fills: fc2 fits, fc1 stays MRAM-resident.
        let req = PlacementRequest::new(
            vec![
                ("conv".into(), 1000, false),
                ("fc1".into(), 800, true),
                ("fc2".into(), 100, true),
            ],
            0,
            300,
            10_000,
        );
        let plan = PlacementPlan::solve(&req).unwrap();
        let s = EnduranceScheduler::for_plan(
            &plan,
            TechParams::stt_mram(),
            10_000,
            SchedulerPolicy::date19(),
        );
        assert_eq!(s.bytes_per_update(), 800);
        // A write-free plan builds an inactive scheduler.
        let roomy = PlacementRequest::new(
            vec![("conv".into(), 1000, false), ("fc2".into(), 100, true)],
            0,
            300,
            10_000,
        );
        let free = PlacementPlan::solve(&roomy).unwrap();
        assert!(free.is_write_free_nvm());
        let s = EnduranceScheduler::for_plan(
            &free,
            TechParams::stt_mram(),
            10_000,
            SchedulerPolicy::date19(),
        );
        assert!(!s.is_active());
    }

    #[test]
    fn steady_state_reduction_approaches_coalesce_times_regions() {
        let mut s = sched(SchedulerPolicy::date19()); // 8 × 8
        s.advance_to(6400);
        let r = s.report();
        assert_eq!(r.wear_reduction_factor, 64.0);
        assert_eq!(r.scheduled_hot_cell_cycles, 100);
    }
}
