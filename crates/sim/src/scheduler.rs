//! Warp schedulers: GTO, LRR, Two-Level (TL), and Fetch-Group.
//!
//! Each SM has `num_schedulers` scheduler instances; warp slot `s` belongs
//! to scheduler `s % num_schedulers` (the usual striped assignment). Every
//! cycle the SM hands each scheduler its stripe's warp state as
//! [`StripeMasks`] (`u64` masks over the warp slots: live, blocked on a
//! long-latency load, waiting at a barrier), takes back a priority-ordered
//! candidate list and walks it, issuing to the candidates that are ready.
//!
//! The walk visits only ready warps: a candidate that cannot issue is
//! skipped before anything else is computed for it (its issue-jitter hash
//! included). When no warp of a stripe is ready, the SM does not call
//! `prioritize` at all if the scheduler reports
//! [`WarpScheduler::idle_prioritize_is_noop`] (GTO, LRR): their
//! `prioritize` is a pure function of the masks and of state changed only
//! by `on_issue`/`on_warp_start`/`on_warp_finish`, and with no ready warp
//! nothing issues, so the call could neither change state nor issue. TL
//! demotes/promotes and FG rotates inside `prioritize`, so both are still
//! called every cycle.

use std::collections::VecDeque;
use std::fmt;

use crate::config::SchedulerPolicy;
use crate::exec::bits;

/// One scheduler stripe's warp state for a scheduling decision: `u64`
/// masks over the SM's warp slots, with bits set only for slots of this
/// stripe.
#[derive(Debug, Clone, Copy)]
pub struct StripeMasks {
    /// Resident warps with lanes left to run.
    pub live: u64,
    /// Live warps whose next instruction is blocked by the scoreboard
    /// while they have loads outstanding: the two-level scheduler's
    /// demotion trigger, and what rotates the fetch group.
    pub long_latency: u64,
    /// Live warps waiting at a CTA barrier, also a two-level demotion
    /// trigger (a barrier-blocked warp must not pin an active-pool slot,
    /// or the warps that could release it never get promoted).
    pub at_barrier: u64,
}

/// Events a scheduler can emit for the SM to act on (e.g. the RFC must
/// flush entries of warps demoted from the active pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerEvent {
    /// A warp was demoted from the active pool.
    Deactivated {
        /// The demoted warp's slot.
        slot: usize,
    },
}

/// A warp scheduler for one scheduler lane of an SM.
///
/// `Send` is a supertrait so whole simulations (SMs own their schedulers)
/// can move to worker threads of the parallel experiment engine.
pub trait WarpScheduler: fmt::Debug + Send {
    /// Writes this cycle's candidate warp slots, in priority order, to
    /// `out`. The SM walks them in order and issues to the ready ones.
    fn prioritize(&mut self, warps: StripeMasks, cycle: u64, out: &mut Vec<usize>);

    /// Notifies the scheduler that `slot` issued an instruction.
    fn on_issue(&mut self, slot: usize, cycle: u64);

    /// Notifies the scheduler that a warp became resident in `slot` at
    /// `dispatch_cycle`.
    fn on_warp_start(&mut self, slot: usize, dispatch_cycle: u64);

    /// Notifies the scheduler that a warp finished.
    fn on_warp_finish(&mut self, slot: usize);

    /// Drains pending events (pool demotions).
    fn drain_events(&mut self, out: &mut Vec<SchedulerEvent>) {
        let _ = out;
    }

    /// True when calling [`WarpScheduler::prioritize`] on a cycle where no
    /// warp issues leaves the scheduler's observable state unchanged. The
    /// SM then skips the call for a stripe with no ready warp, and the
    /// skip-ahead fast-forward elides idle cycles. GTO and LRR change their
    /// order only in `on_issue`, `on_warp_start` and `on_warp_finish`,
    /// while the two-level scheduler demotes/promotes and the fetch-group
    /// scheduler rotates inside `prioritize` itself, so those two veto
    /// skipping.
    fn idle_prioritize_is_noop(&self) -> bool {
        false
    }

    /// Policy name.
    fn name(&self) -> &'static str;
}

/// Builds the scheduler instance for one scheduler lane.
pub fn build_scheduler(policy: SchedulerPolicy) -> Box<dyn WarpScheduler> {
    match policy {
        SchedulerPolicy::Gto => Box::new(GtoScheduler::new()),
        SchedulerPolicy::Lrr => Box::new(LrrScheduler::new()),
        SchedulerPolicy::TwoLevel {
            active_per_scheduler,
        } => Box::new(TwoLevelScheduler::new(active_per_scheduler)),
        SchedulerPolicy::FetchGroup { group_size } => {
            Box::new(FetchGroupScheduler::new(group_size))
        }
    }
}

// ---------------------------------------------------------------------
// GTO
// ---------------------------------------------------------------------

/// Greedy-then-oldest: keep issuing from the last-issued warp; when it
/// cannot issue, fall back to the oldest (earliest-dispatched) warp.
///
/// Ages are kept in a list sorted by `(dispatch_cycle, slot)`: a warp is
/// inserted when it starts and removed when it finishes, so no cycle
/// sorts and `prioritize` changes nothing. Slots must be below 64.
#[derive(Debug, Default)]
pub struct GtoScheduler {
    greedy: Option<usize>,
    /// Resident warps, oldest first.
    by_age: Vec<(u64, usize)>,
}

impl GtoScheduler {
    /// New GTO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for GtoScheduler {
    fn prioritize(&mut self, warps: StripeMasks, _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        let greedy = self.greedy.filter(|&g| warps.live & (1u64 << g) != 0);
        out.extend(greedy);
        out.extend(
            self.by_age
                .iter()
                .map(|&(_, slot)| slot)
                .filter(|&slot| warps.live & (1u64 << slot) != 0 && Some(slot) != greedy),
        );
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        self.greedy = Some(slot);
    }

    fn on_warp_start(&mut self, slot: usize, dispatch_cycle: u64) {
        let age = (dispatch_cycle, slot);
        let at = self.by_age.partition_point(|&a| a < age);
        self.by_age.insert(at, age);
    }

    fn on_warp_finish(&mut self, slot: usize) {
        if self.greedy == Some(slot) {
            self.greedy = None;
        }
        self.by_age.retain(|&(_, s)| s != slot);
    }

    fn idle_prioritize_is_noop(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "GTO"
    }
}

// ---------------------------------------------------------------------
// LRR
// ---------------------------------------------------------------------

/// Loose round-robin: rotate priority one past the last issued warp.
#[derive(Debug, Default)]
pub struct LrrScheduler {
    last: Option<usize>,
}

impl LrrScheduler {
    /// New LRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for LrrScheduler {
    fn prioritize(&mut self, warps: StripeMasks, _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        // Slots above the last issued one first, then the rest, each in
        // ascending order.
        let above = self.last.map_or(u64::MAX, |l| {
            u64::MAX.checked_shl(l as u32 + 1).unwrap_or(0)
        });
        out.extend(bits(warps.live & above));
        out.extend(bits(warps.live & !above));
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        self.last = Some(slot);
    }

    fn on_warp_start(&mut self, _slot: usize, _dispatch_cycle: u64) {}

    fn on_warp_finish(&mut self, _slot: usize) {}

    fn idle_prioritize_is_noop(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "LRR"
    }
}

// ---------------------------------------------------------------------
// Two-level
// ---------------------------------------------------------------------

/// Two-level scheduler (Gebhart et al., ISCA 2011).
///
/// A bounded *active pool* of warps competes for issue (round-robin); all
/// other resident warps wait in a pending queue. When an active warp is
/// blocked on a long-latency operation it is demoted and the head of the
/// pending queue promoted. Demotion events are exported so the RFC model
/// can flush the demoted warp's cache entries — the key interaction that
/// makes a small RFC viable in the original paper.
#[derive(Debug)]
pub struct TwoLevelScheduler {
    active_size: usize,
    active: Vec<usize>,
    pending: VecDeque<usize>,
    rr: usize,
    events: Vec<SchedulerEvent>,
}

impl TwoLevelScheduler {
    /// New two-level scheduler with the given active-pool capacity.
    pub fn new(active_size: usize) -> Self {
        TwoLevelScheduler {
            active_size: active_size.max(1),
            active: Vec::new(),
            pending: VecDeque::new(),
            rr: 0,
            events: Vec::new(),
        }
    }

    /// Current active pool (for tests/inspection).
    pub fn active_pool(&self) -> &[usize] {
        &self.active
    }

    fn promote(&mut self) {
        while self.active.len() < self.active_size {
            match self.pending.pop_front() {
                Some(s) => self.active.push(s),
                None => break,
            }
        }
    }
}

impl WarpScheduler for TwoLevelScheduler {
    fn prioritize(&mut self, warps: StripeMasks, _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        // Demote blocked active warps; warps no longer live leave the pool
        // without joining the pending queue.
        let blocked = warps.long_latency | warps.at_barrier;
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i];
            let bit = 1u64 << slot;
            if warps.live & bit == 0 {
                self.active.remove(i);
            } else if blocked & bit != 0 {
                self.active.remove(i);
                self.pending.push_back(slot);
                self.events.push(SchedulerEvent::Deactivated { slot });
            } else {
                i += 1;
            }
        }
        self.promote();
        if self.active.is_empty() {
            return;
        }
        // Round-robin within the active pool.
        let n = self.active.len();
        let start = self.rr % n;
        out.extend(
            self.active[start..]
                .iter()
                .chain(self.active[..start].iter()),
        );
    }

    fn on_issue(&mut self, slot: usize, _cycle: u64) {
        if let Some(pos) = self.active.iter().position(|&s| s == slot) {
            self.rr = (pos + 1) % self.active.len().max(1);
        }
    }

    fn on_warp_start(&mut self, slot: usize, _dispatch_cycle: u64) {
        if self.active.len() < self.active_size {
            self.active.push(slot);
        } else {
            self.pending.push_back(slot);
        }
    }

    fn on_warp_finish(&mut self, slot: usize) {
        self.active.retain(|&s| s != slot);
        self.pending.retain(|&s| s != slot);
        self.promote();
    }

    fn drain_events(&mut self, out: &mut Vec<SchedulerEvent>) {
        out.append(&mut self.events);
    }

    fn name(&self) -> &'static str {
        "TL"
    }
}

// ---------------------------------------------------------------------
// Fetch-group
// ---------------------------------------------------------------------

/// Fetch-group scheduling (Narasiman et al., MICRO 2011): the live warps,
/// in slot order, form groups of `group_size`; the current group has
/// priority until all of its warps are blocked, then priority rotates to
/// the next group.
#[derive(Debug)]
pub struct FetchGroupScheduler {
    group_size: usize,
    current_group: usize,
}

impl FetchGroupScheduler {
    /// New fetch-group scheduler with the given warps-per-group.
    pub fn new(group_size: usize) -> Self {
        FetchGroupScheduler {
            group_size: group_size.max(1),
            current_group: 0,
        }
    }
}

impl WarpScheduler for FetchGroupScheduler {
    fn prioritize(&mut self, warps: StripeMasks, _cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(bits(warps.live));
        if out.is_empty() {
            return;
        }
        let size = self.group_size;
        let num_groups = out.len().div_ceil(size);
        let cur = self.current_group % num_groups;
        // If every warp of the current group is long-latency blocked, rotate.
        let cur_blocked = out[cur * size..out.len().min((cur + 1) * size)]
            .iter()
            .all(|&slot| warps.long_latency & (1u64 << slot) != 0);
        if cur_blocked {
            self.current_group = (cur + 1) % num_groups;
        }
        // The groups are consecutive runs of `out`, so listing them from
        // the current one round is a rotation.
        out.rotate_left((self.current_group % num_groups) * size);
    }

    fn on_issue(&mut self, _slot: usize, _cycle: u64) {}

    fn on_warp_start(&mut self, _slot: usize, _dispatch_cycle: u64) {}

    fn on_warp_finish(&mut self, _slot: usize) {}

    fn name(&self) -> &'static str {
        "FG"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(slots: &[usize]) -> u64 {
        slots.iter().fold(0, |m, &s| m | 1u64 << s)
    }

    /// Masks with `live` warps, of which `long` are long-latency blocked.
    fn masks(live: &[usize], long: &[usize]) -> StripeMasks {
        StripeMasks {
            live: mask(live),
            long_latency: mask(long),
            at_barrier: 0,
        }
    }

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let mut s = GtoScheduler::new();
        for (slot, age) in [(0, 30), (4, 10), (8, 20)] {
            s.on_warp_start(slot, age);
        }
        let w = masks(&[0, 4, 8], &[]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        // No greedy yet: oldest first.
        assert_eq!(out, vec![4, 8, 0]);
        s.on_issue(8, 1);
        s.prioritize(w, 2, &mut out);
        assert_eq!(out, vec![8, 4, 0]);
        s.on_warp_finish(8);
        s.prioritize(masks(&[0, 4], &[]), 3, &mut out);
        assert_eq!(out[0], 4);
    }

    #[test]
    fn gto_ages_follow_dispatch_cycle_not_start_order() {
        let mut s = GtoScheduler::new();
        // The younger warp starts first, in the lower slot; two warps
        // dispatched in the same cycle tie-break by slot.
        s.on_warp_start(2, 20);
        s.on_warp_start(9, 10);
        s.on_warp_start(6, 10);
        let mut out = Vec::new();
        s.prioritize(masks(&[2, 6, 9], &[]), 30, &mut out);
        assert_eq!(out, vec![6, 9, 2]);
        // A warp that is no longer live is not a candidate, and a slot
        // reused after a finish takes its new dispatch cycle.
        s.prioritize(masks(&[2, 9], &[]), 31, &mut out);
        assert_eq!(out, vec![9, 2]);
        s.on_warp_finish(9);
        s.on_warp_start(9, 40);
        s.prioritize(masks(&[2, 6, 9], &[]), 41, &mut out);
        assert_eq!(out, vec![6, 2, 9]);
    }

    #[test]
    fn lrr_rotates_past_last_issued() {
        let mut s = LrrScheduler::new();
        let w = masks(&[0, 4, 8], &[]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(out, vec![0, 4, 8]);
        s.on_issue(0, 0);
        s.prioritize(w, 1, &mut out);
        assert_eq!(out, vec![4, 8, 0]);
        s.on_issue(8, 1);
        s.prioritize(w, 2, &mut out);
        assert_eq!(out, vec![0, 4, 8]);
    }

    #[test]
    fn two_level_caps_active_pool() {
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8, 12] {
            s.on_warp_start(slot, 0);
        }
        assert_eq!(s.active_pool(), &[0, 4]);
        let w = masks(&[0, 4, 8, 12], &[]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&0) && out.contains(&4));
    }

    #[test]
    fn two_level_demotes_blocked_warps_and_emits_event() {
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8] {
            s.on_warp_start(slot, 0);
        }
        // Warp 0 blocks on memory.
        let w = masks(&[0, 4, 8], &[0]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert!(!out.contains(&0), "blocked warp must leave the pool");
        assert!(out.contains(&8), "pending warp must be promoted");
        let mut ev = Vec::new();
        s.drain_events(&mut ev);
        assert_eq!(ev, vec![SchedulerEvent::Deactivated { slot: 0 }]);
        // Events drain once.
        let mut ev2 = Vec::new();
        s.drain_events(&mut ev2);
        assert!(ev2.is_empty());
    }

    #[test]
    fn two_level_demotes_barrier_blocked_warps() {
        let mut s = TwoLevelScheduler::new(1);
        s.on_warp_start(0, 0);
        s.on_warp_start(4, 0);
        let w = StripeMasks {
            live: mask(&[0, 4]),
            long_latency: 0,
            at_barrier: mask(&[0]),
        };
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(
            out,
            vec![4],
            "warp 4 must be promoted so it can reach the barrier"
        );
    }

    #[test]
    fn two_level_reshuffles_pools_when_no_warp_is_ready() {
        // Every live warp of the stripe is blocked, so none can issue; the
        // call must still demote, promote and report the demotions (the SM
        // never skips `prioritize` for this scheduler).
        let mut s = TwoLevelScheduler::new(2);
        for slot in [0, 4, 8] {
            s.on_warp_start(slot, 0);
        }
        assert!(!s.idle_prioritize_is_noop());
        let w = masks(&[0, 4, 8], &[0, 4, 8]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(s.active_pool(), &[8, 0], "pending warp 8 is promoted");
        assert_eq!(out, vec![8, 0]);
        let mut ev = Vec::new();
        s.drain_events(&mut ev);
        assert_eq!(
            ev,
            vec![
                SchedulerEvent::Deactivated { slot: 0 },
                SchedulerEvent::Deactivated { slot: 4 },
            ]
        );
    }

    #[test]
    fn two_level_finish_promotes_pending() {
        let mut s = TwoLevelScheduler::new(1);
        s.on_warp_start(0, 0);
        s.on_warp_start(4, 0);
        assert_eq!(s.active_pool(), &[0]);
        s.on_warp_finish(0);
        assert_eq!(s.active_pool(), &[4]);
    }

    #[test]
    fn fetch_group_prioritizes_current_group() {
        let mut s = FetchGroupScheduler::new(2);
        let w = masks(&[0, 4, 8, 12], &[]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(out, vec![0, 4, 8, 12]);
    }

    #[test]
    fn fetch_group_rotates_when_group_blocked() {
        let mut s = FetchGroupScheduler::new(2);
        let w = masks(&[0, 4, 8, 12], &[0, 4]);
        let mut out = Vec::new();
        s.prioritize(w, 0, &mut out);
        assert_eq!(out, vec![8, 12, 0, 4]);
    }

    #[test]
    fn build_scheduler_dispatches_policy() {
        assert_eq!(build_scheduler(SchedulerPolicy::Gto).name(), "GTO");
        assert_eq!(build_scheduler(SchedulerPolicy::Lrr).name(), "LRR");
        assert_eq!(
            build_scheduler(SchedulerPolicy::TwoLevel {
                active_per_scheduler: 6
            })
            .name(),
            "TL"
        );
        assert_eq!(
            build_scheduler(SchedulerPolicy::FetchGroup { group_size: 8 }).name(),
            "FG"
        );
    }
}
