//! The streaming multiprocessor (SM) pipeline.
//!
//! Per cycle, in order: (1) retire completed loads/stores and execution
//! results, (2) advance the operand collectors and bank arbiter, (3) let
//! each warp scheduler issue up to its width, executing issued instructions
//! functionally and allocating collector entries for their register
//! operands, (4) drive the register-file model's per-cycle hook (the
//! adaptive-FRF epoch detector counts issued instructions here).
//!
//! The facts the issue stage consults every cycle are kept up to date where
//! they change rather than rebuilt by a scan: warp residency, liveness and
//! barrier waits are `u64` bitmasks over the warp slots (plus one mask of
//! resident warps per CTA slot), each pc's scoreboard operands are
//! precomputed as [`Hazard`] masks, and the operand collector keeps its
//! free-unit count and age order. With `GpuConfig::audit` on, the cached
//! state is cross-checked against a scan of the warp contexts and collector
//! units at CTA dispatch, at warp finish and at the end of the run.

use std::sync::Arc;

use prf_isa::{CtaId, GridConfig, Kernel, PredReg, ReconvergenceTable, Reg};

use crate::audit::{AuditReport, Auditor};
use crate::collector::{CollectDest, CollectedInstr, CompletedWrite, OperandCollector};
use crate::config::GpuConfig;
use crate::exec::{bits, execute_warp_instruction_into, ExecEnv, ExecOutcome};
use crate::mem::{GlobalMemory, GmemView, L1Cache, LoadStoreUnit, SharedMemory};
use crate::rf::{AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use crate::sampling::{SampleSeries, SmSampler};
use crate::scheduler::{build_scheduler, SchedulerEvent, StripeMasks, WarpScheduler};
use crate::scoreboard::{Hazard, Scoreboard};
use crate::stats::SmStats;
use crate::trace::{TraceEvent, TraceRing};
use crate::warp::{WarpBlock, WarpContext};

/// Everything the SM needs to know about the running kernel.
///
/// The kernel is held behind an [`Arc`] so a launch never deep-copies the
/// instruction stream: all SMs of a run — and all concurrent runs of a
/// parallel experiment matrix — share one immutable image.
#[derive(Debug)]
pub struct KernelImage {
    /// The kernel itself.
    pub kernel: Arc<Kernel>,
    /// IPDOM reconvergence table.
    pub rt: ReconvergenceTable,
    /// Launch geometry.
    pub grid: GridConfig,
    /// Scoreboard hazard masks of each pc's instruction.
    pub hazards: Vec<Hazard>,
}

impl KernelImage {
    /// Prepares a kernel for execution (computes the reconvergence table).
    /// Accepts an owned [`Kernel`] or an existing `Arc<Kernel>`.
    pub fn new(kernel: impl Into<Arc<Kernel>>, grid: GridConfig) -> Self {
        let kernel = kernel.into();
        let rt = ReconvergenceTable::compute(&kernel);
        let hazards = kernel.instructions().iter().map(Hazard::of).collect();
        KernelImage {
            kernel,
            rt,
            grid,
            hazards,
        }
    }

    fn env(&self) -> ExecEnv {
        ExecEnv {
            threads_per_cta: self.grid.threads_per_cta,
            num_ctas: self.grid.num_ctas,
        }
    }
}

/// The mask of slots `0..n` (`n <= 64`).
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[derive(Debug)]
struct InflightInstr {
    warp_slot: usize,
    dst_reg: Option<Reg>,
    pred_dst: Option<PredReg>,
    is_load: bool,
    global_addrs: Vec<u32>,
    shared_access: bool,
}

/// One streaming multiprocessor.
pub struct Sm {
    /// SM index (0-based).
    pub id: usize,
    config: GpuConfig,
    image: Arc<KernelImage>,
    warps: Vec<Option<WarpContext>>,
    /// Slots holding a context (`warps[slot].is_some()`), one bit per slot.
    resident: u64,
    /// Resident slots whose warp has lanes left to run (not `exited()`).
    live: u64,
    /// Slots whose warp waits at a CTA barrier (`WarpBlock::Barrier`).
    at_barrier: u64,
    /// Slots whose next instruction collides with no pending scoreboard
    /// write; refreshed whenever a slot's pc or scoreboard changes.
    hazard_free: u64,
    /// Slots whose next instruction needs an operand collector unit.
    wants_collector: u64,
    /// Slots with loads outstanding (`pending_loads[slot] > 0`).
    loading: u64,
    /// Per scheduler, the warp slots it owns (`slot % num_schedulers`).
    stripes: Vec<u64>,
    /// Per CTA slot, the warp slots its warps were dispatched to; 0 marks
    /// a free CTA slot. Bits stay set after a warp finishes, and a finished
    /// warp's slot may be reused by another CTA while this one is resident
    /// (see [`Sm::release_barriers`] and [`Sm::maybe_finish_warp`]).
    cta_warps: Vec<u64>,
    scoreboards: Vec<Scoreboard>,
    pending_loads: Vec<u32>,
    schedulers: Vec<Box<dyn WarpScheduler>>,
    collector: OperandCollector,
    lsu: LoadStoreUnit,
    shared_unit: LoadStoreUnit,
    l1: L1Cache,
    rf: Box<dyn RegisterFileModel>,
    shared_mem: Vec<SharedMemory>,
    /// In-flight instructions indexed by token; freed tokens are reused.
    inflight: Vec<Option<InflightInstr>>,
    free_tokens: Vec<u64>,
    exec_completions: Vec<(u64, u64)>, // (cycle, token)
    /// Statistics for this SM.
    pub stats: SmStats,
    /// (cta, warp_in_cta, finish_cycle) of finished warps, drained by the GPU.
    pub finished_warps: Vec<(u32, u32, u64)>,
    sched_events: Vec<SchedulerEvent>,
    next_dispatch_allowed: u64,
    /// Pipeline-event trace ring (enabled via `GpuConfig::trace_capacity`).
    pub trace: TraceRing,
    /// Conservation-invariant auditor (enabled via `GpuConfig::audit`);
    /// consumed by [`Sm::finish_audit`].
    audit: Option<Auditor>,
    /// Windowed time-series sampler (enabled via `GpuConfig::sampling`);
    /// consumed by [`Sm::finish_sampling`].
    sampler: Option<SmSampler>,
    /// The closed series, parked between [`Sm::finish_sampling`] and
    /// [`Sm::take_samples`] so [`Sm::finish_audit`] can cross-check it.
    samples: Option<SampleSeries>,
    // Reusable per-cycle scratch buffers (allocation-free hot path): each
    // is taken out of `self` for the duration of one phase and put back,
    // so steady-state cycles perform no heap allocation.
    mem_done_scratch: Vec<u64>,
    due_scratch: Vec<u64>,
    collected_scratch: Vec<CollectedInstr>,
    writes_done_scratch: Vec<CompletedWrite>,
    segs_scratch: Vec<u32>,
    order_scratch: Vec<usize>,
    reads_scratch: Vec<Reg>,
    resolved_scratch: Vec<ResolvedAccess>,
    /// Recycled address buffers for [`ExecOutcome::with_buffer`]; in-flight
    /// memory instructions return theirs on retire.
    addr_pool: Vec<Vec<u32>>,
    /// Retired warp contexts kept for reuse: dispatching a warp reinits a
    /// pooled context instead of allocating ~`WARP_SIZE` register vectors.
    /// Pool contents never affect results ([`WarpContext::reinit`]).
    warp_pool: Vec<WarpContext>,
    /// Global-memory writes staged by this SM during the current cycle,
    /// applied by [`Sm::commit_global_writes`] in SM-id order (two-phase
    /// execute/commit, see [`crate::GmemView`]).
    global_writes: Vec<(u32, u32)>,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("resident_warps", &self.resident_warps())
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM running `image` with the given register-file model.
    pub fn new(
        id: usize,
        config: &GpuConfig,
        image: Arc<KernelImage>,
        rf: Box<dyn RegisterFileModel>,
    ) -> Self {
        assert!(
            config.max_warps_per_sm <= 64,
            "warp slots are tracked in u64 masks"
        );
        let schedulers = (0..config.num_schedulers)
            .map(|_| build_scheduler(config.scheduler))
            .collect();
        let stripes = (0..config.num_schedulers)
            .map(|sched| {
                (sched..config.max_warps_per_sm)
                    .step_by(config.num_schedulers)
                    .fold(0u64, |m, slot| m | 1 << slot)
            })
            .collect();
        Sm {
            id,
            config: config.clone(),
            warps: (0..config.max_warps_per_sm).map(|_| None).collect(),
            resident: 0,
            live: 0,
            at_barrier: 0,
            hazard_free: 0,
            wants_collector: 0,
            loading: 0,
            stripes,
            cta_warps: vec![0; config.max_ctas_per_sm],
            scoreboards: (0..config.max_warps_per_sm)
                .map(|_| Scoreboard::new())
                .collect(),
            pending_loads: vec![0; config.max_warps_per_sm],
            schedulers,
            collector: OperandCollector::new(
                config.num_collectors,
                config.num_rf_banks,
                config.rf_pipelined,
            ),
            lsu: LoadStoreUnit::new(),
            shared_unit: LoadStoreUnit::new(),
            l1: L1Cache::new(config.l1_lines),
            rf,
            shared_mem: (0..config.max_ctas_per_sm)
                .map(|_| SharedMemory::new(config.shared_mem_words))
                .collect(),
            inflight: Vec::new(),
            free_tokens: Vec::new(),
            exec_completions: Vec::new(),
            stats: SmStats::new(),
            finished_warps: Vec::new(),
            sched_events: Vec::new(),
            next_dispatch_allowed: 0,
            trace: TraceRing::new(config.trace_capacity),
            audit: config
                .audit
                .then(|| Auditor::new(id, config.max_warps_per_sm)),
            sampler: config.sampling.map(SmSampler::new),
            samples: None,
            mem_done_scratch: Vec::new(),
            due_scratch: Vec::new(),
            collected_scratch: Vec::new(),
            writes_done_scratch: Vec::new(),
            segs_scratch: Vec::new(),
            order_scratch: Vec::new(),
            reads_scratch: Vec::new(),
            resolved_scratch: Vec::new(),
            addr_pool: Vec::new(),
            warp_pool: Vec::new(),
            global_writes: Vec::new(),
            image,
        }
    }

    /// Records one pipeline event into the trace ring and, when auditing,
    /// into the auditor's counters. Both sinks see the same stream.
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(a) = self.audit.as_mut() {
            a.observe(&ev);
        }
        self.trace.record(ev);
    }

    /// True when at least one event sink (trace ring or auditor) is live —
    /// the guard for event construction on the hot issue path.
    fn observing(&self) -> bool {
        self.trace.enabled() || self.audit.is_some()
    }

    /// Closes the time-series sampler (flushing the partial final window);
    /// call once after the run, *before* [`Sm::finish_audit`] so the audit
    /// can cross-check the series. No-op without `GpuConfig::sampling`.
    pub fn finish_sampling(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            self.samples = Some(sampler.finish(self.id, &self.stats, self.resident_warps()));
        }
    }

    /// Takes the closed sampled series out of the SM (drained into
    /// [`crate::SimResult`] by the GPU driver).
    pub fn take_samples(&mut self) -> Option<SampleSeries> {
        self.samples.take()
    }

    /// Finalises the auditor against this SM's statistics; `None` unless
    /// `GpuConfig::audit` was set. Call once, after the run completes (and
    /// after [`Sm::finish_sampling`], whose series is audited here too).
    pub fn finish_audit(&mut self, final_cycle: u64) -> Option<AuditReport> {
        self.audit_cached_state(final_cycle);
        let auditor = self.audit.take()?;
        let mut report = auditor.finish(&self.stats, self.rf.rfc_evictions(), final_cycle);
        if let Some(series) = &self.samples {
            crate::sampling::check_series_conservation(
                &mut report,
                series,
                &self.stats,
                final_cycle,
                self.id,
            );
        }
        Some(report)
    }

    /// Cross-checks the cached warp masks and the collector's free count
    /// and age list against a scan of the warp contexts and collector
    /// units; a mismatch becomes an audit violation. No-op unless
    /// `GpuConfig::audit` is set. Adds nothing to the report's check
    /// count, so a clean report's counters are the same with or without it.
    fn audit_cached_state(&mut self, cycle: u64) {
        let Some(audit) = self.audit.as_mut() else {
            return;
        };
        let (mut resident, mut live, mut at_barrier) = (0u64, 0u64, 0u64);
        let (mut hazard_free, mut wants_collector, mut loading) = (0u64, 0u64, 0u64);
        // Each resident warp's slot must be among its own CTA's slots.
        let mut outside_own_cta = 0u64;
        for (slot, w) in self.warps.iter().enumerate() {
            let Some(w) = w else { continue };
            let bit = 1u64 << slot;
            resident |= bit;
            if !w.exited() {
                live |= bit;
            }
            if w.block == WarpBlock::Barrier {
                at_barrier |= bit;
            }
            if let Some(pc) = w.stack.pc() {
                let hazard = &self.image.hazards[pc];
                if !self.scoreboards[slot].blocks(hazard) {
                    hazard_free |= bit;
                }
                if hazard.needs_collector {
                    wants_collector |= bit;
                }
            }
            if self.pending_loads[slot] > 0 {
                loading |= bit;
            }
            if self.cta_warps[w.cta_slot] & bit == 0 {
                outside_own_cta |= bit;
            }
        }
        let masks = [
            ("resident", self.resident, resident),
            ("live", self.live, live),
            ("at-barrier", self.at_barrier, at_barrier),
            ("hazard-free", self.hazard_free, hazard_free),
            ("wants-collector", self.wants_collector, wants_collector),
            ("loading", self.loading, loading),
        ];
        for (name, cached, scanned) in masks {
            if cached != scanned {
                let slot = (cached ^ scanned).trailing_zeros() as usize;
                audit.note_cached_state_mismatch(
                    Some(slot),
                    format!("{name} mask {cached:#x} but the warp scan gives {scanned:#x}"),
                    cycle,
                );
            }
        }
        if outside_own_cta != 0 {
            audit.note_cached_state_mismatch(
                Some(outside_own_cta.trailing_zeros() as usize),
                format!("warp slots {outside_own_cta:#x} are missing from their CTA's slot mask"),
                cycle,
            );
        }
        if let Some(detail) = self.collector.cached_state_mismatch() {
            audit.note_cached_state_mismatch(None, detail, cycle);
        }
    }

    /// Flips `slot`'s bit in the cached live mask, so tests can check that
    /// the audit catches a drifted cache.
    #[cfg(test)]
    fn corrupt_live_bit(&mut self, slot: usize) {
        self.live ^= 1u64 << slot;
    }

    /// Notifies the register-file model that a new kernel begins.
    pub fn notify_kernel_launch(&mut self, cycle: u64) {
        self.rf.on_kernel_launch(&self.image.kernel, cycle);
    }

    /// Number of CTAs currently resident.
    pub fn resident_ctas(&self) -> usize {
        self.cta_warps.iter().filter(|&&m| m != 0).count()
    }

    /// Number of warps currently resident.
    pub fn resident_warps(&self) -> usize {
        self.resident.count_ones() as usize
    }

    /// True when no warp is resident and no instruction is in flight.
    pub fn is_idle(&self) -> bool {
        self.resident == 0
            && self.free_tokens.len() == self.inflight.len()
            && self.collector.is_idle()
            && self.lsu.is_idle()
            && self.shared_unit.is_idle()
    }

    /// Tries to make `cta` resident; returns `false` when out of CTA slots,
    /// warp slots, register capacity, or still within the dispatch
    /// interval after the previous CTA launch.
    pub fn try_dispatch_cta(&mut self, cta: CtaId, cycle: u64) -> bool {
        let grid = self.image.grid;
        let regs = self.image.kernel.regs_per_thread().max(1) as usize;
        let warps_needed = grid.warps_per_cta() as usize;

        if cycle < self.next_dispatch_allowed {
            return false;
        }
        let Some(cta_slot) = self.cta_warps.iter().position(|&m| m == 0) else {
            return false;
        };
        // Register-capacity limit.
        let regs_in_use = self.resident_warps() * 32 * regs;
        if regs_in_use + warps_needed * 32 * regs > self.config.rf_registers {
            return false;
        }
        let mut free = !self.resident & low_mask(self.warps.len());
        if (free.count_ones() as usize) < warps_needed {
            return false;
        }

        for w in 0..warps_needed {
            let slot = free.trailing_zeros() as usize;
            free &= free - 1;
            let mask = grid.active_mask(w as u32);
            let warp = match self.warp_pool.pop() {
                Some(mut ctx) => {
                    ctx.reinit(slot, cta_slot, cta, w as u32, mask, regs, cycle);
                    ctx
                }
                None => WarpContext::new(slot, cta_slot, cta, w as u32, mask, regs, cycle),
            };
            self.scoreboards[slot] = Scoreboard::new();
            self.pending_loads[slot] = 0;
            let nsched = self.schedulers.len();
            self.schedulers[slot % nsched].on_warp_start(slot, cycle);
            self.rf.on_warp_start(
                WarpLifecycle {
                    slot,
                    cta: cta.0,
                    warp_in_cta: w as u32,
                },
                cycle,
            );
            self.warps[slot] = Some(warp);
            let bit = 1u64 << slot;
            self.resident |= bit;
            self.live |= bit;
            self.loading &= !bit;
            self.cta_warps[cta_slot] |= bit;
            self.refresh_hazard(slot);
        }
        // Fresh shared memory for the CTA (zeroed in place).
        self.shared_mem[cta_slot].reset(self.config.shared_mem_words);
        self.next_dispatch_allowed = cycle + self.config.cta_dispatch_interval;
        self.emit(TraceEvent::CtaDispatch {
            cycle,
            sm: self.id,
            cta: cta.0,
        });
        self.audit_cached_state(cycle);
        true
    }

    /// Records an in-flight instruction and returns its token.
    fn insert_inflight(&mut self, info: InflightInstr) -> u64 {
        match self.free_tokens.pop() {
            Some(token) => {
                self.inflight[token as usize] = Some(info);
                token
            }
            None => {
                self.inflight.push(Some(info));
                self.inflight.len() as u64 - 1
            }
        }
    }

    fn inflight_ref(&self, token: u64) -> Option<&InflightInstr> {
        self.inflight.get(token as usize).and_then(Option::as_ref)
    }

    fn retire(&mut self, token: u64, cycle: u64) {
        let Some(info) = self.inflight.get_mut(token as usize).and_then(Option::take) else {
            return;
        };
        self.free_tokens.push(token);
        if let Some(p) = info.pred_dst {
            self.scoreboards[info.warp_slot].release_pred(p);
            if self.observing() {
                self.emit(TraceEvent::ScoreboardRelease {
                    cycle,
                    sm: self.id,
                    warp: info.warp_slot,
                });
            }
        }
        if info.is_load {
            let pending = &mut self.pending_loads[info.warp_slot];
            *pending = pending.saturating_sub(1);
            if *pending == 0 {
                self.loading &= !(1u64 << info.warp_slot);
            }
        }
        if info.pred_dst.is_some() {
            self.refresh_hazard(info.warp_slot);
        }
        if let Some(w) = self.warps[info.warp_slot].as_mut() {
            w.inflight = w.inflight.saturating_sub(1);
        }
        let mut buf = info.global_addrs;
        buf.clear();
        self.addr_pool.push(buf);
        self.maybe_finish_warp(info.warp_slot, cycle);
    }

    fn maybe_finish_warp(&mut self, slot: usize, cycle: u64) {
        let done = match self.warps[slot].as_ref() {
            Some(w) => w.exited() && w.inflight == 0,
            None => false,
        };
        if !done {
            return;
        }
        let w = self.warps[slot].take().expect("checked above");
        self.resident &= !(1u64 << slot);
        self.refresh_hazard(slot);
        if let Some(a) = self.audit.as_mut() {
            // A finished warp must hold no scoreboard reservations; a
            // pending bit here means a lost release somewhere upstream.
            let pending = self.scoreboards[slot].pending_count();
            if pending != 0 {
                a.note_unclear_scoreboard(slot, pending, cycle);
            }
        }
        self.emit(TraceEvent::WarpFinish {
            cycle,
            sm: self.id,
            warp: slot,
        });
        let nsched = self.schedulers.len();
        self.schedulers[slot % nsched].on_warp_finish(slot);
        self.rf.on_warp_finish(
            WarpLifecycle {
                slot,
                cta: w.cta.0,
                warp_in_cta: w.warp_in_cta,
            },
            cycle,
        );
        self.finished_warps.push((w.cta.0, w.warp_in_cta, cycle));
        // CTA completion check: the finishing warp's CTA slot frees when
        // none of the slots it was dispatched to holds a warp. Only this
        // warp's own CTA is checked, and a slot reused by another CTA's warp
        // counts as occupied, so a CTA whose last own warp finishes while a
        // foreign warp sits in one of its slots is never freed. This is the
        // model the committed baselines were produced with (DESIGN §7.5).
        let cta_slot = w.cta_slot;
        if self.cta_warps[cta_slot] & self.resident == 0 {
            self.cta_warps[cta_slot] = 0;
        }
        self.warp_pool.push(w);
        self.audit_cached_state(cycle);
    }

    /// Seeds the warp-context pool with recycled contexts from an earlier
    /// run (see [`crate::Gpu`]'s cross-launch pool). Purely an allocation
    /// optimisation; never changes results.
    pub fn donate_warp_contexts(&mut self, pool: &mut Vec<WarpContext>) {
        self.warp_pool.append(pool);
    }

    /// Returns the pooled warp contexts so a later run can reuse them.
    pub fn reclaim_warp_contexts(&mut self) -> Vec<WarpContext> {
        std::mem::take(&mut self.warp_pool)
    }

    /// True when the live warps in some resident CTA's slots all wait at
    /// the barrier, so the next barrier phase releases them.
    fn barrier_release_pending(&self) -> bool {
        self.at_barrier != 0
            && self.cta_warps.iter().any(|&cta| {
                let live = cta & self.live;
                live != 0 && live & !self.at_barrier == 0
            })
    }

    /// Releases, CTA slot by CTA slot, every warp in a CTA's slots once all
    /// live warps there wait at the barrier. The slots are those the CTA
    /// was dispatched to, so a warp of another CTA that reused one of them
    /// counts and is released too; releases are applied in CTA-slot order,
    /// each seeing the ones before it.
    fn release_barriers(&mut self) {
        if self.at_barrier == 0 {
            return;
        }
        for c in 0..self.cta_warps.len() {
            let live = self.cta_warps[c] & self.live;
            if live != 0 && live & !self.at_barrier == 0 {
                for slot in bits(live) {
                    if let Some(w) = self.warps[slot].as_mut() {
                        w.block = WarpBlock::None;
                    }
                }
                self.at_barrier &= !live;
            }
        }
    }

    /// Recomputes `slot`'s bits in `hazard_free` and `wants_collector` from
    /// its current pc and scoreboard (both clear when no warp runs there).
    fn refresh_hazard(&mut self, slot: usize) {
        let bit = 1u64 << slot;
        self.hazard_free &= !bit;
        self.wants_collector &= !bit;
        if let Some(pc) = self.warps[slot].as_ref().and_then(|w| w.stack.pc()) {
            let hazard = &self.image.hazards[pc];
            if !self.scoreboards[slot].blocks(hazard) {
                self.hazard_free |= bit;
            }
            if hazard.needs_collector {
                self.wants_collector |= bit;
            }
        }
    }

    /// Scheduler `sched`'s stripe of the warp state, for `prioritize`.
    fn stripe_masks(&self, sched: usize) -> StripeMasks {
        let live = self.live & self.stripes[sched];
        StripeMasks {
            live,
            // "Long latency" = the warp's next instruction is blocked by
            // the scoreboard while it has loads outstanding.
            long_latency: live & self.loading & !self.hazard_free,
            at_barrier: live & self.at_barrier,
        }
    }

    /// Slots that can issue their next instruction this cycle: live, not
    /// at a barrier, no scoreboard hazard, and a free collector unit for
    /// those whose instruction needs one.
    fn ready(&self) -> u64 {
        let issuable = self.live & !self.at_barrier & self.hazard_free;
        if self.collector.has_free_unit() {
            issuable
        } else {
            issuable & !self.wants_collector
        }
    }

    /// Returns true when the warp at `slot` can issue its next instruction.
    fn can_issue(&self, slot: usize) -> bool {
        self.ready() & (1u64 << slot) != 0
    }

    /// Issues the next instruction of warp `slot`; `image` is this SM's
    /// kernel image. Caller must have checked [`Sm::can_issue`].
    fn issue(&mut self, image: &KernelImage, slot: usize, cycle: u64, global: &mut GmemView<'_>) {
        let w = self.warps[slot]
            .as_mut()
            .expect("can_issue checked residency");
        let pc = w.stack.pc().expect("can_issue checked pc");
        let instr = image.kernel.fetch(pc);
        let env = image.env();

        // Functional execution (updates pc / SIMT stack / registers /
        // predicates / memory).
        let cta_slot = w.cta_slot;
        let trace_pc = pc;
        let mut outcome = ExecOutcome::with_buffer(self.addr_pool.pop().unwrap_or_default());
        execute_warp_instruction_into(
            w,
            instr,
            &image.rt,
            &env,
            global,
            &mut self.shared_mem[cta_slot],
            &mut outcome,
        );
        let bit = 1u64 << slot;
        if outcome.hit_barrier {
            w.block = WarpBlock::Barrier;
            self.at_barrier |= bit;
        }
        if w.exited() {
            self.live &= !bit;
        }
        let cta = w.cta.0;
        let warp_in_cta = w.warp_in_cta;
        self.stats.active_lane_sum += u64::from(outcome.active_lanes);
        if let Some(diverged) = outcome.branch {
            self.stats.total_branches += 1;
            if diverged {
                self.stats.divergent_branches += 1;
            }
        }
        if self.observing() {
            self.emit(TraceEvent::Issue {
                cycle,
                sm: self.id,
                warp: slot,
                pc: trace_pc,
            });
            if outcome.hit_barrier {
                self.emit(TraceEvent::BarrierWait {
                    cycle,
                    sm: self.id,
                    warp: slot,
                });
            }
        }

        // Register-file bookkeeping. Reads are resolved here, exactly once
        // per access (stateful models depend on this).
        let mut reads = std::mem::take(&mut self.reads_scratch);
        reads.clear();
        reads.extend(instr.reg_reads());
        let dst_reg = instr.reg_write();
        let mut resolved_reads = std::mem::take(&mut self.resolved_scratch);
        resolved_reads.clear();
        for &r in &reads {
            self.rf.observe_access(slot, r, AccessKind::Read, cycle);
            resolved_reads.push(self.rf.resolve(slot, r, AccessKind::Read, cycle));
            self.stats.reg_accesses.record(r);
        }
        if let Some(r) = dst_reg {
            self.rf.observe_access(slot, r, AccessKind::Write, cycle);
            self.stats.reg_accesses.record(r);
        }
        if self.config.per_warp_stats {
            let h = self.stats.per_warp.entry((cta, warp_in_cta)).or_default();
            for &r in &reads {
                h.record(r);
            }
            if let Some(r) = dst_reg {
                h.record(r);
            }
        }

        let pred_dst = match instr.dst {
            prf_isa::Dst::Pred(p) => Some(p),
            _ => None,
        };
        if image.hazards[pc].needs_collector {
            self.scoreboards[slot].reserve(instr);
            if (dst_reg.is_some() || pred_dst.is_some()) && self.observing() {
                // `reserve` set exactly one pending bit (Dst is exclusive).
                self.emit(TraceEvent::ScoreboardReserve {
                    cycle,
                    sm: self.id,
                    warp: slot,
                });
            }
            let is_load = instr.opcode.is_load();
            if is_load {
                self.pending_loads[slot] += 1;
                self.loading |= bit;
            }
            let dest = if instr.opcode.exec_class() == prf_isa::ExecClass::Mem {
                CollectDest::Memory
            } else {
                let latency = match instr.opcode.exec_class() {
                    prf_isa::ExecClass::Fp => self.config.fp_latency,
                    prf_isa::ExecClass::Sfu => self.config.sfu_latency,
                    _ => self.config.alu_latency,
                };
                CollectDest::Execute {
                    latency,
                    writeback: dst_reg,
                }
            };
            let token = self.insert_inflight(InflightInstr {
                warp_slot: slot,
                dst_reg,
                pred_dst,
                is_load,
                global_addrs: outcome.global_addrs,
                shared_access: outcome.shared_access,
            });
            let ok = self.collector.allocate(slot, &resolved_reads, dest, token);
            debug_assert!(ok, "can_issue checked for a free unit");
            if let Some(a) = self.audit.as_mut() {
                a.note_collector_alloc();
            }
            if let Some(w) = self.warps[slot].as_mut() {
                w.inflight += 1;
            }
        } else {
            // Control instructions (Bra/Exit/Bar/Nop) retire at issue;
            // their address buffer goes straight back to the pool.
            let mut buf = outcome.global_addrs;
            buf.clear();
            self.addr_pool.push(buf);
        }
        self.reads_scratch = reads;
        self.resolved_scratch = resolved_reads;

        self.stats.instructions += 1;
        self.refresh_hazard(slot);
        self.maybe_finish_warp(slot, cycle);
    }

    /// Advances the SM by one cycle. Returns the number of instructions
    /// issued.
    ///
    /// Global-memory writes are *staged*, not applied: the driver must call
    /// [`Sm::commit_global_writes`] (in ascending SM order) after every SM
    /// of the cycle has stepped. Reads through the [`GmemView`] still see
    /// this SM's own same-cycle stores, in program order.
    pub fn cycle(&mut self, cycle: u64, global: &GlobalMemory) -> u32 {
        if self.resident != 0 {
            self.stats.active_cycles += 1;
        }

        // 1. LSU + shared-memory-unit completions -> writeback (loads) or
        // retire (stores).
        let mut mem_done = std::mem::take(&mut self.mem_done_scratch);
        mem_done.clear();
        self.lsu.tick_into(cycle, &mut mem_done);
        self.shared_unit.tick_into(cycle, &mut mem_done);
        for &token in &mem_done {
            let (slot, dst) = match self.inflight_ref(token) {
                Some(i) => (i.warp_slot, i.dst_reg),
                None => continue,
            };
            if self.observing() {
                self.emit(TraceEvent::LsuComplete {
                    cycle,
                    sm: self.id,
                    warp: slot,
                });
            }
            match dst {
                Some(reg) => {
                    // Result forwarding: dependents see the value as soon
                    // as it returns; the RF write itself is overlapped.
                    self.scoreboards[slot].release_reg(reg);
                    self.refresh_hazard(slot);
                    if self.observing() {
                        self.emit(TraceEvent::ScoreboardRelease {
                            cycle,
                            sm: self.id,
                            warp: slot,
                        });
                    }
                    let access = self.rf.resolve(slot, reg, AccessKind::Write, cycle);
                    self.collector.request_writeback(slot, reg, access, token);
                }
                None => self.retire(token, cycle),
            }
        }
        self.mem_done_scratch = mem_done;

        // 2. Execution-pipe completions -> writeback or retire.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.exec_completions.retain(|&(at, token)| {
            if at <= cycle {
                due.push(token);
                false
            } else {
                true
            }
        });
        for &token in &due {
            let (slot, dst) = match self.inflight_ref(token) {
                Some(i) => (i.warp_slot, i.dst_reg),
                None => continue,
            };
            match dst {
                Some(reg) => {
                    // Result forwarding (as above).
                    self.scoreboards[slot].release_reg(reg);
                    self.refresh_hazard(slot);
                    if self.observing() {
                        self.emit(TraceEvent::ScoreboardRelease {
                            cycle,
                            sm: self.id,
                            warp: slot,
                        });
                    }
                    let access = self.rf.resolve(slot, reg, AccessKind::Write, cycle);
                    self.collector.request_writeback(slot, reg, access, token);
                }
                None => self.retire(token, cycle),
            }
        }
        self.due_scratch = due;

        // 3. Operand collectors + bank arbiter. The RF-port callback feeds
        // the stats counters and (disjoint borrows) the event sinks, so the
        // audit's independent copy sees exactly the granted accesses —
        // including the repair premium of accesses that landed on faulty
        // rows.
        let stats_pa = &mut self.stats.partition_accesses;
        let stats_repairs = &mut self.stats.rf_repairs;
        let trace = &mut self.trace;
        let mut audit = self.audit.as_mut();
        let sm_id = self.id;
        let observing = trace.enabled() || audit.is_some();
        let mut collected = std::mem::take(&mut self.collected_scratch);
        let mut completed_writes = std::mem::take(&mut self.writes_done_scratch);
        let collector = &mut self.collector;
        collector.tick_into(
            cycle,
            |access, k| {
                stats_pa.record(access.partition, k);
                if let Some(repair) = access.repair {
                    stats_repairs[repair.index()] += 1;
                }
                if observing {
                    let ev = match k {
                        AccessKind::Read => TraceEvent::RfRead {
                            cycle,
                            sm: sm_id,
                            partition: access.partition,
                        },
                        AccessKind::Write => TraceEvent::RfWrite {
                            cycle,
                            sm: sm_id,
                            partition: access.partition,
                        },
                    };
                    if let Some(a) = audit.as_deref_mut() {
                        a.observe(&ev);
                    }
                    trace.record(ev);
                    if let Some(repair) = access.repair {
                        let rev = TraceEvent::RfRepair {
                            cycle,
                            sm: sm_id,
                            repair,
                        };
                        if let Some(a) = audit.as_deref_mut() {
                            a.observe(&rev);
                        }
                        trace.record(rev);
                    }
                }
            },
            &mut collected,
            &mut completed_writes,
        );
        for c in collected.drain(..) {
            if self.observing() {
                self.emit(TraceEvent::Collect {
                    cycle,
                    sm: self.id,
                    warp: c.warp_slot,
                    mem: matches!(c.dest, CollectDest::Memory),
                });
            }
            match c.dest {
                CollectDest::Execute { latency, writeback } => {
                    if writeback.is_some() || self.inflight_ref(c.token).is_some() {
                        self.exec_completions
                            .push((cycle + u64::from(latency), c.token));
                    }
                }
                CollectDest::Memory => {
                    let info = self.inflight[c.token as usize]
                        .as_ref()
                        .expect("mem op is in flight");
                    if info.shared_access {
                        // Shared memory has its own pipeline, separate from
                        // the global-memory LSU (as on real SMs).
                        self.shared_unit
                            .submit(c.token, self.config.shared_mem_latency, 1);
                        continue;
                    }
                    let (latency, transactions) = {
                        let mut segs = std::mem::take(&mut self.segs_scratch);
                        LoadStoreUnit::coalesce_into(&info.global_addrs, &mut segs);
                        let txns = (segs.len() as u32).max(1);
                        let mut any_miss = false;
                        for &s in &segs {
                            if !self.l1.access(s * crate::mem::LINE_WORDS) {
                                any_miss = true;
                            }
                        }
                        self.segs_scratch = segs;
                        let lat = if any_miss {
                            self.config.l1_miss_latency
                        } else {
                            self.config.l1_hit_latency
                        };
                        (lat, txns)
                    };
                    self.lsu.submit(c.token, latency, transactions);
                }
            }
        }
        for &wdone in &completed_writes {
            // Scoreboard was already released at result forwarding; the
            // completed write just retires the instruction.
            if self.observing() {
                self.emit(TraceEvent::Writeback {
                    cycle,
                    sm: self.id,
                    warp: wdone.warp_slot,
                    reg: wdone.reg,
                });
            }
            self.retire(wdone.token, cycle);
        }
        self.collected_scratch = collected;
        self.writes_done_scratch = completed_writes;
        self.stats.bank_conflict_waits = self.collector.bank_conflict_waits;
        self.stats.l1_hits = self.l1.hits;
        self.stats.l1_misses = self.l1.misses;
        self.stats.mem_transactions = self.lsu.transactions;
        self.stats.mem_instructions = self.lsu.instructions + self.shared_unit.instructions;

        // 4. Barrier release.
        self.release_barriers();

        // 5. Issue. Global writes are staged into `global_writes` through a
        // GmemView; the driver commits them in SM-id order after all SMs
        // have stepped this cycle. Only ready warps are visited: a stripe
        // without one skips `prioritize` when that call is a no-op, and a
        // candidate that cannot issue is passed over before its jitter hash
        // (skipping it is exact: the collector-stall check below can only
        // newly fire after an issue).
        let mut issued_total = 0u32;
        let image = Arc::clone(&self.image);
        let mut order = std::mem::take(&mut self.order_scratch);
        let mut staged = std::mem::take(&mut self.global_writes);
        let mut gmem = GmemView::new(global, &mut staged);
        for sched in 0..self.schedulers.len() {
            if self.ready() & self.stripes[sched] == 0
                && self.schedulers[sched].idle_prioritize_is_noop()
            {
                continue;
            }
            let masks = self.stripe_masks(sched);
            self.schedulers[sched].prioritize(masks, cycle, &mut order);
            let mut issued = 0usize;
            for &slot in &order {
                if issued >= self.config.issue_per_scheduler {
                    break;
                }
                if !self.can_issue(slot) {
                    continue;
                }
                // Deterministic issue jitter: skip this warp this cycle
                // with probability 1/issue_jitter (see GpuConfig).
                if self.config.issue_jitter > 0 {
                    let h = cycle
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((slot as u64) << 32)
                        .wrapping_add(self.id as u64)
                        .wrapping_add(self.config.jitter_seed.wrapping_mul(0xD6E8_FEB8_6659_FD93))
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    if (h >> 33).is_multiple_of(u64::from(self.config.issue_jitter)) {
                        continue;
                    }
                }
                // GTO greediness: a warp may issue both slots of its
                // scheduler in one cycle if it stays ready.
                while issued < self.config.issue_per_scheduler && self.can_issue(slot) {
                    self.issue(&image, slot, cycle, &mut gmem);
                    self.schedulers[sched].on_issue(slot, cycle);
                    issued += 1;
                }
                if issued > 0 && !self.collector.has_free_unit() {
                    self.stats.collector_stalls += 1;
                    break;
                }
            }
            issued_total += issued as u32;
            // Export scheduler pool demotions to the RF model (RFC flush).
            self.schedulers[sched].drain_events(&mut self.sched_events);
        }
        self.global_writes = staged;
        self.order_scratch = order;
        for ev in self.sched_events.drain(..) {
            match ev {
                SchedulerEvent::Deactivated { slot } => {
                    self.rf.on_warp_deactivated(slot, cycle);
                }
            }
        }

        if issued_total > 0 {
            self.stats.issue_cycles += 1;
        } else if self.resident != 0 {
            self.classify_zero_issue_stall();
        }

        // 6. RF model per-cycle hook (adaptive FRF epoch counting).
        self.rf.tick(cycle, issued_total);

        // 7. Time-series sampling (window close is amortised; off = one
        // branch). Runs after the RF tick so the FRF-mode gauge reflects
        // this cycle's epoch decision.
        if let Some(sampler) = self.sampler.as_mut() {
            let active_warps = self.resident.count_ones() as usize;
            sampler.on_cycle(cycle, &self.stats, active_warps, self.rf.frf_low_mode());
        }

        issued_total
    }

    /// Classifies a zero-issue cycle with resident warps by its dominant
    /// blocker. Shared by [`Sm::cycle`] and [`Sm::idle_advance`] so skipped
    /// idle spans account stalls identically to stepped ones.
    fn classify_zero_issue_stall(&mut self) {
        let barrier = self.at_barrier.count_ones();
        let waiting = self.live & !self.at_barrier;
        let blocked = waiting & !self.hazard_free;
        let mem = (blocked & self.loading).count_ones();
        let alu = (blocked & !self.loading).count_ones();
        // Ready but starved (collector / width).
        let coll = (waiting & self.hazard_free).count_ones();
        let max = mem.max(barrier).max(coll).max(alu);
        if max > 0 {
            if max == mem {
                self.stats.stall_mem += 1;
            } else if max == barrier {
                self.stats.stall_barrier += 1;
            } else if max == alu {
                self.stats.stall_alu_dep += 1;
            } else {
                self.stats.stall_collector += 1;
            }
        }
    }

    /// Applies the global-memory writes staged during [`Sm::cycle`]. The
    /// driver calls this once per stepped cycle, in ascending SM order, so
    /// other SMs see these stores from the next cycle on.
    pub fn commit_global_writes(&mut self, global: &mut GlobalMemory) {
        for (addr, value) in self.global_writes.drain(..) {
            global.write(addr, value);
        }
    }

    /// Replays the per-cycle bookkeeping of a provably idle cycle — one
    /// where [`Sm::next_event`] guarantees no unit, scoreboard, barrier, or
    /// issue slot can make progress — without running the heavy pipeline
    /// phases. Mirrors [`Sm::cycle`] for every counter that advances on a
    /// stalled cycle (active cycles, stall classification, the RF model's
    /// per-cycle hook, sampling), so a skip-ahead run is bit-identical to a
    /// stepped one.
    pub fn idle_advance(&mut self, cycle: u64) {
        if self.resident != 0 {
            self.stats.active_cycles += 1;
            self.classify_zero_issue_stall();
        }
        self.rf.tick(cycle, 0);
        if let Some(sampler) = self.sampler.as_mut() {
            let active_warps = self.resident.count_ones() as usize;
            sampler.on_cycle(cycle, &self.stats, active_warps, self.rf.frf_low_mode());
        }
    }

    /// The next cycle, strictly after `cycle`, at which stepping this SM
    /// could have an observable effect: a warp can issue, a fully arrived
    /// barrier releases, a load/store or execution pipe completes, or the
    /// operand collector makes progress. `None` when the SM is completely
    /// idle. Conservative by construction — it may wake the driver early,
    /// never late — which keeps skip-ahead exact.
    pub fn next_event(&self, cycle: u64) -> Option<u64> {
        let mut horizon: Option<u64> = None;
        let mut merge = |c: u64| {
            let c = c.max(cycle + 1);
            horizon = Some(horizon.map_or(c, |h| h.min(c)));
        };
        if self.ready() != 0 {
            merge(cycle + 1);
        }
        // A fully arrived barrier releases on the next cycle (phase 4).
        if self.barrier_release_pending() {
            merge(cycle + 1);
        }
        if let Some(c) = self.lsu.next_event(cycle) {
            merge(c);
        }
        if let Some(c) = self.shared_unit.next_event(cycle) {
            merge(c);
        }
        if let Some(c) = self.collector.next_event(cycle) {
            merge(c);
        }
        for &(at, _) in &self.exec_completions {
            merge(at);
        }
        if horizon.is_none() && self.resident != 0 {
            // Resident warps without any pending event would mean a hang;
            // step normally rather than skipping so the cycle limit and
            // audit see it.
            return Some(cycle + 1);
        }
        horizon
    }

    /// The earliest cycle, strictly after `cycle`, at which the CTA
    /// dispatch interval permits this SM to accept another CTA (capacity
    /// permitting). Used for the skip-ahead dispatch horizon while
    /// undispatched CTAs remain.
    pub fn next_dispatch_ready(&self, cycle: u64) -> u64 {
        self.next_dispatch_allowed.max(cycle + 1)
    }

    /// Access to the register-file model (for tests and reports).
    pub fn rf_model(&self) -> &dyn RegisterFileModel {
        self.rf.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::BaselineRf;
    use prf_isa::{CmpOp, KernelBuilder, PredReg, SpecialReg};

    fn simple_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("simple");
        kb.mov_special(Reg(0), SpecialReg::GlobalTid);
        kb.iadd_imm(Reg(1), Reg(0), 5);
        kb.imul_imm(Reg(2), Reg(1), 3);
        kb.stg(Reg(0), Reg(2), 0);
        kb.exit();
        kb.build().unwrap()
    }

    fn run_sm(kernel: Kernel, grid: GridConfig, config: &GpuConfig) -> (Sm, u64, GlobalMemory) {
        let image = Arc::new(KernelImage::new(kernel, grid));
        let mut sm = Sm::new(
            0,
            config,
            Arc::clone(&image),
            Box::new(BaselineRf::stv(config.num_rf_banks)),
        );
        sm.notify_kernel_launch(0);
        let mut global = GlobalMemory::new(config.global_mem_words);
        let mut next_cta = 0u32;
        let mut cycle = 0u64;
        loop {
            while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
                next_cta += 1;
            }
            sm.cycle(cycle, &global);
            sm.commit_global_writes(&mut global);
            cycle += 1;
            if next_cta == grid.num_ctas && sm.is_idle() {
                break;
            }
            assert!(cycle < config.max_cycles, "SM test did not terminate");
        }
        (sm, cycle, global)
    }

    #[test]
    fn single_warp_kernel_completes_with_correct_memory() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 32);
        let (sm, cycles, global) = run_sm(simple_kernel(), grid, &config);
        assert!(cycles > 0);
        assert_eq!(sm.stats.instructions, 5); // 5 instrs x 1 warp
                                              // tid 7: (7+5)*3 = 36 at address 7.
        assert_eq!(global.read(7), 36);
        assert_eq!(global.read(31), (31 + 5) * 3);
    }

    #[test]
    fn multi_cta_kernel_all_ctas_complete() {
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(6, 64);
        let (sm, _, global) = run_sm(simple_kernel(), grid, &config);
        assert_eq!(sm.stats.instructions, 5 * 6 * 2); // 6 CTAs x 2 warps
                                                      // Last thread: tid = 6*64-1 = 383 -> (383+5)*3.
        assert_eq!(global.read(383), (383 + 5) * 3);
        assert_eq!(sm.finished_warps.len(), 12);
    }

    #[test]
    fn rf_access_counts_match_instruction_mix() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 32);
        let (sm, _, _) = run_sm(simple_kernel(), grid, &config);
        // Per warp: mov (W R0), iadd (R R0, W R1), imul (R R1, W R2),
        // stg (R R0, R R2) -> R0: 3, R1: 2, R2: 2.
        assert_eq!(sm.stats.reg_accesses.count(Reg(0)), 3);
        assert_eq!(sm.stats.reg_accesses.count(Reg(1)), 2);
        assert_eq!(sm.stats.reg_accesses.count(Reg(2)), 2);
        // Every architectural access eventually hits a bank.
        assert_eq!(sm.stats.partition_accesses.total(), 7);
    }

    #[test]
    fn barrier_synchronises_cta() {
        // Warp 0 writes shared, all warps barrier, then read back.
        let mut kb = KernelBuilder::new("bar");
        kb.mov_special(Reg(0), SpecialReg::TidX);
        kb.mov_imm(Reg(1), 123);
        // Only warp 0 (tids 0..32) stores.
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 32);
        let skip = kb.new_label();
        kb.bra_if(PredReg(0), false, skip);
        kb.sts(Reg(0), Reg(1), 0);
        kb.place_label(skip);
        kb.bar();
        // Everyone loads tid%32 from shared.
        kb.iand_imm(Reg(2), Reg(0), 31);
        kb.lds(Reg(3), Reg(2), 0);
        kb.stg(Reg(0), Reg(3), 0);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 128);
        let (_, _, global) = run_sm(k, grid, &config);
        for tid in [0u32, 33, 127] {
            assert_eq!(
                global.read(tid),
                123,
                "tid {tid} must observe warp 0's store"
            );
        }
    }

    #[test]
    fn looped_kernel_issues_dynamic_instructions() {
        // 10-iteration loop: dynamic instruction count >> static length.
        let mut kb = KernelBuilder::new("loop");
        kb.mov_imm(Reg(0), 0);
        let top = kb.new_label();
        kb.place_label(top);
        kb.iadd_imm(Reg(0), Reg(0), 1);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 10);
        kb.bra_if(PredReg(0), true, top);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(k, GridConfig::new(1, 32), &config);
        // 1 + 10*3 + 1 = 32 dynamic instructions.
        assert_eq!(sm.stats.instructions, 32);
        // R0 dynamic accesses: mov W(1) + per iter iadd R+W (2) + setp R(1) = 31.
        assert_eq!(sm.stats.reg_accesses.count(Reg(0)), 1 + 10 * 3);
    }

    #[test]
    fn ntv_rf_slows_execution() {
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(4, 256);
        let kernel = || {
            let mut kb = KernelBuilder::new("alu");
            kb.mov_special(Reg(0), SpecialReg::GlobalTid);
            for _ in 0..20 {
                kb.imad(Reg(1), Reg(0), Reg(0), Reg(1));
                kb.iadd(Reg(2), Reg(1), Reg(0));
            }
            kb.stg(Reg(0), Reg(2), 0);
            kb.exit();
            kb.build().unwrap()
        };
        let image = Arc::new(KernelImage::new(kernel(), grid));
        let run = |rf: Box<dyn RegisterFileModel>| -> u64 {
            let mut sm = Sm::new(0, &config, Arc::clone(&image), rf);
            let mut global = GlobalMemory::new(config.global_mem_words);
            let mut next_cta = 0u32;
            let mut cycle = 0u64;
            loop {
                while next_cta < grid.num_ctas && sm.try_dispatch_cta(CtaId(next_cta), cycle) {
                    next_cta += 1;
                }
                sm.cycle(cycle, &global);
                sm.commit_global_writes(&mut global);
                cycle += 1;
                if next_cta == grid.num_ctas && sm.is_idle() {
                    return cycle;
                }
                assert!(cycle < 1_000_000);
            }
        };
        let stv = run(Box::new(BaselineRf::stv(config.num_rf_banks)));
        let ntv = run(Box::new(BaselineRf::ntv(config.num_rf_banks, 3)));
        assert!(
            ntv > stv,
            "NTV RF ({ntv} cycles) must be slower than STV ({stv} cycles)"
        );
    }

    #[test]
    fn dispatch_respects_register_capacity() {
        // 63 regs x 1024 threads = 64512 regs per CTA; capacity 65536 ->
        // only one CTA fits.
        let mut kb = KernelBuilder::new("fat");
        kb.mov_imm(Reg(62), 1);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig::kepler_single_sm();
        let grid = GridConfig::new(4, 1024);
        let image = Arc::new(KernelImage::new(k, grid));
        let mut sm = Sm::new(0, &config, image, Box::new(BaselineRf::stv(24)));
        assert!(sm.try_dispatch_cta(CtaId(0), 0));
        assert!(
            !sm.try_dispatch_cta(CtaId(1), 0),
            "register capacity exceeded"
        );
    }

    #[test]
    fn divergence_stats_track_branches() {
        // Divergent diamond on lane id: one divergent branch per warp,
        // plus the uniform loop-free fallthrough.
        let mut kb = KernelBuilder::new("div");
        kb.mov_special(Reg(0), SpecialReg::LaneId);
        kb.setp_imm(PredReg(0), CmpOp::Lt, Reg(0), 16);
        let else_ = kb.new_label();
        let join = kb.new_label();
        kb.bra_if(PredReg(0), false, else_); // divergent
        kb.mov_imm(Reg(1), 1);
        kb.bra(join); // uniform
        kb.place_label(else_);
        kb.mov_imm(Reg(1), 2);
        kb.place_label(join);
        kb.exit();
        let k = kb.build().unwrap();
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(k, GridConfig::new(1, 64), &config);
        assert_eq!(sm.stats.total_branches, 4, "2 warps x 2 branches");
        assert_eq!(
            sm.stats.divergent_branches, 2,
            "only the guarded branch diverges"
        );
        assert!((sm.stats.divergence_rate() - 0.5).abs() < 1e-12);
        // SIMD efficiency below 1 because the diamond halves the masks.
        let eff = sm.stats.simd_efficiency();
        assert!(eff < 1.0 && eff > 0.5, "efficiency {eff}");
    }

    #[test]
    fn uniform_kernel_has_full_simd_efficiency() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let (sm, _, _) = run_sm(simple_kernel(), GridConfig::new(1, 64), &config);
        assert!((sm.stats.simd_efficiency() - 1.0).abs() < 1e-12);
        assert_eq!(sm.stats.divergence_rate(), 0.0);
    }

    #[test]
    fn audit_cross_checks_the_cached_warp_state() {
        let config = GpuConfig {
            global_mem_words: 1 << 14,
            audit: true,
            ..GpuConfig::kepler_single_sm()
        };
        // A clean audited run: the cache agrees with the scan at every
        // dispatch, warp finish and at the end.
        let (mut sm, cycles, _) = run_sm(simple_kernel(), GridConfig::new(6, 64), &config);
        let report = sm.finish_audit(cycles).expect("audit is on");
        assert!(report.is_clean(), "{report}");

        // One flipped bit in the live mask is reported with provenance.
        let image = Arc::new(KernelImage::new(simple_kernel(), GridConfig::new(1, 64)));
        let mut sm = Sm::new(
            3,
            &config,
            image,
            Box::new(BaselineRf::stv(config.num_rf_banks)),
        );
        assert!(sm.try_dispatch_cta(CtaId(0), 0));
        sm.corrupt_live_bit(1);
        let report = sm.finish_audit(7).expect("audit is on");
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "cached issue state")
            .unwrap_or_else(|| panic!("drift not reported: {report}"));
        assert_eq!((v.sm, v.cycle, v.warp), (Some(3), 7, Some(1)));
        assert!(v.detail.contains("live"), "{v}");
    }

    #[test]
    fn partial_warp_cta_completes() {
        let config = GpuConfig {
            global_mem_words: 1 << 12,
            ..GpuConfig::kepler_single_sm()
        };
        let grid = GridConfig::new(1, 61); // sad-like
        let (sm, _, global) = run_sm(simple_kernel(), grid, &config);
        assert_eq!(sm.finished_warps.len(), 2);
        assert_eq!(global.read(60), (60 + 5) * 3);
        // Thread 61 does not exist; its slot in memory must stay zero.
        assert_eq!(global.read(61), 0);
    }
}
