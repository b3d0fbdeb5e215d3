//! Conservation-invariant auditing for the accounting chain.
//!
//! The paper's headline numbers are ratios of counters that flow from the
//! SM pipeline (`SmStats`) through model telemetry into the energy model.
//! Silent counter drift in a GPU simulator produces plausible-but-wrong
//! figures, and the risk compounds once runs fan out across worker threads.
//! The auditor subscribes to the same pipeline event stream as the trace
//! ring ([`crate::trace`]) — but as unbounded counters rather than a
//! bounded ring — and verifies conservation laws when the run ends:
//!
//! * **issue conservation** — `SmStats::instructions` equals observed
//!   [`TraceEvent::Issue`] events;
//! * **RF-port conservation** — `SmStats::partition_accesses` equals
//!   observed [`TraceEvent::RfRead`]/[`TraceEvent::RfWrite`] grants, per
//!   partition and access kind;
//! * **scoreboard conservation** — every [`TraceEvent::ScoreboardReserve`]
//!   has a matching [`TraceEvent::ScoreboardRelease`]; no warp finishes
//!   with reservations outstanding;
//! * **collector conservation** — every allocated collector entry collects
//!   exactly once ([`TraceEvent::Collect`]);
//! * **memory-pipeline conservation** — memory-side collects equal LSU
//!   completions equal `SmStats::mem_instructions`;
//! * **writeback conservation** — completed destination writes
//!   ([`TraceEvent::Writeback`]) equal granted RF write ports.
//!
//! Enable it with `GpuConfig::audit`; the per-SM reports are merged into
//! `SimResult::audit`. `prf-core` extends the chain across crates: RFC
//! write-backs recorded in telemetry must equal dirty-evict events reported
//! by the model, and the dynamic energy recomputed from raw events must
//! match the telemetry-derived value.
//!
//! A violated invariant never panics mid-run: violations carry cycle / SM /
//! warp provenance in a structured [`AuditReport`] so a broken counter in a
//! 10-million-cycle batch run is diagnosable after the fact.

use std::fmt;

use crate::rf::{AccessKind, RepairKind, RfPartition};
use crate::stats::{PartitionAccessCounts, SmStats};
use crate::trace::TraceEvent;

/// One violated invariant, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Which conservation law was violated.
    pub invariant: &'static str,
    /// Cycle at which the violation was detected (for end-of-run checks,
    /// the final cycle of the run).
    pub cycle: u64,
    /// SM the violation belongs to; `None` for cross-SM / cross-crate
    /// checks.
    pub sm: Option<usize>,
    /// Warp slot, when the violation is warp-local.
    pub warp: Option<usize>,
    /// Human-readable mismatch description (expected vs observed).
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] cycle {}", self.invariant, self.cycle)?;
        if let Some(sm) = self.sm {
            write!(f, " sm{sm}")?;
        }
        if let Some(w) = self.warp {
            write!(f, " w{w}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The outcome of an audited run: raw event totals plus any violations.
///
/// Reports merge across SMs, launches, and seeds; event counters add up and
/// violations concatenate, so one report summarises an arbitrarily large
/// experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Observed `Issue` events.
    pub issue_events: u64,
    /// Observed `Collect` events (operand gathering completed).
    pub collect_events: u64,
    /// RF port grants rebuilt from `RfRead`/`RfWrite` events — an
    /// independent copy of `SmStats::partition_accesses`.
    pub rf_events: PartitionAccessCounts,
    /// Observed `Writeback` events (destination write completed).
    pub writeback_events: u64,
    /// Observed `LsuComplete` events (LSU / shared-memory unit).
    pub lsu_complete_events: u64,
    /// Observed `ScoreboardReserve` events.
    pub sb_reserve_events: u64,
    /// Observed `ScoreboardRelease` events.
    pub sb_release_events: u64,
    /// Dirty-eviction write-backs reported by the register-file model
    /// (RFC); cross-checked against telemetry by `prf-core`.
    pub rfc_evict_events: u64,
    /// Observed `RfRepair` events, dense by [`RepairKind::index`]
    /// (remapped, spilled, escalated); cross-checked per kind against
    /// `SmStats::rf_repairs` here and against telemetry by `prf-core`.
    pub rf_repair_events: [u64; 3],
    /// Invariant checks evaluated.
    pub checks: u64,
    /// Violations found (empty on a clean run).
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total observed repair events of any kind (faulty accesses kept
    /// usable: remapped + spilled + escalated).
    pub fn total_repair_events(&self) -> u64 {
        self.rf_repair_events.iter().sum()
    }

    /// Folds another report (another SM, launch, or seed) into this one.
    pub fn merge(&mut self, other: &AuditReport) {
        self.issue_events += other.issue_events;
        self.collect_events += other.collect_events;
        self.rf_events.merge(&other.rf_events);
        self.writeback_events += other.writeback_events;
        self.lsu_complete_events += other.lsu_complete_events;
        self.sb_reserve_events += other.sb_reserve_events;
        self.sb_release_events += other.sb_release_events;
        self.rfc_evict_events += other.rfc_evict_events;
        for (a, b) in self
            .rf_repair_events
            .iter_mut()
            .zip(other.rf_repair_events.iter())
        {
            *a += b;
        }
        self.checks += other.checks;
        self.violations.extend(other.violations.iter().cloned());
    }

    /// Records one equality check between two counters; a mismatch becomes
    /// a violation carrying `cycle`/`sm` provenance.
    pub fn check_counts(
        &mut self,
        invariant: &'static str,
        expected: u64,
        observed: u64,
        cycle: u64,
        sm: Option<usize>,
    ) {
        self.checks += 1;
        if expected != observed {
            self.violations.push(AuditViolation {
                invariant,
                cycle,
                sm,
                warp: None,
                detail: format!("expected {expected}, observed {observed}"),
            });
        }
    }

    /// Records one closeness check between two floating-point quantities
    /// (used for the energy recomputation); tolerance is
    /// `tol * max(1, |expected|)`.
    pub fn check_close(
        &mut self,
        invariant: &'static str,
        expected: f64,
        observed: f64,
        tol: f64,
        cycle: u64,
    ) {
        self.checks += 1;
        if (expected - observed).abs() > tol * expected.abs().max(1.0) {
            self.violations.push(AuditViolation {
                invariant,
                cycle,
                sm: None,
                warp: None,
                detail: format!("expected {expected}, observed {observed} (tol {tol})"),
            });
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} checks, {} violations",
            self.checks,
            self.violations.len()
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Per-SM event accumulator. Created by the SM when `GpuConfig::audit` is
/// set; fed every pipeline event at emission time; finalised against the
/// SM's own `SmStats` when the run ends.
#[derive(Debug, Clone)]
pub struct Auditor {
    sm: usize,
    issues: u64,
    collects_exec: u64,
    collects_mem: u64,
    collector_allocs: u64,
    rf_events: PartitionAccessCounts,
    rf_repairs: [u64; 3],
    writebacks: u64,
    lsu_completes: u64,
    sb_reserves: u64,
    sb_releases: u64,
    /// Outstanding scoreboard reservations per warp slot.
    outstanding: Vec<u64>,
    violations: Vec<AuditViolation>,
}

impl Auditor {
    /// A fresh auditor for SM `sm` with `max_warps` hardware warp slots.
    pub fn new(sm: usize, max_warps: usize) -> Self {
        Auditor {
            sm,
            issues: 0,
            collects_exec: 0,
            collects_mem: 0,
            collector_allocs: 0,
            rf_events: PartitionAccessCounts::new(),
            rf_repairs: [0; 3],
            writebacks: 0,
            lsu_completes: 0,
            sb_reserves: 0,
            sb_releases: 0,
            outstanding: vec![0; max_warps],
            violations: Vec::new(),
        }
    }

    /// Consumes one pipeline event (the same stream the trace ring sees).
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Issue { .. } => self.issues += 1,
            TraceEvent::Collect { mem, .. } => {
                if mem {
                    self.collects_mem += 1;
                } else {
                    self.collects_exec += 1;
                }
            }
            TraceEvent::RfRead { partition, .. } => {
                self.rf_events.record(partition, AccessKind::Read);
            }
            TraceEvent::RfWrite { partition, .. } => {
                self.rf_events.record(partition, AccessKind::Write);
            }
            TraceEvent::RfRepair { repair, .. } => {
                self.rf_repairs[repair.index()] += 1;
            }
            TraceEvent::Writeback { .. } => self.writebacks += 1,
            TraceEvent::LsuComplete { .. } => self.lsu_completes += 1,
            TraceEvent::ScoreboardReserve { warp, .. } => {
                self.sb_reserves += 1;
                self.outstanding[warp] += 1;
            }
            TraceEvent::ScoreboardRelease { cycle, warp, .. } => {
                self.sb_releases += 1;
                match self.outstanding[warp].checked_sub(1) {
                    Some(n) => self.outstanding[warp] = n,
                    None => self.violations.push(AuditViolation {
                        invariant: "scoreboard conservation",
                        cycle,
                        sm: Some(self.sm),
                        warp: Some(warp),
                        detail: "release without a matching reserve".to_string(),
                    }),
                }
            }
            TraceEvent::WarpFinish { cycle, warp, .. } => {
                if self.outstanding[warp] != 0 {
                    self.violations.push(AuditViolation {
                        invariant: "scoreboard conservation",
                        cycle,
                        sm: Some(self.sm),
                        warp: Some(warp),
                        detail: format!(
                            "warp finished with {} outstanding reservation(s)",
                            self.outstanding[warp]
                        ),
                    });
                }
            }
            TraceEvent::CtaDispatch { .. } | TraceEvent::BarrierWait { .. } => {}
        }
    }

    /// Notes one operand-collector entry allocation (not a trace event:
    /// allocation is internal to issue, but its count must balance the
    /// `Collect` events).
    pub fn note_collector_alloc(&mut self) {
        self.collector_allocs += 1;
    }

    /// Flags a warp that finished while its scoreboard still had pending
    /// bits set (called by the SM, which owns the scoreboards).
    pub fn note_unclear_scoreboard(&mut self, warp: usize, pending: u32, cycle: u64) {
        self.violations.push(AuditViolation {
            invariant: "scoreboard conservation",
            cycle,
            sm: Some(self.sm),
            warp: Some(warp),
            detail: format!("scoreboard has {pending} pending bit(s) at warp finish"),
        });
    }

    /// Flags SM state cached for the issue stage (warp bitmasks, collector
    /// free count and age order) that disagrees with a scan of the state it
    /// caches; `warp` is the lowest disagreeing slot, when one applies.
    pub fn note_cached_state_mismatch(&mut self, warp: Option<usize>, detail: String, cycle: u64) {
        self.violations.push(AuditViolation {
            invariant: "cached issue state",
            cycle,
            sm: Some(self.sm),
            warp,
            detail,
        });
    }

    /// Runs the end-of-run checks against the SM's independently maintained
    /// statistics and produces the report. `rfc_evictions` is the model's
    /// own dirty-evict count (0 for models without a cache).
    pub fn finish(self, stats: &SmStats, rfc_evictions: u64, final_cycle: u64) -> AuditReport {
        let sm = self.sm;
        let mut report = AuditReport {
            issue_events: self.issues,
            collect_events: self.collects_exec + self.collects_mem,
            rf_events: self.rf_events,
            writeback_events: self.writebacks,
            lsu_complete_events: self.lsu_completes,
            sb_reserve_events: self.sb_reserves,
            sb_release_events: self.sb_releases,
            rfc_evict_events: rfc_evictions,
            rf_repair_events: self.rf_repairs,
            checks: 0,
            violations: self.violations,
        };

        report.check_counts(
            "issue conservation",
            stats.instructions,
            report.issue_events,
            final_cycle,
            Some(sm),
        );
        for p in RfPartition::ALL {
            // Borrow dance: `check_counts` needs `&mut report` while the
            // counts are read out of it first.
            let (er, ew) = (
                stats.partition_accesses.reads(p),
                stats.partition_accesses.writes(p),
            );
            let (or, ow) = (report.rf_events.reads(p), report.rf_events.writes(p));
            report.check_counts(
                "RF-port conservation (reads)",
                er,
                or,
                final_cycle,
                Some(sm),
            );
            report.check_counts(
                "RF-port conservation (writes)",
                ew,
                ow,
                final_cycle,
                Some(sm),
            );
        }
        report.check_counts(
            "scoreboard conservation",
            report.sb_reserve_events,
            report.sb_release_events,
            final_cycle,
            Some(sm),
        );
        report.check_counts(
            "collector conservation",
            self.collector_allocs,
            report.collect_events,
            final_cycle,
            Some(sm),
        );
        report.check_counts(
            "memory-pipeline conservation (collect->submit)",
            self.collects_mem,
            report.lsu_complete_events,
            final_cycle,
            Some(sm),
        );
        report.check_counts(
            "memory-pipeline conservation (stats)",
            stats.mem_instructions,
            report.lsu_complete_events,
            final_cycle,
            Some(sm),
        );
        report.check_counts(
            "writeback conservation",
            report.rf_events.total_writes(),
            report.writeback_events,
            final_cycle,
            Some(sm),
        );
        for k in RepairKind::ALL {
            let expected = stats.repairs(k);
            let observed = report.rf_repair_events[k.index()];
            report.check_counts(
                "RF-repair conservation",
                expected,
                observed,
                final_cycle,
                Some(sm),
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a minimal, perfectly balanced event stream: one ALU
    /// instruction (2 reads, 1 write) issued, collected, written back.
    fn balanced_auditor() -> (Auditor, SmStats) {
        let mut a = Auditor::new(0, 4);
        let sm = 0;
        a.observe(&TraceEvent::Issue {
            cycle: 1,
            sm,
            warp: 0,
            pc: 0,
        });
        a.observe(&TraceEvent::ScoreboardReserve {
            cycle: 1,
            sm,
            warp: 0,
        });
        a.note_collector_alloc();
        for _ in 0..2 {
            a.observe(&TraceEvent::RfRead {
                cycle: 2,
                sm,
                partition: RfPartition::MrfStv,
            });
        }
        a.observe(&TraceEvent::Collect {
            cycle: 3,
            sm,
            warp: 0,
            mem: false,
        });
        a.observe(&TraceEvent::ScoreboardRelease {
            cycle: 7,
            sm,
            warp: 0,
        });
        a.observe(&TraceEvent::RfWrite {
            cycle: 7,
            sm,
            partition: RfPartition::MrfStv,
        });
        a.observe(&TraceEvent::Writeback {
            cycle: 8,
            sm,
            warp: 0,
            reg: prf_isa::Reg(1),
        });
        a.observe(&TraceEvent::WarpFinish {
            cycle: 9,
            sm,
            warp: 0,
        });

        let mut stats = SmStats::new();
        stats.instructions = 1;
        stats
            .partition_accesses
            .record(RfPartition::MrfStv, AccessKind::Read);
        stats
            .partition_accesses
            .record(RfPartition::MrfStv, AccessKind::Read);
        stats
            .partition_accesses
            .record(RfPartition::MrfStv, AccessKind::Write);
        (a, stats)
    }

    #[test]
    fn balanced_stream_is_clean() {
        let (a, stats) = balanced_auditor();
        let report = a.finish(&stats, 0, 10);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks >= 6);
        assert_eq!(report.issue_events, 1);
        assert_eq!(report.rf_events.total(), 3);
        assert_eq!(report.writeback_events, 1);
    }

    #[test]
    fn tampered_instruction_counter_is_caught_with_provenance() {
        // The mutation test the harness exists for: a silently drifted
        // counter must surface as a violation naming the cycle and SM.
        let (a, mut stats) = balanced_auditor();
        stats.instructions += 1;
        let report = a.finish(&stats, 0, 1234);
        assert!(!report.is_clean());
        let v = &report.violations[0];
        assert_eq!(v.invariant, "issue conservation");
        assert_eq!(v.cycle, 1234);
        assert_eq!(v.sm, Some(0));
        assert!(v.detail.contains("expected 2, observed 1"));
        assert!(v.to_string().contains("cycle 1234 sm0"));
    }

    #[test]
    fn release_without_reserve_is_flagged_at_its_cycle() {
        let mut a = Auditor::new(3, 2);
        a.observe(&TraceEvent::ScoreboardRelease {
            cycle: 42,
            sm: 3,
            warp: 1,
        });
        let report = a.finish(&SmStats::new(), 0, 100);
        let v = report
            .violations
            .iter()
            .find(|v| v.detail.contains("without a matching reserve"))
            .expect("must flag the stray release");
        assert_eq!(v.cycle, 42);
        assert_eq!(v.sm, Some(3));
        assert_eq!(v.warp, Some(1));
    }

    #[test]
    fn warp_finish_with_outstanding_reserve_is_flagged() {
        let mut a = Auditor::new(0, 2);
        a.observe(&TraceEvent::ScoreboardReserve {
            cycle: 5,
            sm: 0,
            warp: 0,
        });
        a.observe(&TraceEvent::WarpFinish {
            cycle: 9,
            sm: 0,
            warp: 0,
        });
        let report = a.finish(&SmStats::new(), 0, 10);
        assert!(report
            .violations
            .iter()
            .any(|v| v.detail.contains("outstanding reservation")));
    }

    #[test]
    fn reports_merge_counters_and_violations() {
        let (a, stats) = balanced_auditor();
        let clean = a.finish(&stats, 2, 10);
        let (b, mut broken_stats) = balanced_auditor();
        broken_stats.mem_instructions = 7;
        let dirty = b.finish(&broken_stats, 3, 10);

        let mut merged = AuditReport::default();
        merged.merge(&clean);
        merged.merge(&dirty);
        assert_eq!(merged.issue_events, 2);
        assert_eq!(merged.rfc_evict_events, 5);
        assert_eq!(merged.checks, clean.checks + dirty.checks);
        assert_eq!(merged.violations.len(), 1);
        assert!(!merged.is_clean());
    }

    #[test]
    fn repair_events_balance_against_stats() {
        let (mut a, mut stats) = balanced_auditor();
        a.observe(&TraceEvent::RfRepair {
            cycle: 2,
            sm: 0,
            repair: RepairKind::Remapped,
        });
        a.observe(&TraceEvent::RfRepair {
            cycle: 7,
            sm: 0,
            repair: RepairKind::Spilled,
        });
        stats.record_repair(RepairKind::Remapped);
        stats.record_repair(RepairKind::Spilled);
        let report = a.finish(&stats, 0, 10);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.rf_repair_events, [1, 1, 0]);
        assert_eq!(report.total_repair_events(), 2);
    }

    #[test]
    fn dropped_repair_event_is_caught() {
        // The model repaired an access (stats counter bumped) but the
        // pipeline never emitted the RfRepair event: conservation breaks.
        let (a, mut stats) = balanced_auditor();
        stats.record_repair(RepairKind::Escalated);
        let report = a.finish(&stats, 0, 10);
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "RF-repair conservation")
            .expect("must flag the dropped repair");
        assert!(v.detail.contains("expected 1, observed 0"));
    }

    #[test]
    fn merged_reports_sum_repair_events() {
        let mut a = AuditReport {
            rf_repair_events: [1, 2, 3],
            ..AuditReport::default()
        };
        let b = AuditReport {
            rf_repair_events: [10, 0, 1],
            ..AuditReport::default()
        };
        a.merge(&b);
        assert_eq!(a.rf_repair_events, [11, 2, 4]);
        assert_eq!(a.total_repair_events(), 17);
    }

    #[test]
    fn check_close_tolerates_and_flags() {
        let mut r = AuditReport::default();
        r.check_close("energy recomputation", 1e6, 1e6 + 1e-4, 1e-9, 0);
        assert!(r.is_clean(), "within relative tolerance");
        r.check_close("energy recomputation", 1e6, 1e6 + 10.0, 1e-9, 99);
        assert!(!r.is_clean());
        assert_eq!(r.violations[0].cycle, 99);
        assert_eq!(r.checks, 2);
    }

    #[test]
    fn display_lists_violations() {
        let mut r = AuditReport::default();
        r.check_counts("issue conservation", 5, 4, 10, Some(1));
        let s = r.to_string();
        assert!(s.contains("1 violations"));
        assert!(s.contains("[issue conservation] cycle 10 sm1"));
    }
}
