//! Parallel experiment engine: fans a matrix of independent simulation
//! jobs (workload × RF organisation × scheduler × jitter seed) across a
//! bounded pool of worker threads.
//!
//! Every job owns its configuration, its telemetry sink, and its RNG seed
//! (`GpuConfig::jitter_seed`), so runs share nothing mutable and the
//! parallel results are bit-identical to a serial sweep — the pool only
//! changes *when* a job runs, never what it computes. Results come back in
//! the input order regardless of completion order, so report tables are
//! deterministic too.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `PRF_THREADS` environment variable (`PRF_THREADS=1`
//! gives a serial run for debugging or timing baselines).
//!
//! A job is a pure function of its inputs, so the engine makes exactly one
//! attempt per job. Each attempt runs behind `catch_unwind`, and
//! [`run_matrix_resilient_configured`] returns a [`JobOutcome`] for every
//! job — partial results plus a failure manifest. Inputs the validation
//! layer rejects, and runs that return a [`SimError`], come back as
//! [`JobOutcome::Rejected`]; panics come back as [`JobOutcome::Panicked`].
//! There is no wall-clock watchdog: a runaway kernel is stopped by
//! `GpuConfig::max_cycles`, which turns it into
//! [`SimError::CycleLimitExceeded`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prf_core::{
    run_experiment_with_faults, validate_experiment_inputs, ExperimentResult, FaultConfig,
    PhaseTimings, RfKind,
};
use prf_sim::{GpuConfig, SimError};
use prf_workloads::Workload;

use crate::cache::ResultCache;
use crate::digest::job_digest;

/// One cell of an evaluation matrix: a workload to run under a GPU
/// configuration (which carries the scheduler and jitter seed) and an RF
/// organisation.
#[derive(Debug, Clone)]
pub struct Job {
    /// Report/diagnostic label, e.g. `"BFS/partitioned/seed2"`.
    pub name: String,
    /// The workload (launches + memory image). Cloning is cheap — kernels
    /// are behind `Arc`.
    pub workload: Workload,
    /// Full GPU configuration, including `scheduler` and `jitter_seed`.
    pub gpu: GpuConfig,
    /// Register-file organisation under test.
    pub rf: RfKind,
    /// Optional fault campaign: a variation-derived fault map plus repair
    /// policy wrapped around the RF model (see `prf_core::faults`).
    pub faults: Option<FaultConfig>,
}

impl Job {
    /// Builds a job with an explicit label.
    pub fn new(name: impl Into<String>, workload: &Workload, gpu: &GpuConfig, rf: &RfKind) -> Self {
        Job {
            name: name.into(),
            workload: workload.clone(),
            gpu: gpu.clone(),
            rf: rf.clone(),
            faults: None,
        }
    }

    /// Builds a job labelled `"<workload>/<rf>"`.
    pub fn labeled(workload: &Workload, gpu: &GpuConfig, rf: &RfKind) -> Self {
        Job::new(
            format!("{}/{}", workload.name, rf.name()),
            workload,
            gpu,
            rf,
        )
    }

    /// Attaches (or clears) a fault campaign.
    pub fn with_faults(mut self, faults: Option<FaultConfig>) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the job's inputs without simulating anything — the same
    /// checks `run` performs first, exposed so the matrix engine can
    /// reject hostile jobs before simulating.
    ///
    /// # Errors
    ///
    /// The first failing check (see
    /// [`prf_core::validate_experiment_inputs`]).
    pub fn validate(&self) -> Result<(), prf_sim::ValidationError> {
        validate_experiment_inputs(&self.gpu, &self.workload.launches, self.faults.as_ref())
    }

    fn run(&self) -> Result<ExperimentResult, SimError> {
        run_experiment_with_faults(
            &self.gpu,
            &self.rf,
            &self.workload.launches,
            &self.workload.mem_init,
            self.faults.as_ref(),
        )
    }
}

/// How one matrix job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Finished with a result.
    Completed,
    /// The run panicked; `message` carries the panic payload.
    Panicked {
        /// Stringified panic payload.
        message: String,
    },
    /// The job's inputs were rejected by the validation layer, or the run
    /// returned a [`SimError`] (for example a cycle-limit overrun).
    Rejected {
        /// The typed error, stringified for the report.
        reason: String,
    },
    /// The job belongs to another shard of a `PRF_SHARD=i/n` run and was
    /// not executed here. Not a failure — the owning shard computes it.
    Skipped,
}

impl JobOutcome {
    /// True when the job failed — anything a campaign report should flag.
    /// Skipped (sharded-away) jobs are not failures; another process
    /// computes them.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, JobOutcome::Completed | JobOutcome::Skipped)
    }
}

impl std::fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutcome::Completed => write!(f, "completed"),
            JobOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            JobOutcome::Rejected { reason } => write!(f, "rejected: {reason}"),
            JobOutcome::Skipped => write!(f, "skipped (owned by another shard)"),
        }
    }
}

/// One shard of a multi-process matrix split: this process owns every job
/// whose input index is ≡ `index` (mod `count`). Because every job is
/// self-contained (per-row-seeded fault maps, own jitter seed), the union
/// of all shards' cached results is bit-identical to a serial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Parses an `i/n` spec, e.g. `"0/2"`.
    ///
    /// # Errors
    ///
    /// Rejects malformed specs, `n == 0`, and `i ≥ n`.
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let (i, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("`{spec}`: expected `<i>/<n>` (e.g. `0/2`)"))?;
        let index = i
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("`{spec}`: bad shard index: {e}"))?;
        let count = n
            .trim()
            .parse::<usize>()
            .map_err(|e| format!("`{spec}`: bad shard count: {e}"))?;
        if count == 0 {
            return Err(format!("`{spec}`: shard count must be ≥ 1"));
        }
        if index >= count {
            return Err(format!("`{spec}`: shard index {index} ≥ count {count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// True when this shard executes the job at `job_index`.
    pub fn owns(&self, job_index: usize) -> bool {
        job_index % self.count == self.index
    }
}

/// The shard spec from `PRF_SHARD=i/n`, or `None` when unset. Invalid
/// specs abort the process — silently running the whole matrix (or the
/// wrong slice) would waste exactly the work sharding exists to split.
pub fn shard_from_env() -> Option<ShardSpec> {
    let v = std::env::var("PRF_SHARD").ok()?;
    match ShardSpec::parse(&v) {
        Ok(spec) if spec.count == 1 => None,
        Ok(spec) => Some(spec),
        Err(e) => panic!("PRF_SHARD invalid: {e}"),
    }
}

/// Kept only because the repository benchmark (`perfbench/`) names it in
/// its calls into this module. The engine makes one attempt per job, with
/// no watchdog and no retries, so the policy carries nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RetryPolicy;

impl RetryPolicy {
    /// The only policy: a single attempt.
    pub fn none() -> Self {
        RetryPolicy
    }
}

/// One job's report in a matrix run: its input position, label, how it
/// ended, and the result when it succeeded.
#[derive(Debug)]
pub struct JobReport {
    /// Position in the input job list.
    pub index: usize,
    /// The job's label.
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// When this job started, as an offset from the matrix start (jobs
    /// run concurrently, so offsets overlap).
    pub started: Duration,
    /// Wall-clock time this job occupied its worker. For a cache hit this
    /// replays the *original* run's wall-clock, so reports stay
    /// bit-identical.
    pub elapsed: Duration,
    /// The experiment result; `None` iff the outcome is a failure or the
    /// job was skipped by sharding.
    pub result: Option<ExperimentResult>,
    /// Cache disposition: `Some(true)` = served from the result cache,
    /// `Some(false)` = executed while a cache was configured (a miss),
    /// `None` = no cache configured, or the job was skipped.
    pub cached: Option<bool>,
}

/// The partial-results view of a matrix run: one [`JobReport`] per input
/// job, in input order, no matter how many jobs failed.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Per-job reports, in input order.
    pub reports: Vec<JobReport>,
}

impl MatrixOutcome {
    /// Reports of jobs that failed (panicked or were rejected). Jobs
    /// skipped by sharding are not failures — another shard computes them.
    pub fn failures(&self) -> impl Iterator<Item = &JobReport> {
        self.reports.iter().filter(|r| r.outcome.is_degraded())
    }

    /// Jobs skipped because another `PRF_SHARD` process owns them.
    pub fn skipped_jobs(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.outcome == JobOutcome::Skipped)
            .count()
    }

    /// Jobs that failed.
    pub fn failed_jobs(&self) -> usize {
        self.failures().count()
    }

    /// Multi-line manifest of every failed job (empty string when the
    /// whole matrix completed cleanly).
    pub fn failure_manifest(&self) -> String {
        self.failures()
            .map(|r| format!("job #{} `{}`: {}", r.index, r.name, r.outcome))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Converts to the all-or-nothing result list (in input order),
    /// panicking with the failure manifest — first failure's index and
    /// name up front — if any job failed.
    ///
    /// # Panics
    ///
    /// Panics when any job panicked or was rejected, or when the run was
    /// sharded (a shard never holds the complete result set — merge by
    /// re-running unsharded against the shared `PRF_CACHE_DIR`).
    pub fn expect_complete(self) -> Vec<ExperimentResult> {
        if self.skipped_jobs() > 0 {
            panic!(
                "sharded run is incomplete: {} of {} jobs were skipped by PRF_SHARD; \
                 merge by re-running unsharded with the same PRF_CACHE_DIR",
                self.skipped_jobs(),
                self.reports.len()
            );
        }
        if let Some(first) = self.failures().next() {
            panic!(
                "experiment job #{} `{}` {}; full manifest:\n{}",
                first.index,
                first.name,
                first.outcome,
                self.failure_manifest()
            );
        }
        self.reports
            .into_iter()
            .map(|r| r.result.expect("no failures, so every job has a result"))
            .collect()
    }
}

/// Wall-clock accounting for one matrix run, for the throughput footer.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixReport {
    /// Number of jobs in the matrix.
    pub jobs: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole matrix.
    pub elapsed: Duration,
    /// Jobs that ran with the conservation-invariant audit enabled.
    pub audited_jobs: usize,
    /// Total audit violations across all audited jobs (expected 0).
    pub audit_violations: usize,
    /// Jobs that failed (panicked or were rejected).
    pub failed_jobs: usize,
    /// Jobs answered from the on-disk result cache (no simulation ran).
    pub cache_hits: usize,
    /// Jobs executed while a cache was configured (simulated, then stored
    /// when cacheable). Zero when `PRF_CACHE_DIR` is unset.
    pub cache_misses: usize,
    /// Jobs skipped because another `PRF_SHARD` process owns them.
    pub skipped_jobs: usize,
    /// Cache store attempts that failed (ENOSPC, rename failure, …) and
    /// degraded to miss-and-recompute. Nonzero means the run completed
    /// but its results were not all persisted.
    pub cache_write_errors: usize,
    /// Cache entries that failed their integrity check on read and were
    /// moved to the `corrupt/` quarantine directory.
    pub cache_quarantined: usize,
    /// Per-phase wall-clock totals summed over every successful job
    /// (CPU-time-like: with N workers this exceeds `elapsed`).
    pub phase_totals: PhaseTimings,
}

impl MatrixReport {
    /// Summarises a finished matrix run on `threads` workers that took
    /// `elapsed`, folding in the durability counters of the `cache` it
    /// ran against.
    pub fn new(
        outcome: &MatrixOutcome,
        threads: usize,
        elapsed: Duration,
        cache: Option<&ResultCache>,
    ) -> Self {
        let results = || outcome.reports.iter().filter_map(|r| r.result.as_ref());
        let audits: Vec<_> = results().filter_map(|r| r.audit.as_ref()).collect();
        let mut phase_totals = PhaseTimings::default();
        for r in results() {
            phase_totals.merge(&r.phases);
        }
        let cached = |hit| {
            outcome
                .reports
                .iter()
                .filter(|r| r.cached == Some(hit))
                .count()
        };
        let jobs = outcome.reports.len();
        MatrixReport {
            jobs,
            threads: threads.clamp(1, jobs.max(1)),
            elapsed,
            audited_jobs: audits.len(),
            audit_violations: audits.iter().map(|a| a.violations.len()).sum(),
            failed_jobs: outcome.failed_jobs(),
            cache_hits: cached(true),
            cache_misses: cached(false),
            skipped_jobs: outcome.skipped_jobs(),
            cache_write_errors: cache.map_or(0, |c| c.write_errors() as usize),
            cache_quarantined: cache.map_or(0, |c| c.quarantined() as usize),
            phase_totals,
        }
    }

    /// One-line throughput footer, e.g.
    /// `[matrix] 45 jobs on 8 threads in 12.3 s (3.7 jobs/s)`.
    pub fn footer(&self) -> String {
        // Clamp the denominator: a sub-millisecond matrix (empty or trivial
        // job list) must not print `inf`/`NaN` jobs/s.
        let secs = self.elapsed.as_secs_f64();
        let rate = self.jobs as f64 / secs.max(1e-3);
        let audit = if self.audited_jobs > 0 {
            format!(
                " [audit: {}/{} jobs, {} violations]",
                self.audited_jobs, self.jobs, self.audit_violations
            )
        } else {
            String::new()
        };
        let failed = if self.failed_jobs > 0 {
            format!(" [failed: {} jobs]", self.failed_jobs)
        } else {
            String::new()
        };
        let cache_active = self.cache_hits + self.cache_misses > 0
            || self.cache_write_errors > 0
            || self.cache_quarantined > 0;
        let cache = if cache_active {
            // Degradation segments only appear when nonzero, so a healthy
            // run's footer is unchanged from previous releases.
            let mut seg = format!(
                " [cache: {} hit / {} miss",
                self.cache_hits, self.cache_misses
            );
            if self.cache_write_errors > 0 {
                seg.push_str(&format!(" / {} write-err", self.cache_write_errors));
            }
            if self.cache_quarantined > 0 {
                seg.push_str(&format!(" / {} quarantined", self.cache_quarantined));
            }
            seg.push(']');
            seg
        } else {
            String::new()
        };
        let shard = if self.skipped_jobs > 0 {
            format!(" [shard: {} jobs skipped]", self.skipped_jobs)
        } else {
            String::new()
        };
        let phases = if self.phase_totals.total() > Duration::ZERO {
            format!(" [phases: {}]", self.phase_totals)
        } else {
            String::new()
        };
        format!(
            "[matrix] {} jobs on {} threads in {:.2} s ({:.1} jobs/s){audit}{failed}{cache}{shard}{phases}",
            self.jobs, self.threads, secs, rate
        )
    }
}

/// Worker-pool size: `PRF_THREADS` if set and positive, else
/// [`std::thread::available_parallelism`], else 1.
pub fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("PRF_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("PRF_THREADS={v:?} is not a positive integer; using default"),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Stringifies a panic payload (the common `String`/`&str` cases; anything
/// else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one job attempt behind `catch_unwind` and classifies how it
/// ended. Never panics: the closure's own panics become
/// [`JobOutcome::Panicked`], and a deterministic [`SimError`] becomes
/// [`JobOutcome::Rejected`].
///
/// Generic over the attempt so callers can wrap the simulation (the
/// benchmark's traced pass does); matrix runs pass `|| job.run()`.
pub fn run_resilient_job<F>(
    _policy: RetryPolicy,
    attempt: F,
) -> (JobOutcome, Option<ExperimentResult>)
where
    F: FnOnce() -> Result<ExperimentResult, SimError>,
{
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(Ok(result)) => (JobOutcome::Completed, Some(result)),
        Ok(Err(e)) if e.is_deterministic() => (
            JobOutcome::Rejected {
                reason: e.to_string(),
            },
            None,
        ),
        Ok(Err(e)) => (
            JobOutcome::Panicked {
                message: e.to_string(),
            },
            None,
        ),
        Err(payload) => (
            JobOutcome::Panicked {
                message: panic_message(payload),
            },
            None,
        ),
    }
}

/// Runs every job on a pool of at most `threads` scoped worker threads and
/// returns one [`JobReport`] per job, **in input order** — healthy results
/// survive neighbouring failures. Never panics on a job's behalf.
///
/// Workers pull jobs from a shared atomic cursor (dynamic load balancing:
/// long simulations don't serialise behind short ones). With a `shard`,
/// only jobs whose index the shard owns are executed; the rest report
/// [`JobOutcome::Skipped`]. With a `cache`, cacheable jobs are answered
/// from disk when their digest matches a stored entry, and freshly
/// computed results are stored for the next run. Invalid jobs are
/// rejected before they reach the cache or the simulator.
pub fn run_matrix_resilient_configured(
    jobs: &[Job],
    policy: RetryPolicy,
    threads: usize,
    shard: Option<ShardSpec>,
    cache: Option<&ResultCache>,
) -> MatrixOutcome {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobReport>>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    let run_one = |index: usize, job: &Job| -> JobReport {
        let started = t0.elapsed();
        let report = |outcome, elapsed, result, cached| JobReport {
            index,
            name: job.name.clone(),
            outcome,
            started,
            elapsed,
            result,
            cached,
        };
        if shard.is_some_and(|spec| !spec.owns(index)) {
            return report(JobOutcome::Skipped, Duration::ZERO, None, None);
        }
        if let Err(e) = job.validate() {
            let reason = format!("rejected input: {e}");
            return report(JobOutcome::Rejected { reason }, Duration::ZERO, None, None);
        }
        // Consult the cache before simulating. The digest is only computed
        // when a cache is configured and the job's result would round-trip
        // exactly (see `ResultCache::is_cacheable`).
        let digest = cache
            .filter(|_| ResultCache::is_cacheable(job))
            .map(|_| job_digest(job));
        if let (Some(cache), Some(digest)) = (cache, &digest) {
            if let Some(hit) = cache.load(digest, job) {
                return report(
                    JobOutcome::Completed,
                    hit.elapsed,
                    Some(hit.result),
                    Some(true),
                );
            }
        }
        let job_start = Instant::now();
        let (outcome, result) = run_resilient_job(policy, || job.run());
        let elapsed = job_start.elapsed();
        if let (Some(cache), Some(digest), Some(r)) = (cache, &digest, &result) {
            cache.store(digest, job, elapsed, r);
        }
        report(outcome, elapsed, result, cache.map(|_| false))
    };

    std::thread::scope(|s| {
        for _ in 0..threads.clamp(1, jobs.len().max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let report = run_one(i, job);
                *slots[i].lock().expect("each slot has one writer") = Some(report);
            });
        }
    });

    let reports = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics while holding a slot")
                .expect("every job is executed")
        })
        .collect();
    MatrixOutcome { reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_sim::SchedulerPolicy;

    fn tiny_jobs(n: usize) -> Vec<Job> {
        let w = prf_workloads::suite::bfs();
        let gpu = crate::experiment_gpu(SchedulerPolicy::Gto);
        (0..n as u64)
            .map(|seed| {
                let gpu = GpuConfig {
                    jitter_seed: seed,
                    ..gpu.clone()
                };
                Job::new(format!("BFS/seed{seed}"), &w, &gpu, &RfKind::MrfStv)
            })
            .collect()
    }

    fn run(jobs: &[Job], threads: usize) -> MatrixOutcome {
        run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let jobs = tiny_jobs(4);
        let outcome = run(&jobs, 3);
        assert_eq!(outcome.reports.len(), 4);
        for (i, (j, r)) in jobs.iter().zip(&outcome.reports).enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(j.name, r.name);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let jobs = tiny_jobs(3);
        let serial = run(&jobs, 1).expect_complete();
        let parallel = run(&jobs, 3).expect_complete();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.dynamic_energy_pj, b.dynamic_energy_pj);
            assert_eq!(a.stats.partition_accesses, b.stats.partition_accesses);
        }
    }

    #[test]
    fn footer_formats() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            ..MatrixReport::default()
        };
        let f = r.footer();
        assert!(f.contains("10 jobs"), "{f}");
        assert!(f.contains("4 threads"), "{f}");
        assert!(f.contains("5.0 jobs/s"), "{f}");
        assert!(
            !f.contains("audit"),
            "unaudited runs keep the old footer: {f}"
        );
        assert!(!f.contains("failed"), "clean runs keep the old footer: {f}");
    }

    #[test]
    fn footer_reports_audit_coverage() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            audited_jobs: 10,
            ..MatrixReport::default()
        };
        let f = r.footer();
        assert!(f.contains("[audit: 10/10 jobs, 0 violations]"), "{f}");
    }

    #[test]
    fn footer_reports_failed_jobs() {
        let r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            failed_jobs: 1,
            ..MatrixReport::default()
        };
        let f = r.footer();
        assert!(f.contains("[failed: 1 jobs]"), "{f}");
    }

    #[test]
    fn footer_survives_sub_millisecond_matrices() {
        // A zero-duration run used to print `inf jobs/s` (and an empty
        // matrix `NaN jobs/s`).
        for jobs in [0, 10] {
            let r = MatrixReport {
                jobs,
                threads: 4,
                ..MatrixReport::default()
            };
            let f = r.footer();
            assert!(!f.contains("inf"), "{f}");
            assert!(!f.contains("NaN"), "{f}");
        }
    }

    #[test]
    fn footer_reports_phase_totals() {
        let r = MatrixReport {
            jobs: 1,
            threads: 1,
            elapsed: Duration::from_secs(1),
            phase_totals: PhaseTimings {
                setup: Duration::from_millis(5),
                simulate: Duration::from_millis(900),
                energy: Duration::from_millis(2),
                audit: Duration::from_millis(40),
            },
            ..MatrixReport::default()
        };
        let f = r.footer();
        assert!(f.contains("[phases: "), "{f}");
        assert!(f.contains("simulate 900.0ms"), "{f}");
    }

    #[test]
    fn matrix_report_measures_phases_and_job_elapsed() {
        let jobs = tiny_jobs(2);
        let outcome = run(&jobs, 2);
        let report = MatrixReport::new(&outcome, 2, Duration::from_secs(1), None);
        assert!(report.phase_totals.simulate > Duration::ZERO);
        for r in &outcome.reports {
            assert!(r.elapsed > Duration::ZERO);
            let phases = r.result.as_ref().expect("healthy job").phases;
            // A job's phase breakdown cannot exceed its wall-clock span.
            assert!(phases.total() <= r.elapsed + Duration::from_millis(50));
        }
    }

    #[test]
    fn matrix_report_counts_audited_jobs() {
        let mut jobs = tiny_jobs(2);
        jobs[1].gpu.audit = true;
        let outcome = run(&jobs, 2);
        let report = MatrixReport::new(&outcome, 2, Duration::from_secs(1), None);
        let results = outcome.expect_complete();
        assert!(results[0].audit.is_none());
        let audit = results[1].audit.as_ref().expect("audited job");
        assert!(audit.is_clean(), "{audit}");
        assert_eq!(report.audited_jobs, 1);
        assert_eq!(report.audit_violations, 0);
        assert_eq!(report.failed_jobs, 0);
    }

    #[test]
    fn resilient_matrix_reports_every_job_and_keeps_healthy_results() {
        let mut jobs = tiny_jobs(3);
        jobs[1].gpu.max_cycles = 1;
        jobs[1].name = "doomed".into();
        let outcome = run(&jobs, 3);
        assert_eq!(outcome.reports.len(), 3);
        for (i, report) in outcome.reports.iter().enumerate() {
            assert_eq!(report.index, i);
            assert_eq!(report.name, jobs[i].name);
        }
        assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
        assert!(outcome.reports[0].result.is_some());
        assert!(outcome.reports[2].result.is_some());
        match &outcome.reports[1].outcome {
            // A cycle-limit overrun is a deterministic SimError, so the
            // engine classifies it as a rejection rather than a crash.
            JobOutcome::Rejected { reason } => {
                assert!(reason.contains("cycle"), "reason explains itself: {reason}")
            }
            other => panic!("expected a rejected outcome, got {other}"),
        }
        assert!(outcome.reports[1].result.is_none());
        assert_eq!(outcome.failed_jobs(), 1);
        let manifest = outcome.failure_manifest();
        assert!(manifest.contains("job #1 `doomed`"), "{manifest}");
    }

    #[test]
    #[should_panic(expected = "job #1 `doomed`")]
    fn expect_complete_panics_with_index_and_name() {
        let mut jobs = tiny_jobs(2);
        jobs[1].gpu.max_cycles = 1;
        jobs[1].name = "doomed".into();
        run(&jobs, 2).expect_complete();
    }

    #[test]
    fn panicking_attempt_is_reported_not_propagated() {
        let (outcome, result) = run_resilient_job(
            RetryPolicy::none(),
            || -> Result<ExperimentResult, SimError> { panic!("always down") },
        );
        assert_eq!(
            outcome,
            JobOutcome::Panicked {
                message: "always down".into()
            }
        );
        assert!(result.is_none());
    }

    #[test]
    fn sim_error_is_a_rejection() {
        let (outcome, result) = run_resilient_job(RetryPolicy::none(), || {
            Err(SimError::CycleLimitExceeded { limit: 7 })
        });
        assert!(matches!(outcome, JobOutcome::Rejected { .. }), "{outcome}");
        assert!(result.is_none());
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let s = ShardSpec::parse("1/3").unwrap();
        assert_eq!(s, ShardSpec { index: 1, count: 3 });
        assert!(!s.owns(0));
        assert!(s.owns(1));
        assert!(!s.owns(2));
        assert!(s.owns(4));
        assert!(ShardSpec::parse("3/3").is_err(), "index must be < count");
        assert!(ShardSpec::parse("0/0").is_err(), "count must be ≥ 1");
        assert!(ShardSpec::parse("a/2").is_err());
        assert!(ShardSpec::parse("2").is_err());
    }

    #[test]
    fn sharded_union_over_cache_matches_serial_exactly() {
        let dir = std::env::temp_dir().join(format!("prf_shard_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::ResultCache::at(&dir);
        let jobs = tiny_jobs(5);
        // Reference: plain serial run, no cache, no shard.
        let serial = run(&jobs, 1);
        // Two shard processes fill the shared cache with their slices.
        for index in 0..2 {
            let spec = ShardSpec { index, count: 2 };
            let outcome = run_matrix_resilient_configured(
                &jobs,
                RetryPolicy::none(),
                2,
                Some(spec),
                Some(&cache),
            );
            assert_eq!(outcome.failed_jobs(), 0);
            let owned = (0..jobs.len()).filter(|&i| spec.owns(i)).count();
            assert_eq!(outcome.skipped_jobs(), jobs.len() - owned);
            for (i, r) in outcome.reports.iter().enumerate() {
                if spec.owns(i) {
                    assert_eq!(r.outcome, JobOutcome::Completed);
                    assert_eq!(r.cached, Some(false), "first shard run must miss");
                } else {
                    assert_eq!(r.outcome, JobOutcome::Skipped);
                    assert!(r.result.is_none());
                }
            }
        }
        // The merge: an unsharded run over the warmed cache. Zero
        // simulations (every job a hit), simulation outputs bit-identical
        // to serial. Wall-clock phase profiles are measurements of *this*
        // host, not simulation outputs — the merge replays the shard
        // runs' timings, so they are excluded from the serial comparison.
        let merged =
            run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 2, None, Some(&cache));
        assert_eq!(merged.reports.len(), serial.reports.len());
        for (a, b) in serial.reports.iter().zip(&merged.reports) {
            assert_eq!(b.cached, Some(true), "merge run must be all cache hits");
            assert_eq!(b.outcome, JobOutcome::Completed);
            assert_eq!(a.name, b.name);
            let mut sa = a.result.clone().unwrap();
            let mut sb = b.result.clone().unwrap();
            sa.phases = PhaseTimings::default();
            sb.phases = PhaseTimings::default();
            assert_eq!(
                sa, sb,
                "cache-merged result must equal the serial run's, field for field"
            );
        }
        // A *second* merge run replays the exact same stored entries —
        // including wall-clock — so it is fully identical to the first.
        let warm =
            run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 2, None, Some(&cache));
        for (a, b) in merged.reports.iter().zip(&warm.reports) {
            assert_eq!(a.result, b.result, "warm replays are bit-identical");
            assert_eq!(a.elapsed, b.elapsed, "stored wall-clock is replayed");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn footer_reports_cache_and_shard_segments() {
        let mut r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            cache_hits: 7,
            cache_misses: 3,
            ..MatrixReport::default()
        };
        assert!(
            r.footer().contains("[cache: 7 hit / 3 miss]"),
            "{}",
            r.footer()
        );
        r.skipped_jobs = 5;
        assert!(
            r.footer().contains("[shard: 5 jobs skipped]"),
            "{}",
            r.footer()
        );
        r.cache_hits = 0;
        r.cache_misses = 0;
        assert!(!r.footer().contains("[cache:"), "{}", r.footer());
    }

    #[test]
    fn footer_reports_cache_durability_degradation() {
        let mut r = MatrixReport {
            jobs: 10,
            threads: 4,
            elapsed: Duration::from_secs(2),
            cache_hits: 7,
            cache_misses: 3,
            cache_write_errors: 2,
            cache_quarantined: 1,
            ..MatrixReport::default()
        };
        assert!(
            r.footer()
                .contains("[cache: 7 hit / 3 miss / 2 write-err / 1 quarantined]"),
            "{}",
            r.footer()
        );
        // Even with zero hits/misses, degradation alone surfaces the segment.
        r.cache_hits = 0;
        r.cache_misses = 0;
        r.cache_quarantined = 0;
        assert!(
            r.footer().contains("[cache: 0 hit / 0 miss / 2 write-err]"),
            "{}",
            r.footer()
        );
    }

    #[test]
    #[should_panic(expected = "skipped by PRF_SHARD")]
    fn expect_complete_rejects_sharded_outcomes() {
        let jobs = tiny_jobs(2);
        let spec = ShardSpec { index: 0, count: 2 };
        run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, Some(spec), None)
            .expect_complete();
    }

    #[test]
    fn invalid_job_is_rejected_before_it_simulates() {
        let mut jobs = tiny_jobs(2);
        // A CTA whose register demand exceeds the whole RF can never
        // dispatch: pre-validation rejects it on the worker thread, with
        // zero simulated wall-clock.
        jobs[1].gpu.rf_registers = 1;
        jobs[1].name = "hostile".into();
        let outcome = run(&jobs, 2);
        assert_eq!(outcome.reports[0].outcome, JobOutcome::Completed);
        match &outcome.reports[1].outcome {
            JobOutcome::Rejected { reason } => {
                assert!(reason.contains("rejected input"), "{reason}");
                assert!(reason.contains("register file"), "{reason}");
            }
            other => panic!("expected a rejection, got {other}"),
        }
        assert_eq!(outcome.reports[1].elapsed, Duration::ZERO);
        assert!(outcome.reports[1].result.is_none());
        assert_eq!(outcome.failed_jobs(), 1);
        let manifest = outcome.failure_manifest();
        assert!(
            manifest.contains("job #1 `hostile`: rejected:"),
            "{manifest}"
        );
    }

    #[test]
    fn rejected_outcome_is_degraded() {
        let o = JobOutcome::Rejected {
            reason: "invalid config: num_sms: must be at least 1".into(),
        };
        assert!(o.is_degraded());
        assert!(!JobOutcome::Skipped.is_degraded());
        assert!(o.to_string().starts_with("rejected: "), "{o}");
    }
}
