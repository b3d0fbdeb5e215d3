//! The traced run's instruments, kept in the benchmark's own files: an
//! RF-model decorator that counts and times every call into the model,
//! and an experiment pipeline composed from each layer's public
//! functions so that `Gpu::run` gets a span of its own.
//!
//! `prf_core::run_experiment_with_faults` fuses set-up, simulation and
//! energy accounting into one call and builds its model factory itself,
//! so [`simulate`] repeats that composition from the public pieces. The
//! traced run checks that both paths produce bit-identical results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prf_bench::runner::{run_resilient_job, Job, RetryPolicy};
use prf_core::{
    faulted_rf_model_factory, shared_telemetry, snapshot, validate_experiment_inputs, EnergyModel,
    ExperimentResult, LeakageModel, PhaseTimings, RepairCosts, RfKind,
};
use prf_isa::{Kernel, Reg};
use prf_sim::rf::{AccessKind, RegisterFileModel, ResolvedAccess, WarpLifecycle};
use prf_sim::{AuditReport, Gpu, SimError, SmStats};

/// Calls into the RF models of one job and the time spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct RfCounts {
    /// `resolve` calls.
    pub resolve: u64,
    /// `observe_access` calls.
    pub observe: u64,
    /// `tick` calls.
    pub tick: u64,
    /// Nanoseconds spent inside the model, over every trait method.
    pub self_ns: u64,
}

impl RfCounts {
    /// Adds another model's counts.
    pub fn add(&mut self, other: &RfCounts) {
        self.resolve += other.resolve;
        self.observe += other.observe;
        self.tick += other.tick;
        self.self_ns += other.self_ns;
    }
}

/// Wraps an RF model, counting and timing each call. Counts stay in the
/// model (≈400k calls per sgemm job, so no span per call) and are added
/// to the job's shared total when the simulator drops the model.
#[derive(Debug)]
struct TimedRf {
    inner: Box<dyn RegisterFileModel>,
    counts: RfCounts,
    sink: Arc<Mutex<RfCounts>>,
}

impl TimedRf {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn RegisterFileModel) -> T) -> T {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        self.counts.self_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl Drop for TimedRf {
    fn drop(&mut self) {
        // A poisoned sink means another model's job already panicked and
        // is reported as failed; losing these counts is harmless.
        if let Ok(mut total) = self.sink.lock() {
            total.add(&self.counts);
        }
    }
}

impl RegisterFileModel for TimedRf {
    fn resolve(
        &mut self,
        warp_slot: usize,
        reg: Reg,
        kind: AccessKind,
        cycle: u64,
    ) -> ResolvedAccess {
        self.counts.resolve += 1;
        self.timed(|m| m.resolve(warp_slot, reg, kind, cycle))
    }

    fn observe_access(&mut self, warp_slot: usize, reg: Reg, kind: AccessKind, cycle: u64) {
        self.counts.observe += 1;
        self.timed(|m| m.observe_access(warp_slot, reg, kind, cycle));
    }

    fn tick(&mut self, cycle: u64, issued: u32) {
        self.counts.tick += 1;
        self.timed(|m| m.tick(cycle, issued));
    }

    fn on_kernel_launch(&mut self, kernel: &Kernel, cycle: u64) {
        self.timed(|m| m.on_kernel_launch(kernel, cycle));
    }

    fn on_warp_start(&mut self, warp: WarpLifecycle, cycle: u64) {
        self.timed(|m| m.on_warp_start(warp, cycle));
    }

    fn on_warp_finish(&mut self, warp: WarpLifecycle, cycle: u64) {
        self.timed(|m| m.on_warp_finish(warp, cycle));
    }

    fn on_warp_deactivated(&mut self, warp_slot: usize, cycle: u64) {
        self.timed(|m| m.on_warp_deactivated(warp_slot, cycle));
    }

    fn rfc_evictions(&self) -> u64 {
        self.inner.rfc_evictions()
    }

    fn frf_low_mode(&self) -> Option<bool> {
        self.inner.frf_low_mode()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One timed interval. Spans of a job share its index; `parent` indexes
/// the job's own span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary: `job`, `experiment` or `gpu.run`.
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the pass began.
    pub start_ns: u64,
    /// End, in nanoseconds since the pass began.
    pub end_ns: u64,
}

/// What the traced pipeline recorded for one job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// The job's spans; index 0 is the job itself.
    pub spans: Vec<Span>,
    /// Calls into the job's RF models.
    pub rf: RfCounts,
    /// Nanoseconds inside `Gpu::run`, over all launches.
    pub sim_ns: u64,
    /// `Gpu::skipped_cycles` at the end of the job.
    pub skipped_cycles: u64,
    /// Worker thread that ran the job.
    pub worker: usize,
}

impl JobTrace {
    /// Opens a span that started at `start`; [`JobTrace::close`] ends it.
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        t0: Instant,
        start: Instant,
    ) -> usize {
        let start_ns = ns_since(t0, start);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize, t0: Instant) {
        self.spans[span].end_ns = ns_since(t0, Instant::now());
    }
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Runs `job` from the public pieces of each layer and returns its result
/// and the GPU (whose memory holds the job's output). With `trace`, every
/// RF model runs behind the counting decorator and the layer spans are
/// recorded, relative to `t0`, under the job span at index 0, which the
/// caller opens and closes.
///
/// # Errors
///
/// The same typed errors `run_experiment_with_faults` returns.
pub fn simulate(
    job: &Job,
    mut trace: Option<&mut JobTrace>,
    t0: Instant,
) -> Result<(ExperimentResult, Gpu), SimError> {
    let experiment_start = Instant::now();
    let experiment = trace
        .as_deref_mut()
        .map(|t| t.open("experiment", Some(0), t0, experiment_start));
    validate_experiment_inputs(&job.gpu, &job.workload.launches, job.faults.as_ref())?;
    let mut phases = PhaseTimings::default();
    let telemetry = shared_telemetry();
    let mut gpu = Gpu::try_new(job.gpu.clone())?;
    for (base, words) in &job.workload.mem_init {
        gpu.global_mem().load(*base, words);
    }
    let models = faulted_rf_model_factory(
        &job.rf,
        job.gpu.num_rf_banks,
        &telemetry,
        job.faults.clone(),
    );
    let rf_counts = Arc::new(Mutex::new(RfCounts::default()));
    let decorate = trace.is_some();
    let factory = |sm: usize| -> Box<dyn RegisterFileModel> {
        let model = models(sm);
        if decorate {
            Box::new(TimedRf {
                inner: model,
                counts: RfCounts::default(),
                sink: Arc::clone(&rf_counts),
            })
        } else {
            model
        }
    };
    phases.setup = experiment_start.elapsed();

    let simulate_start = Instant::now();
    let mut per_launch = Vec::with_capacity(job.workload.launches.len());
    for launch in &job.workload.launches {
        let start = Instant::now();
        let span = trace
            .as_deref_mut()
            .map(|t| t.open("gpu.run", experiment, t0, start));
        per_launch.push(gpu.run(Arc::clone(&launch.kernel), launch.grid, &factory)?);
        if let (Some(t), Some(span)) = (trace.as_deref_mut(), span) {
            t.close(span, t0);
            t.sim_ns += start.elapsed().as_nanos() as u64;
        }
    }
    phases.simulate = simulate_start.elapsed();

    let energy_start = Instant::now();
    let mut stats = SmStats::new();
    let mut cycles = 0;
    for r in &per_launch {
        stats.merge(&r.stats);
        cycles += r.cycles;
    }
    let telemetry = snapshot(&telemetry);
    let energy = EnergyModel::without_rfc();
    let leak = LeakageModel::from_finfet();
    let organisation_mw = match &job.rf {
        RfKind::MrfStv => leak.mrf_stv_mw,
        RfKind::MrfNtv { .. } => leak.mrf_ntv_mw,
        RfKind::Partitioned(_) => leak.partitioned_mw(),
        other => panic!("the benchmark's arms never use {}", other.name()),
    };
    let sms = job.gpu.num_sms as f64;
    let repair_energy_pj = RepairCosts::finfet_default().repair_energy_pj(
        telemetry.fault_remaps,
        telemetry.fault_spills,
        telemetry.fault_escalations,
    );
    let dynamic_energy_pj =
        energy.dynamic_energy_pj(&stats.partition_accesses, 0) + repair_energy_pj;
    let baseline_dynamic_energy_pj = energy.baseline_dynamic_energy_pj(&stats.partition_accesses);
    let leakage_energy_pj = LeakageModel::leakage_energy_pj(organisation_mw, cycles) * sms;
    let baseline_leakage_energy_pj = LeakageModel::leakage_energy_pj(leak.mrf_stv_mw, cycles) * sms;
    phases.energy = energy_start.elapsed();

    let audit_start = Instant::now();
    let audit = job.gpu.audit.then(|| {
        let mut merged = AuditReport::default();
        for a in per_launch.iter().filter_map(|r| r.audit.as_ref()) {
            merged.merge(a);
        }
        merged
    });
    phases.audit = audit_start.elapsed();

    if let (Some(t), Some(experiment)) = (trace, experiment) {
        // The simulator drops every model when its launch ends, so the
        // counts are complete here.
        t.rf = *rf_counts
            .lock()
            .expect("models add their counts without panicking");
        t.skipped_cycles = gpu.skipped_cycles;
        t.close(experiment, t0);
    }
    let result = ExperimentResult {
        rf_name: job.rf.name(),
        cycles,
        stats,
        per_launch,
        telemetry,
        dynamic_energy_pj,
        baseline_dynamic_energy_pj,
        leakage_energy_pj,
        baseline_leakage_energy_pj,
        repair_energy_pj,
        phases,
        audit,
    };
    Ok((result, gpu))
}

/// One traced pass over a job list.
pub struct TracedPass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Per job, in input order: the result, or `None` when the job failed.
    pub results: Vec<Option<ExperimentResult>>,
    /// Per job, in input order: what the tracer recorded.
    pub traces: Vec<JobTrace>,
}

/// A finished job of a traced pass: its result (`None` when it failed)
/// and its trace.
type TracedJob = (Option<ExperimentResult>, JobTrace);

/// Runs every job through [`simulate`] with tracing on, on `workers`
/// threads pulling from a shared cursor as the runner's pool does. Each
/// job goes through the runner's per-job layer (`run_resilient_job`,
/// no retries), which catches panics and classifies errors.
pub fn traced_pass(jobs: &[Job], workers: usize) -> TracedPass {
    let t0 = Instant::now();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TracedJob>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for worker in 0..workers.clamp(1, jobs.len().max(1)) {
            let (next, slots) = (&next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let job_start = Instant::now();
                let recorded = Arc::new(Mutex::new(JobTrace::default()));
                let (owned, sink) = (job.clone(), Arc::clone(&recorded));
                let (_, result) = run_resilient_job(RetryPolicy::none(), move || {
                    let mut trace = JobTrace::default();
                    trace.open("job", None, t0, job_start);
                    let out = simulate(&owned, Some(&mut trace), t0);
                    *sink.lock().expect("one attempt writes the trace") = trace;
                    out.map(|(result, _gpu)| result)
                });
                let mut trace = std::mem::take(&mut *recorded.lock().expect("attempt finished"));
                if trace.spans.is_empty() {
                    // The attempt panicked before handing its trace over.
                    trace.open("job", None, t0, job_start);
                }
                trace.close(0, t0);
                trace.worker = worker;
                *slots[i].lock().expect("each slot has one writer") = Some((result, trace));
            });
        }
    });
    let wall = t0.elapsed();
    let (results, traces) = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("workers finished")
                .expect("every job ran")
        })
        .unzip();
    TracedPass {
        wall,
        results,
        traces,
    }
}
