//! Fault-injection smoke test for CI: a small matrix with injected
//! faults, a deliberately rejected job, and a deliberately runaway job
//! must come back as partial results — a [`JobOutcome`] for every job, no
//! lost healthy results, and a clean conservation audit on the faulted
//! runs.

use prf_bench::runner::{
    run_matrix_resilient_configured, Job, JobOutcome, MatrixOutcome, RetryPolicy,
};
use prf_bench::{experiment_gpu, fault_config_for};
use prf_core::{Launch, RfKind};
use prf_finfet::NTV;
use prf_isa::{parse_kernel, GridConfig};
use prf_sim::{GpuConfig, SchedulerPolicy};

/// An audited NTV job carrying the standard fault campaign.
fn faulted_job(name: &str, seed: u64) -> Job {
    let w = prf_workloads::suite::bfs();
    let gpu = GpuConfig {
        jitter_seed: seed,
        audit: true,
        ..experiment_gpu(SchedulerPolicy::Gto)
    };
    Job::new(name, &w, &gpu, &RfKind::MrfNtv { latency: 3 })
        .with_faults(Some(fault_config_for(42, NTV)))
}

fn run(jobs: &[Job], threads: usize) -> MatrixOutcome {
    run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
}

#[test]
fn crashing_matrix_returns_partial_results_with_clean_audits() {
    let mut jobs = vec![
        faulted_job("healthy-a", 0),
        faulted_job("doomed", 1),
        faulted_job("healthy-b", 2),
    ];
    // An impossible cycle limit forces a deterministic SimError, which
    // the engine classifies as a fail-fast rejection.
    jobs[1].gpu.max_cycles = 1;

    let outcome = run(&jobs, 3);
    assert_eq!(
        outcome.reports.len(),
        jobs.len(),
        "an outcome for every job"
    );

    for (i, name) in ["healthy-a", "healthy-b"]
        .iter()
        .zip([0usize, 2])
        .map(|(n, i)| (i, n))
    {
        let report = &outcome.reports[i];
        assert_eq!(&report.name, name);
        assert_eq!(report.outcome, JobOutcome::Completed);
        let result = report
            .result
            .as_ref()
            .expect("healthy job keeps its result");
        let audit = result.audit.as_ref().expect("audit was enabled");
        assert!(audit.is_clean(), "{audit}");
        assert!(
            result.telemetry.total_fault_repairs() > 0,
            "the NTV fault map must trip repairs"
        );
        assert!(result.repair_energy_pj > 0.0);
    }

    let doomed = &outcome.reports[1];
    assert!(
        matches!(&doomed.outcome, JobOutcome::Rejected { reason } if reason.contains("cycle")),
        "doomed job must report its rejection: {}",
        doomed.outcome
    );
    assert!(doomed.result.is_none());
    assert_eq!(outcome.failed_jobs(), 1);
    assert!(outcome.failure_manifest().contains("job #1 `doomed`"));
}

#[test]
fn runaway_kernel_is_stopped_by_the_cycle_limit() {
    // No wall-clock watchdog: a kernel that branches to itself forever is
    // bounded by `GpuConfig::max_cycles`, which turns it into a
    // deterministic `CycleLimitExceeded` rejection — while its neighbours
    // finish with clean audits.
    let mut jobs = vec![
        faulted_job("healthy-a", 0),
        faulted_job("spin", 1),
        faulted_job("healthy-b", 2),
    ];
    let spin = parse_kernel(".kernel spin\ntop:\n  bra top\n  exit\n").unwrap();
    jobs[1].workload.launches = vec![Launch::new(spin, GridConfig::new(1, 32))];
    jobs[1].gpu.max_cycles = 20_000;

    let outcome = run(&jobs, 3);
    for i in [0, 2] {
        let report = &outcome.reports[i];
        assert_eq!(report.outcome, JobOutcome::Completed, "{}", report.name);
        let audit = report.result.as_ref().unwrap().audit.as_ref().unwrap();
        assert!(audit.is_clean(), "{audit}");
    }
    let spin = &outcome.reports[1];
    assert!(
        matches!(&spin.outcome, JobOutcome::Rejected { reason } if reason.contains("cycle")),
        "runaway job must be rejected by the cycle limit: {}",
        spin.outcome
    );
    assert!(spin.result.is_none());
    assert_eq!(outcome.failed_jobs(), 1);
}

#[test]
fn faulted_matrix_is_deterministic_across_thread_counts() {
    let jobs: Vec<Job> = (0..3).map(|s| faulted_job("det", s)).collect();
    let serial = run(&jobs, 1);
    let parallel = run(&jobs, 3);
    for (a, b) in serial.reports.iter().zip(&parallel.reports) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.cycles, rb.cycles);
        assert_eq!(ra.dynamic_energy_pj, rb.dynamic_energy_pj);
        assert_eq!(ra.repair_energy_pj, rb.repair_energy_pj);
        assert_eq!(
            ra.telemetry.total_fault_repairs(),
            rb.telemetry.total_fault_repairs()
        );
    }
}
