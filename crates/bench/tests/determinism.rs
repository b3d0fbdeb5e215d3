//! The load-bearing guarantee of the parallel experiment engine: fanning
//! the evaluation matrix across threads changes *when* each simulation
//! runs, never what it computes. A serial sweep and a 4-worker sweep of
//! the same matrix must agree bit-for-bit on every statistic a figure
//! binary reads.

use prf_bench::runner::{run_matrix_resilient_configured, Job, RetryPolicy};
use prf_bench::{average_seed_results, experiment_gpu, seed_jobs};
use prf_core::ExperimentResult;
use prf_core::{PartitionedRfConfig, RfKind, RfcConfig};
use prf_sim::SchedulerPolicy;

/// 3 workloads (one per Table I category) × 3 RF organisations, each with
/// its own jitter seed — the shape of a real figure matrix.
fn matrix() -> Vec<Job> {
    let mut gpu = experiment_gpu(SchedulerPolicy::Gto);
    // Audited runs: the audit counters must be as deterministic as every
    // other statistic, and the matrix itself must run clean.
    gpu.audit = true;
    let kinds = [
        RfKind::MrfStv,
        RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks)),
        RfKind::Rfc(RfcConfig::paper_default(
            gpu.num_rf_banks,
            gpu.max_warps_per_sm,
        )),
    ];
    ["BFS", "MUM", "LIB"]
        .iter()
        .flat_map(|name| {
            let w = prf_workloads::by_name(name).unwrap();
            kinds
                .iter()
                .enumerate()
                .map(|(i, rf)| {
                    let mut gpu = gpu.clone();
                    gpu.jitter_seed = i as u64;
                    Job::labeled(&w, &gpu, rf)
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Runs `jobs` on `threads` workers; every job must succeed.
fn run(jobs: &[Job], threads: usize) -> Vec<ExperimentResult> {
    run_matrix_resilient_configured(jobs, RetryPolicy::none(), threads, None, None)
        .expect_complete()
}

#[test]
fn parallel_matrix_is_bit_identical_to_serial() {
    let jobs = matrix();
    let serial = run(&jobs, 1);
    let parallel = run(&jobs, 4);
    assert_eq!(serial.len(), parallel.len());
    for ((job, a), b) in jobs.iter().zip(&serial).zip(&parallel) {
        assert_eq!(a.cycles, b.cycles, "{}: cycles differ", job.name);
        assert_eq!(
            a.dynamic_energy_pj, b.dynamic_energy_pj,
            "{}: dynamic energy differs",
            job.name
        );
        assert_eq!(
            a.stats.partition_accesses, b.stats.partition_accesses,
            "{}: partition access counts differ",
            job.name
        );
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert_eq!(a.telemetry, b.telemetry, "{}: telemetry differs", job.name);
        let audit = a.audit.as_ref().expect("audit enabled");
        assert!(audit.is_clean(), "{}: {audit}", job.name);
        assert_eq!(a.audit, b.audit, "{}: audit counters differ", job.name);
    }
}

#[test]
fn seed_averaging_is_thread_count_independent() {
    let gpu = experiment_gpu(SchedulerPolicy::Gto);
    let w = prf_workloads::by_name("BFS").unwrap();
    let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    let jobs = seed_jobs(&w, &gpu, &rf, 3);
    let serial = average_seed_results(&run(&jobs, 1));
    let parallel = average_seed_results(&run(&jobs, 4));
    assert_eq!(serial.cycles, parallel.cycles);
    assert_eq!(serial.cycles_min, parallel.cycles_min);
    assert_eq!(serial.cycles_max, parallel.cycles_max);
    assert_eq!(serial.dynamic_energy_pj, parallel.dynamic_energy_pj);
    assert_eq!(
        serial.stats.partition_accesses,
        parallel.stats.partition_accesses
    );
}
