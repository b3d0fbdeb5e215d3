//! The committed Fig. 11 and multi-SM validation baselines are reproduced
//! exactly.
//!
//! Re-runs the 51 fig11 cells (17 Table I workloads × partitioned,
//! partitioned+adaptive and MRF@NTV, one jitter seed) serially with the
//! audit on — what `PRF_THREADS=1 fig11_energy_savings --audit` runs — and
//! compares every simulated field of the resulting BENCH report with
//! `baselines/BENCH_fig11_energy_savings.json`. The 8 cells of
//! `validation_multi_sm --audit` (4 workloads on 1 and on 15 SMs) are
//! compared job by job with `baselines/BENCH_validation_multi_sm.json`;
//! they are the only committed runs with more than one SM, so they pin the
//! two-phase global-memory commit. Wall-clock fields (`jobs[].elapsed_ms`,
//! `jobs[].result.phases`, `matrix.elapsed_ms`, `matrix.phases`) are the
//! only ones left out.

use std::time::Duration;

use prf_bench::json::Json;
use prf_bench::runner::{
    run_matrix_resilient_configured, Job, MatrixOutcome, MatrixReport, RetryPolicy,
};
use prf_bench::{average_seed_results, mean, seed_jobs, RunReport};
use prf_core::{LeakageModel, PartitionedRfConfig, RfKind};
use prf_sim::{GpuConfig, SchedulerPolicy};

const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");

/// Removes the wall-clock fields from a parsed BENCH report.
fn strip_wallclock(report: &mut Json) {
    let Json::Obj(top) = report else {
        panic!("a BENCH report is an object")
    };
    for (key, value) in top.iter_mut() {
        match (key.as_str(), value) {
            ("matrix", Json::Obj(matrix)) => {
                matrix.retain(|(k, _)| k != "elapsed_ms" && k != "phases");
            }
            ("jobs", Json::Arr(jobs)) => {
                for job in jobs {
                    let Json::Obj(fields) = job else {
                        panic!("a job is an object")
                    };
                    fields.retain(|(k, _)| k != "elapsed_ms");
                    for (k, result) in fields.iter_mut() {
                        if let (true, Json::Obj(result)) = (k == "result", result) {
                            result.retain(|(k, _)| k != "phases");
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// The committed `baselines/BENCH_<bench>.json`, wall-clock stripped.
fn committed_report(bench: &str) -> Json {
    let path = format!("{BASELINES}/BENCH_{bench}.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut report = Json::parse(&text).expect("the committed baseline parses");
    strip_wallclock(&mut report);
    report
}

/// Runs `jobs` serially and records them in a report for `bench`, the
/// way the figure binaries do.
fn run_jobs(bench: &str, jobs: &[Job]) -> (MatrixOutcome, RunReport) {
    let outcome = run_matrix_resilient_configured(jobs, RetryPolicy::none(), 1, None, None);
    let mut report = RunReport::new(bench);
    for jr in &outcome.reports {
        report.add_job(&jr.name, &jr.outcome, jr.elapsed, jr.result.as_ref());
    }
    report.set_matrix(&MatrixReport::new(&outcome, 1, Duration::ZERO, None));
    (outcome, report)
}

/// Renders `report`, parses it back so numbers compare as the file stores
/// them, and strips the wall-clock fields.
fn rendered(report: &RunReport) -> Json {
    let mut json = Json::parse(&report.to_json().to_json()).expect("a rendered report parses");
    strip_wallclock(&mut json);
    json
}

/// Asserts that the `jobs` arrays of two reports agree entry by entry.
fn assert_jobs_match(fresh: &Json, committed: &Json) {
    let jobs = |r: &Json| r.get("jobs").and_then(Json::as_arr).map(<[Json]>::to_vec);
    let (fresh_jobs, committed_jobs) = (jobs(fresh).unwrap(), jobs(committed).unwrap());
    assert_eq!(fresh_jobs.len(), committed_jobs.len());
    for (f, c) in fresh_jobs.iter().zip(&committed_jobs) {
        assert_eq!(f, c, "job drifted from the committed baseline");
    }
}

/// The fig11 report, built the way `fig11_energy_savings --audit` builds
/// it.
fn fresh_report() -> Json {
    let gpu = GpuConfig {
        scheduler: SchedulerPolicy::Gto,
        audit: true,
        ..GpuConfig::kepler_single_sm()
    };
    let plain = RfKind::Partitioned(PartitionedRfConfig::without_adaptive(gpu.num_rf_banks));
    let adaptive = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
    let ntv = RfKind::MrfNtv { latency: 3 };
    let jobs: Vec<_> = prf_workloads::suite()
        .iter()
        .flat_map(|w| {
            [&plain, &adaptive, &ntv]
                .into_iter()
                .flat_map(|rf| seed_jobs(w, &gpu, rf, 1))
        })
        .collect();
    assert_eq!(jobs.len(), 51);

    let (outcome, mut report) = run_jobs("fig11_energy_savings", &jobs);
    let results = outcome.expect_complete();
    let saving = |arm: usize| {
        let per_workload: Vec<f64> = results
            .chunks(3)
            .map(|r| average_seed_results(&r[arm..=arm]).dynamic_saving())
            .collect();
        mean(&per_workload)
    };
    report.add_metric("mean_dynamic_saving_partitioned", saving(0));
    report.add_metric("mean_dynamic_saving_adaptive", saving(1));
    report.add_metric("mean_dynamic_saving_ntv", saving(2));
    report.add_metric(
        "leakage_saving",
        LeakageModel::from_finfet().partitioned_saving(),
    );
    rendered(&report)
}

#[test]
fn fig11_reproduces_its_committed_baseline() {
    let committed = committed_report("fig11_energy_savings");
    let fresh = fresh_report();
    assert_jobs_match(&fresh, &committed);
    assert_eq!(fresh, committed, "report drifted outside the jobs");
}

/// The 8 jobs of `validation_multi_sm --audit`: 4 workloads, each on 1 and
/// on 15 SMs of the GTX-780 configuration, partitioned RF, one seed.
#[test]
fn validation_multi_sm_reproduces_its_committed_baseline() {
    let jobs: Vec<Job> = ["backprop", "srad", "kmeans", "LIB"]
        .iter()
        .map(|name| prf_workloads::by_name(name).expect("known workload"))
        .flat_map(|w| {
            [1usize, 15].map(|num_sms| {
                let gpu = GpuConfig {
                    num_sms,
                    scheduler: SchedulerPolicy::Gto,
                    audit: true,
                    ..GpuConfig::kepler_gtx780()
                };
                let rf = RfKind::Partitioned(PartitionedRfConfig::paper_default(gpu.num_rf_banks));
                seed_jobs(&w, &gpu, &rf, 1)
            })
        })
        .flatten()
        .collect();
    assert_eq!(jobs.len(), 8);
    let (_, report) = run_jobs("validation_multi_sm", &jobs);
    assert_jobs_match(&rendered(&report), &committed_report("validation_multi_sm"));
}
