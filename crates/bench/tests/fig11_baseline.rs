//! The committed Fig. 11 baseline is reproduced exactly.
//!
//! Re-runs the 51 fig11 cells (17 Table I workloads × partitioned,
//! partitioned+adaptive and MRF@NTV, one jitter seed) serially with the
//! audit on — what `PRF_THREADS=1 fig11_energy_savings --audit` runs — and
//! compares every simulated field of the resulting BENCH report with
//! `baselines/BENCH_fig11_energy_savings.json`. Wall-clock fields
//! (`jobs[].elapsed_ms`, `jobs[].result.phases`, `matrix.elapsed_ms`,
//! `matrix.phases`) are the only ones left out.

use std::time::Duration;

use prf_bench::json::Json;
use prf_bench::runner::{run_matrix_resilient_configured, MatrixReport, RetryPolicy};
use prf_bench::{average_seed_results, mean, seed_jobs, RunReport};
use prf_core::{LeakageModel, PartitionedRfConfig, RfKind};
use prf_sim::{GpuConfig, SchedulerPolicy};

const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/BENCH_fig11_energy_savings.json"
);

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

/// The fig11 report, built the way `fig11_energy_savings --audit` builds
/// it, rendered and parsed back so numbers compare as the file stores them.
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

    let outcome = run_matrix_resilient_configured(&jobs, RetryPolicy::none(), 1, None, None);
    let mut report = RunReport::new("fig11_energy_savings");
    for jr in &outcome.reports {
        report.add_job(&jr.name, &jr.outcome, jr.elapsed, jr.result.as_ref());
    }
    report.set_matrix(&MatrixReport::new(&outcome, 1, Duration::ZERO, None));
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
    Json::parse(&report.to_json().to_json()).expect("a rendered report parses")
}

#[test]
fn fig11_reproduces_its_committed_baseline() {
    let text = std::fs::read_to_string(BASELINE).expect("the fig11 baseline is committed");
    let mut committed = Json::parse(&text).expect("the committed baseline parses");
    let mut fresh = fresh_report();
    strip_wallclock(&mut committed);
    strip_wallclock(&mut fresh);

    let jobs = |r: &Json| r.get("jobs").and_then(Json::as_arr).map(<[Json]>::to_vec);
    let (fresh_jobs, committed_jobs) = (jobs(&fresh).unwrap(), jobs(&committed).unwrap());
    assert_eq!(fresh_jobs.len(), committed_jobs.len());
    for (f, c) in fresh_jobs.iter().zip(&committed_jobs) {
        assert_eq!(f, c, "job drifted from the committed baseline");
    }
    assert_eq!(fresh, committed, "report drifted outside the jobs");
}
