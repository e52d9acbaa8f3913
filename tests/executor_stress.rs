//! Executor stress gate: a fault-laden run is worker-count independent.
//!
//! The determinism suite checks seeded repeats; this one attacks the
//! parallel executor specifically. A seeded workload runs under an
//! aggressive fault plan — spot reclaims, stragglers with duplicate
//! launches, pool invoke failures and throttles, store errors, and
//! transport drops — through both runners at 1 and 8 workers, and must
//! produce an identical report and identical fault/recovery counters:
//! fault draws are keyed by operation identity and cross-task effects
//! merge in task-index order, so thread scheduling never leaks into
//! results.

use cackle::model::build_workload;
use cackle::system::run_system;
use cackle::{
    run_live, FaultSpec, LiveQuery, MetaStrategy, RunError, RunResult, RunSpec, Telemetry,
};
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;
use std::sync::Arc;

/// Everything the fault layer can throw, at punishing rates.
fn chaos() -> FaultSpec {
    FaultSpec::default()
        .with_spot_reclaims(6.0)
        .with_pool_invoke_failures(0.15)
        .with_pool_throttles(0.1, 300)
        .with_store_errors(0.2, 0.2)
        .with_transport_drops(0.25)
        .with_stragglers(0.2, 3.0)
}

/// Every fault and recovery counter the injector maintains.
const COUNTERS: &[&str] = &[
    "fault.spot_reclaims_total",
    "fault.stragglers_total",
    "fault.pool_invoke_failures_total",
    "fault.pool_throttles_total",
    "fault.store_get_errors_total",
    "fault.store_put_errors_total",
    "fault.transport_drops_total",
    "recovery.retries_total",
    "recovery.backoff_ms_total",
    "recovery.transport_fallbacks_total",
    "recovery.task_reexecs_total",
    "recovery.duplicates_launched_total",
    "recovery.duplicate_wins_total",
    "recovery.unrecovered_total",
];

fn counter_snapshot(t: &Telemetry) -> Vec<(&'static str, u64)> {
    COUNTERS.iter().map(|&c| (c, t.counter(c))).collect()
}

/// `{:?}` on `f64` prints the shortest exact round-trip decimal, so any
/// drift in any float shows up in the comparison.
fn report(r: &RunResult) -> String {
    format!(
        "compute {:?}\nshuffle {:?}\ntotal {:?}\nlatencies {:?}\ntimeseries {:?}\n",
        r.compute,
        r.shuffle,
        r.total_cost(),
        r.latencies,
        r.timeseries
    )
}

#[test]
fn live_fault_runs_are_worker_count_independent() -> Result<(), RunError> {
    // Real queries through the engine: operator pipelines, hybrid
    // shuffle with transport drops and billed store fallback, straggler
    // duplicates, spot reclaims, pool invoke failures — all at once. The
    // workload outlasts the 180 s VM startup so the fleet runs tasks,
    // and live tasks last seconds, so the reclaim rate is raised until
    // reclaims certainly occur.
    let catalog = generate_catalog(&DbGenConfig {
        scale_factor: 0.002,
        rows_per_partition: 512,
        seed: 7,
    });
    let par = Par {
        fact: 3,
        mid: 2,
        join: 2,
    };
    let workload: Vec<LiveQuery> = ["q01", "q06", "q03", "q13", "q04", "q06"]
        .iter()
        .cycle()
        .take(36)
        .enumerate()
        .map(|(i, &n)| LiveQuery {
            at_s: i as u64 * 10,
            plan: Arc::new(plans::plan(n, par)),
        })
        .collect();
    let run = |workers: u32| {
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_rows_per_task_second(500.0)
            .with_workers(workers)
            .with_faults(chaos().with_spot_reclaims(360.0))
            .with_telemetry(&t);
        let mut dynamic = MetaStrategy::new(&spec.env);
        let r = run_live(&workload, &catalog, &mut dynamic, &spec)?;
        Ok::<_, RunError>((report(&r), counter_snapshot(&t), t.export_jsonl()))
    };
    let (serial_report, serial_counters, serial_dump) = run(1)?;
    for active in [
        "fault.spot_reclaims_total",
        "recovery.task_reexecs_total",
        "recovery.duplicates_launched_total",
    ] {
        assert!(
            serial_counters.iter().any(|&(c, v)| c == active && v > 0),
            "{active} was not active: {serial_counters:?}"
        );
    }
    let (parallel_report, parallel_counters, parallel_dump) = run(8)?;
    assert_eq!(serial_counters, parallel_counters, "counters diverged");
    assert!(
        serial_report == parallel_report,
        "reports diverged:\n--- 1 worker\n{serial_report}\n--- 8 workers\n{parallel_report}"
    );
    assert!(
        serial_dump == parallel_dump,
        "dumps diverged (lengths {} vs {})",
        serial_dump.len(),
        parallel_dump.len()
    );
    Ok(())
}

#[test]
fn system_fault_runs_are_worker_count_independent() -> Result<(), RunError> {
    // The profile replay under the same plan: its task durations come
    // from profiles, so no engine work runs on the executor, and the
    // worker count must still not move the run.
    let workload = build_workload(&WorkloadSpec::hour_long(250, 29), &profile_set(10.0));
    let run = |workers: u32| {
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_workers(workers)
            .with_faults(chaos())
            .with_telemetry(&t);
        let mut dynamic = MetaStrategy::new(&spec.env);
        let r = run_system(&workload, &mut dynamic, &spec)?;
        Ok::<_, RunError>((report(&r), counter_snapshot(&t)))
    };
    let (serial_report, serial_counters) = run(1)?;
    assert!(
        serial_counters
            .iter()
            .any(|&(c, v)| c == "fault.spot_reclaims_total" && v > 0),
        "spot reclaims were not active: {serial_counters:?}"
    );
    let (parallel_report, parallel_counters) = run(8)?;
    assert_eq!(serial_counters, parallel_counters, "counters diverged");
    assert!(
        serial_report == parallel_report,
        "reports diverged:\n--- 1 worker\n{serial_report}\n--- 8 workers\n{parallel_report}"
    );
    Ok(())
}
