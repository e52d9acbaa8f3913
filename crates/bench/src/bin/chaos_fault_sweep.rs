//! Chaos sweep: fault intensity vs recovered cost and latency.
//!
//! Scales a composite fault plan — spot reclaims, pool invoke
//! failures/throttles, object-store transient errors, stragglers — by an
//! intensity factor and runs the full system under the dynamic strategy.
//! Every injected fault must be recovered (bounded retries, pool
//! re-execution, first-wins duplicates); the table reports how much
//! latency and attributed recovery spend that resilience costs.

use cackle::system::run_system;
use cackle::{FaultSpec, MetaStrategy, RunError, RunSpec, Telemetry};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let w = hour_workload(600, 47);
    let mut t = ResultTable::new(
        "Chaos: fault intensity vs recovered cost and latency",
        &[
            "intensity",
            "p50_latency_s",
            "p95_latency_s",
            "total_cost",
            "faults",
            "retries",
            "reexecs",
            "dups",
            "recovery_cost",
        ],
    );
    for k in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
        let faults = FaultSpec::default()
            .with_spot_reclaims(2.0 * k)
            .with_pool_invoke_failures(0.05 * k)
            .with_pool_throttles(0.05 * k, 500)
            .with_store_errors(0.05 * k, 0.05 * k)
            .with_stragglers(0.05 * k, 3.0);
        let telemetry = Telemetry::new();
        let spec = RunSpec::new()
            .with_faults(faults)
            .with_telemetry(&telemetry);
        let mut s = MetaStrategy::new(&spec.env);
        let r = run_system(&w, &mut s, &spec)?;
        let faults_total = telemetry.counter("fault.spot_reclaims_total")
            + telemetry.counter("fault.pool_invoke_failures_total")
            + telemetry.counter("fault.pool_throttles_total")
            + telemetry.counter("fault.store_get_errors_total")
            + telemetry.counter("fault.store_put_errors_total")
            + telemetry.counter("fault.stragglers_total");
        let recovery_cost = telemetry.cost("recovery", "elastic_pool")
            + telemetry.cost("recovery", "s3_get")
            + telemetry.cost("recovery", "s3_put");
        assert_eq!(
            telemetry.counter("recovery.unrecovered_total"),
            0,
            "sweep plans must stay within the recovery bound"
        );
        t.row_strings(vec![
            format!("{k}"),
            secs(r.latency_percentile(50.0)),
            secs(r.latency_percentile(95.0)),
            usd(r.total_cost()),
            faults_total.to_string(),
            telemetry.counter("recovery.retries_total").to_string(),
            telemetry.counter("recovery.task_reexecs_total").to_string(),
            telemetry
                .counter("recovery.duplicates_launched_total")
                .to_string(),
            usd4(recovery_cost),
        ]);
        eprintln!("  done intensity={k}");
    }
    t.emit("chaos_fault_sweep");
    println!("all injected faults recovered within the policy bound; the");
    println!("recovery_cost column is the attributed price of that resilience.");
    Ok(())
}
