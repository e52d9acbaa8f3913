//! Extension experiment: spot reclamation resilience. The paper provisions
//! spot instances (§7.1.2) but never models interruptions; Cackle's elastic
//! pool gives a natural recovery path — a reclaimed task re-executes on the
//! pool instead of queueing for replacement hardware. Sweep the
//! interruption rate through the fault plan (`crates/faults`) and measure
//! the latency and cost impact plus the recovery work performed.

use cackle::system::run_system;
use cackle::{FaultSpec, MetaStrategy, RunError, RunSpec, Telemetry};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let w = hour_workload(750, 41);
    let mut t = ResultTable::new(
        "Extension: spot interruptions per VM-hour vs latency and cost",
        &[
            "rate_per_vm_hour",
            "p50_latency_s",
            "p95_latency_s",
            "vm_cost",
            "pool_cost",
            "reclaims",
            "reexecs",
        ],
    );
    for rate in [0.0f64, 0.1, 0.5, 2.0, 6.0] {
        let telemetry = Telemetry::new();
        let spec = RunSpec::new()
            .with_faults(FaultSpec::default().with_spot_reclaims(rate))
            .with_telemetry(&telemetry);
        let mut s = MetaStrategy::new(&spec.env);
        let r = run_system(&w, &mut s, &spec)?;
        t.row_strings(vec![
            format!("{rate}"),
            secs(r.latency_percentile(50.0)),
            secs(r.latency_percentile(95.0)),
            usd(r.compute.vm_cost),
            usd(r.compute.pool_cost),
            telemetry.counter("fault.spot_reclaims_total").to_string(),
            telemetry.counter("recovery.task_reexecs_total").to_string(),
        ]);
        eprintln!("  done rate={rate}");
    }
    t.emit("ablation_spot_interruptions");
    println!("queries never queue for replacement hardware: reclaimed tasks");
    println!("re-execute on the pool, so tail latency degrades gracefully.");
    Ok(())
}
