//! Multi-tenant serving: three tenants in two priority classes share
//! one Cackle fleet behind the admission controller and the weighted
//! deficit round-robin scheduler, and the bill is attributed back to
//! each tenant as exact integer micro-dollars that sum to the aggregate.
//!
//! One tenant is throttled by a per-tenant quota, so the example also
//! shows rejections showing up in the ledger as queries that never ran
//! and were never billed.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use cackle::{make_strategy, RunError, RunSpec, Telemetry};
use cackle_serve::{
    run_serve, PriorityClass, QuotaSpec, Runner, SchedulerConfig, ServeSpec, TenantRegistry,
    TenantSpec,
};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

fn main() -> Result<(), RunError> {
    // 1. Three tenants, two priority classes. The dashboard tenant runs
    //    Interactive (weight 4); the two report tenants run Batch
    //    (weight 1), and one of them is throttled to 1 query/minute.
    let stream = |queries, seed| WorkloadSpec {
        duration_s: 3600,
        num_queries: queries,
        baseline_load: 0.5,
        period_s: 1200,
        seed,
    };
    let tenants = TenantRegistry::new(vec![
        TenantSpec::new(0, "dashboards", stream(300, 7)).with_class(PriorityClass::Interactive),
        TenantSpec::new(1, "nightly-reports", stream(200, 8)).with_class(PriorityClass::Batch),
        TenantSpec::new(2, "adhoc-throttled", stream(200, 9))
            .with_class(PriorityClass::Batch)
            .with_quota(QuotaSpec::per_minute(1, 5)),
    ]);

    // 2. Run the full system simulation behind the serving front-end.
    //    Admission and scheduling happen second by second; the surviving
    //    queries run as one superposed workload on the shared fleet. A
    //    deliberately tight dispatch budget creates contention at the
    //    arrival peaks so the 4:2:1 class weights are visible in the
    //    per-tenant queueing delays.
    let telemetry = Telemetry::new();
    let spec = ServeSpec::new(tenants)
        .with_scheduler(SchedulerConfig::default().with_dispatch_per_s(1))
        .with_run(RunSpec::new().with_telemetry(&telemetry))
        .with_runner(Runner::System);
    let mut strategy = make_strategy("dynamic", &spec.run.env)?;
    let r = run_serve(&spec, &profile_set(10.0), strategy.as_mut())?;

    // 3. The per-tenant ledger: admitted/rejected counts, queueing
    //    delay, and the exact micro-dollar share of the aggregate bill.
    println!(
        "{:<16} {:<12} {:>9} {:>9} {:>10} {:>12} {:>14}",
        "tenant", "class", "admitted", "rejected", "p99_s", "mean_wait_s", "share_usd"
    );
    for t in &r.tenants {
        println!(
            "{:<16} {:<12} {:>9} {:>9} {:>10.1} {:>12.2} {:>14.6}",
            t.name,
            t.class.as_str(),
            t.admitted,
            t.rejected,
            t.latency_percentile(99.0),
            t.mean_queue_delay(),
            t.total_micros() as f64 / 1e6,
        );
    }
    let aggregate = r.run.total_cost_micros();
    println!(
        "\naggregate bill {:.6}$; attributed {:.6}$ ({})",
        aggregate as f64 / 1e6,
        r.attributed_total_micros() as f64 / 1e6,
        if r.attributed_total_micros() == aggregate {
            "exact to the micro-dollar"
        } else {
            "LEAKED"
        }
    );
    println!(
        "admission: {} admitted, {} rejected by quota, {} deferrals under backpressure",
        r.admitted(),
        r.rejected(),
        r.deferrals()
    );

    // 4. Dump the telemetry registry — `serve.*` and `tenant.*` series
    //    next to the run's own — for plotting and `telemetry-check`.
    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/multi_tenant_telemetry.jsonl";
        match std::fs::write(path, telemetry.export_jsonl()) {
            Ok(()) => println!("\nwrote {path} (validate: cargo run -p cackle-telemetry --bin telemetry-check -- {path})"),
            Err(e) => eprintln!("\nwarning: could not write {path}: {e}"),
        }
    }
    println!("\nthe throttled tenant's rejected queries never ran and were never billed;");
    println!("the interactive tenant waited least under the 4:2:1 weighted scheduler.");
    Ok(())
}
