//! Figure 14: cost and latency stability across workload sizes — Cackle
//! (full system, dynamic strategy, compute + shuffle cost) vs Databricks
//! small/medium warehouses with fixed and autoscaling provisioning vs
//! Redshift Serverless. Left panel: p90 query latency; right panel: cost
//! per query.
//!
//! Every run (Cackle and the comparators) records into a telemetry sink;
//! the cost panel reads total dollars and completed-query counts from the
//! registries, so all six systems are compared through the same
//! instrumentation.

use cackle::system::run_system;
use cackle::{make_strategy, RunError, RunSpec, Telemetry};
use cackle_bench::*;
use cackle_comparators::{
    run_databricks, run_redshift, DatabricksConfig, RedshiftConfig, WarehouseSize,
};

fn main() -> Result<(), RunError> {
    let mut latency = ResultTable::new(
        "Fig 14 (left): p90 query latency (s) vs number of queries",
        &[
            "queries",
            "cackle",
            "databricks_small_fixed5",
            "databricks_small_auto8",
            "databricks_medium_fixed3",
            "databricks_medium_auto5",
            "redshift_8rpu",
        ],
    );
    let mut cost = ResultTable::new(
        "Fig 14 (right): cost per query ($) vs number of queries",
        &[
            "queries",
            "cackle",
            "databricks_small_fixed5",
            "databricks_small_auto8",
            "databricks_medium_fixed3",
            "databricks_medium_auto5",
            "redshift_8rpu",
        ],
    );
    for n in [60usize, 250, 500, 750, 1000, 1500, 2000] {
        let w = hour_workload(n, 14);
        let sinks: Vec<Telemetry> = (0..6).map(|_| Telemetry::new()).collect();
        let spec = RunSpec::new().with_telemetry(&sinks[0]);
        let mut dynamic = make_strategy("dynamic", &spec.env)?;
        let runs = [
            run_system(&w, dynamic.as_mut(), &spec)?,
            run_databricks(
                &w,
                &DatabricksConfig::fixed(WarehouseSize::Small, 5).with_telemetry(&sinks[1]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::autoscaling(WarehouseSize::Small, 8).with_telemetry(&sinks[2]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::fixed(WarehouseSize::Medium, 3).with_telemetry(&sinks[3]),
            ),
            run_databricks(
                &w,
                &DatabricksConfig::autoscaling(WarehouseSize::Medium, 5).with_telemetry(&sinks[4]),
            ),
            run_redshift(&w, &RedshiftConfig::default().with_telemetry(&sinks[5])),
        ];
        let mut lrow = vec![n.to_string()];
        let mut crow = vec![n.to_string()];
        for (r, t) in runs.iter().zip(&sinks) {
            lrow.push(secs(r.latency_percentile(90.0)));
            let queries = t.counter("run.queries_total").max(1) as f64;
            let dollars = t.snapshot().map(|reg| reg.cost_total()).unwrap_or_default();
            crow.push(usd4(dollars / queries));
        }
        latency.row_strings(lrow);
        cost.row_strings(crow);
        eprintln!("  done n={n}");
    }
    latency.emit("fig14_latency");
    cost.emit("fig14_cost");
    Ok(())
}
