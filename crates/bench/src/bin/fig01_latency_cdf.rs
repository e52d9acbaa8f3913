//! Figure 1: CDF of query latencies in an hour-long 1500-query workload —
//! Cackle (starting from zero compute) vs a Databricks SQL small warehouse
//! with five fixed clusters vs small with autoscaling.

use cackle::system::run_system;
use cackle::{make_strategy, RunError, RunSpec};
use cackle_bench::*;
use cackle_comparators::{run_databricks, DatabricksConfig, WarehouseSize};
use cackle_workload::demand::percentile_f64;

fn main() -> Result<(), RunError> {
    let w = hour_workload(1500, 11);
    let spec = RunSpec::new();
    let cackle_run = run_system(&w, make_strategy("dynamic", &spec.env)?.as_mut(), &spec)?;
    let fixed5 = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
    let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));

    let mut t = ResultTable::new(
        "Fig 1: latency CDF, 1500 TPC-H queries in one hour",
        &[
            "percentile",
            "cackle_s",
            "databricks_small_5clusters_s",
            "databricks_small_autoscaling_s",
        ],
    );
    for pct in [
        10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 99.0, 100.0,
    ] {
        t.row_strings(vec![
            format!("{pct:.0}"),
            secs(percentile_f64(&cackle_run.latencies, pct)),
            secs(percentile_f64(&fixed5.latencies, pct)),
            secs(percentile_f64(&auto.latencies, pct)),
        ]);
    }
    t.emit("fig01_latency_cdf");
    println!(
        "costs: cackle ${:.2}, databricks fixed-5 ${:.2}, autoscaling ${:.2}",
        cackle_run.total_cost(),
        fixed5.total_cost(),
        auto.total_cost()
    );
    Ok(())
}
