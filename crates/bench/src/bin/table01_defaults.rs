//! Table 1: default workload and environment parameters of the analytical
//! model. Regenerates the table directly from the defaults in code so any
//! drift between documentation and implementation is visible.

use cackle::RunError;
use cackle_bench::ResultTable;
use cackle_workload::arrivals::WorkloadSpec;

fn main() -> Result<(), RunError> {
    let spec = WorkloadSpec::default();
    let env = cackle_bench::env();
    let mut t = ResultTable::new(
        "Table 1: Default Workload Parameters",
        &["parameter", "value"],
    );
    t.row_strings(vec![
        "Workload Duration".into(),
        format!("{} Hours", spec.duration_s / 3600),
    ]);
    t.row_strings(vec!["# Queries".into(), spec.num_queries.to_string()]);
    t.row_strings(vec![
        "Baseline Load".into(),
        format!("{:.0}%", spec.baseline_load * 100.0),
    ]);
    t.row_strings(vec![
        "Period Of Query Arrivals".into(),
        format!("{} Hours", spec.period_s / 3600),
    ]);
    t.emit("table01_workload");

    let mut t = ResultTable::new(
        "Table 1: Default Environment Parameters",
        &["parameter", "value"],
    );
    t.row_strings(vec![
        "VM Startup Latency".into(),
        format!("{} Minutes", env.vm_startup_s() / 60),
    ]);
    t.row_strings(vec![
        "Minimum VM Billing Time".into(),
        format!("{} Minute", env.vm_min_billing_s() / 60),
    ]);
    t.row_strings(vec![
        "Cost of VM (2vCPUs)".into(),
        format!("${}/Hour", env.pricing.vm_per_hour),
    ]);
    t.row_strings(vec![
        "Cost of Elastic Pool (2vCPUs)".into(),
        format!(
            "${}/Hour ({}x VM)",
            env.pricing.pool_per_hour,
            env.pricing.pool_premium()
        ),
    ]);
    t.emit("table01_environment");
    Ok(())
}
