//! Ablation: the VM minimum billing time. §5.5 credits part of Cackle's
//! win to fine-grained pool billing vs the VMs' one-minute minimum; this
//! sweep quantifies that.

use cackle::model::workload_curves;
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::RunError;
use cackle_bench::*;
use cackle_cloud::SimDuration;

fn main() -> Result<(), RunError> {
    let w = default_workload(2048);
    let curves = workload_curves(&w);
    let mut t = ResultTable::new(
        "Ablation: VM minimum billing time vs oracle cost (with/without pool)",
        &[
            "min_billing_s",
            "oracle_with_pool",
            "oracle_without_pool",
            "pool_advantage_pct",
        ],
    );
    for min_s in [0u64, 30, 60, 120, 300, 600] {
        let mut e = env();
        e.pricing.vm_min_billing = SimDuration::from_secs(min_s);
        let with = oracle_cost(&curves.demand.samples, &e).total();
        let without = oracle_cost_without_pool(&curves.demand.samples, &e).total();
        t.row_strings(vec![
            min_s.to_string(),
            usd(with),
            usd(without),
            format!("{:.1}", (without - with) / without * 100.0),
        ]);
        eprintln!("  done min={min_s}");
    }
    t.emit("ablation_min_billing");
    Ok(())
}
