//! Figure 6: cost as the period of query arrivals varies (Table 1 defaults
//! otherwise: 16384 queries over 12 h, 30 % baseline).

use cackle::model::build_workload;
use cackle::RunError;
use cackle_bench::*;
use cackle_workload::arrivals::WorkloadSpec;

fn main() -> Result<(), RunError> {
    let e = env();
    let mix = model_mix();
    let labels = [
        "fixed_0",
        "fixed_500",
        "mean_2",
        "predictive",
        "oracle",
        "dynamic",
    ];
    let mut t = ResultTable::new(
        "Fig 6: cost ($) vs period of arrivals (s)",
        &[
            "period_s",
            "fixed_0",
            "fixed_500",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
    );
    for period in [100u64, 300, 1000, 3000, 10_800, 30_000] {
        let spec = WorkloadSpec {
            period_s: period,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&spec, &mix);
        let mut row = vec![period.to_string()];
        for label in labels {
            row.push(usd(compute_cost_for(&w, label, &e)?));
        }
        t.row_strings(row);
        eprintln!("  done period={period}");
    }
    t.emit("fig06_period");
    Ok(())
}
