//! Figure 7: cost as the baseline (uniform) share of query arrivals varies
//! from fully sinusoidal (0.0) to fully uniform (1.0).

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
        "Fig 7: cost ($) vs baseline load fraction",
        &[
            "baseline",
            "fixed_0",
            "fixed_500",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
    );
    for pct in [0.0f64, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let spec = WorkloadSpec {
            baseline_load: pct,
            ..WorkloadSpec::default()
        };
        let w = build_workload(&spec, &mix);
        let mut row = vec![format!("{pct:.1}")];
        for label in labels {
            row.push(usd(compute_cost_for(&w, label, &e)?));
        }
        t.row_strings(row);
        eprintln!("  done baseline={pct}");
    }
    t.emit("fig07_baseline");
    Ok(())
}
