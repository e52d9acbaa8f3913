//! Figure 8: cost as the elastic pool's price premium over VMs varies from
//! 1x to 100x (the Jan-Mar 2023 spot-price swing motivates this sweep).

use cackle::RunError;
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let labels = [
        "fixed_0",
        "fixed_500",
        "mean_2",
        "predictive",
        "oracle",
        "dynamic",
    ];
    let w = default_workload(16384);
    let mut t = ResultTable::new(
        "Fig 8: cost ($) vs elastic-pool premium over VM",
        &[
            "premium",
            "fixed_0",
            "fixed_500",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
    );
    for ratio in [1.0f64, 2.0, 3.0, 6.0, 10.0, 20.0, 50.0, 100.0] {
        let e = env().with_pool_premium(ratio);
        let mut row = vec![format!("{ratio:.0}")];
        for label in labels {
            row.push(usd(compute_cost_for(&w, label, &e)?));
        }
        t.row_strings(row);
        eprintln!("  done premium={ratio}");
    }
    t.emit("fig08_pool_cost");
    Ok(())
}
