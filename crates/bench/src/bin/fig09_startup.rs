//! Figure 9: cost as VM startup latency varies from instant to 800 s.
//! Adds mean_1 alongside mean_2 - the paper highlights how their relative
//! order flips with startup time while dynamic stays near optimal.

use cackle::RunError;
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let labels = [
        "fixed_0",
        "fixed_500",
        "mean_1",
        "mean_2",
        "predictive",
        "oracle",
        "dynamic",
    ];
    let w = default_workload(16384);
    let mut t = ResultTable::new(
        "Fig 9: cost ($) vs VM startup time (s)",
        &[
            "startup_s",
            "fixed_0",
            "fixed_500",
            "mean_1",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
    );
    for startup in [0u64, 60, 120, 180, 300, 450, 600, 800] {
        let e = env().with_vm_startup_s(startup);
        let mut row = vec![startup.to_string()];
        for label in labels {
            row.push(usd(compute_cost_for(&w, label, &e)?));
        }
        t.row_strings(row);
        eprintln!("  done startup={startup}");
    }
    t.emit("fig09_startup");
    Ok(())
}
