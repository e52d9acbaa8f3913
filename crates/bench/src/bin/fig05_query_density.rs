//! Figure 5: cost of the query workload as the number of queries varies
//! (Table 1 defaults otherwise). Strategies: fixed_0 (pool only),
//! fixed_500, mean_2, predictive, oracle, dynamic.

use cackle::RunError;
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = env();
    let labels = [
        "fixed_0",
        "fixed_500",
        "mean_2",
        "predictive",
        "oracle",
        "dynamic",
    ];
    let mut t = ResultTable::new(
        "Fig 5: cost ($) vs number of queries (12 h window)",
        &[
            "queries",
            "fixed_0",
            "fixed_500",
            "mean_2",
            "predictive",
            "oracle",
            "dynamic",
        ],
    );
    for n in [1000usize, 2000, 4000, 8000, 16384, 32768, 65536, 100_000] {
        let w = default_workload(n);
        let mut row = vec![n.to_string()];
        for label in labels {
            row.push(usd(compute_cost_for(&w, label, &e)?));
        }
        t.row_strings(row);
        eprintln!("  done n={n}");
    }
    t.emit("fig05_query_density");
    Ok(())
}
