//! Figure 10: cost of strategies on the three real-world workload traces
//! (synthetic stand-ins, DESIGN.md §1), normalized to fixed_0. The paper
//! converts each trace to a task-demand curve: startup queries count as 20
//! tasks each, Azure nodes as 20 tasks each, Alibaba CPUs as one task per
//! CPU (scaled to keep the curve in range).

use cackle::RunError;
use cackle_bench::*;
use cackle_workload::traces;

fn main() -> Result<(), RunError> {
    let e = env();
    let labels = ["fixed_0", "mean_1", "predictive", "dynamic", "oracle"];
    let cases = [
        ("Startup", traces::startup_trace(1).scale(20.0)),
        ("Alibaba 2018", traces::alibaba_trace(1).scale(100.0)),
        ("Azure", traces::azure_trace(1).scale(20.0)),
    ];
    let mut t = ResultTable::new(
        "Fig 10: cost normalized to fixed_0",
        &[
            "workload",
            "fixed_0",
            "mean_1",
            "predictive",
            "dynamic",
            "oracle",
        ],
    );
    for (name, demand) in cases {
        let base = trace_cost_for(&demand.samples, "fixed_0", &e)?;
        let mut row = vec![name.to_string()];
        for label in labels {
            let c = trace_cost_for(&demand.samples, label, &e)?;
            row.push(format!("{:.3}", c / base));
        }
        t.row_strings(row);
        eprintln!("  done {name}");
    }
    t.emit("fig10_real_workloads");
    Ok(())
}
