//! Ablation: meta-strategy re-evaluation interval. The paper runs the
//! meta-strategy every 5 s; slower ticks react late to spikes, faster ones
//! churn the fleet.

use cackle::model::run_model;
use cackle::{MetaStrategy, RunError, RunSpec};
use cackle_bench::*;
use cackle_cloud::SimDuration;

fn main() -> Result<(), RunError> {
    let w = default_workload(4096);
    let mut t = ResultTable::new(
        "Ablation: strategy tick interval vs cost",
        &["tick_s", "cost_usd"],
    );
    for tick in [1u64, 5, 15, 60, 300] {
        let mut e = env();
        e.strategy_tick = SimDuration::from_secs(tick);
        let mut m = MetaStrategy::new(&e);
        let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
        let r = run_model(&w, &mut m, &spec)?;
        t.row_strings(vec![tick.to_string(), usd(r.compute.total())]);
        eprintln!("  done tick={tick}");
    }
    t.emit("ablation_tick");
    Ok(())
}
