//! Extension experiment: a mid-workload spot-price spike (§5.3's real
//! Jan-Mar 2023 scenario — the c5a.large spot price nearly doubled while
//! Lambda held, shrinking the pool premium from ~7x to ~3.6x). The dynamic
//! strategy re-ranks its expert family from the §4.4.3 cost accounting;
//! cost-insensitive strategies keep their now-wrong split.

use cackle::model::{simulate_compute_with_timeline, workload_curves};
use cackle::prices::PriceTimeline;
use cackle::{RunError, RunSpec};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = env();
    let w = default_workload(8192);
    let curves = workload_curves(&w);
    let demand = &curves.demand.samples;
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    // The VM price doubles 6 hours into the 12-hour workload.
    let spike = PriceTimeline::spot_spike(&e, 6 * 3600, 2.0);
    let flat = PriceTimeline::constant(&e);

    let mut t = ResultTable::new(
        "Extension: cost under a mid-run VM spot-price doubling (premium 6x -> 3x)",
        &["strategy", "flat_prices", "with_spike", "increase_pct"],
    );
    for label in ["fixed_0", "fixed_500", "mean_2", "predictive", "dynamic"] {
        let base = {
            let mut s = cackle::make_strategy(label, &e)?;
            simulate_compute_with_timeline(demand, s.as_mut(), &spec, &flat)
                .compute
                .total()
        };
        let spiked = {
            let mut s = cackle::make_strategy(label, &e)?;
            simulate_compute_with_timeline(demand, s.as_mut(), &spec, &spike)
                .compute
                .total()
        };
        t.row_strings(vec![
            label.into(),
            usd(base),
            usd(spiked),
            format!("{:.1}", (spiked - base) / base * 100.0),
        ]);
        eprintln!("  done {label}");
    }
    t.emit("ablation_price_shift");
    println!("fixed_0 is untouched (no VMs) but was never competitive; among");
    println!("VM-using strategies, dynamic should absorb the smallest increase.");
    Ok(())
}
