//! Figure 11: the cost of delaying work. A work-delaying system with fixed
//! provisioning sweeps its VM count (blue dots in the paper); Cackle's
//! oracle with and without the elastic pool and the cost-based dynamic
//! strategy show what elastic pools unlock. Workload: 2048 queries over
//! 12 h, 30 % baseline, 12 h period (§5.5).

use cackle::delaying::run_delaying;
use cackle::model::{build_workload, run_model, workload_curves};
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::{make_strategy, RunError, RunSpec};
use cackle_bench::*;
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::demand::percentile_f64;

fn main() -> Result<(), RunError> {
    let e = env();
    let spec = WorkloadSpec {
        num_queries: 2048,
        period_s: 12 * 3600,
        ..WorkloadSpec::default()
    };
    let w = build_workload(&spec, &model_mix());
    let curves = workload_curves(&w);
    let no_delay_p95 = percentile_f64(
        &w.iter()
            .map(|q| q.profile.critical_path_seconds() as f64)
            .collect::<Vec<_>>(),
        95.0,
    );

    let mut t = ResultTable::new(
        "Fig 11: cost vs p95 latency, delaying vs elastic strategies",
        &["series", "vms", "p95_latency_s", "cost_usd"],
    );
    for slots in [60u32, 80, 100, 125, 150, 200, 250, 300, 400, 500] {
        let r = run_delaying(&w, slots, &RunSpec::new().with_env(e.clone()))?;
        t.row_strings(vec![
            "work_delaying_fixed".into(),
            slots.to_string(),
            secs(r.latency_percentile(95.0)),
            usd(r.compute.total()),
        ]);
        eprintln!("  delaying {slots} done");
    }
    let oc = oracle_cost(&curves.demand.samples, &e);
    t.row_strings(vec![
        "cackle_oracle".into(),
        "-".into(),
        secs(no_delay_p95),
        usd(oc.total()),
    ]);
    let ocn = oracle_cost_without_pool(&curves.demand.samples, &e);
    t.row_strings(vec![
        "cackle_oracle_no_pool".into(),
        "-".into(),
        secs(no_delay_p95),
        usd(ocn.total()),
    ]);
    let rspec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let mut dynamic = make_strategy("dynamic", &e)?;
    let r = run_model(&w, dynamic.as_mut(), &rspec)?;
    t.row_strings(vec![
        "cackle_dynamic".into(),
        "-".into(),
        secs(r.latency_percentile(95.0)),
        usd(r.compute.total()),
    ]);
    t.emit("fig11_delaying");
    Ok(())
}
