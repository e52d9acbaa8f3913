//! Figure 12: demand, VM target, active VMs, and the analytical model's
//! predicted active VMs over an hour-long 750-query workload executed on
//! the full system with the dynamic strategy; plus the §7.2 cost
//! validation (model-predicted vs measured cost).
//!
//! The per-second series are consumed straight from the telemetry
//! registry (`run.demand` / `run.target` / `run.active`), and the full
//! registry is dumped as JSONL next to the CSVs for external plotting.

use cackle::model::predict_cost_from_history;
use cackle::system::run_system;
use cackle::{make_strategy, AllocationSim, RunError, RunSpec, Telemetry};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let telemetry = Telemetry::new();
    let spec = RunSpec::new().with_telemetry(&telemetry);
    let w = hour_workload(750, 12);
    let mut dynamic = make_strategy("dynamic", &spec.env)?;
    let r = run_system(&w, dynamic.as_mut(), &spec)?;
    let series_u32 = |name: &str| -> Vec<u32> {
        telemetry
            .series(name)
            .unwrap_or_default()
            .iter()
            .map(|&(_, v)| v.round().max(0.0) as u32)
            .collect()
    };
    let demand = series_u32("run.demand");
    let target = series_u32("run.target");
    let active = series_u32("run.active");

    // Model-predicted active VMs: replay the recorded targets through the
    // §4.4.2 allocation simulation.
    let mut sim = AllocationSim::new(&spec.env);
    let mut predicted_active = Vec::with_capacity(target.len());
    for (&tgt, &d) in target.iter().zip(&demand) {
        sim.step(tgt, d);
        predicted_active.push(sim.active_count() as u32);
    }

    let mut t = ResultTable::new(
        "Fig 12: per-minute series over a 750-query hour (dynamic strategy)",
        &[
            "minute",
            "demand_max",
            "vm_target",
            "active_vms",
            "model_predicted_active",
        ],
    );
    for m in 0..demand.len().div_ceil(60) {
        let lo = m * 60;
        let hi = ((m + 1) * 60).min(demand.len());
        let mx = |v: &[u32]| v[lo..hi].iter().copied().max().unwrap_or(0).to_string();
        t.row_strings(vec![
            m.to_string(),
            mx(&demand),
            mx(&target),
            mx(&active),
            mx(&predicted_active),
        ]);
    }
    t.emit("fig12_timeseries");

    // Dump the whole registry for external tooling.
    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/fig12_telemetry.jsonl";
        match std::fs::write(path, telemetry.export_jsonl()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    // Cost validation: feed the executed history back into the model.
    let predicted = predict_cost_from_history(&demand, &target, &spec.env);
    let mut t = ResultTable::new(
        "Fig 12 validation: model-predicted vs measured compute cost",
        &["quantity", "model_predicted", "measured"],
    );
    t.row_strings(vec![
        "vm_cost".into(),
        usd(predicted.vm_cost),
        usd(r.compute.vm_cost),
    ]);
    t.row_strings(vec![
        "pool_cost".into(),
        usd(predicted.pool_cost),
        usd(r.compute.pool_cost),
    ]);
    t.row_strings(vec![
        "total".into(),
        usd(predicted.total()),
        usd(r.compute.total()),
    ]);
    let delta = (predicted.total() - r.compute.total()).abs() / r.compute.total() * 100.0;
    println!("model vs measured delta: {delta:.1}% (paper reports 12%)");
    t.emit("fig12_validation");
    Ok(())
}
