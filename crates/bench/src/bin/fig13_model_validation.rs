//! Figure 13: analytical-model vs real-execution cost per query across
//! hour-long workloads of 60-2000 queries, split into VM and elastic-pool
//! components, with the oracle's best-case provisioning for comparison.
//!
//! Both runs record into telemetry sinks and the table reads the
//! per-component cost attribution (`fleet`/`vm_compute`,
//! `pool`/`elastic_pool`) from the registries rather than the summary
//! cost structs.

use cackle::model::{run_model, workload_curves};
use cackle::oracle::oracle_cost;
use cackle::system::run_system;
use cackle::{make_strategy, Env, RunError, RunSpec, Telemetry};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = Env::default();
    let mut t = ResultTable::new(
        "Fig 13: cost per query ($): modeled vs real vs oracle (VM / pool split)",
        &[
            "queries",
            "model_vm",
            "model_pool",
            "real_vm",
            "real_pool",
            "oracle_vm",
            "oracle_pool",
        ],
    );
    for n in [60usize, 250, 500, 750, 1000, 1500, 2000] {
        let w = hour_workload(n, 13);
        let nf = n as f64;
        let model_t = Telemetry::new();
        let model_spec = RunSpec::new()
            .with_compute_only(true)
            .with_telemetry(&model_t);
        run_model(&w, make_strategy("dynamic", &e)?.as_mut(), &model_spec)?;
        let real_t = Telemetry::new();
        let real_spec = RunSpec::new().with_telemetry(&real_t);
        run_system(&w, make_strategy("dynamic", &e)?.as_mut(), &real_spec)?;
        let curves = workload_curves(&w);
        let oc = oracle_cost(&curves.demand.samples, &e);
        t.row_strings(vec![
            n.to_string(),
            usd4(model_t.cost("fleet", "vm_compute") / nf),
            usd4(model_t.cost("pool", "elastic_pool") / nf),
            usd4(real_t.cost("fleet", "vm_compute") / nf),
            usd4(real_t.cost("pool", "elastic_pool") / nf),
            usd4(oc.vm_cost / nf),
            usd4(oc.pool_cost / nf),
        ]);
        eprintln!("  done n={n}");
    }
    t.emit("fig13_model_validation");
    Ok(())
}
