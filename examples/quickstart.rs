//! Quickstart: run a bursty analytical workload under Cackle's dynamic
//! cost-based strategy and compare the bill against the naive extremes,
//! then dump the dynamic run's telemetry registry as JSON Lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cackle::model::{build_workload, run_model, workload_curves};
use cackle::oracle::oracle_cost;
use cackle::{make_strategy, Env, RunError, RunSpec, Telemetry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

fn main() -> Result<(), RunError> {
    // 1. An environment: AWS-like prices, 3-minute VM startup, 6x pool
    //    premium (Table 1 of the paper). Everything is overridable.
    let env = Env::default();
    println!(
        "environment: VM ${}/h, pool ${}/h ({}x), startup {}s, min billing {}s\n",
        env.pricing.vm_per_hour,
        env.pricing.pool_per_hour,
        env.pricing.pool_premium(),
        env.vm_startup_s(),
        env.vm_min_billing_s()
    );

    // 2. A workload: 2 000 TPC-H-SF100 queries over two hours, 30 % uniform
    //    baseline, the rest arriving in 30-minute sinusoidal waves.
    let spec = WorkloadSpec {
        duration_s: 2 * 3600,
        num_queries: 2000,
        baseline_load: 0.3,
        period_s: 1800,
        seed: 1,
    };
    let workload = build_workload(&spec, &profile_set(100.0));
    let curves = workload_curves(&workload);
    println!(
        "workload: {} queries, peak demand {} task slots, mean {:.0}\n",
        workload.len(),
        curves.demand.peak(),
        curves.demand.mean()
    );

    // 3. Run the analytical model under several provisioning strategies.
    //    `make_strategy` parses a paper label; a RunSpec bundles the
    //    environment, the noise knobs, and (optionally) a telemetry sink.
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "strategy", "vm_cost", "pool_cost", "total"
    );
    let telemetry = Telemetry::new();
    for label in ["fixed_0", "fixed_200", "mean_2", "predictive", "dynamic"] {
        let mut run_spec = RunSpec::new().with_env(env.clone()).with_compute_only(true);
        if label == "dynamic" {
            run_spec = run_spec.with_telemetry(&telemetry);
        }
        let mut strategy = make_strategy(label, &env)?;
        let r = run_model(&workload, strategy.as_mut(), &run_spec)?;
        println!(
            "{:<12} {:>11.2}$ {:>11.2}$ {:>11.2}$",
            label,
            r.compute.vm_cost,
            r.compute.pool_cost,
            r.compute.total()
        );
    }

    // 4. And the unreachable lower bound: the offline oracle.
    let oracle = oracle_cost(&curves.demand.samples, &env);
    println!(
        "{:<12} {:>11.2}$ {:>11.2}$ {:>11.2}$",
        "oracle",
        oracle.vm_cost,
        oracle.pool_cost,
        oracle.total()
    );

    // 5. The dynamic run recorded everything it did: per-second series
    //    (run.demand / run.target / run.active), the query-latency
    //    histogram, and per-component cost attribution. Dump it for
    //    plotting; `telemetry-check` validates the format.
    if std::fs::create_dir_all("results").is_ok() {
        let path = "results/quickstart_telemetry.jsonl";
        match std::fs::write(path, telemetry.export_jsonl()) {
            Ok(()) => println!("\nwrote {path} (validate: cargo run -p cackle-telemetry --bin telemetry-check -- {path})"),
            Err(e) => eprintln!("\nwarning: could not write {path}: {e}"),
        }
    }
    println!(
        "dynamic ran {} queries; ${:.2} attributed to the VM fleet, ${:.2} to the pool.",
        telemetry.counter("run.queries_total"),
        telemetry.cost("fleet", "vm_compute"),
        telemetry.cost("pool", "elastic_pool"),
    );
    println!("\nthe dynamic strategy needs no tuning and no workload knowledge a priori.");
    Ok(())
}
