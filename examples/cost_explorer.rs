//! Cost explorer: how does the provisioning decision change with the
//! environment? Sweeps the elastic-pool premium and the VM startup time on
//! a fixed workload and shows the dynamic strategy adapting — the paper's
//! §5.3 robustness story in one binary.
//!
//! ```sh
//! cargo run --release --example cost_explorer
//! ```

use cackle::model::{build_workload, run_model};
use cackle::{make_strategy, Env, RunError, RunSpec};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

fn cost(label: &str, workload: &[cackle::QueryArrival], env: &Env) -> Result<f64, RunError> {
    let spec = RunSpec::new().with_env(env.clone()).with_compute_only(true);
    let mut strategy = make_strategy(label, env)?;
    Ok(run_model(workload, strategy.as_mut(), &spec)?
        .compute
        .total())
}

fn main() -> Result<(), RunError> {
    let spec = WorkloadSpec {
        duration_s: 4 * 3600,
        num_queries: 4000,
        baseline_load: 0.3,
        period_s: 3600,
        seed: 2,
    };
    let workload = build_workload(&spec, &profile_set(100.0));

    println!("The elastic pool's price premium changed 7x -> 3.6x in three months");
    println!("of 2023 (§5.3). A sound strategy must adapt; fixed ones cannot.\n");

    println!("-- sweep: pool premium (spot-price swings) --");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "premium", "fixed_0", "mean_2", "dynamic"
    );
    for premium in [1.0, 2.0, 4.0, 6.0, 12.0, 24.0] {
        let env = Env::default().with_pool_premium(premium);
        println!(
            "{:>8} {:>11.2}$ {:>11.2}$ {:>11.2}$",
            premium,
            cost("fixed_0", &workload, &env)?,
            cost("mean_2", &workload, &env)?,
            cost("dynamic", &workload, &env)?,
        );
    }

    println!("\n-- sweep: VM startup time (provider behaviour) --");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "startup", "mean_1", "mean_2", "dynamic"
    );
    for startup in [0u64, 120, 300, 600] {
        let env = Env::default().with_vm_startup_s(startup);
        println!(
            "{:>7}s {:>11.2}$ {:>11.2}$ {:>11.2}$",
            startup,
            cost("mean_1", &workload, &env)?,
            cost("mean_2", &workload, &env)?,
            cost("dynamic", &workload, &env)?,
        );
    }

    println!("\ndynamic re-ranks its expert family as conditions change — no retuning.");
    Ok(())
}
