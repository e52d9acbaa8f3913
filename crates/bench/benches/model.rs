//! Analytical-model and full-system benchmarks: how fast can the
//! reproduction evaluate a workload? Plain wall-clock harness
//! (`harness = false`) — run with `cargo bench -p cackle-bench`.

use cackle::model::{run_model, workload_curves};
use cackle::system::run_system;
use cackle::{make_strategy, RunError, RunSpec, Telemetry};
use cackle_bench::{bench_wall, hour_workload};
use std::hint::black_box;

fn main() -> Result<(), RunError> {
    let w = hour_workload(1000, 1);
    bench_wall("workload_curves_1000q", 10, || {
        black_box(workload_curves(&w))
    });

    let w = hour_workload(500, 2);
    for label in ["fixed_100", "mean_2", "predictive"] {
        let spec = RunSpec::new().with_compute_only(true);
        bench_wall(&format!("model_hour_500q_{label}"), 10, || {
            let mut strategy = make_strategy(label, &spec.env)?;
            run_model(&w, strategy.as_mut(), &spec).map(|r| r.compute.total())
        })?;
    }

    let w = hour_workload(250, 3);
    let spec = RunSpec::new();
    bench_wall("full_system_hour_250q_mean2", 10, || {
        let mut strategy = make_strategy("mean_2", &spec.env)?;
        run_system(&w, strategy.as_mut(), &spec).map(|r| r.total_cost())
    })?;

    // Telemetry overhead: the same system run with a live sink attached.
    let instrumented = {
        let w = hour_workload(250, 3);
        move || {
            let t = Telemetry::new();
            let spec = RunSpec::new().with_telemetry(&t);
            let mut strategy = make_strategy("mean_2", &spec.env)?;
            run_system(&w, strategy.as_mut(), &spec).map(|r| r.total_cost())
        }
    };
    bench_wall("full_system_hour_250q_mean2_telemetry", 10, instrumented)?;
    Ok(())
}
