//! Ablation: the 16 GB shuffle-node floor (§5.6). Without a floor, cold
//! starts push every request to S3; with a huge floor, node rent dominates.

use cackle::model::{build_workload, run_model};
use cackle::{MetaStrategy, RunError, RunSpec};
use cackle_bench::*;
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

fn main() -> Result<(), RunError> {
    // A sparse workload (60 SF-10 queries in an hour) where intermediate
    // state is small and bursty: this is where the floor matters — with a
    // busy workload the 20-minute window maximum dwarfs any floor.
    let w = build_workload(&WorkloadSpec::hour_long(60, 21), &profile_set(10.0));
    let mut t = ResultTable::new(
        "Ablation: shuffle-node memory floor vs shuffle-layer cost",
        &[
            "floor_gib",
            "node_cost",
            "s3_put_cost",
            "s3_get_cost",
            "shuffle_total",
        ],
    );
    for floor_gib in [0u64, 8, 16, 32, 64, 128] {
        let mut e = env();
        e.shuffle_min_bytes = floor_gib << 30;
        let mut m = MetaStrategy::new(&e);
        let spec = RunSpec::new().with_env(e.clone());
        let r = run_model(&w, &mut m, &spec)?;
        t.row_strings(vec![
            floor_gib.to_string(),
            usd4(r.shuffle.node_cost),
            usd4(r.shuffle.s3_put_cost),
            usd4(r.shuffle.s3_get_cost),
            usd4(r.shuffle.total()),
        ]);
        eprintln!("  done floor={floor_gib}");
    }
    t.emit("ablation_shuffle_floor");
    Ok(())
}
