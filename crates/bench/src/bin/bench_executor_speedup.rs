//! Serial-vs-parallel wall-clock of the deterministic stage executor on
//! a stage-heavy TPC-H workload: real operator pipelines over generated
//! data, fanned out with [`Executor::run_indexed`] at 1/2/4/8 workers.
//!
//! Determinism makes the comparison meaningful: every worker count
//! computes byte-identical results (asserted below), so the only thing
//! that moves is wall-clock. On a multi-core host the 8-worker run is
//! expected to finish at least 2× faster than serial; on a single
//! hardware thread the speedup column records ~1× — the host's core
//! count is included in the output so results are interpretable.
//!
//! Records `results/executor_speedup.csv`.

use cackle::RunError;
use cackle_bench::ResultTable;
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::shuffle::MemoryShuffle;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par};
use std::time::Instant;

const ITERS: u32 = 3;

fn main() -> Result<(), RunError> {
    let catalog = generate_catalog(&DbGenConfig {
        scale_factor: 0.02,
        rows_per_partition: 2048,
        seed: 7,
    });
    // Wide stages: 16-task fact scans feeding 8-way joins keep every
    // worker busy between barriers.
    let par = Par {
        fact: 16,
        mid: 8,
        join: 8,
    };
    let queries = ["q01", "q03", "q04", "q05", "q06", "q13"];
    let dags: Vec<_> = queries.iter().map(|&q| plans::plan(q, par)).collect();

    let run_all = |workers: u32| -> Vec<Batch> {
        let ex = Executor::new(workers);
        dags.iter()
            .enumerate()
            .map(|(i, dag)| {
                let shuffle = MemoryShuffle::new();
                ex.execute_query(dag, i as u64 + 1, &catalog, &shuffle)
            })
            .collect()
    };

    // Best-of-N wall clock per worker count, after one warmup pass.
    let wall_us = |workers: u32| -> u128 {
        std::hint::black_box(run_all(workers));
        let mut best = u128::MAX;
        for _ in 0..ITERS {
            let t0 = Instant::now();
            std::hint::black_box(run_all(workers));
            best = best.min(t0.elapsed().as_micros());
        }
        best
    };

    let reference = run_all(1);
    let serial_us = wall_us(1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = ResultTable::new(
        format!(
            "executor speedup — {} queries, fact par 16, {cores} core(s)",
            queries.len()
        ),
        &["workers", "wall_ms", "speedup"],
    );
    for workers in [1u32, 2, 4, 8] {
        assert_eq!(
            run_all(workers),
            reference,
            "results moved at {workers} workers"
        );
        let us = if workers == 1 {
            serial_us
        } else {
            wall_us(workers)
        };
        table.row_strings(vec![
            workers.to_string(),
            format!("{:.1}", us as f64 / 1000.0),
            format!("{:.2}", serial_us as f64 / us as f64),
        ]);
    }
    table.emit("executor_speedup");
    Ok(())
}
