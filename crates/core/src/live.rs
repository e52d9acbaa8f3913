//! Live-engine execution: the full Cackle system running **real queries**.
//!
//! Where [`run_system`](crate::system::run_system) replays pre-measured
//! profiles, this module runs actual `cackle-engine` plans over generated
//! data: every task executes its operator pipeline, intermediate bytes
//! travel through the [`HybridShuffle`] (capacity-limited shuffle nodes
//! with billed object-store fallback), and each task's *simulated*
//! duration is derived from the rows it actually processed at the
//! calibrated task throughput — so the demand curve, the shuffle
//! pressure, and therefore the strategy's behaviour all emerge from
//! genuine execution rather than from a profile.
//!
//! This is the closest analogue of the paper's §7.1 implementation: the
//! same coordinator/compute/shuffle split, with the cloud simulated and
//! the relational work real. The coordinator itself is the one in
//! [`crate::system`]; this module supplies only the engine source behind
//! it, so placement, fault recovery (spot reclaims, pool retries,
//! straggler duplicates) and cross-region egress work exactly as in the
//! profile replay.
//!
//! Entry point, like the other runners: [`run_live`]`(workload, catalog,
//! strategy, spec)` returns `Result<RunResult, RunError>`, validating the
//! spec and every plan's stage graph before any task executes.
//!
//! Engine tasks execute eagerly when their stage starts, and the
//! simulated copies that follow replay that one result: a reclaimed or
//! duplicated task re-runs in simulated time only. Shuffle publication is
//! idempotent, so the query output is the same as a direct execution.
//! Object-store transient errors retry and bill inside [`ObjectStore`],
//! and transport drops recover by S3 fallback on writes and bounded
//! retries on reads.

use crate::report::RunResult;
use crate::spec::{check_stage_graph, RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use crate::system::{coordinate, TaskSource, TaskWork};
use crate::transport::HybridShuffle;
use cackle_cloud::{CostLedger, ObjectStore};
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::plan::StageDag;
use cackle_engine::shuffle::ShuffleTransport;
use cackle_engine::table::Catalog;
use cackle_faults::FaultInjector;
use cackle_telemetry::Telemetry;
use std::sync::Arc;

/// A query to run live: arrival time plus its physical plan.
#[derive(Clone)]
pub struct LiveQuery {
    /// Arrival second.
    pub at_s: u64,
    /// The plan to execute.
    pub plan: Arc<StageDag>,
}

/// The engine source: a stage's tasks run their operator pipelines when
/// the stage starts — across `spec.workers` threads via the
/// deterministic stage executor, so the run is byte-identical at any
/// worker count — and each task's duration follows from the rows it
/// read.
struct EngineSource<'a> {
    workload: &'a [LiveQuery],
    /// Each stage's dependencies, per query (`Stage::dependencies` walks
    /// the operator tree, so it is computed once).
    deps: Vec<Vec<Vec<usize>>>,
    catalog: &'a Catalog,
    executor: Executor,
    store: Arc<ObjectStore>,
    shuffle: HybridShuffle,
    telemetry: Telemetry,
    faults: FaultInjector,
    rows_per_task_second: f64,
    /// Each query's output batches, gathered only when asked for.
    results: Option<Vec<Vec<Batch>>>,
}

impl TaskSource for EngineSource<'_> {
    fn queries(&self) -> usize {
        self.workload.len()
    }

    fn query(&self, query: usize) -> (u64, &str) {
        let q = &self.workload[query];
        (q.at_s, &q.plan.name)
    }

    fn stages(&self, query: usize) -> usize {
        self.deps[query].len()
    }

    fn stage(&self, query: usize, stage: usize) -> (u32, &[usize]) {
        (
            self.workload[query].plan.stages[stage].tasks,
            &self.deps[query][stage],
        )
    }

    fn start_stage(&mut self, query: usize, stage: usize, _: usize, out: &mut Vec<TaskWork>) {
        // Shuffle bytes move at the stage barrier, in task-index order.
        let ran = self.executor.execute_stage(
            &self.workload[query].plan,
            stage,
            query as u64,
            self.catalog,
            &self.shuffle,
            &self.telemetry,
            &self.faults,
        );
        for r in ran {
            if let (Some(batches), Some(results)) = (r.output, self.results.as_mut()) {
                results[query].extend(batches);
            }
            let secs = (r.rows_in.max(1) as f64 / self.rows_per_task_second).max(0.2);
            out.push(TaskWork {
                base_s: secs,
                nominal_s: secs,
                bytes: r.shuffle_bytes_written,
            });
        }
    }

    fn stage_done(&mut self, _: usize, _: usize, _: usize) {}

    fn query_done(&mut self, query: usize) {
        self.shuffle.delete_query(query as u64);
    }

    fn resident_bytes(&self) -> u64 {
        self.shuffle.node_resident_bytes()
    }

    fn store_ledger(&self) -> CostLedger {
        self.store.ledger()
    }
}

/// Execute a live workload under `strategy`. The spec and every plan are
/// validated before any task executes; an injected fault that exhausts
/// its recovery bound aborts the run with [`RunError::FaultUnrecovered`].
pub fn run_live(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    run_live_inner(workload, catalog, strategy, spec, false).map(|(run, _)| run)
}

/// Infallible forward to the live runner, kept only for the repository
/// benchmark; panics on a run error.
#[doc(hidden)]
pub fn run_live_with(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> RunResult {
    run_live_inner(workload, catalog, strategy, spec, false)
        .map_or_else(|e| e.raise(), |(run, _)| run)
}

/// Like [`run_live_with`], also returning each query's final output
/// batches; kept only for the repository benchmark and the result-check
/// tests. Panics on a run error.
#[doc(hidden)]
pub fn run_live_collect(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> (RunResult, Vec<Vec<Batch>>) {
    run_live_inner(workload, catalog, strategy, spec, true).unwrap_or_else(|e| e.raise())
}

/// The live runner: validate the spec and every plan's stage graph (the
/// invariants of `StageDag::new`, see [`check_stage_graph`]), then run
/// the coordinator over the engine source. `keep_results` gathers each
/// query's output batches (memory-heavy for big workloads).
fn run_live_inner(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
    keep_results: bool,
) -> Result<(RunResult, Vec<Vec<Batch>>), RunError> {
    spec.validate()?;
    let deps: Vec<Vec<Vec<usize>>> = workload
        .iter()
        .map(|q| q.plan.stages.iter().map(|s| s.dependencies()).collect())
        .collect();
    for (qi, (q, d)) in workload.iter().zip(&deps).enumerate() {
        check_stage_graph(qi, q.plan.stages.iter().zip(d).map(|(s, d)| (s.tasks, d)))?;
    }
    let engine = |telemetry: &Telemetry, faults: &FaultInjector| {
        let pricing = &spec.env.pricing;
        let store = Arc::new(ObjectStore::new(pricing.clone()));
        store.instrument(telemetry);
        store.inject_faults(faults);
        // The transport keeps the provisioner's floor node count for the
        // whole run, while the billed shuffle fleet follows the
        // provisioner's target each second.
        let floor_nodes =
            (spec.env.shuffle_min_bytes / pricing.shuffle_node_capacity_bytes).max(1) as usize;
        let shuffle = HybridShuffle::new(
            floor_nodes,
            pricing.shuffle_node_capacity_bytes,
            store.clone(),
        )
        .with_faults(faults);
        EngineSource {
            workload,
            deps,
            catalog,
            executor: Executor::new(spec.workers),
            store,
            shuffle,
            telemetry: telemetry.clone(),
            faults: faults.clone(),
            rows_per_task_second: spec.rows_per_task_second,
            results: keep_results.then(|| vec![Vec::new(); workload.len()]),
        }
    };
    let (run, engine) = coordinate(strategy, spec, engine)?;
    Ok((run, engine.results.unwrap_or_default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedStrategy;
    use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
    use cackle_tpch::plans::{self, Par};

    fn tiny_catalog() -> Catalog {
        generate_catalog(&DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed: 7,
        })
    }

    fn live_workload(names: &[(&str, u64)]) -> Vec<LiveQuery> {
        let par = Par {
            fact: 3,
            mid: 2,
            join: 2,
        };
        names
            .iter()
            .map(|&(n, at)| LiveQuery {
                at_s: at,
                plan: Arc::new(plans::plan(n, par)),
            })
            .collect()
    }

    #[test]
    fn real_queries_execute_and_bill() {
        let catalog = tiny_catalog();
        let w = live_workload(&[("q01", 0), ("q06", 5), ("q03", 10), ("q13", 15)]);
        let mut strategy = FixedStrategy { vms: 0 };
        // Tiny data: stretch durations with a low task throughput.
        let spec = RunSpec::new().with_rows_per_task_second(5_000.0);
        let (run, results) = run_live_collect(&w, &catalog, &mut strategy, &spec);
        assert_eq!(run.latencies.len(), 4);
        assert!(run.latencies.iter().all(|&l| l > 0.0));
        // Pool-only: every task billed on the pool.
        assert_eq!(run.compute.vm_seconds, 0.0);
        assert!(run.compute.pool_cost > 0.0);
        // Real results were gathered.
        assert!(results.iter().all(|b| !b.is_empty()));
        // q01 produced its 3 pricing-summary groups.
        let q01_rows: usize = results[0].iter().map(|b| b.num_rows()).sum();
        assert_eq!(q01_rows, 3);
    }

    #[test]
    fn live_results_match_direct_execution() {
        use cackle_engine::shuffle::MemoryShuffle;
        use cackle_engine::task::execute_query;
        let catalog = tiny_catalog();
        let par = Par {
            fact: 3,
            mid: 2,
            join: 2,
        };
        let w = live_workload(&[("q04", 0)]);
        let mut strategy = FixedStrategy { vms: 2 };
        let (_, results) = run_live_collect(&w, &catalog, &mut strategy, &RunSpec::new());
        let dag = plans::plan("q04", par);
        let direct = execute_query(&dag, 1, &catalog, &MemoryShuffle::new());
        let gathered = Batch::concat(dag.final_stage().output_schema.clone(), &results[0]);
        assert_eq!(gathered, direct, "live system must compute the same answer");
    }

    #[test]
    fn vms_pick_up_work_once_started() {
        let catalog = tiny_catalog();
        // Enough queries spread out that VMs (180 s startup) see work.
        let w: Vec<LiveQuery> = (0..20)
            .flat_map(|i| live_workload(&[("q06", i * 30)]))
            .collect();
        let spec = RunSpec::new().with_rows_per_task_second(2_000.0);
        let mut strategy = FixedStrategy { vms: 4 };
        let r = run_live(&w, &catalog, &mut strategy, &spec).expect("valid run");
        assert!(r.compute.vm_seconds > 0.0, "VMs should run tasks");
        assert!(r.compute.pool_seconds > 0.0, "cold start uses the pool");
    }

    #[test]
    fn live_runs_reclaim_duplicate_and_bill_egress() {
        use cackle_engine::shuffle::MemoryShuffle;
        use cackle_engine::task::execute_query;
        use cackle_faults::{EnvironmentSpec, FaultSpec};
        use cackle_telemetry::Telemetry;
        let catalog = tiny_catalog();
        // Queries keep arriving after the 180 s VM startup, so VM tasks
        // exist to reclaim and to land on the remote region.
        let w: Vec<LiveQuery> = (0..16)
            .flat_map(|i| live_workload(&[("q04", i * 20)]))
            .collect();
        let t = Telemetry::new();
        // The tiny catalog publishes kilobytes per task; a steep egress
        // price keeps each remote task's charge above one micro-dollar.
        let env = EnvironmentSpec::default().with_remote_region(0.5, 700, 20_000_000_000);
        let faults = FaultSpec::default()
            .with_spot_reclaims(600.0)
            .with_stragglers(0.3, 4.0)
            .with_environment(env);
        let spec = RunSpec::new()
            .with_rows_per_task_second(2_000.0)
            .with_faults(faults)
            .with_telemetry(&t);
        let mut strategy = FixedStrategy { vms: 4 };
        let (run, results) = run_live_collect(&w, &catalog, &mut strategy, &spec);
        assert!(t.counter("fault.spot_reclaims_total") > 0);
        assert!(t.counter("recovery.task_reexecs_total") > 0);
        assert!(t.counter("recovery.duplicates_launched_total") > 0);
        assert!(run.shuffle.egress_cost > 0.0);
        assert_eq!(run.shuffle.egress_cost, t.cost("env", "egress"));
        assert_eq!(t.counter("run.queries_total"), 16);
        assert!(run.latencies.iter().all(|&l| l > 0.0));
        // Reclaimed and duplicated copies re-run in simulated time only;
        // shuffle publication is idempotent, so every answer still
        // matches a direct execution.
        let dag = &w[0].plan;
        let direct = execute_query(dag, 1, &catalog, &MemoryShuffle::new());
        for out in &results {
            let gathered = Batch::concat(dag.final_stage().output_schema.clone(), out);
            assert_eq!(gathered, direct);
        }
    }

    #[test]
    fn live_telemetry_records_engine_and_store_activity() {
        use cackle_telemetry::Telemetry;
        let catalog = tiny_catalog();
        let w = live_workload(&[("q06", 0), ("q01", 3)]);
        let t = Telemetry::new();
        let spec = RunSpec::new()
            .with_rows_per_task_second(5_000.0)
            .with_telemetry(&t);
        let mut strategy = FixedStrategy { vms: 0 };
        let r = run_live(&w, &catalog, &mut strategy, &spec).expect("valid run");
        // Engine tasks reported through the threaded TaskContext.
        assert!(t.counter("engine.tasks_total") > 0);
        // Store request charges attributed to the store component.
        assert!((t.cost("store", "s3_put") - r.shuffle.s3_put_cost).abs() < 1e-12);
        // Pool charges attributed (pool-only run).
        assert!((t.cost("pool", "elastic_pool") - r.compute.pool_cost).abs() < 1e-12);
        assert_eq!(t.counter("run.queries_total"), 2);
    }
}
