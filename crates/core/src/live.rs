//! Live-engine execution: the full Cackle system running **real queries**.
//!
//! Where [`crate::system`] replays pre-measured profiles, this module runs
//! actual `cackle-engine` plans over generated data: every task executes
//! its operator pipeline, intermediate bytes travel through the
//! [`HybridShuffle`] (capacity-limited shuffle nodes with billed
//! object-store fallback), and each task's *simulated* duration is derived
//! from the rows it actually processed at the calibrated task throughput —
//! so the demand curve, the shuffle pressure, and therefore the strategy's
//! behaviour all emerge from genuine execution rather than from a profile.
//!
//! This is the closest analogue of the paper's §7.1 implementation: the
//! same coordinator/compute/shuffle split, with the cloud simulated and
//! the relational work real.
//!
//! Entry point, like the other runners: [`run_live`]`(workload, catalog,
//! strategy, spec)` returns `Result<RunResult, RunError>`, validating the
//! spec and every plan's stage graph before any task executes.
//!
//! Fault injection (`crates/faults`): the spec's plan drives straggler
//! slowdowns, pool invoke failures/throttles (bounded retry with
//! deterministic backoff; exhaustion surfaces
//! [`RunError::FaultUnrecovered`] from [`run_live`]), object-store
//! transient errors (retried and billed inside [`ObjectStore`]), and
//! transport drops (recovered by S3 fallback on writes and bounded
//! retries on reads). Spot reclaims and duplicate launches are
//! system-runner-only: live tasks execute eagerly at launch, so there is
//! no mid-flight copy to reclaim or duplicate.

use crate::history::WorkloadHistory;
use crate::report::{ComputeCost, RunResult, ShuffleCost, Timeseries};
use crate::shuffleprov::ShuffleProvisioner;
use crate::spec::{check_stage_graph, RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use crate::transport::HybridShuffle;
use cackle_cloud::{
    CostCategory, ElasticPool, EventQueue, InvocationId, ObjectStore, SimDuration, SimTime,
    VmFleet, VmId,
};
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::plan::StageDag;
use cackle_engine::shuffle::ShuffleTransport;
use cackle_engine::table::Catalog;
use cackle_faults::InjectionPoint;
use std::sync::Arc;

/// A query to run live: arrival time plus its physical plan.
#[derive(Clone)]
pub struct LiveQuery {
    /// Arrival second.
    pub at_s: u64,
    /// The plan to execute.
    pub plan: Arc<StageDag>,
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Vm(VmId),
    Pool(InvocationId),
}

enum Ev {
    Arrive(usize),
    TaskDone {
        query: usize,
        stage: usize,
        slot: Slot,
    },
    /// Retry a pool launch whose invoke was failed by the fault plan,
    /// after deterministic backoff.
    PoolLaunch {
        query: usize,
        stage: usize,
        dur: f64,
        attempt: u32,
    },
    Second,
    Tick,
}

struct QueryState {
    arrival: SimTime,
    remaining_tasks: Vec<u32>,
    unfinished_deps: Vec<usize>,
    stages_left: usize,
}

/// Check every plan can execute: the stage-graph invariants of
/// `StageDag::new` (see [`check_stage_graph`]).
fn check_plans(workload: &[LiveQuery]) -> Result<(), RunError> {
    for (qi, q) in workload.iter().enumerate() {
        check_stage_graph(
            qi,
            q.plan.stages.iter().map(|s| (s.tasks, s.dependencies())),
        )?;
    }
    Ok(())
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

/// The live runner: validation, then the event loop. `keep_results`
/// gathers each query's output batches (memory-heavy for big workloads).
///
/// Single-process: engine tasks run at event-processing time — across
/// `spec.workers` threads via the deterministic stage executor (their
/// wall time is irrelevant — simulated durations come from processed
/// rows) — which keeps the run byte-identical at any worker count.
fn run_live_inner(
    workload: &[LiveQuery],
    catalog: &Catalog,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
    keep_results: bool,
) -> Result<(RunResult, Vec<Vec<Batch>>), RunError> {
    spec.validate()?;
    check_plans(workload)?;
    let env = &spec.env;
    let pricing = env.pricing.clone();
    let telemetry = spec.effective_telemetry();
    strategy.set_telemetry(&telemetry);
    let faults = spec.fault_injector(&telemetry)?;
    let market = faults.price_timeline();
    let store = Arc::new(ObjectStore::new(pricing.clone()));
    store.instrument(&telemetry);
    store.inject_faults(&faults);
    // Shuffle nodes sized by the provisioner's floor; the node count is
    // refreshed each second from the resident-state window like the
    // simulated system. For placement we rebuild capacity by adjusting a
    // target on the hybrid's node list — the transport is recreated is
    // avoided by sizing to the floor (nodes beyond it only reduce S3
    // traffic further, which keeps the cost accounting conservative).
    let floor_nodes = (env.shuffle_min_bytes / pricing.shuffle_node_capacity_bytes).max(1) as usize;
    let shuffle = HybridShuffle::new(
        floor_nodes,
        pricing.shuffle_node_capacity_bytes,
        store.clone(),
    )
    .with_faults(&faults);

    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut fleet = VmFleet::new(pricing.clone());
    let mut pool = ElasticPool::new(pricing.clone());
    let mut shuffle_fleet = VmFleet::with_category(pricing.clone(), CostCategory::ShuffleNode);
    fleet.instrument("fleet", &telemetry);
    pool.instrument(&telemetry);
    shuffle_fleet.instrument("shuffle_fleet", &telemetry);
    if !market.is_flat() {
        // Spot-market motion from the environment model: both fleets
        // integrate the compiled schedule at termination time.
        fleet.set_price_timeline(market.clone());
        shuffle_fleet.set_price_timeline(market);
    }
    let mut shuffle_prov = ShuffleProvisioner::new(env);
    let mut history = WorkloadHistory::new();
    let executor = Executor::new(spec.workers);

    let mut queries: Vec<QueryState> = workload
        .iter()
        .map(|q| QueryState {
            arrival: SimTime::from_secs(q.at_s),
            remaining_tasks: q.plan.stages.iter().map(|s| s.tasks).collect(),
            unfinished_deps: q
                .plan
                .stages
                .iter()
                .map(|s| s.dependencies().len())
                .collect(),
            stages_left: q.plan.stages.len(),
        })
        .collect();
    let mut latencies = vec![0.0f64; workload.len()];
    let mut results: Vec<Vec<Batch>> = vec![Vec::new(); workload.len()];
    let mut done = 0usize;
    let mut running = 0u32;
    let mut max_since = 0u32;
    let mut target = 0u32;
    let mut fatal: Option<RunError> = None;

    for (i, q) in workload.iter().enumerate() {
        events.schedule(SimTime::from_secs(q.at_s), Ev::Arrive(i));
    }
    if !workload.is_empty() {
        events.schedule(SimTime::ZERO, Ev::Second);
        events.schedule(SimTime::ZERO, Ev::Tick);
    }

    // Poll the execution fleet and tag every newly started VM with its
    // persistent environment traits (env.* telemetry + remote-region
    // billing rate; a zero environment records and tags nothing).
    macro_rules! poll_fleet {
        ($now:expr) => {{
            for id in fleet.poll($now) {
                let traits = faults.vm_started(id.0);
                if traits.rate_milli != 1000 {
                    fleet.set_vm_rate_milli(id, traits.rate_milli);
                }
            }
        }};
    }

    // Launch a task's simulated run on the pool; an injected invoke
    // failure backs off deterministically and retries via Ev::PoolLaunch,
    // surfacing RunError::FaultUnrecovered once the bound is exhausted.
    macro_rules! pool_launch {
        ($now:expr, $qi:expr, $si:expr, $dur:expr, $attempt:expr) => {{
            match pool.invoke_faulted($now, &faults) {
                Some((id, start)) => {
                    events.schedule(
                        start + SimDuration::from_secs_f64($dur),
                        Ev::TaskDone {
                            query: $qi,
                            stage: $si,
                            slot: Slot::Pool(id),
                        },
                    );
                }
                None => {
                    let policy = faults.policy();
                    if policy.allows_retry($attempt) {
                        let backoff = policy.backoff_ms($attempt);
                        faults.note_retry(backoff);
                        events.schedule(
                            $now + SimDuration::from_millis(backoff),
                            Ev::PoolLaunch {
                                query: $qi,
                                stage: $si,
                                dur: $dur,
                                attempt: $attempt + 1,
                            },
                        );
                    } else {
                        faults.note_unrecovered(InjectionPoint::PoolInvoke);
                        fatal = Some(RunError::FaultUnrecovered {
                            point: InjectionPoint::PoolInvoke.as_str(),
                            attempts: $attempt + 1,
                        });
                    }
                }
            }
        }};
    }

    // Launch every task of a stage: execute the engine tasks NOW across
    // the worker pool (bytes move through the shuffle at the stage
    // barrier, in task-index order) and schedule each task's completion
    // at the simulated time its row count implies. The serial loop below
    // the executor call draws stragglers and claims fleet/pool slots in
    // task order, so the sequential fault streams and the scheduler see
    // the same order at any worker count.
    macro_rules! launch_stage {
        ($now:expr, $qi:expr, $si:expr) => {{
            let plan = &workload[$qi].plan;
            let task_results = executor.execute_stage(
                plan, $si, $qi as u64, catalog, &shuffle, &telemetry, &faults,
            );
            for r in task_results {
                if let Some(batches) = r.output {
                    if keep_results {
                        results[$qi].extend(batches);
                    }
                }
                // Straggler injection stretches the simulated duration
                // (zero-rate plans make no draw at all).
                let slowdown = faults.straggler().unwrap_or(1.0);
                let work_s =
                    (r.rows_in.max(1) as f64 / spec.rows_per_task_second).max(0.2) * slowdown;
                running += 1;
                max_since = max_since.max(running);
                match fleet.try_assign($now) {
                    Some(id) => {
                        // Persistent per-VM heterogeneity: the seed-keyed
                        // slowdown stretches every task this VM runs
                        // (exactly 1.0 when the environment is inert).
                        let dur_s = work_s * faults.vm_traits(id.0).slowdown;
                        events.schedule(
                            $now + SimDuration::from_secs_f64(dur_s),
                            Ev::TaskDone {
                                query: $qi,
                                stage: $si,
                                slot: Slot::Vm(id),
                            },
                        );
                    }
                    None => {
                        pool_launch!($now, $qi, $si, work_s * spec.pool_slowdown, 0);
                    }
                }
            }
        }};
    }

    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::Arrive(qi) => {
                let plan = workload[qi].plan.clone();
                for si in 0..plan.stages.len() {
                    if plan.stages[si].dependencies().is_empty() {
                        launch_stage!(now, qi, si);
                    }
                }
            }
            Ev::TaskDone { query, stage, slot } => {
                match slot {
                    Slot::Vm(id) => fleet.release(now, id),
                    Slot::Pool(id) => {
                        pool.complete(now, id);
                    }
                }
                running = running.saturating_sub(1);
                let q = &mut queries[query];
                q.remaining_tasks[stage] = q.remaining_tasks[stage].saturating_sub(1);
                if q.remaining_tasks[stage] == 0 {
                    q.stages_left = q.stages_left.saturating_sub(1);
                    if q.stages_left == 0 {
                        let latency = (now - q.arrival).as_secs_f64();
                        latencies[query] = latency;
                        shuffle.delete_query(query as u64);
                        done += 1;
                        telemetry.counter_add("run.queries_total", 1);
                        telemetry.observe("run.query_latency_seconds", latency);
                        telemetry.span_event(
                            q.arrival.as_millis(),
                            now.as_millis().saturating_sub(q.arrival.as_millis()),
                            "query",
                            Some(query as u64),
                            None,
                            &workload[query].plan.name,
                        );
                    } else {
                        let plan = workload[query].plan.clone();
                        for si in 0..plan.stages.len() {
                            if plan.stages[si].dependencies().contains(&stage) {
                                let q = &mut queries[query];
                                q.unfinished_deps[si] = q.unfinished_deps[si].saturating_sub(1);
                                if q.unfinished_deps[si] == 0 {
                                    launch_stage!(now, query, si);
                                }
                            }
                        }
                    }
                }
            }
            Ev::PoolLaunch {
                query,
                stage,
                dur,
                attempt,
            } => {
                pool_launch!(now, query, stage, dur, attempt);
            }
            Ev::Second => {
                poll_fleet!(now);
                shuffle_fleet.poll(now);
                history.push(max_since.max(running));
                max_since = running;
                // Shuffle-node billing tracks the provisioner target driven
                // by *real* resident bytes on the transport.
                let st = shuffle_prov.target_nodes(shuffle.node_resident_bytes());
                shuffle_fleet.set_target(now, st as usize);
                if telemetry.is_enabled() {
                    let t_ms = now.as_millis();
                    telemetry.sample("run.demand", t_ms, history.latest() as f64);
                    telemetry.sample("run.target", t_ms, target as f64);
                    telemetry.sample("run.active", t_ms, fleet.running_count() as f64);
                }
                if done < workload.len() || running > 0 {
                    events.schedule(now + SimDuration::from_secs(1), Ev::Second);
                } else {
                    fleet.set_target(now, 0);
                    shuffle_fleet.set_target(now, 0);
                }
            }
            Ev::Tick => {
                target = strategy.target(now.as_secs(), &history, env);
                fleet.set_target(now, target as usize);
                poll_fleet!(now);
                if done < workload.len() || running > 0 {
                    events.schedule(now + env.strategy_tick, Ev::Tick);
                }
            }
        }
        if fatal.is_some() {
            break;
        }
    }
    if let Some(e) = fatal.take() {
        return Err(e);
    }

    let end = SimTime::from_secs(history.len() as u64);
    fleet.set_target(end, 0);
    fleet.finalize(end);
    shuffle_fleet.finalize(end);
    let store_ledger = store.ledger();
    telemetry.gauge_set("run.duration_seconds", history.len() as f64);

    let run = RunResult {
        compute: ComputeCost {
            vm_cost: fleet.ledger().category(CostCategory::VmCompute),
            pool_cost: pool.ledger().category(CostCategory::ElasticPool),
            vm_seconds: fleet.ledger().vm_seconds,
            pool_seconds: pool.ledger().pool_seconds,
        },
        shuffle: ShuffleCost {
            node_cost: shuffle_fleet.ledger().category(CostCategory::ShuffleNode),
            s3_put_cost: store_ledger.category(CostCategory::S3Put),
            s3_get_cost: store_ledger.category(CostCategory::S3Get),
            // Regions (and their egress) are modeled by the system
            // runner and the analytical model; live tasks all execute
            // in-process, like spot reclaims are system-runner-only.
            egress_cost: 0.0,
            puts: store_ledger.put_requests,
            gets: store_ledger.get_requests,
        },
        latencies,
        timeseries: if spec.record_timeseries {
            Timeseries::from_telemetry(&telemetry)
        } else {
            None
        },
        duration_s: history.len() as u64,
        strategy: strategy.name(),
        telemetry,
    };
    Ok((run, results))
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
