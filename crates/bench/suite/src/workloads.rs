//! The three workloads: how each one's inputs are generated, how one
//! pass runs, and the output checks that hold for every pass.

use cackle::model::{build_workload, simulate_compute, QueryArrival};
use cackle::system::try_run_system_with;
use cackle::{
    run_live_collect, run_live_with, Env, LiveQuery, MetaStrategy, ProvisioningStrategy, RunResult,
    RunSpec, Telemetry,
};
use cackle_cloud::micro_dollars;
use cackle_engine::batch::Batch;
use cackle_engine::executor::Executor;
use cackle_engine::shuffle::MemoryShuffle;
use cackle_engine::table::Catalog;
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::plans::{self, Par, QUERY_NAMES};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::traces;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads. Each puts most of its host time in a
/// different layer of the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10's Startup trace priced by `dynamic` through the analytical
    /// model: the decision layer does almost all of the work.
    TraceDynamic,
    /// The §7.1.6 hour-long mix through the event-driven system runner:
    /// the runner and cloud substrate do most of the work.
    SystemHour,
    /// The 22 TPC-H plans executed for real through the live runner: the
    /// engine does most of the work.
    TpchLive,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TraceDynamic,
        Workload::SystemHour,
        Workload::TpchLive,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceDynamic => "trace_dynamic",
            Workload::SystemHour => "system_hour",
            Workload::TpchLive => "tpch_live",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the seeds fig10,
    /// `bench_env_grid` and the engine examples already use.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::TraceDynamic => 1,
            Workload::SystemHour => 47,
            Workload::TpchLive => 7,
        }
    }
}

/// Input sizes. [`Size::full`] is what the benchmark measures;
/// [`Size::smoke`] keeps the same code paths small enough for a test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Leading seconds of the Startup trace to price (it is a week long).
    pub trace_seconds: usize,
    /// Queries in the hour-long mix.
    pub hour_queries: usize,
    /// TPC-H scale factor of the live catalog.
    pub scale_factor: f64,
    /// Least times the inputs are generated; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Cheap set-ups repeat until they have taken this many seconds (at
    /// most 100 times), so their median is steady too.
    pub setup_budget_s: f64,
    /// Most strategy ticks at which the percentile replay queries every
    /// expert (evenly spaced over the run).
    pub replay_ticks: usize,
}

impl Size {
    /// The measured sizes.
    pub fn full() -> Self {
        Size {
            trace_seconds: usize::MAX,
            hour_queries: 4000,
            scale_factor: 0.2,
            setup_repeats: 3,
            setup_budget_s: 0.5,
            replay_ticks: 2000,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn smoke() -> Self {
        Size {
            trace_seconds: 6 * 3600,
            hour_queries: 150,
            scale_factor: 0.005,
            setup_repeats: 2,
            setup_budget_s: 0.0,
            replay_ticks: 50,
        }
    }
}

/// Executor threads for the live runner: two, or fewer on a smaller host.
pub fn live_workers() -> u32 {
    crate::host::nproc().min(2) as u32
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Per-second task demand.
    Trace(Vec<u32>),
    /// Query arrivals with execution profiles.
    Hour(Vec<QueryArrival>),
    /// A generated catalog and the plans that run on it.
    Tpch {
        /// The TPC-H tables.
        catalog: Catalog,
        /// One query per plan, arriving every 10 s.
        queries: Vec<LiveQuery>,
    },
}

/// Everything set-up produces.
pub struct Prepared {
    /// The workload's inputs.
    pub inputs: Inputs,
    /// Host seconds spent generating the TPC-H catalog (0-work elsewhere).
    pub dbgen_s: f64,
    /// Rows in the generated catalog.
    pub dbgen_rows: u64,
    /// A freshly built `dynamic` strategy for the first pass.
    pub strategy: MetaStrategy,
}

/// Generate a workload's inputs from its seed and build the strategy.
pub fn setup(workload: Workload, seed: u64, size: &Size) -> Prepared {
    let t0 = Instant::now();
    let catalog = (workload == Workload::TpchLive).then(|| {
        generate_catalog(&DbGenConfig {
            scale_factor: size.scale_factor,
            seed,
            ..DbGenConfig::default()
        })
    });
    let dbgen_s = t0.elapsed().as_secs_f64();
    let dbgen_rows = catalog.as_ref().map_or(0, |c| {
        cackle_tpch::schema::TABLE_NAMES
            .iter()
            .map(|t| c.get(t).num_rows() as u64)
            .sum()
    });
    let inputs = match workload {
        Workload::TraceDynamic => {
            let mut demand = traces::startup_trace(seed).scale(20.0).samples;
            demand.truncate(size.trace_seconds);
            Inputs::Trace(demand)
        }
        Workload::SystemHour => Inputs::Hour(build_workload(
            &WorkloadSpec::hour_long(size.hour_queries, seed),
            &cackle_tpch::profiles::evaluation_mix(),
        )),
        Workload::TpchLive => {
            let par = Par {
                fact: 8,
                mid: 4,
                join: 4,
            };
            let queries = QUERY_NAMES[..22]
                .iter()
                .enumerate()
                .map(|(i, name)| LiveQuery {
                    at_s: i as u64 * 10,
                    plan: Arc::new(plans::plan(name, par)),
                })
                .collect();
            Inputs::Tpch {
                catalog: catalog.expect("catalog generated for tpch_live"),
                queries,
            }
        }
    };
    Prepared {
        inputs,
        dbgen_s,
        dbgen_rows,
        strategy: MetaStrategy::new(&Env::default()),
    }
}

impl Inputs {
    /// Operations one pass attempts: strategy ticks over the trace, or
    /// queries.
    pub fn operations(&self, env: &Env) -> u64 {
        match self {
            Inputs::Trace(demand) => {
                let tick = env.strategy_tick.as_secs().max(1) as usize;
                demand.len().div_ceil(tick) as u64
            }
            Inputs::Hour(queries) => queries.len() as u64,
            Inputs::Tpch { queries, .. } => queries.len() as u64,
        }
    }

    /// Units of runner work: stage tasks of every query, or, for the
    /// trace (which has no queries), the simulated seconds the model
    /// loop steps through.
    pub fn runner_tasks(&self) -> u64 {
        match self {
            Inputs::Trace(demand) => demand.len() as u64,
            Inputs::Hour(queries) => queries
                .iter()
                .flat_map(|q| &q.profile.stages)
                .map(|s| u64::from(s.tasks))
                .sum(),
            Inputs::Tpch { queries, .. } => queries
                .iter()
                .map(|q| u64::from(q.plan.total_tasks()))
                .sum(),
        }
    }
}

/// The spec a pass runs under: Table-1 defaults, telemetry off unless a
/// sink is given.
pub fn spec_for(inputs: &Inputs, telemetry: Option<&Telemetry>) -> RunSpec {
    let spec = match inputs {
        Inputs::Trace(_) => RunSpec::new().with_compute_only(true),
        Inputs::Hour(_) => RunSpec::new(),
        Inputs::Tpch { .. } => RunSpec::new().with_workers(live_workers()),
    };
    match telemetry {
        Some(t) => spec.with_telemetry(t),
        None => spec,
    }
}

/// One pass's result, plus each query's output batches when collected.
pub struct Pass {
    /// The run's report.
    pub result: RunResult,
    /// Output batches per query (live runs with `collect` only).
    pub outputs: Vec<Vec<Batch>>,
}

impl Pass {
    /// What must repeat exactly between passes: the micro-dollar total
    /// and the latency vector, bit for bit.
    pub fn fingerprint(&self) -> (i64, Vec<u64>) {
        (
            self.result.total_cost_micros(),
            self.result.latencies.iter().map(|l| l.to_bits()).collect(),
        )
    }
}

/// Run one pass of the workload under `strategy`.
pub fn run_pass(
    inputs: &Inputs,
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
    collect: bool,
) -> Result<Pass, String> {
    let (result, outputs) = match inputs {
        Inputs::Trace(demand) => (simulate_compute(demand, strategy, spec), Vec::new()),
        Inputs::Hour(queries) => (
            try_run_system_with(queries, strategy, spec).map_err(|e| e.to_string())?,
            Vec::new(),
        ),
        Inputs::Tpch { catalog, queries } if collect => {
            run_live_collect(queries, catalog, strategy, spec)
        }
        Inputs::Tpch { catalog, queries } => {
            (run_live_with(queries, catalog, strategy, spec), Vec::new())
        }
    };
    let expected = match inputs {
        Inputs::Trace(_) => 0,
        Inputs::Hour(q) => q.len(),
        Inputs::Tpch { queries, .. } => queries.len(),
    };
    if result.latencies.len() != expected {
        return Err(format!(
            "{} of {expected} queries completed",
            result.latencies.len()
        ));
    }
    Ok(Pass { result, outputs })
}

/// Output checks on a telemetry-enabled pass, run outside the timed
/// passes. Returns one message per failed check.
pub fn check_pass(inputs: &Inputs, pass: &Pass, telemetry: &Telemetry) -> Vec<String> {
    let mut problems = Vec::new();
    if let Inputs::Hour(_) = inputs {
        // Cost attribution recorded by telemetry equals the ledger's.
        let compute = &pass.result.compute;
        for (component, category, ledger) in [
            ("fleet", "vm_compute", compute.vm_cost),
            ("pool", "elastic_pool", compute.pool_cost),
        ] {
            let attributed = micro_dollars(telemetry.cost(component, category));
            let billed = micro_dollars(ledger);
            if attributed != billed {
                problems.push(format!(
                    "telemetry {component}/{category} attributes {attributed} micro-dollars, \
                     the run billed {billed}"
                ));
            }
        }
    }
    if let Inputs::Tpch { catalog, queries } = inputs {
        // Each query's output through the live runner equals the same plan
        // executed directly by the engine.
        let executor = Executor::new(live_workers());
        for (i, q) in queries.iter().enumerate() {
            let expected =
                executor.execute_query(&q.plan, i as u64 + 1, catalog, &MemoryShuffle::new());
            let schema = q.plan.final_stage().output_schema.clone();
            let got = pass
                .outputs
                .get(i)
                .map(|parts| Batch::concat(schema, parts));
            if got.as_ref() != Some(&expected) {
                problems.push(format!(
                    "{}: live output differs from Executor::execute_query",
                    q.plan.name
                ));
            }
        }
    }
    problems
}
