//! Replays run from the benchmark's own code after the traced pass, to
//! time one layer's building blocks in isolation.

use crate::probe::{TimedShuffle, TimedStrategy};
use crate::workloads::Inputs;
use cackle::history::SlidingQuantile;
use cackle::{AllocationSim, Env, FamilyConfig, FaultInjector, Telemetry};
use cackle_engine::executor::Executor;
use cackle_engine::shuffle::ShuffleTransport;
use std::hint::black_box;
use std::time::Instant;

/// Replay the traced run's per-second `(target, demand)` stream through
/// one public [`AllocationSim`]. Returns nanoseconds per `step`.
pub fn allocsim_step_ns(strategy: &TimedStrategy, env: &Env) -> f64 {
    let mut targets = Vec::with_capacity(strategy.demand.len());
    let mut decisions = strategy.decisions.iter().peekable();
    let mut target = 0;
    for second in 0..strategy.demand.len() as u64 {
        while let Some(&(_, t)) = decisions.next_if(|(now, _)| *now <= second) {
            target = t;
        }
        targets.push(target);
    }
    let mut sim = AllocationSim::new(env);
    let t0 = Instant::now();
    for (&target, &demand) in targets.iter().zip(&strategy.demand) {
        sim.step(black_box(target), demand);
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    black_box(sim.cost());
    elapsed / targets.len().max(1) as f64
}

/// Replay the recorded demand into one [`SlidingQuantile`] per lookback
/// of the meta-strategy's family and, at up to `max_ticks` evenly spaced
/// strategy ticks, query every expert's percentile. Returns nanoseconds
/// per percentile query.
pub fn percentile_ns(strategy: &TimedStrategy, max_ticks: usize) -> f64 {
    let family = FamilyConfig::default();
    let lookbacks = strategy.inner().lookbacks();
    let mut windows: Vec<SlidingQuantile> =
        lookbacks.iter().map(|&l| SlidingQuantile::new(l)).collect();
    // Expert order of the family: every unit percentile, then p80 once per
    // multiplier, for each lookback.
    let per_lookback: Vec<u8> = family
        .unit_percentiles
        .iter()
        .copied()
        .chain(family.p80_multipliers.iter().map(|_| 80))
        .collect();
    let stride = strategy.decisions.len().div_ceil(max_ticks.max(1)).max(1);
    let mut ticks = strategy
        .decisions
        .iter()
        .step_by(stride)
        .map(|&(now, _)| now)
        .peekable();
    let mut queries = 0u64;
    let mut busy_ns = 0u128;
    for (second, &demand) in strategy.demand.iter().enumerate() {
        for w in &mut windows {
            w.push(demand);
        }
        if ticks.next_if(|&now| now <= second as u64).is_none() {
            continue;
        }
        let t0 = Instant::now();
        for w in &windows {
            for &pct in &per_lookback {
                black_box(w.percentile(black_box(pct)));
            }
        }
        busy_ns += t0.elapsed().as_nanos();
        queries += (windows.len() * per_lookback.len()) as u64;
    }
    busy_ns as f64 / queries.max(1) as f64
}

/// What one engine replay of the live plans measured.
#[derive(Debug, Clone, Default)]
pub struct EngineReplay {
    /// Host seconds for every plan.
    pub exec_s: f64,
    /// Host milliseconds per plan, q01 to q22.
    pub query_ms: Vec<f64>,
    /// Rows read from scans and shuffles.
    pub rows_in: u64,
    /// Rows emitted.
    pub rows_out: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Seconds inside shuffle writes.
    pub shuffle_write_s: f64,
    /// Seconds inside shuffle reads, summed over workers.
    pub shuffle_read_s: f64,
    /// Bytes written to the shuffle.
    pub shuffle_bytes: u64,
    /// Chunks written to the shuffle.
    pub shuffle_chunks: u64,
}

/// Execute the live plans stage by stage through
/// [`Executor::execute_stage`] over a timed in-memory shuffle. Workloads
/// without plans time 22 empty slots.
pub fn engine(inputs: &Inputs, workers: u32) -> EngineReplay {
    let (catalog, queries) = match inputs {
        Inputs::Tpch { catalog, queries } => (Some(catalog), queries.as_slice()),
        _ => (None, [].as_slice()),
    };
    let executor = Executor::new(workers);
    let shuffle = TimedShuffle::default();
    let mut out = EngineReplay::default();
    let all = Instant::now();
    for i in 0..22 {
        let t0 = Instant::now();
        if let (Some(q), Some(catalog)) = (queries.get(i), catalog) {
            let query_id = i as u64 + 1;
            for stage in &q.plan.stages {
                let results = executor.execute_stage(
                    &q.plan,
                    stage.id,
                    query_id,
                    catalog,
                    &shuffle,
                    &Telemetry::disabled(),
                    &FaultInjector::disabled(),
                );
                for r in &results {
                    out.rows_in += r.rows_in;
                    out.rows_out += r.rows_out;
                }
                out.tasks += results.len() as u64;
                black_box(results);
            }
            shuffle.delete_query(query_id);
        }
        out.query_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.exec_s = all.elapsed().as_secs_f64();
    let stats = shuffle.stats();
    out.shuffle_write_s = shuffle.write_s();
    out.shuffle_read_s = shuffle.read_s();
    out.shuffle_bytes = stats.bytes_written;
    out.shuffle_chunks = stats.writes;
    out
}
