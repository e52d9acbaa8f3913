//! The repository benchmark.
//!
//! Three workloads each put most of their host time in a different layer
//! of the workspace (see [`Workload`]). A run without tracing generates
//! the inputs several times (`setup_s` is the median), then repeats timed
//! passes with telemetry off for the requested number of seconds
//! (`run_s` is the median), then checks outputs outside the timed
//! passes. A traced run makes one untraced and one traced pass and then
//! replays the recorded streams through each layer's public building
//! blocks; it reports the per-layer metrics.
//!
//! Every pass must reproduce the first pass's micro-dollar total and
//! latency vector exactly. A pass that errors, panics or fails a check
//! counts all of its operations as failed.

pub mod host;
pub mod probe;
pub mod replay;
pub mod workloads;

use cackle::{Env, MetaStrategy, Telemetry};
use probe::TimedStrategy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workloads::{check_pass, run_pass, setup, spec_for, Inputs, Pass};
pub use workloads::{Size, Workload};

/// End-to-end metrics, reported by runs without tracing.
pub const END_TO_END: [&str; 4] = ["setup_s", "run_s", "sim_cost_usd", "peak_rss_mb"];

/// Per-layer metrics that are simulated outputs or work counts: they
/// repeat exactly between runs of one seed.
pub const DETERMINISTIC: [&str; 19] = [
    "failed_share",
    "sim_latency_p50_s",
    "sim_latency_p99_s",
    "meta.ticks",
    "meta.expert_steps",
    "meta.switches",
    "runner.tasks",
    "fleet.vms_started",
    "fleet.peak_active",
    "pool.invocations",
    "store.puts",
    "store.gets",
    "run.queries",
    "dbgen.rows",
    "engine.rows_in",
    "engine.rows_out",
    "engine.tasks",
    "shuffle.bytes",
    "shuffle.chunks",
];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed passes run, at least one pass.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of timed passes.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Host seconds of each pass (the timed passes, or the untraced and
    /// the traced pass).
    pub pass_s: Vec<f64>,
    /// Operations one pass attempts.
    pub ops_per_pass: u64,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations of passes that errored, panicked or failed a check.
    pub failed: u64,
    /// Failed checks and run errors, one line each.
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Run the benchmark once.
pub fn measure(cfg: &Config) -> Report {
    if cfg.trace {
        traced(cfg)
    } else {
        timed(cfg)
    }
}

/// Tracks the passes of one run against the first pass's fingerprint.
struct Passes {
    ops: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    reference: Option<(i64, Vec<u64>)>,
}

impl Passes {
    fn new(inputs: &Inputs, env: &Env) -> Self {
        Passes {
            ops: inputs.operations(env),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            reference: None,
        }
    }

    /// Record a pass's outcome and the problems its checks found. Returns
    /// the pass when it ran.
    fn record(&mut self, label: &str, outcome: Result<Pass, String>) -> Option<Pass> {
        self.attempted += self.ops;
        let pass = match outcome {
            Ok(pass) => pass,
            Err(e) => {
                self.failed += self.ops;
                self.problems.push(format!("{label}: {e}"));
                return None;
            }
        };
        let fingerprint = pass.fingerprint();
        match &self.reference {
            None => self.reference = Some(fingerprint),
            Some(r) if *r != fingerprint => {
                self.failed += self.ops;
                self.problems.push(format!(
                    "{label}: cost or latencies differ from the first pass"
                ));
            }
            Some(_) => {}
        }
        Some(pass)
    }

    /// Count a pass that ran but failed an output check.
    fn fail_checks(&mut self, label: &str, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += self.ops;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }

    fn report(self, pass_s: Vec<f64>) -> Report {
        Report {
            pass_s,
            ops_per_pass: self.ops,
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics: Vec::new(),
        }
    }
}

/// Run a closure, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// One untraced pass, and its host time.
fn untraced_pass(inputs: &Inputs, mut strategy: MetaStrategy) -> (Result<Pass, String>, Duration) {
    let spec = spec_for(inputs, None);
    let t0 = Instant::now();
    let outcome = guarded(|| run_pass(inputs, &mut strategy, &spec, false));
    (outcome, t0.elapsed())
}

/// The traced pass: the strategy wrapped in a timer, telemetry on, live
/// outputs collected for the output check.
struct Traced {
    outcome: Result<Pass, String>,
    elapsed: Duration,
    strategy: TimedStrategy,
    telemetry: Telemetry,
}

fn traced_pass(inputs: &Inputs, env: &Env) -> Traced {
    let mut strategy = TimedStrategy::new(MetaStrategy::new(env));
    let telemetry = Telemetry::new();
    let spec = spec_for(inputs, Some(&telemetry));
    let t0 = Instant::now();
    let outcome = guarded(|| run_pass(inputs, &mut strategy, &spec, true));
    Traced {
        outcome,
        elapsed: t0.elapsed(),
        strategy,
        telemetry,
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted slice.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Timed passes with tracing off: the end-to-end metrics.
fn timed(cfg: &Config) -> Report {
    let env = Env::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setup_s.len() < cfg.size.setup_repeats.max(1)
        || (setup_s.iter().sum::<f64>() < cfg.size.setup_budget_s && setup_s.len() < 100)
    {
        // Drop the previous inputs first so only one copy is resident.
        drop(prepared.take());
        let t0 = Instant::now();
        let p = setup(cfg.workload, cfg.seed, &cfg.size);
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let prepared = prepared.expect("set up at least once");
    let inputs = prepared.inputs;
    let mut strategy = Some(prepared.strategy);
    let mut passes = Passes::new(&inputs, &env);
    let mut run_s = Vec::new();
    // The first pass sets how many passes fill the requested seconds.
    let mut planned = 1;
    while run_s.len() < planned {
        let fresh = strategy.take().unwrap_or_else(|| MetaStrategy::new(&env));
        let (outcome, elapsed) = untraced_pass(&inputs, fresh);
        run_s.push(elapsed.as_secs_f64());
        let label = format!("pass {}", run_s.len());
        passes.record(&label, outcome);
        if run_s.len() == 1 {
            planned = ((cfg.seconds / run_s[0]).round() as usize).max(1);
        }
    }
    let samples = run_s.clone();
    let cost_usd = passes
        .reference
        .as_ref()
        .map_or(0.0, |(micros, _)| *micros as f64 / 1e6);
    // The trace has no output to check beyond the passes repeating.
    if !matches!(inputs, Inputs::Trace(_)) {
        let t = traced_pass(&inputs, &env);
        if let Some(pass) = passes.record("check pass", t.outcome) {
            let problems = check_pass(&inputs, &pass, &t.telemetry);
            passes.fail_checks("check pass", problems);
        }
    }
    let mut report = passes.report(samples);
    report.push("setup_s", median(&mut setup_s), "s");
    report.push("run_s", median(&mut run_s), "s");
    report.push("sim_cost_usd", cost_usd, "usd");
    report.push(
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(f64::NAN),
        "MiB",
    );
    report
}

/// One untraced and one traced pass plus the layer replays: the
/// per-layer metrics.
fn traced(cfg: &Config) -> Report {
    let env = Env::default();
    let prepared = setup(cfg.workload, cfg.seed, &cfg.size);
    let (dbgen_s, dbgen_rows) = (prepared.dbgen_s, prepared.dbgen_rows);
    let inputs = &prepared.inputs;
    let mut passes = Passes::new(inputs, &env);

    let (outcome, untraced_elapsed) = untraced_pass(inputs, prepared.strategy);
    passes.record("untraced pass", outcome);
    let t = traced_pass(inputs, &env);
    let traced_s = t.elapsed.as_secs_f64();
    let pass = passes.record("traced pass", t.outcome);
    if let Some(pass) = &pass {
        let problems = check_pass(inputs, pass, &t.telemetry);
        passes.fail_checks("traced pass", problems);
    }

    let export_t0 = Instant::now();
    let dump = t.telemetry.export_jsonl();
    let export_s = export_t0.elapsed().as_secs_f64();

    // Decision layer.
    let strategy = &t.strategy;
    let mut ticks_us: Vec<f64> = strategy.tick_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    ticks_us.sort_by(f64::total_cmp);
    let target_s = strategy.tick_ns.iter().sum::<u64>() as f64 / 1e9;
    let expert_steps = strategy.inner().family_size() as u64 * strategy.demand.len() as u64;
    let allocsim_ns = replay::allocsim_step_ns(strategy, &env);
    let percentile_ns = replay::percentile_ns(strategy, cfg.size.replay_ticks);

    // Engine layer, replayed at one worker and at the live runner's count.
    let serial = replay::engine(inputs, 1);
    let engine = replay::engine(inputs, workloads::live_workers());
    let has_plans = engine.tasks > 0;
    let speedup = if has_plans {
        serial.exec_s / engine.exec_s
    } else {
        1.0
    };

    // Runner layer: the traced pass minus what the other layers account
    // for. On tpch_live the engine share comes from the replay, so the
    // result is approximate.
    let engine_in_run = if has_plans { engine.exec_s } else { 0.0 };
    let runner_self_s = traced_s - target_s - engine_in_run;
    let runner_tasks = inputs.runner_tasks();

    let result = pass.as_ref().map(|p| &p.result);
    let latencies = {
        let mut l = result.map_or_else(Vec::new, |r| r.latencies.clone());
        l.sort_by(f64::total_cmp);
        l
    };
    let telemetry = &t.telemetry;
    let peak_active = telemetry
        .series("run.active")
        .map_or(0.0, |s| s.iter().map(|&(_, v)| v).fold(0.0, f64::max));

    let mut report = passes.report(vec![untraced_elapsed.as_secs_f64(), traced_s]);
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    let r = &mut report;
    r.push("traced.run_s", traced_s, "s");
    r.push("failed_share", failed_share, "ratio");
    r.push("sim_latency_p50_s", nearest_rank(&latencies, 50.0), "sim_s");
    r.push("sim_latency_p99_s", nearest_rank(&latencies, 99.0), "sim_s");
    r.push("meta.target_s", target_s, "s");
    r.push("meta.share", target_s / traced_s, "ratio");
    r.push("meta.tick_us_p50", nearest_rank(&ticks_us, 50.0), "us");
    r.push("meta.tick_us_p99", nearest_rank(&ticks_us, 99.0), "us");
    r.push("meta.ticks", strategy.tick_ns.len() as f64, "count");
    r.push("meta.expert_steps", expert_steps as f64, "count");
    r.push(
        "meta.switches",
        strategy.inner().switch_count() as f64,
        "count",
    );
    r.push("allocsim.step_ns", allocsim_ns, "ns");
    r.push("history.percentile_ns", percentile_ns, "ns");
    r.push("runner.self_s", runner_self_s, "s");
    r.push("runner.tasks", runner_tasks as f64, "count");
    r.push(
        "runner.us_per_task",
        runner_self_s * 1e6 / runner_tasks.max(1) as f64,
        "us",
    );
    r.push(
        "fleet.vms_started",
        telemetry.counter("fleet.vms_started_total") as f64,
        "count",
    );
    r.push("fleet.peak_active", peak_active, "count");
    r.push(
        "pool.invocations",
        telemetry.counter("pool.invocations_total") as f64,
        "count",
    );
    r.push(
        "store.puts",
        result.map_or(0, |r| r.shuffle.puts) as f64,
        "count",
    );
    r.push(
        "store.gets",
        result.map_or(0, |r| r.shuffle.gets) as f64,
        "count",
    );
    r.push(
        "run.queries",
        telemetry.counter("run.queries_total") as f64,
        "count",
    );
    r.push("dbgen.s", dbgen_s, "s");
    r.push("dbgen.rows", dbgen_rows as f64, "count");
    r.push("engine.exec_s", engine.exec_s, "s");
    for (i, ms) in engine.query_ms.iter().enumerate() {
        r.push(&format!("engine.q{:02}_ms", i + 1), *ms, "ms");
    }
    r.push("engine.rows_in", engine.rows_in as f64, "count");
    r.push("engine.rows_out", engine.rows_out as f64, "count");
    r.push(
        "engine.rows_per_s",
        engine.rows_in as f64 / engine.exec_s,
        "rows/s",
    );
    r.push("engine.tasks", engine.tasks as f64, "count");
    r.push("engine.speedup_2w", speedup, "x");
    r.push("shuffle.write_s", engine.shuffle_write_s, "s");
    r.push("shuffle.read_s", engine.shuffle_read_s, "s");
    r.push("shuffle.bytes", engine.shuffle_bytes as f64, "bytes");
    r.push("shuffle.chunks", engine.shuffle_chunks as f64, "count");
    r.push(
        "telemetry.overhead_s",
        traced_s - untraced_elapsed.as_secs_f64(),
        "s",
    );
    r.push("telemetry.export_s", export_s, "s");
    r.push("telemetry.export_bytes", dump.len() as f64, "bytes");
    report
}
