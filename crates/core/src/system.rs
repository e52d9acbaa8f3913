//! The full Cackle system (§3, §7.1): an event-driven execution of a query
//! workload on the simulated cloud substrate.
//!
//! Unlike the analytical model — which replays profiles against a
//! strategy-independent demand curve — this is the "real" system: the
//! coordinator schedules individual tasks onto a [`VmFleet`] first and the
//! [`ElasticPool`] as overflow, VMs start after real startup latency and
//! bill with a minimum, the dynamic strategy runs in the loop off the
//! history the system itself records, intermediate results go to shuffle
//! nodes with object-store fallback, and task runtimes carry noise: pool
//! tasks run ~25 % slower than VM tasks (§7.1.2) with lognormal jitter.
//! Figures 12–13 validate the analytical model against exactly this gap.
//!
//! One coordinator serves both runners. It is generic over a
//! crate-private `TaskSource`, which answers only what differs between
//! them: the stage graph, each task's work when its stage starts, the
//! stage- and query-done hooks, the resident shuffle bytes, and the
//! object-store bill. [`run_system`] replays measured profiles;
//! [`run_live`](crate::live::run_live) executes real engine plans.
//! Placement, faults, recovery, egress and the per-second bookkeeping
//! are the coordinator's alone.
//!
//! Entry point: [`run_system`]`(workload, strategy, spec)` returns
//! `Result<RunResult, RunError>`. The spec and the workload are checked
//! before any event is scheduled — malformed profiles (no stages,
//! task-less or zero-duration stages, dependencies that do not point at
//! an earlier stage) come back as [`RunError::InvalidWorkload`] rather
//! than hanging or underflowing the event loop.
//!
//! Fault injection: the spec's [`FaultSpec`](cackle_faults::FaultSpec)
//! compiles into a seeded [`FaultInjector`] whose per-injection-point
//! streams drive spot reclaims, pool invoke failures/throttles, modeled
//! object-store transient errors, and straggler slowdowns. Recovery
//! follows the spec's [`RecoveryPolicy`](cackle_faults::RecoveryPolicy):
//! pool launches retry with deterministic backoff (exhaustion surfaces
//! [`RunError::FaultUnrecovered`]), reclaimed tasks re-execute on the
//! pool, stragglers get a first-wins duplicate, and shuffle writes are
//! idempotent (only the first completion of a task publishes stage
//! output). Fault draws never touch the runner's main RNG, so a zero-rate
//! plan leaves a run bit-identical to one without the subsystem.

use crate::history::WorkloadHistory;
use crate::model::{check_profiles, QueryArrival};
use crate::report::{ComputeCost, RunResult, ShuffleCost, Timeseries};
use crate::shuffleprov::ShuffleProvisioner;
use crate::spec::{RunError, RunSpec};
use crate::strategy::ProvisioningStrategy;
use cackle_cloud::{
    egress_micros, CostCategory, CostLedger, ElasticPool, EventQueue, InvocationId, Pricing,
    SimDuration, SimTime, VmFleet, VmId,
};
use cackle_faults::{EnvironmentSpec, FaultInjector, InjectionPoint, StoreOp};
use cackle_prng::Pcg32;
use cackle_telemetry::Telemetry;
use std::collections::BTreeMap;

/// One task's work, as its source reports it when the stage starts.
#[derive(Debug)]
pub(crate) struct TaskWork {
    /// Seconds a re-execution or straggler duplicate runs, before the
    /// pool slowdown.
    pub base_s: f64,
    /// Seconds the first copy runs, before straggler, pool and per-VM
    /// slowdown.
    pub nominal_s: f64,
    /// Shuffle bytes the task publishes: egress when the winning copy
    /// ran on a remote VM.
    pub bytes: u64,
}

/// What the coordinator asks of a workload — only the questions where
/// the profile replay and the live engine really differ.
pub(crate) trait TaskSource {
    /// Number of queries.
    fn queries(&self) -> usize;
    /// Arrival second and name of `query`.
    fn query(&self, query: usize) -> (u64, &str);
    /// Number of stages of `query`.
    fn stages(&self, query: usize) -> usize;
    /// Task count and dependencies of one stage.
    fn stage(&self, query: usize, stage: usize) -> (u32, &[usize]);
    /// A stage starts while `shuffle_nodes` shuffle nodes run: push each
    /// task's work onto `out`, in task order.
    fn start_stage(
        &mut self,
        query: usize,
        stage: usize,
        shuffle_nodes: usize,
        out: &mut Vec<TaskWork>,
    );
    /// The last task of a stage completed for the first time.
    fn stage_done(&mut self, query: usize, stage: usize, shuffle_nodes: usize);
    /// The last stage of `query` completed.
    fn query_done(&mut self, query: usize);
    /// Shuffle bytes resident right now: the shuffle provisioner's input.
    fn resident_bytes(&self) -> u64;
    /// The object-store half of the shuffle bill: request counts and
    /// dollars.
    fn store_ledger(&self) -> CostLedger;
}

/// The profile replay: each task runs its stage's measured seconds with
/// lognormal jitter, and the shuffle tier is modelled from the stages'
/// byte and request counts.
struct ProfileReplay<'a> {
    workload: &'a [QueryArrival],
    pricing: &'a Pricing,
    duration_jitter: f64,
    /// The runner's main RNG; only the jitter draws from it.
    rng: Pcg32,
    faults: FaultInjector,
    /// Shuffle bytes each query holds resident until it completes.
    resident: Vec<u64>,
    resident_total: u64,
    /// Object-store request counts and charges (priced through the
    /// ledger so no raw dollar arithmetic happens outside the billing
    /// layer).
    s3_ledger: CostLedger,
    /// Retried store requests, attributed to the `recovery` component
    /// like the coordinator's re-executions and duplicates.
    retry_ledger: CostLedger,
}

impl<'a> ProfileReplay<'a> {
    fn new(
        workload: &'a [QueryArrival],
        spec: &'a RunSpec,
        telemetry: &Telemetry,
        faults: &FaultInjector,
    ) -> Self {
        let mut s3_ledger = CostLedger::new();
        s3_ledger.instrument("store", telemetry);
        let mut retry_ledger = CostLedger::new();
        retry_ledger.instrument("recovery", telemetry);
        ProfileReplay {
            workload,
            pricing: &spec.env.pricing,
            duration_jitter: spec.duration_jitter,
            rng: Pcg32::seed_from_u64(spec.seed),
            faults: faults.clone(),
            resident: vec![0; workload.len()],
            resident_total: 0,
            s3_ledger,
            retry_ledger,
        }
    }

    /// Fraction of shuffle requests that miss the node tier right now.
    fn overflow_fraction(&self, shuffle_nodes: usize) -> f64 {
        let cap = shuffle_nodes as u64 * self.pricing.shuffle_node_capacity_bytes;
        if self.resident_total > cap && self.resident_total > 0 {
            (self.resident_total - cap) as f64 / self.resident_total as f64
        } else {
            0.0
        }
    }

    /// Bill `n` modeled store requests: injected transient 5xx errors
    /// retry internally within the recovery bound, and every attempt
    /// bills (S3 bills errored requests too). The extra attempts are
    /// attributed to the recovery component.
    fn bill_store_requests(&mut self, n: u64, op: StoreOp) {
        let (category, unit) = match op {
            StoreOp::Get => (CostCategory::S3Get, self.pricing.s3_get),
            StoreOp::Put => (CostCategory::S3Put, self.pricing.s3_put),
        };
        let mut billed = n;
        if self.faults.is_enabled() {
            billed = (0..n).map(|_| self.faults.store_attempts(op)).sum();
            self.retry_ledger
                .charge_requests(category, billed - n, unit);
        }
        match op {
            StoreOp::Get => self.s3_ledger.get_requests += billed,
            StoreOp::Put => self.s3_ledger.put_requests += billed,
        }
        self.s3_ledger.charge_requests(category, billed, unit);
    }
}

impl TaskSource for ProfileReplay<'_> {
    fn queries(&self) -> usize {
        self.workload.len()
    }

    fn query(&self, query: usize) -> (u64, &str) {
        let q = &self.workload[query];
        (q.at_s, &q.profile.name)
    }

    fn stages(&self, query: usize) -> usize {
        self.workload[query].profile.stages.len()
    }

    fn stage(&self, query: usize, stage: usize) -> (u32, &[usize]) {
        let s = &self.workload[query].profile.stages[stage];
        (s.tasks, &s.deps)
    }

    fn start_stage(
        &mut self,
        query: usize,
        stage: usize,
        shuffle_nodes: usize,
        out: &mut Vec<TaskWork>,
    ) {
        let sp = &self.workload[query].profile.stages[stage];
        // Reads happen at stage start; the node tier serves what fits.
        let gets = (sp.shuffle_reads as f64 * self.overflow_fraction(shuffle_nodes)).round();
        self.bill_store_requests(gets as u64, StoreOp::Get);
        // Each task publishes its rounded share of the stage's bytes.
        let tasks = u64::from(sp.tasks.max(1));
        let bytes = (sp.shuffle_bytes + tasks / 2) / tasks;
        let base_s = sp.task_seconds as f64;
        for _ in 0..sp.tasks {
            let jitter = if self.duration_jitter > 0.0 {
                let u: f64 = self.rng.gen_range(-1.0..1.0);
                (u * self.duration_jitter).exp()
            } else {
                1.0
            };
            out.push(TaskWork {
                base_s,
                nominal_s: base_s * jitter,
                bytes,
            });
        }
    }

    fn stage_done(&mut self, query: usize, stage: usize, shuffle_nodes: usize) {
        // Stage output lands in the shuffle tier.
        let sp = &self.workload[query].profile.stages[stage];
        self.resident[query] += sp.shuffle_bytes;
        self.resident_total += sp.shuffle_bytes;
        let puts = (sp.shuffle_writes as f64 * self.overflow_fraction(shuffle_nodes)).round();
        self.bill_store_requests(puts as u64, StoreOp::Put);
    }

    fn query_done(&mut self, query: usize) {
        self.resident_total = self.resident_total.saturating_sub(self.resident[query]);
        self.resident[query] = 0;
    }

    fn resident_bytes(&self) -> u64 {
        self.resident_total
    }

    fn store_ledger(&self) -> CostLedger {
        self.s3_ledger.clone()
    }
}

/// Where a task ran.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Vm(VmId),
    Pool(InvocationId),
}

#[derive(Debug)]
enum Ev {
    Arrive(usize),
    TaskDone {
        token: u64,
        slot: Slot,
        /// This copy is the straggler duplicate, not the primary.
        dup: bool,
    },
    /// A spot VM is reclaimed mid-task; the attempt re-executes on the
    /// pool (unless a duplicate already finished it).
    Interrupted {
        token: u64,
        vm: VmId,
    },
    /// Retry a pool launch whose invoke was failed by the fault plan,
    /// after deterministic backoff.
    PoolLaunch {
        token: u64,
        dur_s: f64,
        attempt: u32,
        dup: bool,
    },
    /// Straggler patience elapsed: launch a duplicate if the task is
    /// still unfinished.
    DupCheck {
        token: u64,
    },
    Second,
    Tick,
}

/// One logical task in flight, possibly backed by several physical
/// copies over its lifetime (spot re-executions, pool retry chains, a
/// straggler duplicate). Shuffle writes are idempotent: only the first
/// completion publishes stage output, so extra copies cost compute but
/// never double-count work.
#[derive(Debug)]
struct TaskAttempt {
    query: usize,
    stage: usize,
    /// Seconds a re-execution or duplicate runs before pool slowdown.
    base_secs: f64,
    /// Shuffle bytes the winning copy publishes.
    bytes: u64,
    /// A copy already completed and was credited to the stage.
    done: bool,
    /// Physical copies alive: scheduled completion/interruption events
    /// plus pool retry chains still backing off.
    copies: u32,
    dup_launched: bool,
}

struct QueryState {
    arrival: SimTime,
    remaining_tasks: Vec<u32>,
    unfinished_deps: Vec<usize>,
    stages_left: usize,
}

/// One run's coordinator state: the cloud substrate, the task attempts
/// in flight and each query's progress.
struct Coordinator<'a, S> {
    spec: &'a RunSpec,
    source: S,
    telemetry: Telemetry,
    events: EventQueue<Ev>,
    fleet: VmFleet,
    pool: ElasticPool,
    shuffle_fleet: VmFleet,
    queries: Vec<QueryState>,
    latencies: Vec<f64>,
    done: usize,
    running: u32,
    max_since_sample: u32,
    /// Seeded fault plan + recovery policy; disabled when the effective
    /// spec is all-zero (the guaranteed no-op path).
    faults: FaultInjector,
    /// Task attempts in flight, keyed by token (BTreeMap for deterministic
    /// iteration, lint L3).
    attempts: BTreeMap<u64, TaskAttempt>,
    next_token: u64,
    /// Reused buffer for the work of the stage being launched.
    work: Vec<TaskWork>,
    /// Extra spend attributable to fault recovery — duplicate launches
    /// and spot re-executions. Telemetry attribution only; the primary
    /// ledgers already bill the real resources, so this is never added
    /// to the `RunResult` totals.
    recovery_ledger: CostLedger,
    /// Cross-region shuffle-egress charges from the environment model's
    /// second region, instrumented as component `env`. Its `Egress`
    /// category becomes [`ShuffleCost::egress_cost`] in the result.
    env_ledger: CostLedger,
    /// The effective environment spec (zero when the run carries none),
    /// cached so the hot completion path never locks the injector just
    /// to learn the environment is inert.
    environment: EnvironmentSpec,
    /// Set when recovery exhausts its bound; aborts the event loop with a
    /// typed error instead of panicking or hanging.
    fatal: Option<RunError>,
}

impl<S: TaskSource> Coordinator<'_, S> {
    /// Poll the execution fleet and tag every newly started VM with its
    /// persistent environment traits: records the `env.vm_slowdown`
    /// histogram and regional counters, and installs the remote-region
    /// billing rate on the fleet. A zero environment records and tags
    /// nothing, so the poll stays a bit-identical no-op.
    fn poll_fleet(&mut self, now: SimTime) {
        for id in self.fleet.poll(now) {
            let traits = self.faults.vm_started(id.0);
            if traits.rate_milli != 1000 {
                self.fleet.set_vm_rate_milli(id, traits.rate_milli);
            }
        }
    }

    /// Whether queries or tasks are still outstanding.
    fn busy(&self) -> bool {
        self.done < self.queries.len() || self.running > 0
    }

    /// A physical copy ended without completing (abandoned retry chain,
    /// reclaimed after a duplicate won); drop the attempt record once the
    /// last copy is gone.
    fn drop_copy(&mut self, token: u64) {
        self.running = self.running.saturating_sub(1);
        if let Some(a) = self.attempts.get_mut(&token) {
            a.copies = a.copies.saturating_sub(1);
            if a.copies == 0 && a.done {
                self.attempts.remove(&token);
            }
        }
    }

    /// Launch (or relaunch) a copy of `token` on the elastic pool. An
    /// injected invoke failure retries with deterministic backoff via a
    /// [`Ev::PoolLaunch`] event; once the policy's bound is exhausted the
    /// run aborts with [`RunError::FaultUnrecovered`].
    fn launch_on_pool(&mut self, now: SimTime, token: u64, dur_s: f64, attempt: u32, dup: bool) {
        match self.pool.invoke_faulted(now, &self.faults) {
            Some((id, start)) => {
                self.events.schedule(
                    start + SimDuration::from_secs_f64(dur_s),
                    Ev::TaskDone {
                        token,
                        slot: Slot::Pool(id),
                        dup,
                    },
                );
            }
            None => {
                let policy = self.faults.policy();
                if policy.allows_retry(attempt) {
                    let backoff = policy.backoff_ms(attempt);
                    self.faults.note_retry(backoff);
                    self.events.schedule(
                        now + SimDuration::from_millis(backoff),
                        Ev::PoolLaunch {
                            token,
                            dur_s,
                            attempt: attempt + 1,
                            dup,
                        },
                    );
                } else {
                    self.faults.note_unrecovered(InjectionPoint::PoolInvoke);
                    self.fatal = Some(RunError::FaultUnrecovered {
                        point: InjectionPoint::PoolInvoke.as_str(),
                        attempts: attempt + 1,
                    });
                }
            }
        }
    }

    /// Schedule a straggler duplicate check once the non-straggled
    /// duration (plus the policy's patience factor) has elapsed.
    fn schedule_dup_check(&mut self, now: SimTime, token: u64, nominal_s: f64) {
        let policy = self.faults.policy();
        if policy.duplicate_stragglers {
            self.events.schedule(
                now + SimDuration::from_secs_f64(nominal_s * policy.straggler_patience),
                Ev::DupCheck { token },
            );
        }
    }

    /// Start every task of a stage: the source reports each task's work,
    /// then, in task order, the coordinator draws its straggler factor
    /// and places it on a VM or, as overflow, on the pool.
    fn launch_stage(&mut self, now: SimTime, query: usize, stage: usize) {
        let mut work = std::mem::take(&mut self.work);
        let shuffle_nodes = self.shuffle_fleet.running_count();
        self.source
            .start_stage(query, stage, shuffle_nodes, &mut work);
        let pool_slowdown = self.spec.pool_slowdown;
        for w in work.drain(..) {
            // Stragglers come from the plan's dedicated stream; zero-rate
            // plans make no draw at all.
            let slowdown = self.faults.straggler().unwrap_or(1.0);
            let token = self.next_token;
            self.next_token += 1;
            self.attempts.insert(
                token,
                TaskAttempt {
                    query,
                    stage,
                    base_secs: w.base_s,
                    bytes: w.bytes,
                    done: false,
                    copies: 1,
                    dup_launched: false,
                },
            );
            self.running += 1;
            self.max_since_sample = self.max_since_sample.max(self.running);
            match self.fleet.try_assign(now) {
                Some(id) => {
                    // Persistent per-VM heterogeneity: the environment's
                    // seed-keyed slowdown stretches every task this VM
                    // runs. An inert environment yields exactly 1.0, a
                    // bit-identical no-op multiply.
                    let dur_s = w.nominal_s * slowdown * self.faults.vm_traits(id.0).slowdown;
                    // Spot interruptions: a VM task survives its duration
                    // with probability exp(-rate × duration); otherwise
                    // the VM is reclaimed at a uniformly random point
                    // through the task. Drawn from the plan's spot stream
                    // (`faults.spot_reclaims_per_vm_hour`); the hazard
                    // rises inside compiled reclaim-storm windows.
                    if let Some(frac) = self.faults.vm_interrupt_at(now.as_secs(), dur_s) {
                        self.events.schedule(
                            now + SimDuration::from_secs_f64(dur_s * frac),
                            Ev::Interrupted { token, vm: id },
                        );
                    } else {
                        self.events.schedule(
                            now + SimDuration::from_secs_f64(dur_s),
                            Ev::TaskDone {
                                token,
                                slot: Slot::Vm(id),
                                dup: false,
                            },
                        );
                    }
                    if slowdown > 1.0 {
                        self.schedule_dup_check(now, token, w.nominal_s);
                    }
                }
                None => {
                    let dur_s = w.nominal_s * pool_slowdown * slowdown;
                    self.launch_on_pool(now, token, dur_s, 0, false);
                    if slowdown > 1.0 {
                        self.schedule_dup_check(now, token, w.nominal_s * pool_slowdown);
                    }
                }
            }
        }
        self.work = work;
    }

    /// Launch every stage of `query` whose last dependency is `finished`
    /// (`None`: the stages with no dependencies, at arrival).
    fn launch_ready(&mut self, now: SimTime, query: usize, finished: Option<usize>) {
        for si in 0..self.source.stages(query) {
            let ready = match finished {
                None => self.source.stage(query, si).1.is_empty(),
                Some(stage) if self.source.stage(query, si).1.contains(&stage) => {
                    let left = &mut self.queries[query].unfinished_deps[si];
                    *left = left.saturating_sub(1);
                    *left == 0
                }
                Some(_) => false,
            };
            if ready {
                self.launch_stage(now, query, si);
            }
        }
    }

    /// A copy of `token` completed: release its slot and, when it is the
    /// first copy to finish, publish its output and advance the query.
    fn task_done(&mut self, now: SimTime, token: u64, slot: Slot, dup: bool) {
        match slot {
            Slot::Vm(id) => self.fleet.release(now, id),
            Slot::Pool(id) => {
                self.pool.complete(now, id);
            }
        }
        self.running = self.running.saturating_sub(1);
        let Some(a) = self.attempts.get_mut(&token) else {
            debug_assert!(false, "completion for unknown attempt {token}");
            return;
        };
        a.copies = a.copies.saturating_sub(1);
        let first = !a.done;
        a.done = true;
        let (query, stage, bytes) = (a.query, a.stage, a.bytes);
        if a.copies == 0 {
            self.attempts.remove(&token);
        }
        if !first {
            // The losing copy of a duplicate pair: its slot is released
            // and its compute was billed, but shuffle writes are
            // idempotent — nothing further publishes.
            return;
        }
        if dup {
            self.faults.note_duplicate_win();
        }
        // Cross-region egress: a remote VM publishing its shuffle output
        // ships the task's bytes out of region, billed in exact
        // micro-dollars through the env ledger (only the winning copy
        // publishes, so egress is never double-charged).
        if let Slot::Vm(id) = slot {
            if self.environment.remote_vm_fraction > 0.0
                && bytes > 0
                && self.faults.vm_traits(id.0).remote
            {
                self.telemetry.counter_add("env.egress_bytes_total", bytes);
                self.env_ledger.charge_micros(
                    CostCategory::Egress,
                    egress_micros(bytes, self.environment.egress_micros_per_gib),
                );
            }
        }
        let q = &mut self.queries[query];
        q.remaining_tasks[stage] = q.remaining_tasks[stage].saturating_sub(1);
        if q.remaining_tasks[stage] > 0 {
            return;
        }
        let shuffle_nodes = self.shuffle_fleet.running_count();
        self.source.stage_done(query, stage, shuffle_nodes);
        let q = &mut self.queries[query];
        q.stages_left = q.stages_left.saturating_sub(1);
        if q.stages_left > 0 {
            self.launch_ready(now, query, Some(stage));
            return;
        }
        let arrival = q.arrival;
        let latency = (now - arrival).as_secs_f64();
        self.latencies[query] = latency;
        self.source.query_done(query);
        self.done += 1;
        self.telemetry.counter_add("run.queries_total", 1);
        self.telemetry.observe("run.query_latency_seconds", latency);
        self.telemetry.span_event(
            arrival.as_millis(),
            now.as_millis().saturating_sub(arrival.as_millis()),
            "query",
            Some(query as u64),
            None,
            self.source.query(query).1,
        );
    }

    /// The provider reclaims the VM; the attempt re-executes from scratch
    /// on the elastic pool (run-to-completion tasks have no partial
    /// progress to save).
    fn interrupted(&mut self, now: SimTime, token: u64, vm: VmId) {
        self.fleet.reclaim(now, vm);
        let Some(a) = self.attempts.get(&token) else {
            debug_assert!(false, "interrupt for unknown attempt {token}");
            return;
        };
        if a.done {
            // A duplicate already finished this task; the reclaimed copy
            // just disappears.
            self.drop_copy(token);
        } else {
            let dur_s = a.base_secs * self.spec.pool_slowdown;
            self.faults.note_reexec();
            self.recovery_ledger.charge(
                CostCategory::ElasticPool,
                self.spec
                    .env
                    .pricing
                    .pool_cost(SimDuration::from_secs_f64(dur_s)),
            );
            self.launch_on_pool(now, token, dur_s, 0, false);
        }
    }

    /// Straggler patience elapsed: if the task is still unfinished, the
    /// first completed copy wins against a duplicate that runs at nominal
    /// (non-straggled) speed on the pool.
    fn dup_check(&mut self, now: SimTime, token: u64) {
        let base = match self.attempts.get_mut(&token) {
            Some(a) if !a.done && !a.dup_launched => {
                a.dup_launched = true;
                a.copies += 1;
                a.base_secs
            }
            _ => return,
        };
        let dur_s = base * self.spec.pool_slowdown;
        self.faults.note_duplicate();
        self.running += 1;
        self.max_since_sample = self.max_since_sample.max(self.running);
        self.recovery_ledger.charge(
            CostCategory::ElasticPool,
            self.spec
                .env
                .pricing
                .pool_cost(SimDuration::from_secs_f64(dur_s)),
        );
        self.launch_on_pool(now, token, dur_s, 0, true);
    }
}

/// The one coordinator loop behind [`run_system`] and
/// [`run_live`](crate::live::run_live): `source` builds the runner's
/// [`TaskSource`] from the run's telemetry sink and fault injector, and
/// is handed back with the result. Callers validate the spec and the
/// workload first.
pub(crate) fn coordinate<S: TaskSource>(
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
    source: impl FnOnce(&Telemetry, &FaultInjector) -> S,
) -> Result<(RunResult, S), RunError> {
    let env = &spec.env;
    let pricing = &env.pricing;
    let telemetry = spec.effective_telemetry();
    strategy.set_telemetry(&telemetry);
    let faults = spec.fault_injector(&telemetry)?;
    let source = source(&telemetry, &faults);
    let market = faults.price_timeline();
    let queries: Vec<QueryState> = (0..source.queries())
        .map(|qi| {
            let stages = source.stages(qi);
            QueryState {
                arrival: SimTime::from_secs(source.query(qi).0),
                remaining_tasks: (0..stages).map(|si| source.stage(qi, si).0).collect(),
                unfinished_deps: (0..stages).map(|si| source.stage(qi, si).1.len()).collect(),
                stages_left: stages,
            }
        })
        .collect();
    let mut st = Coordinator {
        spec,
        source,
        telemetry: telemetry.clone(),
        events: EventQueue::new(),
        fleet: VmFleet::new(pricing.clone()),
        pool: ElasticPool::new(pricing.clone()),
        shuffle_fleet: VmFleet::with_category(pricing.clone(), CostCategory::ShuffleNode),
        latencies: vec![0.0; queries.len()],
        queries,
        done: 0,
        running: 0,
        max_since_sample: 0,
        environment: faults.environment(),
        faults,
        attempts: BTreeMap::new(),
        next_token: 0,
        work: Vec::new(),
        recovery_ledger: CostLedger::new(),
        env_ledger: CostLedger::new(),
        fatal: None,
    };
    st.fleet.instrument("fleet", &telemetry);
    st.pool.instrument(&telemetry);
    st.shuffle_fleet.instrument("shuffle_fleet", &telemetry);
    st.recovery_ledger.instrument("recovery", &telemetry);
    st.env_ledger.instrument("env", &telemetry);
    if !market.is_flat() {
        // Spot-market motion: both fleets integrate the compiled
        // schedule at termination time (a flat timeline keeps the
        // legacy f64 billing path bit-for-bit).
        st.fleet.set_price_timeline(market.clone());
        st.shuffle_fleet.set_price_timeline(market);
    }
    let mut shuffle_prov = ShuffleProvisioner::new(env);
    let mut history = WorkloadHistory::new();

    for (i, q) in st.queries.iter().enumerate() {
        st.events.schedule(q.arrival, Ev::Arrive(i));
    }
    if !st.queries.is_empty() {
        st.events.schedule(SimTime::ZERO, Ev::Second);
        st.events.schedule(SimTime::ZERO, Ev::Tick);
    }

    let mut target = 0u32;
    while let Some((now, ev)) = st.events.pop() {
        match ev {
            Ev::Arrive(qi) => st.launch_ready(now, qi, None),
            Ev::TaskDone { token, slot, dup } => st.task_done(now, token, slot, dup),
            Ev::Interrupted { token, vm } => st.interrupted(now, token, vm),
            Ev::PoolLaunch {
                token,
                dur_s,
                attempt,
                dup,
            } => {
                if st.attempts.get(&token).is_some_and(|a| !a.done) {
                    st.launch_on_pool(now, token, dur_s, attempt, dup);
                } else {
                    // A duplicate finished the task while this copy was
                    // backing off; abandon the retry chain.
                    st.drop_copy(token);
                }
            }
            Ev::DupCheck { token } => st.dup_check(now, token),
            Ev::Second => {
                st.poll_fleet(now);
                st.shuffle_fleet.poll(now);
                history.push(st.max_since_sample.max(st.running));
                st.max_since_sample = st.running;
                let shuffle_target = shuffle_prov.target_nodes(st.source.resident_bytes());
                st.shuffle_fleet.set_target(now, shuffle_target as usize);
                if telemetry.is_enabled() {
                    let t_ms = now.as_millis();
                    telemetry.sample("run.demand", t_ms, history.latest() as f64);
                    telemetry.sample("run.target", t_ms, target as f64);
                    telemetry.sample("run.active", t_ms, st.fleet.running_count() as f64);
                }
                if st.busy() {
                    st.events
                        .schedule(now + SimDuration::from_secs(1), Ev::Second);
                } else {
                    st.fleet.set_target(now, 0);
                    st.shuffle_fleet.set_target(now, 0);
                }
            }
            Ev::Tick => {
                target = strategy.target(now.as_secs(), &history, env);
                st.fleet.set_target(now, target as usize);
                st.poll_fleet(now);
                if st.busy() {
                    st.events.schedule(now + env.strategy_tick, Ev::Tick);
                }
            }
        }
        if let Some(e) = st.fatal.take() {
            return Err(e);
        }
    }

    let end = SimTime::from_secs(history.len() as u64);
    st.fleet.set_target(end, 0);
    st.fleet.finalize(end);
    st.shuffle_fleet.finalize(end);
    let vm_ledger = st.fleet.ledger();
    let pool_ledger = st.pool.ledger();
    let sh_ledger = st.shuffle_fleet.ledger();
    let store_ledger = st.source.store_ledger();
    telemetry.gauge_set("run.duration_seconds", history.len() as f64);

    let run = RunResult {
        compute: ComputeCost {
            vm_cost: vm_ledger.category(CostCategory::VmCompute),
            pool_cost: pool_ledger.category(CostCategory::ElasticPool),
            vm_seconds: vm_ledger.vm_seconds,
            pool_seconds: pool_ledger.pool_seconds,
        },
        shuffle: ShuffleCost {
            node_cost: sh_ledger.category(CostCategory::ShuffleNode),
            s3_put_cost: store_ledger.category(CostCategory::S3Put),
            s3_get_cost: store_ledger.category(CostCategory::S3Get),
            egress_cost: st.env_ledger.category(CostCategory::Egress),
            puts: store_ledger.put_requests,
            gets: store_ledger.get_requests,
        },
        latencies: st.latencies,
        timeseries: if spec.record_timeseries {
            Timeseries::from_telemetry(&telemetry)
        } else {
            None
        },
        duration_s: history.len() as u64,
        strategy: strategy.name(),
        telemetry,
    };
    Ok((run, st.source))
}

/// Run the full system over a workload under `strategy`. The spec's
/// knobs and the workload's stage graphs are validated before any event
/// is scheduled; an injected fault that exhausts its recovery bound
/// aborts the run with [`RunError::FaultUnrecovered`].
pub fn run_system(
    workload: &[QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    spec.validate()?;
    check_profiles(workload)?;
    let replay = |telemetry: &Telemetry, faults: &FaultInjector| {
        ProfileReplay::new(workload, spec, telemetry, faults)
    };
    coordinate(strategy, spec, replay).map(|(run, _)| run)
}

/// Forward to [`run_system`], kept only for the repository benchmark.
#[doc(hidden)]
pub fn try_run_system_with(
    workload: &[QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
    spec: &RunSpec,
) -> Result<RunResult, RunError> {
    run_system(workload, strategy, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::FixedStrategy;
    use cackle_faults::FaultSpec;
    use cackle_telemetry::Telemetry;
    use cackle_workload::profile::{QueryProfile, StageProfile};
    use std::sync::Arc;

    fn profile(tasks: u32, secs: u32) -> Arc<QueryProfile> {
        Arc::new(QueryProfile::new(
            "p",
            vec![
                StageProfile {
                    tasks,
                    task_seconds: secs,
                    shuffle_bytes: 32 << 20,
                    shuffle_writes: 2 * tasks as u64,
                    shuffle_reads: 0,
                    deps: vec![],
                },
                StageProfile {
                    tasks: 1,
                    task_seconds: 2,
                    shuffle_bytes: 0,
                    shuffle_writes: 0,
                    shuffle_reads: tasks as u64,
                    deps: vec![0],
                },
            ],
        ))
    }

    fn noiseless() -> RunSpec {
        RunSpec::new()
            .with_pool_slowdown(1.0)
            .with_duration_jitter(0.0)
    }

    #[test]
    fn pool_only_latency_is_critical_path_plus_invoke() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(8, 10),
        }];
        let mut s = FixedStrategy { vms: 0 };
        let r = run_system(&w, &mut s, &noiseless()).expect("valid run");
        // 10 s + 2 s + two 100 ms invoke latencies.
        assert!(
            (r.latencies[0] - 12.2).abs() < 0.01,
            "latency {}",
            r.latencies[0]
        );
        assert_eq!(r.compute.vm_seconds, 0.0);
        assert!((r.compute.pool_seconds - 82.0).abs() < 0.5);
    }

    #[test]
    fn vm_fleet_reduces_latency_once_started() {
        let w: Vec<QueryArrival> = (0..30)
            .map(|i| QueryArrival {
                at_s: i * 30,
                profile: profile(4, 10),
            })
            .collect();
        let base = RunSpec::new();
        let mut s0 = FixedStrategy { vms: 0 };
        let pool_run = run_system(&w, &mut s0, &base).expect("valid run");
        let mut s8 = FixedStrategy { vms: 8 };
        let vm_run = run_system(&w, &mut s8, &base).expect("valid run");
        // Once VMs are up (query 10 onward), latency beats the pool-only
        // run (pool tasks run 1.25× slower).
        let late_vm: f64 = vm_run.latencies[10..].iter().sum::<f64>() / 20.0;
        let late_pool: f64 = pool_run.latencies[10..].iter().sum::<f64>() / 20.0;
        assert!(late_vm < late_pool, "vm {late_vm} vs pool {late_pool}");
    }

    #[test]
    fn vms_start_after_latency_and_get_used() {
        let w: Vec<QueryArrival> = (0..50)
            .map(|i| QueryArrival {
                at_s: i * 12,
                profile: profile(4, 10),
            })
            .collect();
        let mut s = FixedStrategy { vms: 4 };
        let r = run_system(&w, &mut s, &noiseless()).expect("valid run");
        assert!(r.compute.vm_seconds > 0.0, "VMs never used");
        assert!(
            r.compute.pool_seconds > 0.0,
            "early tasks must use the pool"
        );
        // The fixed fleet stays up from ~180 s to the end.
        assert!(r.compute.vm_seconds >= 4.0 * (r.duration_s as f64 - 220.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let w: Vec<QueryArrival> = (0..20)
            .map(|i| QueryArrival {
                at_s: i * 7,
                profile: profile(3, 5),
            })
            .collect();
        let spec = RunSpec::new();
        let mut s1 = FixedStrategy { vms: 2 };
        let a = run_system(&w, &mut s1, &spec).expect("valid run");
        let mut s2 = FixedStrategy { vms: 2 };
        let b = run_system(&w, &mut s2, &spec).expect("valid run");
        assert_eq!(a.latencies, b.latencies);
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn timeseries_tracks_fleet() {
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(6, 300),
        }];
        let spec = noiseless().with_timeseries(true);
        let mut s = FixedStrategy { vms: 3 };
        let r = run_system(&w, &mut s, &spec).expect("valid run");
        let ts = r.timeseries.expect("requested");
        assert!(ts.demand.iter().take(100).any(|&d| d == 6));
        // Active VMs reach the target after the 180 s startup.
        assert_eq!(ts.active[250.min(ts.active.len() - 1)], 3);
        assert!(ts.active[..170].iter().all(|&a| a == 0));
    }

    #[test]
    fn dynamic_strategy_runs_in_the_loop() {
        use crate::meta::{FamilyConfig, MetaStrategy};
        let w: Vec<QueryArrival> = (0..120)
            .map(|i| QueryArrival {
                at_s: i * 10,
                profile: profile(4, 8),
            })
            .collect();
        let spec = RunSpec::new();
        let mut dynamic = MetaStrategy::with_family(FamilyConfig::small(), &spec.env);
        let r = run_system(&w, &mut dynamic, &spec).expect("valid run");
        assert_eq!(r.latencies.len(), 120);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
        assert!(r.total_cost() > 0.0);
        assert_eq!(r.strategy, "dynamic");
    }

    #[test]
    fn spot_interruptions_restart_tasks_on_the_pool() {
        let w: Vec<QueryArrival> = (0..40)
            .map(|i| QueryArrival {
                at_s: i * 20,
                profile: profile(4, 30),
            })
            .collect();
        // Absurdly high rate so interruptions certainly occur.
        let spec = noiseless().with_faults(FaultSpec::default().with_spot_reclaims(60.0));
        let mut s = FixedStrategy { vms: 6 };
        let interrupted = run_system(&w, &mut s, &spec).expect("valid run");
        let mut s2 = FixedStrategy { vms: 6 };
        let calm = run_system(&w, &mut s2, &noiseless()).expect("valid run");
        // Every query still completes...
        assert_eq!(interrupted.latencies.len(), 40);
        assert!(interrupted.latencies.iter().all(|&l| l > 0.0));
        // ...but restarts push work to the pool and stretch latency.
        assert!(
            interrupted.compute.pool_seconds > calm.compute.pool_seconds,
            "restarts must hit the pool"
        );
        assert!(
            interrupted.mean_latency() > calm.mean_latency(),
            "interruptions should cost latency: {} vs {}",
            interrupted.mean_latency(),
            calm.mean_latency()
        );
    }

    #[test]
    fn shuffle_overflow_hits_s3_before_nodes_start() {
        // Heavy intermediate state right at workload start: nodes are still
        // provisioning, so writes overflow to the object store.
        let big = Arc::new(QueryProfile::new(
            "big",
            vec![StageProfile {
                tasks: 4,
                task_seconds: 5,
                shuffle_bytes: 64 << 30,
                shuffle_writes: 100,
                shuffle_reads: 0,
                deps: vec![],
            }],
        ));
        let w = vec![QueryArrival {
            at_s: 0,
            profile: big,
        }];
        let mut s = FixedStrategy { vms: 0 };
        let r = run_system(&w, &mut s, &noiseless()).expect("valid run");
        assert!(r.shuffle.puts > 0, "expected S3 fallback puts");
    }

    #[test]
    fn runners_reject_malformed_workloads() {
        use crate::delaying::run_delaying;
        use crate::live::{run_live, LiveQuery};
        use crate::model::run_model;
        use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
        use cackle_tpch::plans::{self, Par};

        // Build profiles directly (QueryProfile::new would assert first) —
        // these model corrupt profiles arriving from outside the crate.
        let case = |stages: Vec<StageProfile>| {
            vec![QueryArrival {
                at_s: 0,
                profile: Arc::new(QueryProfile {
                    name: "bad".to_string(),
                    stages,
                }),
            }]
        };
        let stage = |tasks: u32, task_seconds: u32, deps: Vec<usize>| StageProfile {
            tasks,
            task_seconds,
            shuffle_bytes: 1 << 20,
            shuffle_writes: 1,
            shuffle_reads: 0,
            deps,
        };
        let profile_cases = [
            ("empty", case(vec![])),
            ("dangling", case(vec![stage(1, 1, vec![5])])),
            (
                "cyclic",
                case(vec![stage(1, 1, vec![1]), stage(1, 1, vec![0])]),
            ),
            ("taskless", case(vec![stage(0, 1, vec![])])),
            ("zero-duration", case(vec![stage(1, 0, vec![])])),
        ];
        let spec = noiseless();
        let mut s = FixedStrategy { vms: 0 };
        for (name, w) in &profile_cases {
            let outcomes = [
                ("model", run_model(w, &mut s, &spec)),
                ("system", run_system(w, &mut s, &spec)),
                ("delaying", run_delaying(w, 2, &spec)),
            ];
            for (runner, out) in outcomes {
                assert!(
                    matches!(out, Err(RunError::InvalidWorkload(_))),
                    "{runner} accepted the {name} workload: {out:?}"
                );
            }
        }

        // The live equivalents: a valid two-stage plan, then corrupted
        // copies assembled without StageDag::new.
        let catalog = generate_catalog(&DbGenConfig {
            scale_factor: 0.002,
            rows_per_partition: 512,
            seed: 7,
        });
        let par = Par {
            fact: 2,
            mid: 2,
            join: 2,
        };
        let good = plans::plan("q06", par);
        assert_eq!(good.stages.len(), 2, "q06 is scan+aggregate then gather");
        let live = |edit: &dyn Fn(&mut Vec<cackle_engine::plan::Stage>)| {
            let mut dag = good.clone();
            edit(&mut dag.stages);
            vec![LiveQuery {
                at_s: 0,
                plan: Arc::new(dag),
            }]
        };
        let live_cases = [
            ("empty", live(&|st| st.clear())),
            ("dangling", live(&|st| drop(st.remove(0)))),
            ("cyclic", live(&|st| st.reverse())),
            ("taskless", live(&|st| st[0].tasks = 0)),
        ];
        for (name, w) in &live_cases {
            let out = run_live(w, &catalog, &mut s, &spec);
            assert!(
                matches!(out, Err(RunError::InvalidWorkload(_))),
                "live accepted the {name} workload: {out:?}"
            );
        }

        // A bad knob is caught before the workload is inspected, by every
        // runner; the valid workloads still run.
        let bad_spec = noiseless().with_duration_jitter(f64::NAN);
        let ok = case(vec![stage(1, 1, vec![])]);
        let ok_live = live(&|_| {});
        for (runner, out) in [
            ("model", run_model(&ok, &mut s, &bad_spec)),
            ("system", run_system(&ok, &mut s, &bad_spec)),
            ("delaying", run_delaying(&ok, 2, &bad_spec)),
            ("live", run_live(&ok_live, &catalog, &mut s, &bad_spec)),
        ] {
            assert!(
                matches!(out, Err(RunError::InvalidKnob { .. })),
                "{runner} accepted a NaN knob: {out:?}"
            );
        }
        assert!(run_model(&ok, &mut s, &spec).is_ok());
        assert!(run_system(&ok, &mut s, &spec).is_ok());
        assert!(run_delaying(&ok, 2, &spec).is_ok());
        assert!(run_live(&ok_live, &catalog, &mut s, &spec).is_ok());
    }

    #[test]
    fn telemetry_attribution_matches_ledgers() {
        let w: Vec<QueryArrival> = (0..10)
            .map(|i| QueryArrival {
                at_s: i * 15,
                profile: profile(4, 10),
            })
            .collect();
        let t = Telemetry::new();
        let spec = noiseless().with_telemetry(&t);
        let r = run_system(&w, &mut FixedStrategy { vms: 2 }, &spec).expect("valid run");
        // Per-component dollars in the registry equal the result's splits.
        assert!((t.cost("fleet", "vm_compute") - r.compute.vm_cost).abs() < 1e-12);
        assert!((t.cost("pool", "elastic_pool") - r.compute.pool_cost).abs() < 1e-12);
        assert!((t.cost("shuffle_fleet", "shuffle_node") - r.shuffle.node_cost).abs() < 1e-12);
        assert!((t.cost("store", "s3_put") - r.shuffle.s3_put_cost).abs() < 1e-12);
        // Query accounting and the demand series were recorded.
        assert_eq!(t.counter("run.queries_total"), 10);
        let h = t.histogram("run.query_latency_seconds").expect("histogram");
        assert_eq!(h.count, 10);
        assert_eq!(
            t.series("run.demand").map(|s| s.len() as u64),
            Some(r.duration_s)
        );
    }

    #[test]
    fn zero_rate_fault_plan_is_a_noop() {
        use cackle_faults::RecoveryPolicy;
        let w: Vec<QueryArrival> = (0..15)
            .map(|i| QueryArrival {
                at_s: i * 10,
                profile: profile(3, 8),
            })
            .collect();
        let mut a = FixedStrategy { vms: 2 };
        let plain = run_system(&w, &mut a, &RunSpec::new()).expect("valid run");
        // An explicitly attached all-zero plan (with a non-default
        // recovery policy, which must also be inert) changes nothing.
        let spec = RunSpec::new()
            .with_faults(FaultSpec::default())
            .with_recovery(RecoveryPolicy::default().with_max_retries(9));
        let mut b = FixedStrategy { vms: 2 };
        let faulted = run_system(&w, &mut b, &spec).expect("valid run");
        assert_eq!(plain.latencies, faulted.latencies);
        assert_eq!(plain.compute, faulted.compute);
        assert_eq!(plain.shuffle, faulted.shuffle);
    }

    #[test]
    fn injected_faults_recover_and_attribute_cost() {
        let w: Vec<QueryArrival> = (0..30)
            .map(|i| QueryArrival {
                at_s: i * 15,
                profile: profile(4, 20),
            })
            .collect();
        let t = Telemetry::new();
        let faults = FaultSpec::default()
            .with_spot_reclaims(20.0)
            .with_pool_invoke_failures(0.2)
            .with_pool_throttles(0.2, 400)
            .with_stragglers(0.25, 3.0)
            .with_store_errors(0.3, 0.3);
        let spec = RunSpec::new().with_faults(faults).with_telemetry(&t);
        let r = run_system(&w, &mut FixedStrategy { vms: 4 }, &spec).expect("valid run");
        // Every fault is recovered: all queries complete, nothing is
        // surfaced as unrecovered, and no panic occurred.
        assert_eq!(r.latencies.len(), 30);
        assert!(r.latencies.iter().all(|&l| l > 0.0));
        assert_eq!(t.counter("recovery.unrecovered_total"), 0);
        assert!(t.counter("fault.spot_reclaims_total") > 0);
        assert!(t.counter("fault.stragglers_total") > 0);
        assert!(t.counter("fault.pool_invoke_failures_total") > 0);
        assert!(t.counter("recovery.retries_total") > 0);
        assert!(t.counter("recovery.task_reexecs_total") > 0);
        assert!(t.counter("recovery.duplicates_launched_total") > 0);
        // Retry/duplicate/re-execution spend is attributed under the
        // recovery component in the cost registry.
        assert!(t.cost("recovery", "elastic_pool") > 0.0);
    }

    #[test]
    fn pool_invoke_exhaustion_surfaces_typed_error() {
        use cackle_faults::RecoveryPolicy;
        let w = vec![QueryArrival {
            at_s: 0,
            profile: profile(8, 10),
        }];
        let spec = noiseless()
            .with_faults(FaultSpec::default().with_pool_invoke_failures(0.95))
            .with_recovery(RecoveryPolicy::default().with_max_retries(0));
        let mut s = FixedStrategy { vms: 0 };
        let out = run_system(&w, &mut s, &spec);
        assert!(
            matches!(
                out,
                Err(RunError::FaultUnrecovered {
                    point: "pool.invoke",
                    attempts: 1
                })
            ),
            "{out:?}"
        );
    }
}
