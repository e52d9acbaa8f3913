//! Allocation-history simulation and cost calculation (§4.4.2–§4.4.3).
//!
//! Given a stream of `(target, demand)` pairs at one-second granularity and
//! the environment (VM startup latency, minimum billing, prices), predict
//! the *allocation history* — how many VMs would have been running — and
//! the exact cost split between VMs and the elastic pool. The meta-strategy
//! keeps one incremental [`AllocationSim`] per expert.
//!
//! Fleet rules mirror [`cackle_cloud::vm::VmFleet`]: pending requests are
//! free to cancel; only idle VMs terminate (idle = beyond current demand),
//! oldest first; every terminated VM bills at least the minimum time.

use crate::config::Env;
use std::collections::VecDeque;

/// Incremental fleet/cost simulator driven one second at a time.
///
/// VMs are held as run-length cohorts — `(second, count)` pairs — so a
/// request for thousands of VMs is one entry, and a span of seconds with
/// nothing to promote, request, cancel or terminate bills in a tight loop
/// (`step_span`).
#[derive(Debug, Clone)]
pub struct AllocationSim {
    startup_s: u64,
    min_billing_s: u64,
    vm_rate_per_s: f64,
    pool_rate_per_s: f64,
    /// Dollars accrued so far (supports time-varying rates; with constant
    /// rates this equals the billed-seconds × rate arithmetic exactly).
    vm_dollars: f64,
    pool_dollars: f64,
    now: u64,
    /// Running VMs as `(start second, count)` cohorts, oldest first.
    active: VecDeque<(u64, usize)>,
    /// Requested-but-not-started VMs as `(ready second, count)` cohorts,
    /// soonest first.
    pending: VecDeque<(u64, usize)>,
    /// Total VMs over the `active` cohorts.
    active_n: usize,
    /// Total VMs over the `pending` cohorts.
    pending_n: usize,
    /// Accumulated billed VM-seconds (min billing applied at termination).
    vm_billed_s: f64,
    /// Accumulated elastic-pool slot-seconds.
    pool_s: f64,
}

/// Append `count` VMs at `second` to a cohort queue, merging with the
/// newest cohort when it shares the second.
fn push_cohort(queue: &mut VecDeque<(u64, usize)>, second: u64, count: usize) {
    match queue.back_mut() {
        Some((s, n)) if *s == second => *n += count,
        _ => queue.push_back((second, count)),
    }
}

impl AllocationSim {
    /// Fresh simulator at second 0 with execution-layer VM rates.
    pub fn new(env: &Env) -> Self {
        Self::with_rates(
            env.vm_startup_s(),
            env.vm_min_billing_s(),
            env.pricing.vm_per_sec(),
            env.pricing.pool_per_sec(),
        )
    }

    /// Fresh simulator with explicit rates (the shuffle layer reuses the
    /// same fleet mechanics at shuffle-node prices).
    pub fn with_rates(
        startup_s: u64,
        min_billing_s: u64,
        vm_rate_per_s: f64,
        pool_rate_per_s: f64,
    ) -> Self {
        AllocationSim {
            startup_s,
            min_billing_s,
            vm_rate_per_s,
            pool_rate_per_s,
            now: 0,
            active: VecDeque::new(),
            pending: VecDeque::new(),
            active_n: 0,
            pending_n: 0,
            vm_billed_s: 0.0,
            pool_s: 0.0,
            vm_dollars: 0.0,
            pool_dollars: 0.0,
        }
    }

    /// Number of currently running VMs.
    pub fn active_count(&self) -> usize {
        self.active_n
    }

    /// Number of requested VMs not yet started.
    pub fn pending_count(&self) -> usize {
        self.pending_n
    }

    /// Current simulated second.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Terminate the `count` oldest running VMs.
    fn terminate_oldest(&mut self, mut count: usize) {
        self.active_n -= count;
        while count > 0 {
            let (start, n) = self
                .active
                .front_mut()
                .expect("terminate with no active VM");
            let k = count.min(*n);
            let ran = self.now - *start;
            *n -= k;
            if *n == 0 {
                self.active.pop_front();
            }
            count -= k;
            // Runtime seconds were already accrued second-by-second in
            // `step`; terminating early bills the minimum-billing shortfall
            // on top, at the rate in force at termination time — once per
            // VM, so the `f64` sums match a per-VM fleet bit for bit.
            if ran < self.min_billing_s {
                let shortfall = (self.min_billing_s - ran) as f64;
                for _ in 0..k {
                    self.vm_billed_s += shortfall;
                    // cackle-lint: allow(L11) — closed-form mirror ledger, cross-checked against CostLedger in tests
                    self.vm_dollars += shortfall * self.vm_rate_per_s;
                }
            }
        }
    }

    /// Cancel the `count` most recently requested pending VMs.
    fn cancel_newest(&mut self, mut count: usize) {
        self.pending_n -= count;
        while count > 0 {
            let (_, n) = self.pending.back_mut().expect("cancel with no pending VM");
            let k = count.min(*n);
            *n -= k;
            if *n == 0 {
                self.pending.pop_back();
            }
            count -= k;
        }
    }

    /// Update the prices in force from now on (§4.4.3: the environment's
    /// cost conditions may change mid-workload; already-accrued dollars are
    /// untouched).
    pub fn set_rates(&mut self, vm_rate_per_s: f64, pool_rate_per_s: f64) {
        self.vm_rate_per_s = vm_rate_per_s;
        self.pool_rate_per_s = pool_rate_per_s;
    }

    fn promote_ready(&mut self) {
        while let Some(&(ready, n)) = self.pending.front() {
            if ready > self.now {
                break;
            }
            self.pending.pop_front();
            self.pending_n -= n;
            push_cohort(&mut self.active, ready, n);
            self.active_n += n;
        }
    }

    /// Advance one second with the given provisioning target and demand.
    ///
    /// Order of operations within the second: pending VMs whose startup
    /// elapsed come online; the target is applied (request new / cancel
    /// pending / terminate idle); then the second of usage is billed —
    /// `min(active, demand)` VM-slots do work, the rest of `demand` runs on
    /// the pool, and every active VM bills whether busy or idle.
    pub fn step(&mut self, target: u32, demand: u32) {
        // 1. Promote pending VMs that are ready.
        self.promote_ready();
        // 2. Apply the target.
        let total = self.active_n + self.pending_n;
        let target = target as usize;
        if target > total {
            push_cohort(&mut self.pending, self.now + self.startup_s, target - total);
            self.pending_n += target - total;
        } else if target < total {
            let excess = total - target;
            // Cancel pending first (free).
            let cancel = excess.min(self.pending_n);
            self.cancel_newest(cancel);
            // Terminate idle VMs (beyond demand), oldest first.
            let busy = (demand as usize).min(self.active_n);
            let idle = self.active_n - busy;
            self.terminate_oldest((excess - cancel).min(idle));
        }
        // 2b. With zero startup latency, fresh requests are usable at once.
        if self.startup_s == 0 {
            self.promote_ready();
        }
        // 3. Bill the second at the rates currently in force.
        self.bill_second(demand);
    }

    /// Bill one second of usage at the current fleet size and advance the
    /// clock.
    fn bill_second(&mut self, demand: u32) {
        self.vm_billed_s += self.active_n as f64;
        // cackle-lint: allow(L11) — closed-form mirror ledger, cross-checked against CostLedger in tests
        self.vm_dollars += self.active_n as f64 * self.vm_rate_per_s;
        let overflow = (demand as usize).saturating_sub(self.active_n);
        self.pool_s += overflow as f64;
        // cackle-lint: allow(L11) — closed-form mirror ledger, cross-checked against CostLedger in tests
        self.pool_dollars += overflow as f64 * self.pool_rate_per_s;
        self.now += 1;
    }

    /// Advance one second per entry of `demands`, all at `target`: the
    /// same result, bit for bit, as calling [`step`](Self::step) for each.
    ///
    /// A second is *settled* when the fleet already matches the target
    /// (`active + pending == target`) and no pending cohort becomes ready:
    /// `step` would then only bill it, so a run of settled seconds bills in
    /// a tight loop and only the others take the general path.
    pub(crate) fn step_span(&mut self, target: u32, demands: &[u32]) {
        let mut rest = demands;
        while let Some((&demand, tail)) = rest.split_first() {
            let settled = if self.active_n + self.pending_n == target as usize {
                let next_ready = self.pending.front().map_or(u64::MAX, |&(ready, _)| ready);
                next_ready.saturating_sub(self.now).min(rest.len() as u64) as usize
            } else {
                0
            };
            if settled == 0 {
                self.step(target, demand);
                rest = tail;
            } else {
                let (span, tail) = rest.split_at(settled);
                for &demand in span {
                    self.bill_second(demand);
                }
                rest = tail;
            }
        }
    }

    /// Billed VM-seconds so far (not counting min-billing remainders of
    /// still-running VMs).
    pub fn vm_billed_seconds(&self) -> f64 {
        self.vm_billed_s
    }

    /// Elastic-pool slot-seconds so far.
    pub fn pool_seconds(&self) -> f64 {
        self.pool_s
    }

    /// Total accrued cost so far in dollars (running VMs billed for elapsed
    /// runtime; min-billing remainders land at termination).
    pub fn cost(&self) -> f64 {
        self.vm_dollars + self.pool_dollars
    }

    /// Dollars accrued on VMs.
    pub fn vm_dollars(&self) -> f64 {
        self.vm_dollars
    }

    /// Dollars accrued on the pool.
    pub fn pool_dollars(&self) -> f64 {
        self.pool_dollars
    }

    /// Terminate everything and return the final cost.
    pub fn finalize(&mut self) -> f64 {
        self.pending.clear();
        self.pending_n = 0;
        self.terminate_oldest(self.active_n);
        self.cost()
    }
}

/// Predict the cost of serving `demand` with a fixed per-second `targets`
/// stream (both same length) under `env` — the §4.4.3 cost calculation as
/// a one-shot function.
pub fn cost_of_target_history(targets: &[u32], demand: &[u32], env: &Env) -> f64 {
    assert_eq!(targets.len(), demand.len());
    let mut sim = AllocationSim::new(env);
    for (&t, &d) in targets.iter().zip(demand) {
        sim.step(t, d);
    }
    sim.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cackle_cloud::SimDuration;

    fn env() -> Env {
        Env::default()
    }

    /// Env with zero startup for arithmetic-friendly tests.
    fn instant_env() -> Env {
        let mut e = Env::default();
        e.pricing.vm_startup = SimDuration::ZERO;
        e
    }

    #[test]
    fn all_pool_when_target_zero() {
        let e = env();
        let demand = vec![10u32; 100];
        let cost = cost_of_target_history(&vec![0; 100], &demand, &e);
        let expected = 10.0 * 100.0 * e.pricing.pool_per_sec();
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn startup_latency_delays_vms() {
        let e = env(); // 180 s startup
        let mut sim = AllocationSim::new(&e);
        for _ in 0..180 {
            sim.step(5, 5);
            assert_eq!(sim.active_count(), 0, "VMs can't start before 180 s");
        }
        sim.step(5, 5);
        assert_eq!(sim.active_count(), 5);
        // First 180 s of demand ran on the pool (and second 181 on VMs).
        assert!((sim.pool_seconds() - 5.0 * 180.0).abs() < 1e-9);
    }

    #[test]
    fn min_billing_on_fast_terminate() {
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        sim.step(1, 0); // VM appears (instant startup) and idles
        sim.step(0, 0); // terminated after ~1 s: bills 60 s anyway
        let cost = sim.finalize();
        // 1 s accrued while active + 59 s min-billing remainder... the sim
        // bills max(runtime, 60) at terminate plus per-second accrual; the
        // exact invariant we care about: at least a full minute was billed.
        assert!(cost >= 60.0 * e.pricing.vm_per_sec() - 1e-9, "cost {cost}");
    }

    #[test]
    fn busy_vms_not_terminated() {
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        sim.step(4, 4);
        assert_eq!(sim.active_count(), 4);
        // Target drops to 0 but demand keeps all 4 busy: nothing terminates.
        sim.step(0, 4);
        assert_eq!(sim.active_count(), 4);
        // Demand drops to 1: three idle VMs terminate.
        sim.step(0, 1);
        assert_eq!(sim.active_count(), 1);
    }

    #[test]
    fn cancelling_pending_is_free() {
        let e = env();
        let mut sim = AllocationSim::new(&e);
        sim.step(50, 0);
        assert_eq!(sim.pending_count(), 50);
        sim.step(0, 0);
        assert_eq!(sim.pending_count(), 0);
        assert_eq!(sim.finalize(), 0.0);
    }

    #[test]
    fn perfect_provisioning_cheaper_than_pool_only() {
        // Flat demand: provisioning VMs beats the 6x pool.
        let e = instant_env();
        let demand = vec![20u32; 3600];
        let provisioned = cost_of_target_history(&vec![20; 3600], &demand, &e);
        let pool_only = cost_of_target_history(&vec![0; 3600], &demand, &e);
        assert!(
            provisioned < pool_only / 5.0,
            "{provisioned} vs {pool_only}"
        );
    }

    /// Demand exceeding `active.len()` mid-startup: pending VMs do no
    /// work, so the whole demand overflows to the pool until startup
    /// elapses — and each overflow second is charged exactly once.
    /// Every quantity is hand-computed and cross-checked against a
    /// [`CostLedger`] charged with the same arithmetic.
    #[test]
    fn mid_startup_overflow_charged_to_pool_exactly_once() {
        use cackle_cloud::ledger::{CostCategory, CostLedger};
        let vm_rate = 0.01;
        let pool_rate = 0.06;
        let mut sim = AllocationSim::with_rates(3, 5, vm_rate, pool_rate);
        // t=0..=2: 2 VMs requested (ready at t=3), demand 4 all on pool.
        for t in 0..3 {
            sim.step(2, 4);
            assert_eq!(sim.active_count(), 0, "mid-startup at t={t}");
            assert_eq!(sim.pending_count(), 2);
        }
        // t=3: both come online; 2 slots on VMs, overflow 2 on pool.
        sim.step(2, 4);
        assert_eq!(sim.active_count(), 2);
        // t=4: demand 1 < active 2 — saturating overflow is 0, not huge.
        sim.step(2, 1);
        // t=5: target 0, demand 0 — both idle VMs terminate after running
        // 2 s each, billing the 3 s min-billing shortfall apiece.
        sim.step(0, 0);
        assert_eq!(sim.active_count(), 0);
        let cost = sim.finalize();

        // Hand-computed: pool = 4+4+4+2+0+0 = 14 slot-seconds;
        // VM = 2 (t=3) + 2 (t=4) + 2×3 shortfall = 10 billed seconds.
        assert!((sim.pool_seconds() - 14.0).abs() < 1e-12);
        assert!((sim.vm_billed_seconds() - 10.0).abs() < 1e-12);
        let mut ledger = CostLedger::new();
        ledger.charge(CostCategory::VmCompute, 10.0 * vm_rate);
        ledger.charge(CostCategory::ElasticPool, 14.0 * pool_rate);
        assert!((sim.vm_dollars() - ledger.category(CostCategory::VmCompute)).abs() < 1e-12);
        assert!((sim.pool_dollars() - ledger.category(CostCategory::ElasticPool)).abs() < 1e-12);
        assert!((cost - ledger.total()).abs() < 1e-12);
    }

    /// The `demand as usize` cast and pool accrual hold at the extreme of
    /// the domain: one second of `u32::MAX` demand with no VMs lands on
    /// the pool exactly once.
    #[test]
    fn extreme_demand_accrues_pool_seconds_exactly_once() {
        let mut sim = AllocationSim::with_rates(0, 60, 0.01, 0.06);
        sim.step(0, u32::MAX);
        assert!((sim.pool_seconds() - u32::MAX as f64).abs() < 1e-3);
        assert_eq!(sim.vm_billed_seconds(), 0.0);
        sim.step(0, 0);
        assert!(
            (sim.pool_seconds() - u32::MAX as f64).abs() < 1e-3,
            "no re-charge"
        );
    }

    #[test]
    fn double_billing_never_happens() {
        // Billed VM seconds + pool seconds ≈ max(demand, active) integral.
        let e = instant_env();
        let mut sim = AllocationSim::new(&e);
        let demand = [3u32, 8, 2, 9, 0, 4];
        for &d in &demand {
            sim.step(4, d);
        }
        // Active stays 4 (instant startup, idle terminations only when
        // target < active — target is constant 4).
        // pool = sum(max(0, d-4)) = 4 + 5 = 9.
        assert!((sim.pool_seconds() - 9.0).abs() < 1e-9);
        assert!((sim.vm_billed_seconds() - 4.0 * 6.0).abs() < 1e-9);
    }

    /// The per-VM fleet the cohorts replaced: one `VecDeque` entry per
    /// VM. Kept as the reference the cohort sim must match bit for bit.
    struct PerVmSim {
        startup_s: u64,
        min_billing_s: u64,
        vm_rate_per_s: f64,
        pool_rate_per_s: f64,
        vm_dollars: f64,
        pool_dollars: f64,
        now: u64,
        active: VecDeque<u64>,
        pending: VecDeque<u64>,
        vm_billed_s: f64,
        pool_s: f64,
    }

    impl PerVmSim {
        fn new(startup_s: u64, min_billing_s: u64, vm_rate: f64, pool_rate: f64) -> Self {
            PerVmSim {
                startup_s,
                min_billing_s,
                vm_rate_per_s: vm_rate,
                pool_rate_per_s: pool_rate,
                vm_dollars: 0.0,
                pool_dollars: 0.0,
                now: 0,
                active: VecDeque::new(),
                pending: VecDeque::new(),
                vm_billed_s: 0.0,
                pool_s: 0.0,
            }
        }

        fn terminate_oldest(&mut self) {
            let start = self.active.pop_front().unwrap();
            let ran = self.now - start;
            if ran < self.min_billing_s {
                let shortfall = (self.min_billing_s - ran) as f64;
                self.vm_billed_s += shortfall;
                self.vm_dollars += shortfall * self.vm_rate_per_s;
            }
        }

        fn promote_ready(&mut self) {
            while let Some(&ready) = self.pending.front() {
                if ready > self.now {
                    break;
                }
                self.pending.pop_front();
                self.active.push_back(ready);
            }
        }

        fn step(&mut self, target: u32, demand: u32) {
            self.promote_ready();
            let total = self.active.len() + self.pending.len();
            let target = target as usize;
            if target > total {
                for _ in 0..target - total {
                    self.pending.push_back(self.now + self.startup_s);
                }
            } else if target < total {
                let mut excess = total - target;
                while excess > 0 && !self.pending.is_empty() {
                    self.pending.pop_back();
                    excess -= 1;
                }
                let busy = (demand as usize).min(self.active.len());
                let idle = self.active.len() - busy;
                for _ in 0..excess.min(idle) {
                    self.terminate_oldest();
                }
            }
            if self.startup_s == 0 {
                self.promote_ready();
            }
            self.vm_billed_s += self.active.len() as f64;
            self.vm_dollars += self.active.len() as f64 * self.vm_rate_per_s;
            let overflow = (demand as usize).saturating_sub(self.active.len());
            self.pool_s += overflow as f64;
            self.pool_dollars += overflow as f64 * self.pool_rate_per_s;
            self.now += 1;
        }

        fn finalize(&mut self) {
            self.pending.clear();
            while !self.active.is_empty() {
                self.terminate_oldest();
            }
        }
    }

    fn assert_same(sim: &AllocationSim, reference: &PerVmSim, ctx: &str) {
        assert_eq!(
            sim.vm_dollars().to_bits(),
            reference.vm_dollars.to_bits(),
            "vm $ {ctx}"
        );
        assert_eq!(
            sim.pool_dollars().to_bits(),
            reference.pool_dollars.to_bits(),
            "pool $ {ctx}"
        );
        assert_eq!(
            sim.vm_billed_seconds().to_bits(),
            reference.vm_billed_s.to_bits(),
            "vm s {ctx}"
        );
        assert_eq!(
            sim.pool_seconds().to_bits(),
            reference.pool_s.to_bits(),
            "pool s {ctx}"
        );
        assert_eq!(sim.active_count(), reference.active.len(), "active {ctx}");
        assert_eq!(
            sim.pending_count(),
            reference.pending.len(),
            "pending {ctx}"
        );
        assert_eq!(sim.now(), reference.now, "now {ctx}");
    }

    /// Differential sweep: the cohort sim matches the per-VM reference bit
    /// for bit after every second and after `finalize`, across startup
    /// latencies, minimum billings, a mid-stream price change and targets
    /// up to 50k; and `step_span` matches stepping each second in turn.
    #[test]
    fn differential_cohort_sim_vs_per_vm_reference() {
        use cackle_prng::Pcg32;
        let mut rng = Pcg32::seed_from_u64(0xC0_4047);
        for startup in [0u64, 3, 180] {
            for min_billing in [1u64, 5, 60] {
                for peak in [8u32, 400, 50_000] {
                    let ctx = format!("startup {startup} min {min_billing} peak {peak}");
                    let (vm_rate, pool_rate) = (0.0123, 0.0789);
                    let mut sim =
                        AllocationSim::with_rates(startup, min_billing, vm_rate, pool_rate);
                    let mut spanned = sim.clone();
                    let mut reference = PerVmSim::new(startup, min_billing, vm_rate, pool_rate);
                    let seconds = 400;
                    let mut second = 0;
                    while second < seconds {
                        if second == seconds / 2 {
                            sim.set_rates(0.031, 0.17);
                            spanned.set_rates(0.031, 0.17);
                            reference.vm_rate_per_s = 0.031;
                            reference.pool_rate_per_s = 0.17;
                        }
                        // A tick: one target held over a run of seconds —
                        // sometimes long enough to span a whole startup —
                        // with demand jittering around it so idle
                        // terminations are partial.
                        let target = rng.gen_range(0..peak + 1);
                        let max_len = if rng.gen_range(0..4u32) == 0 { 200 } else { 12 };
                        let len = rng.gen_range(1..max_len).min(seconds - second);
                        let demands: Vec<u32> = (0..len)
                            .map(|_| rng.gen_range(0..peak + peak / 2 + 1))
                            .collect();
                        for &d in &demands {
                            sim.step(target, d);
                            reference.step(target, d);
                            assert_same(&sim, &reference, &format!("{ctx} t {}", reference.now));
                        }
                        spanned.step_span(target, &demands);
                        assert_same(
                            &spanned,
                            &reference,
                            &format!("span {ctx} t {}", reference.now),
                        );
                        second += len;
                    }
                    sim.finalize();
                    spanned.finalize();
                    reference.finalize();
                    assert_same(&sim, &reference, &format!("finalize {ctx}"));
                    assert_same(&spanned, &reference, &format!("span finalize {ctx}"));
                }
            }
        }
    }
}
