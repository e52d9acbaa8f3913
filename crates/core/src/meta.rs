//! The dynamic cost-based meta-strategy (§4.4).
//!
//! Multiplicative weights over a family of percentile experts. Every tick
//! (5 s):
//!
//! 1. each expert's incremental [`AllocationSim`] is advanced over the new
//!    history seconds using the target it chose last tick — this maintains
//!    that expert's predicted *allocation history* and running cost. The
//!    sims advance expert by expert, each over the whole span at its fixed
//!    target, so seconds where the expert's fleet already matches its
//!    target only bill; the shared percentile windows then take the span;
//! 2. each expert produces a new target (its percentile over its lookback
//!    window, times its multiplier) from shared per-lookback
//!    [`SlidingQuantile`] windows kept sorted (one index read per expert,
//!    no per-expert sorting; unit-multiplier experts skip the float
//!    multiply);
//! 3. expert weights are multiplied by `1 − ε·ĉ`, where `ĉ` is the
//!    expert's interval cost normalized to the worst expert's;
//! 4. an expert is drawn from the weight distribution and its target
//!    becomes the fleet target.
//!
//! Multiplicative weights guarantees expected cost within an additive
//! `ρ·ln(n)/ε` of the best expert in hindsight (Arora, Hazan, Kale 2012).

use crate::allocsim::AllocationSim;
use crate::config::Env;
use crate::history::{SlidingQuantile, WorkloadHistory};
use crate::strategy::ProvisioningStrategy;
use cackle_prng::Pcg32;
use cackle_telemetry::Telemetry;

/// One member of the strategy family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expert {
    /// Index into the shared lookback list.
    pub lookback_idx: usize,
    /// Percentile (1–100) over the lookback window.
    pub percentile: u8,
    /// Multiplier on the percentile.
    pub multiplier: f64,
}

/// Configuration of the expert family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyConfig {
    /// Lookback windows in seconds.
    pub lookbacks: Vec<usize>,
    /// Percentiles included at multiplier 1.0.
    pub unit_percentiles: Vec<u8>,
    /// Multipliers attached to the 80th percentile (provisioning *above*
    /// anything seen, §4.4.5's requirement for growing workloads).
    pub p80_multipliers: Vec<f64>,
    /// Multiplicative-weights learning rate (ε ≤ 1/2).
    pub epsilon: f64,
    /// RNG seed for expert sampling.
    pub seed: u64,
}

impl Default for FamilyConfig {
    /// The paper's family: percentiles 1–100 at ×1.0 plus p80 at ×1.1–×20,
    /// each over lookbacks from 10 s to an hour — several hundred experts.
    fn default() -> Self {
        FamilyConfig {
            lookbacks: vec![10, 30, 60, 300, 900, 1800, 3600],
            unit_percentiles: (1..=100).collect(),
            p80_multipliers: vec![
                1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
                10.0, 15.0, 20.0,
            ],
            epsilon: 0.25,
            seed: 17,
        }
    }
}

impl FamilyConfig {
    /// A reduced family for fast tests.
    pub fn small() -> Self {
        FamilyConfig {
            lookbacks: vec![30, 300],
            unit_percentiles: vec![10, 50, 80, 95, 100],
            p80_multipliers: vec![1.5, 3.0],
            epsilon: 0.2,
            seed: 17,
        }
    }

    fn experts(&self) -> Vec<Expert> {
        let mut out = Vec::new();
        for li in 0..self.lookbacks.len() {
            for &p in &self.unit_percentiles {
                out.push(Expert {
                    lookback_idx: li,
                    percentile: p,
                    multiplier: 1.0,
                });
            }
            for &m in &self.p80_multipliers {
                out.push(Expert {
                    lookback_idx: li,
                    percentile: 80,
                    multiplier: m,
                });
            }
        }
        out
    }
}

/// The §4.4 meta-strategy.
pub struct MetaStrategy {
    lookbacks: Vec<usize>,
    experts: Vec<Expert>,
    sims: Vec<AllocationSim>,
    weights: Vec<f64>,
    last_costs: Vec<f64>,
    /// Each expert's cost over the last tick, reused across ticks.
    interval: Vec<f64>,
    expert_targets: Vec<u32>,
    quantiles: Vec<SlidingQuantile>,
    epsilon: f64,
    rng: Pcg32,
    fed: u64,
    current: usize,
    ticks: u64,
    switches: u64,
    telemetry: Telemetry,
}

impl MetaStrategy {
    /// Build with the paper's default family.
    pub fn new(env: &Env) -> Self {
        Self::with_family(FamilyConfig::default(), env)
    }

    /// Build with a custom family.
    pub fn with_family(cfg: FamilyConfig, env: &Env) -> Self {
        assert!(
            cfg.epsilon > 0.0 && cfg.epsilon <= 0.5,
            "ε must be in (0, 1/2]"
        );
        let experts = cfg.experts();
        let n = experts.len();
        assert!(n >= 2, "family needs at least two experts");
        MetaStrategy {
            quantiles: cfg
                .lookbacks
                .iter()
                .map(|&l| SlidingQuantile::new(l))
                .collect(),
            lookbacks: cfg.lookbacks,
            sims: (0..n).map(|_| AllocationSim::new(env)).collect(),
            weights: vec![1.0; n],
            last_costs: vec![0.0; n],
            interval: vec![0.0; n],
            expert_targets: vec![0; n],
            experts,
            epsilon: cfg.epsilon,
            rng: Pcg32::seed_from_u64(cfg.seed),
            fed: 0,
            current: 0,
            ticks: 0,
            switches: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Number of experts in the family.
    pub fn family_size(&self) -> usize {
        self.experts.len()
    }

    /// The lookback windows (seconds) shared by the family.
    pub fn lookbacks(&self) -> &[usize] {
        &self.lookbacks
    }

    /// The currently selected expert.
    pub fn current_expert(&self) -> Expert {
        self.experts[self.current]
    }

    /// How many times the selection changed between ticks.
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Prime the meta-strategy with an expected workload (§4.4.6's
    /// cold-start mitigation, suggested but not implemented in the paper):
    /// the samples are fed into the percentile windows as if they had been
    /// observed, so the first real ticks already choose sensible targets —
    /// without billing any simulated cost against the experts.
    pub fn prime(&mut self, expected_demand: &[u32]) {
        assert_eq!(self.ticks, 0, "prime before the first tick");
        for &d in expected_demand {
            for q in &mut self.quantiles {
                q.push(d);
            }
        }
        self.recompute_targets();
    }

    /// The highest-weight expert (where the distribution is converging).
    pub fn best_expert(&self) -> Expert {
        let best = self
            .weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(i, _)| i)
            .expect("non-empty family");
        self.experts[best]
    }

    fn advance_sims(&mut self, history: &WorkloadHistory) {
        let new = history.samples().get(self.fed as usize..).unwrap_or(&[]);
        // Expert-major: the sims are independent, so each runs its whole
        // span at its fixed target before the next starts.
        for (sim, &target) in self.sims.iter_mut().zip(&self.expert_targets) {
            sim.step_span(target, new);
        }
        for &demand in new {
            for q in &mut self.quantiles {
                q.push(demand);
            }
        }
        self.fed += new.len() as u64;
    }

    fn recompute_targets(&mut self) {
        for (e, target) in self.experts.iter().zip(&mut self.expert_targets) {
            let p = self.quantiles[e.lookback_idx].percentile(e.percentile);
            // `(p as f64 * 1.0).round() as u32 == p` for every `u32`, so
            // unit experts skip the float round trip.
            *target = if e.multiplier == 1.0 {
                p
            } else {
                (p as f64 * e.multiplier).round() as u32
            };
        }
    }

    fn update_weights(&mut self) {
        // Interval cost per expert since the previous tick.
        let mut max_cost = f64::MIN;
        let mut min_cost = f64::MAX;
        for ((sim, last), interval) in self
            .sims
            .iter()
            .zip(&mut self.last_costs)
            .zip(&mut self.interval)
        {
            let c = sim.cost();
            *interval = c - *last;
            *last = c;
            max_cost = max_cost.max(*interval);
            min_cost = min_cost.min(*interval);
        }
        if max_cost <= min_cost {
            return; // indistinguishable interval: no information
        }
        // Normalize to [0, 1] over the interval's observed range; min–max
        // scaling keeps discrimination sharp even when one runaway expert
        // would otherwise compress everyone else's penalty toward zero.
        let range = max_cost - min_cost;
        for (w, cost) in self.weights.iter_mut().zip(&self.interval) {
            *w *= 1.0 - self.epsilon * ((cost - min_cost) / range);
        }
        // Guard against global underflow.
        let max_w = self.weights.iter().cloned().fold(0.0f64, f64::max);
        if max_w < 1e-100 {
            for w in &mut self.weights {
                *w = (*w / max_w).max(1e-12);
            }
        }
    }

    fn sample_expert(&mut self) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut draw = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (i, w) in self.weights.iter().enumerate() {
            if draw < *w {
                return i;
            }
            draw -= w;
        }
        self.weights.len() - 1
    }
}

impl ProvisioningStrategy for MetaStrategy {
    fn name(&self) -> String {
        "dynamic".to_string()
    }

    fn on_rates_changed(&mut self, vm_per_sec: f64, pool_per_sec: f64) {
        // Every expert's accruals continue at the new prices, so the next
        // weight updates rank the family under the new conditions.
        for sim in &mut self.sims {
            sim.set_rates(vm_per_sec, pool_per_sec);
        }
    }

    fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    fn target(&mut self, now: u64, history: &WorkloadHistory, _env: &Env) -> u32 {
        // 1. Advance every expert's allocation history over the new seconds.
        self.advance_sims(history);
        // 2. Refresh expert targets from the shared quantile windows.
        self.recompute_targets();
        // 3. Multiplicative-weights update from interval costs.
        self.update_weights();
        // 4. Sample the expert to follow until the next tick.
        let choice = self.sample_expert();
        if choice != self.current && self.ticks > 0 {
            self.switches += 1;
            self.telemetry.counter_add("meta.switches_total", 1);
        }
        self.current = choice;
        self.ticks += 1;
        let target = self.expert_targets[choice];
        if self.telemetry.is_enabled() {
            let t_ms = now.saturating_mul(1000);
            let e = self.experts[choice];
            self.telemetry.counter_add("meta.ticks_total", 1);
            self.telemetry
                .sample("meta.chosen_target", t_ms, target as f64);
            self.telemetry
                .sample("meta.expert_percentile", t_ms, e.percentile as f64);
            self.telemetry
                .sample("meta.expert_multiplier", t_ms, e.multiplier);
        }
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::default()
    }

    #[test]
    fn family_size_matches_paper_scale() {
        let m = MetaStrategy::new(&env());
        // (100 unit percentiles + 19 p80 multipliers) × 7 lookbacks.
        assert_eq!(m.family_size(), 119 * 7);
        assert!(m.family_size() > 500, "several hundred strategies (§4.4.5)");
    }

    #[test]
    fn converges_to_sensible_target_on_flat_demand() {
        let e = env();
        let mut m = MetaStrategy::with_family(FamilyConfig::small(), &e);
        let mut h = WorkloadHistory::new();
        let mut last_target = 0;
        for s in 0..3000u64 {
            h.push(50);
            if s % 5 == 4 {
                last_target = m.target(s, &h, &e);
            }
        }
        // On flat demand of 50, every percentile is 50; targets are 50×mult.
        assert!(
            (50..=150).contains(&last_target),
            "flat-demand target {last_target}"
        );
        // And the weights should have stopped favouring high multipliers:
        // the best expert provisions close to demand.
        let best = m.best_expert();
        let best_target = (50.0 * best.multiplier).round() as u32;
        assert!(best_target <= 75, "best expert target {best_target}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let e = env();
        let run = || {
            let mut m = MetaStrategy::with_family(FamilyConfig::small(), &e);
            let mut h = WorkloadHistory::new();
            let mut out = Vec::new();
            for s in 0..500u64 {
                h.push((s % 40) as u32);
                if s % 5 == 0 {
                    out.push(m.target(s, &h, &e));
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bad_experts_lose_weight() {
        // Demand is constant 10. A family of {p100×1.0, p80×20} over one
        // lookback: the ×20 expert provisions 200 VMs and must lose.
        let e = env();
        let cfg = FamilyConfig {
            lookbacks: vec![60],
            unit_percentiles: vec![100],
            p80_multipliers: vec![20.0],
            epsilon: 0.5,
            seed: 3,
        };
        let mut m = MetaStrategy::with_family(cfg, &e);
        let mut h = WorkloadHistory::new();
        for s in 0..2000u64 {
            h.push(10);
            if s % 5 == 0 {
                m.target(s, &h, &e);
            }
        }
        assert_eq!(m.best_expert().multiplier, 1.0);
        // The over-provisioner's weight collapsed.
        assert!(
            m.weights[1] < m.weights[0] * 1e-3,
            "weights {:?}",
            m.weights
        );
    }

    #[test]
    fn priming_skips_cold_start_fluctuation() {
        // Flat demand of 40. Unprimed, the first tick has an empty window
        // and targets 0; primed with the expected level, the first tick
        // already provisions near demand.
        let e = env();
        let mut h = WorkloadHistory::new();
        h.push(40);
        let mut cold = MetaStrategy::with_family(FamilyConfig::small(), &e);
        let cold_first = cold.target(0, &h, &e);
        let mut primed = MetaStrategy::with_family(FamilyConfig::small(), &e);
        primed.prime(&vec![40; 600]);
        let primed_first = primed.target(0, &h, &e);
        assert!(cold_first <= 40, "cold start can't know the level");
        assert!(
            (40..=120).contains(&primed_first),
            "primed first target {primed_first}"
        );
    }

    #[test]
    #[should_panic(expected = "prime before the first tick")]
    fn priming_after_start_rejected() {
        let e = env();
        let mut m = MetaStrategy::with_family(FamilyConfig::small(), &e);
        let mut h = WorkloadHistory::new();
        h.push(1);
        m.target(0, &h, &e);
        m.prime(&[1, 2, 3]);
    }

    #[test]
    fn telemetry_records_expert_choices() {
        let e = env();
        let t = Telemetry::new();
        let mut m = MetaStrategy::with_family(FamilyConfig::small(), &e);
        m.set_telemetry(&t);
        let mut h = WorkloadHistory::new();
        for s in 0..200u64 {
            h.push(20);
            if s % 5 == 0 {
                m.target(s, &h, &e);
            }
        }
        assert_eq!(t.counter("meta.ticks_total"), 40);
        assert_eq!(t.series("meta.chosen_target").unwrap().len(), 40);
        assert_eq!(t.counter("meta.switches_total"), m.switch_count());
    }

    #[test]
    #[should_panic(expected = "ε must be")]
    fn epsilon_bounds_enforced() {
        let cfg = FamilyConfig {
            epsilon: 0.9,
            ..FamilyConfig::small()
        };
        MetaStrategy::with_family(cfg, &env());
    }

    /// `dynamic`'s exact output on two fig10 trace prefixes, pinned bit
    /// for bit. The expert sims and weight updates accumulate `f64`s, so
    /// any change that reorders those sums (batched billing, sharded sims)
    /// fails here rather than drifting silently.
    #[test]
    fn dynamic_output_is_pinned_on_trace_prefixes() {
        use crate::model::simulate_compute;
        use crate::spec::RunSpec;
        use cackle_workload::traces::{alibaba_trace, startup_trace};
        let cases = [
            // Startup ×20, first 6 h.
            (
                startup_trace(1).scale(20.0).samples[..6 * 3600].to_vec(),
                (0x3fe7111111111052u64, 0x4022cdd2f1a9fbfbu64),
                (86_500.0, 188_040.0),
                3_332,
                10_122_833,
            ),
            // Alibaba ×100, first 2 h: peak demand 11,000, so requests of
            // thousands of VMs exercise the run-length cohorts.
            (
                alibaba_trace(1).scale(100.0).samples[..2 * 3600].to_vec(),
                (0x40827a1111110f3e, 0x40681fae147adfd8),
                (70_951_000.0, 3_859_800.0),
                1_440,
                784_248_333,
            ),
        ];
        for (demand, (vm_bits, pool_bits), (vm_s, pool_s), switches, micros) in cases {
            let spec = RunSpec::default();
            let mut m = MetaStrategy::new(&spec.env);
            let r = simulate_compute(&demand, &mut m, &spec);
            assert_eq!(r.compute.vm_cost.to_bits(), vm_bits, "vm_cost");
            assert_eq!(r.compute.pool_cost.to_bits(), pool_bits, "pool_cost");
            assert_eq!(r.compute.vm_seconds, vm_s, "vm_seconds");
            assert_eq!(r.compute.pool_seconds, pool_s, "pool_seconds");
            assert_eq!(m.switch_count(), switches, "switches");
            assert_eq!(r.total_cost_micros(), micros, "total_cost_micros");
        }
    }
}
