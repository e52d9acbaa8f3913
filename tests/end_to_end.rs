//! Cross-crate integration tests: the full pipeline from TPC-H data
//! generation through plan execution, profiling, workload generation,
//! provisioning strategies, the analytical model, the full system, and the
//! comparators — the paper's claims checked end-to-end at test scale.

use cackle::model::{build_workload, run_model, workload_curves};
use cackle::oracle::{oracle_cost, oracle_cost_without_pool};
use cackle::system::run_system;
use cackle::{
    make_strategy, Env, FamilyConfig, MetaStrategy, ProvisioningStrategy, RunError, RunSpec,
};
use cackle_comparators::{run_databricks, DatabricksConfig, WarehouseSize};
use cackle_tpch::dbgen::{generate_catalog, DbGenConfig};
use cackle_tpch::profiles::{measured_profile, profile_set};
use cackle_workload::arrivals::WorkloadSpec;
use cackle_workload::profile::ProfileRef;

fn small_dynamic(env: &Env) -> MetaStrategy {
    MetaStrategy::with_family(FamilyConfig::small(), env)
}

fn mix() -> Vec<ProfileRef> {
    profile_set(10.0)
}

fn workload(n: usize, seed: u64) -> Vec<cackle::QueryArrival> {
    build_workload(&WorkloadSpec::hour_long(n, seed), &mix())
}

/// Compute-layer model cost of `w` under `strategy`.
fn model_cost(
    w: &[cackle::QueryArrival],
    strategy: &mut dyn ProvisioningStrategy,
) -> Result<f64, RunError> {
    let spec = RunSpec::new().with_compute_only(true);
    Ok(run_model(w, strategy, &spec)?.compute.total())
}

/// [`model_cost`] under a paper label's strategy.
fn label_cost(w: &[cackle::QueryArrival], label: &str) -> Result<f64, RunError> {
    model_cost(w, make_strategy(label, &Env::default())?.as_mut())
}

#[test]
fn paper_claim_dynamic_beats_both_fixed_extremes() -> Result<(), RunError> {
    // The core pitch (§1): fixed over-provisioning pays for idle VMs,
    // pool-only pays the premium; the hybrid dynamic strategy undercuts
    // both on a cyclical workload.
    let env = Env::default();
    let w = workload(600, 3);

    let pool_only = label_cost(&w, "fixed_0")?;
    let over = label_cost(&w, "fixed_500")?;
    let dynamic = model_cost(&w, &mut small_dynamic(&env))?;
    assert!(
        dynamic < pool_only,
        "dynamic {dynamic} vs pool-only {pool_only}"
    );
    assert!(dynamic < over, "dynamic {dynamic} vs fixed-500 {over}");
    Ok(())
}

#[test]
fn paper_claim_oracle_bounds_everything() -> Result<(), RunError> {
    let env = Env::default();
    let w = workload(400, 4);
    let curves = workload_curves(&w);
    let oracle = oracle_cost(&curves.demand.samples, &env).total();
    for label in ["fixed_0", "fixed_100", "mean_1", "mean_2", "predictive"] {
        let c = label_cost(&w, label)?;
        assert!(oracle <= c + 1e-9, "{label}: oracle {oracle} > {c}");
    }
    // And removing the pool can only cost more.
    let no_pool = oracle_cost_without_pool(&curves.demand.samples, &env).total();
    assert!(no_pool >= oracle);
    Ok(())
}

#[test]
fn paper_claim_latency_stays_stable_while_delaying_systems_cliff() -> Result<(), RunError> {
    // §5.5 / Figure 11: Cackle's latency is queue-free; a work-delaying
    // system's p95 explodes when under-provisioned.
    let env = Env::default();
    let w = workload(500, 5);
    let mut s = small_dynamic(&env);
    let cackle_run = run_model(&w, &mut s, &RunSpec::new().with_compute_only(true))?;
    let starved = cackle::delaying::run_delaying(&w, 8, &RunSpec::new())?;
    assert!(
        starved.latency_percentile(95.0) > cackle_run.latency_percentile(95.0) * 3.0,
        "delaying p95 {} vs cackle p95 {}",
        starved.latency_percentile(95.0),
        cackle_run.latency_percentile(95.0)
    );
    Ok(())
}

#[test]
fn model_predicts_real_system_cost_within_reason() -> Result<(), RunError> {
    // §7.2 / Figure 13: the analytical model lands near the event-driven
    // system's measured cost despite runtime noise and feedback.
    let env = Env::default();
    let w = workload(400, 6);
    let model = model_cost(&w, &mut small_dynamic(&env))?;
    let real = run_system(&w, &mut small_dynamic(&env), &RunSpec::new())?
        .compute
        .total();
    let ratio = model / real;
    assert!(
        (0.5..2.0).contains(&ratio),
        "model ${model:.2} vs real ${real:.2} (ratio {ratio:.2})"
    );
    Ok(())
}

#[test]
fn measured_profiles_flow_into_the_model() -> Result<(), RunError> {
    // Full integration: generate data, execute the real engine to measure
    // a profile, then run that profile through the analytical model.
    let cfg = DbGenConfig {
        scale_factor: 0.002,
        rows_per_partition: 512,
        seed: 7,
    };
    let catalog = generate_catalog(&cfg);
    let profile = std::sync::Arc::new(measured_profile("q06", &catalog, 0.002, 10.0));
    let w: Vec<cackle::QueryArrival> = (0..50)
        .map(|i| cackle::QueryArrival {
            at_s: i * 20,
            profile: profile.clone(),
        })
        .collect();
    let mut mean_1 = make_strategy("mean_1", &Env::default())?;
    let r = run_model(&w, mean_1.as_mut(), &RunSpec::new())?;
    assert_eq!(r.latencies.len(), 50);
    assert!(r.compute.total() > 0.0);
    Ok(())
}

#[test]
fn comparators_run_the_same_workload_shape() {
    // Databricks autoscaling must show a worse tail than an
    // over-provisioned fixed warehouse under a burst (Figure 1's story).
    let w = {
        let mut w = workload(300, 7);
        // Compress arrivals into 10 minutes to create a hard burst.
        for q in &mut w {
            q.at_s %= 600;
        }
        w.sort_by_key(|q| q.at_s);
        w
    };
    let auto = run_databricks(&w, &DatabricksConfig::autoscaling(WarehouseSize::Small, 8));
    let fixed = run_databricks(&w, &DatabricksConfig::fixed(WarehouseSize::Small, 5));
    assert!(
        auto.latency_percentile(90.0) >= fixed.latency_percentile(90.0),
        "auto p90 {} vs fixed p90 {}",
        auto.latency_percentile(90.0),
        fixed.latency_percentile(90.0)
    );
}

#[test]
fn shuffle_layer_costs_scale_with_query_volume() -> Result<(), RunError> {
    // §5.6: more queries, more requests; the provisioned node floor keeps
    // the request overflow bounded.
    let spec = RunSpec::new();
    let mut mean_1 = make_strategy("mean_1", &spec.env)?;
    let small = run_model(&workload(100, 8), mean_1.as_mut(), &spec)?;
    let mut mean_1 = make_strategy("mean_1", &spec.env)?;
    let large = run_model(&workload(800, 8), mean_1.as_mut(), &spec)?;
    assert!(large.shuffle.total() >= small.shuffle.total());
    assert!(large.shuffle.node_cost > 0.0);
    Ok(())
}

#[test]
fn cost_per_query_stability_band() -> Result<(), RunError> {
    // Figure 14's headline: Cackle's cost per query stays within a modest
    // band across an order of magnitude of workload sizes.
    let env = Env::default();
    let mut costs = Vec::new();
    for n in [200usize, 600, 1800] {
        let w = workload(n, 9);
        costs.push(model_cost(&w, &mut small_dynamic(&env))? / n as f64);
    }
    let max = costs.iter().cloned().fold(f64::MIN, f64::max);
    let min = costs.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 4.0,
        "cost/query should be stable across sizes: {costs:?}"
    );
    Ok(())
}
