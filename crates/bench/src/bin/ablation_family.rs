//! Ablation: how much of the expert family does the meta-strategy need?
//! Sweeps the family's granularity (lookback count x percentile density)
//! and reports workload cost and expert-switch churn.

use cackle::model::run_model;
use cackle::{FamilyConfig, MetaStrategy, RunError, RunSpec};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = env();
    let w = default_workload(4096);
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let mut t = ResultTable::new(
        "Ablation: expert family size vs cost (4096-query default workload)",
        &["family", "experts", "cost_usd", "expert_switches"],
    );
    let cases: Vec<(&str, FamilyConfig)> = vec![
        (
            "tiny (1 lookback, 3 pcts)",
            FamilyConfig {
                lookbacks: vec![300],
                unit_percentiles: vec![50, 80, 100],
                p80_multipliers: vec![2.0],
                ..FamilyConfig::default()
            },
        ),
        (
            "small (2 lookbacks, 5 pcts)",
            FamilyConfig {
                seed: 17,
                ..FamilyConfig::small()
            },
        ),
        (
            "medium (4 lookbacks, 10 pcts)",
            FamilyConfig {
                lookbacks: vec![30, 300, 900, 3600],
                unit_percentiles: (1..=10).map(|x| x * 10).collect(),
                p80_multipliers: vec![1.2, 1.5, 2.0, 5.0],
                ..FamilyConfig::default()
            },
        ),
        ("paper (7 lookbacks, 100 pcts)", FamilyConfig::default()),
    ];
    for (name, cfg) in cases {
        let mut m = MetaStrategy::with_family(cfg, &e);
        let n = m.family_size();
        let r = run_model(&w, &mut m, &spec)?;
        t.row_strings(vec![
            name.into(),
            n.to_string(),
            usd(r.compute.total()),
            m.switch_count().to_string(),
        ]);
        eprintln!("  done {name}");
    }
    let oracle = compute_cost_for(&w, "oracle", &e)?;
    println!("(oracle reference: ${oracle:.2})");
    t.emit("ablation_family");
    Ok(())
}
