//! Ablation: the multiplicative-weights learning rate epsilon. The regret
//! bound needs eps <= 1/2; too small converges slowly (costly exploration),
//! too large overreacts to noisy intervals.

use cackle::model::run_model;
use cackle::{FamilyConfig, MetaStrategy, RunError, RunSpec};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = env();
    let w = default_workload(4096);
    let spec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let mut t = ResultTable::new(
        "Ablation: multiplicative-weights epsilon vs cost",
        &["epsilon", "cost_usd", "expert_switches"],
    );
    for eps in [0.01f64, 0.05, 0.1, 0.25, 0.5] {
        let cfg = FamilyConfig {
            epsilon: eps,
            ..FamilyConfig::default()
        };
        let mut m = MetaStrategy::with_family(cfg, &e);
        let r = run_model(&w, &mut m, &spec)?;
        t.row_strings(vec![
            format!("{eps}"),
            usd(r.compute.total()),
            m.switch_count().to_string(),
        ]);
        eprintln!("  done eps={eps}");
    }
    t.emit("ablation_epsilon");
    Ok(())
}
