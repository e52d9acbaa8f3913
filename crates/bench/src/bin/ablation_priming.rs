//! Extension experiment: §4.4.6's cold-start mitigation. "One way to avoid
//! this could be to add an expected workload to the history to prime the
//! meta-strategy" — suggested but not implemented in the paper. We
//! implement it and measure the saving over the first portion of the
//! workload, for accurate and inaccurate priors.

use cackle::model::run_model;
use cackle::{FamilyConfig, MetaStrategy, RunError, RunSpec};
use cackle_bench::*;

fn main() -> Result<(), RunError> {
    let e = env();
    // A short, busy workload where the cold-start window is a meaningful
    // fraction of the total (the paper notes the effect is small for long
    // workloads — this isolates it).
    let w = hour_workload(1500, 31);
    let rspec = RunSpec::new().with_env(e.clone()).with_compute_only(true);
    let curves = cackle::model::workload_curves(&w);
    let typical = curves.demand.percentile(60);

    let mut t = ResultTable::new(
        "Extension: priming the meta-strategy with an expected workload (§4.4.6)",
        &["prior", "cost_usd"],
    );
    let mut run_with = |name: &str, prime: Option<Vec<u32>>| -> Result<(), RunError> {
        let mut m = MetaStrategy::with_family(FamilyConfig::default(), &e);
        if let Some(p) = prime {
            m.prime(&p);
        }
        let r = run_model(&w, &mut m, &rspec)?;
        t.row_strings(vec![name.into(), usd(r.compute.total())]);
        eprintln!("  done {name}");
        Ok(())
    };
    run_with("none (cold start)", None)?;
    run_with("accurate (typical demand level)", Some(vec![typical; 1800]))?;
    run_with("2x too high", Some(vec![typical * 2; 1800]))?;
    run_with("4x too low", Some(vec![typical / 4; 1800]))?;
    t.emit("ablation_priming");

    // Second scenario: steady demand from the first second (uniform
    // arrivals) — the case where pre-provisioning has something to win.
    let spec = cackle_workload::arrivals::WorkloadSpec {
        baseline_load: 1.0,
        ..cackle_workload::arrivals::WorkloadSpec::hour_long(1500, 32)
    };
    let w = cackle::model::build_workload(&spec, &evaluation_mix());
    let curves = cackle::model::workload_curves(&w);
    let typical = curves.demand.percentile(60);
    let mut t = ResultTable::new(
        "Extension: priming under steady-from-start demand",
        &["prior", "cost_usd"],
    );
    let mut run_with = |name: &str, prime: Option<Vec<u32>>| -> Result<(), RunError> {
        let mut m = MetaStrategy::with_family(FamilyConfig::default(), &e);
        if let Some(p) = prime {
            m.prime(&p);
        }
        let r = run_model(&w, &mut m, &rspec)?;
        t.row_strings(vec![name.into(), usd(r.compute.total())]);
        eprintln!("  done steady/{name}");
        Ok(())
    };
    run_with("none (cold start)", None)?;
    run_with("accurate (typical demand level)", Some(vec![typical; 1800]))?;
    t.emit("ablation_priming_steady");
    Ok(())
}
