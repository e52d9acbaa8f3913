//! Tier-1 gate for the multi-tenant serving layer: the per-tenant cost
//! ledger conserves the aggregate bill to the exact integer
//! micro-dollar at every fan-out, and the serve pipeline inherits the
//! executor's headline determinism guarantee — the telemetry dump is
//! byte-identical across worker counts and repeat runs.

use cackle::{make_strategy, FaultSpec, RunError, RunSpec, Telemetry};
use cackle_serve::{run_serve, Runner, ServeSpec, TenantRegistry};
use cackle_tpch::profiles::profile_set;
use cackle_workload::arrivals::WorkloadSpec;

fn mild_faults() -> FaultSpec {
    FaultSpec::default()
        .with_spot_reclaims(2.0)
        .with_pool_invoke_failures(0.05)
        .with_store_errors(0.05, 0.05)
        .with_stragglers(0.05, 2.0)
}

#[test]
fn ledger_conserves_the_aggregate_bill_at_every_fanout() -> Result<(), RunError> {
    // Differential check: the same aggregate demand split across 1, 7
    // and 100 tenants must always attribute back to the full-system
    // bill as exact integers — no drift from rounding, idle tenants, or
    // fault-recovery spend. Runs the real system runner, with and
    // without an active (fully recovered) fault plan.
    let mix = profile_set(10.0);
    for seed in [5u64, 17] {
        for tenants in [1usize, 7, 100] {
            for faulted in [false, true] {
                let aggregate = WorkloadSpec::hour_long(120, seed);
                let mut run = RunSpec::new();
                if faulted {
                    run = run.with_faults(mild_faults());
                }
                let spec = ServeSpec::new(TenantRegistry::homogeneous(tenants, &aggregate))
                    .with_run(run)
                    .with_runner(Runner::System);
                let mut dynamic = make_strategy("dynamic", &spec.run.env)?;
                let r = run_serve(&spec, &mix, dynamic.as_mut())?;
                let aggregate_micros = r.run.total_cost_micros();
                assert!(aggregate_micros > 0, "vacuous run at seed {seed}");
                let attributed: i64 = r.tenants.iter().map(|t| t.total_micros()).sum();
                assert_eq!(
                    attributed, aggregate_micros,
                    "ledger leaked at seed {seed}, {tenants} tenants, faulted {faulted}"
                );
                assert_eq!(attributed, r.attributed_total_micros());
            }
        }
    }
    Ok(())
}

#[test]
fn serve_dumps_are_byte_identical_across_worker_counts() -> Result<(), RunError> {
    // The worker count is a pure throughput knob for the serve pipeline
    // too: admission, scheduling, attribution, and every `serve.*`
    // metric must not move by a byte between 1, 2 and 8 workers.
    let mix = profile_set(10.0);
    let dump = |workers: u32, seed: u64| {
        let t = Telemetry::new();
        let aggregate = WorkloadSpec::hour_long(100, seed);
        let spec = ServeSpec::new(TenantRegistry::homogeneous(7, &aggregate))
            .with_run(RunSpec::new().with_workers(workers).with_telemetry(&t))
            .with_runner(Runner::System);
        let mut dynamic = make_strategy("dynamic", &spec.run.env)?;
        run_serve(&spec, &mix, dynamic.as_mut())?;
        Ok::<_, RunError>(t.export_jsonl())
    };
    let serial = dump(1, 23)?;
    assert!(
        serial.contains("serve.admitted_total") && serial.contains("tenant.count"),
        "serving metrics missing from the dump"
    );
    let errors = cackle_telemetry::check::check_dump(&serial);
    assert!(errors.is_empty(), "{errors:?}");
    for workers in [2u32, 8] {
        let parallel = dump(workers, 23)?;
        assert!(
            serial == parallel,
            "dump moved at {workers} workers (lengths {} vs {})",
            serial.len(),
            parallel.len()
        );
    }
    // Re-runs are byte-stable; a different seed must actually move the
    // dump, or the checks above are vacuous.
    assert!(serial == dump(1, 23)?, "repeat run diverged");
    assert!(serial != dump(1, 24)?, "seed change did not move the dump");
    Ok(())
}
