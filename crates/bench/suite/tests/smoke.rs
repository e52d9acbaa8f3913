//! The benchmark at smoke size: every workload passes its output checks,
//! reports every metric `BENCHMARK.json` names, and repeats its
//! deterministic counters exactly.

use cackle_bench_suite::{measure, Config, Report, Size, Workload, DETERMINISTIC, END_TO_END};

fn smoke_run(workload: Workload, trace: bool) -> Report {
    let report = measure(&Config {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        size: Size::smoke(),
    });
    assert!(
        report.correct(),
        "{} (trace {trace}) failed: {:?}",
        workload.name(),
        report.problems
    );
    assert!(report.attempted > 0 && report.failed == 0);
    report
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("closed list")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closed string")].to_string())
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn benchmark_json_matches_the_reports() {
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed("workloads"), workloads);
    assert_eq!(listed("end_to_end"), END_TO_END);
    let per_layer = listed("per_layer");
    for name in DETERMINISTIC {
        assert!(per_layer.iter().any(|n| n == name), "{name} not listed");
    }
    for workload in Workload::ALL {
        assert_eq!(names(&smoke_run(workload, false)), END_TO_END);
        assert_eq!(names(&smoke_run(workload, true)), per_layer);
    }
}

#[test]
fn deterministic_counters_repeat_exactly() {
    for workload in Workload::ALL {
        let (a, b) = (smoke_run(workload, true), smoke_run(workload, true));
        for name in DETERMINISTIC {
            assert_eq!(a.get(name), b.get(name), "{} {name}", workload.name());
        }
        let (a, b) = (smoke_run(workload, false), smoke_run(workload, false));
        assert_eq!(a.get("sim_cost_usd"), b.get("sim_cost_usd"));
        for report in [&a, &b] {
            for m in &report.metrics {
                assert!(
                    m.value > 0.0,
                    "{} {} = {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn each_workload_loads_its_own_layer() {
    let share = |w| smoke_run(w, true).get("meta.share").expect("meta.share");
    assert!(share(Workload::TraceDynamic) > 0.5);
    let engine = smoke_run(Workload::TpchLive, true);
    assert!(engine.get("engine.tasks").expect("engine.tasks") > 0.0);
    let other = smoke_run(Workload::SystemHour, true);
    assert_eq!(other.get("engine.tasks"), Some(0.0));
    assert!(other.get("runner.self_s").expect("runner.self_s") > 0.0);
}
