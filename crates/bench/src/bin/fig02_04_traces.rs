//! Figures 2-4: the three real-world workload traces (synthetic stand-ins;
//! see DESIGN.md §1). Prints summary statistics plus the hourly-max series
//! for the full span and a minute-max series for a two-hour window,
//! mirroring each figure's top/bottom panels.

use cackle::RunError;
use cackle_bench::ResultTable;
use cackle_workload::demand::DemandCurve;
use cackle_workload::traces;

fn emit(fig: &str, name: &str, unit: &str, curve: &DemandCurve, window_start_h: usize) {
    println!(
        "{fig} — {name}: span {} h, peak {} {unit}, mean {:.1}, p50 {}, p99 {}",
        curve.len() / 3600,
        curve.peak(),
        curve.mean(),
        curve.percentile(50),
        curve.percentile(99)
    );
    let mut t = ResultTable::new(
        format!("{fig} full span (hourly max, {unit})"),
        &["hour", "demand"],
    );
    for (h, v) in curve.downsample_max(3600).iter().enumerate() {
        t.row_strings(vec![h.to_string(), v.to_string()]);
    }
    t.emit(&format!("{}_full", fig.to_lowercase()));
    let mut t = ResultTable::new(
        format!("{fig} two-hour window from hour {window_start_h} (minute max, {unit})"),
        &["minute", "demand"],
    );
    let start = window_start_h * 3600;
    let window =
        DemandCurve::from_samples(curve.samples[start..(start + 7200).min(curve.len())].to_vec());
    for (m, v) in window.downsample_max(60).iter().enumerate() {
        t.row_strings(vec![m.to_string(), v.to_string()]);
    }
    t.emit(&format!("{}_window", fig.to_lowercase()));
}

fn main() -> Result<(), RunError> {
    emit(
        "Fig02",
        "startup workload",
        "concurrent queries",
        &traces::startup_trace(1),
        115,
    );
    emit(
        "Fig03",
        "Alibaba 2018 workload",
        "concurrent CPUs (thousands)",
        &traces::alibaba_trace(1),
        72,
    );
    emit(
        "Fig04",
        "Azure Synapse workload",
        "nodes requested",
        &traces::azure_trace(1),
        150,
    );
    Ok(())
}
