//! Command-line entry of the repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path crates/bench/suite/Cargo.toml -- \
//!     --workload trace_dynamic --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a report line (host, seed, passes, problems) and, as the last
//! line of standard output, the result object with the metrics.

use cackle_bench_suite::host::Host;
use cackle_bench_suite::{measure, Config, Report, Size, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: cackle-bench-suite --workload <trace_dynamic|system_hour|tpch_live> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        size: Size::full(),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host, seed and pass counts: everything needed to read the result.
fn report_line(cfg: &Config, host: &Host, report: &Report) -> String {
    let problems: Vec<String> = report.problems.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"pass_s\": [{}], \
         \"ops_per_pass\": {}, \"attempted\": {}, \"host\": {{\"nproc\": {}, \"git_rev\": {}, \
         \"rustc\": {}, \"profile\": {}}}, \"problems\": [{}]}}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.trace,
        report
            .pass_s
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        report.ops_per_pass,
        report.attempted,
        host.nproc,
        json_str(&host.git_rev),
        json_str(&host.rustc),
        json_str(&host.profile),
        problems.join(", ")
    )
}

/// The result object the last line of standard output carries.
fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = measure(&cfg);
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    for p in &report.problems {
        eprintln!("problem: {p}");
    }
    println!("{}", report_line(&cfg, &Host::probe(), &report));
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
