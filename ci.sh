#!/usr/bin/env sh
# Offline CI gate: formatting, determinism/cost-hygiene lints, release
# build, full test suite. No network access required at any step.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cackle-lint (tests and examples included)"
# Exit 1 = new violations, exit 3 = stale baseline entries; both fail
# the gate under `set -e`.
cargo run -q -p cackle-lint -- . --baseline lint-baseline.txt --include-tests

echo "==> cackle-lint JSON diagnostics (deterministic artifact)"
mkdir -p results
# --timings none zeroes the meta block's wall-clock fields — the one
# nondeterministic part of the output — so the archived artifact is
# byte-identical across runs, checked below.
cargo run -q -p cackle-lint -- . --baseline lint-baseline.txt --include-tests \
    --format json --timings none > results/lint-diagnostics.json
cargo run -q -p cackle-lint -- . --baseline lint-baseline.txt --include-tests \
    --format json --timings none > results/lint-diagnostics.rerun.json
cmp results/lint-diagnostics.json results/lint-diagnostics.rerun.json \
    || { echo "cackle-lint: JSON output is not byte-identical across runs" >&2; exit 1; }
rm -f results/lint-diagnostics.rerun.json

echo "==> cackle-lint --explain smoke (every registered rule documents itself)"
# --list-rules is the registry of record: the loop below can never go
# stale when a rule is added or retired.
for rule in $(cargo run -q -p cackle-lint -- --list-rules | cut -f1); do
    cargo run -q -p cackle-lint -- --explain "$rule" > /dev/null \
        || { echo "cackle-lint: --explain $rule failed" >&2; exit 1; }
done

echo "==> cackle-lint fix --dry-run (deterministic and idempotent)"
# The tree lints clean, so the planned diff must be empty — and a
# second plan over the unchanged tree must be byte-identical.
cargo run -q -p cackle-lint -- fix . --dry-run --include-tests \
    > results/lint-fix-plan.diff
cargo run -q -p cackle-lint -- fix . --dry-run --include-tests \
    > results/lint-fix-plan.rerun.diff
cmp results/lint-fix-plan.diff results/lint-fix-plan.rerun.diff \
    || { echo "cackle-lint: fix --dry-run is not deterministic across runs" >&2; exit 1; }
rm -f results/lint-fix-plan.rerun.diff
if test -s results/lint-fix-plan.diff; then
    echo "cackle-lint: fix --dry-run planned edits on a clean tree" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> micro-bench targets compile"
# The harness=false benches call SlidingQuantile and AllocationSim, but
# neither the build nor the test step above compiles bench targets.
cargo bench -p cackle-bench --offline --no-run

echo "==> benchmark suite build and smoke tests"
# crates/bench/suite is a workspace of its own that imports core's
# hidden runner forwards; nothing above compiles it.
cargo test --release --offline -q --manifest-path crates/bench/suite/Cargo.toml

echo "==> operator-throughput bench smoke (kernel vs reference)"
# --smoke shrinks the input so this exercises every kernel-vs-reference
# pair end-to-end in well under a second; the full-size run (no flag)
# is where the speedup self-checks apply. Smoke runs write under
# target/smoke/, leaving the full-size CSVs in results/ untouched.
cargo run -q --release -p cackle-bench --bin bench_operator_throughput -- --smoke
test -s target/smoke/operator_throughput.csv \
    || { echo "bench_operator_throughput: missing target/smoke/operator_throughput.csv" >&2; exit 1; }

echo "==> worker-count determinism (1 and 8 workers, golden dumps)"
cargo test -q --test determinism golden_dumps_are_byte_identical_across_worker_counts
cargo test -q --test executor_stress

echo "==> differential quantile sweep (sorted sliding window vs sorted brute force)"
cargo test -q -p cackle differential_quantile_fenwick_vs_sorted

echo "==> telemetry dump round-trip"
cargo run -q --release --example quickstart
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/quickstart_telemetry.jsonl

echo "==> tenant-sweep smoke (exact attribution, stable p99)"
# --smoke shrinks the sweep to 1/10/100 tenants; the bench itself
# asserts exact micro-dollar attribution and p99-vs-single-tenant at
# every row, so a serving-layer regression fails this step.
cargo run -q --release -p cackle-bench --bin bench_tenant_sweep -- --smoke
test -s target/smoke/tenant_sweep.csv \
    || { echo "bench_tenant_sweep: missing target/smoke/tenant_sweep.csv" >&2; exit 1; }

echo "==> multi-tenant serving smoke (per-tenant ledger + serve.* telemetry)"
cargo run -q --release --example multi_tenant
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/multi_tenant_telemetry.jsonl

echo "==> chaos smoke (seeded fault plan, bounded recovery)"
cargo run -q --release --example fault_injection
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    results/fault_injection_telemetry.jsonl

echo "==> environment-grid smoke (scenario pack, exact ledger conservation)"
# --smoke shrinks the workload; the bench asserts per-cell micro-dollar
# conservation and writes a multi-region cell's dump for the env.*
# schema check. The CSV still covers all 4 environments x 3 strategies.
cargo run -q --release -p cackle-bench --bin bench_env_grid -- --smoke
test -s target/smoke/env_grid.csv \
    || { echo "bench_env_grid: missing target/smoke/env_grid.csv" >&2; exit 1; }
cargo run -q --release -p cackle-telemetry --bin telemetry-check -- \
    target/smoke/env_grid_telemetry.jsonl

echo "CI gate passed."
