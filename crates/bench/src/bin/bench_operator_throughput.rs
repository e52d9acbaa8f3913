//! Per-operator throughput: the vectorized kernels against the preserved
//! row-at-a-time reference implementations, on identical seeded batches.
//!
//! Each row of the output is one operator, with rows/s for the kernel
//! path, rows/s for the reference path, and the ratio. The combined
//! `scan_filter_aggregate` pipeline is the Open-item-1 headline number:
//! the engine refactor targets ≥4× single-thread throughput there.
//!
//! `--smoke` shrinks the input and iteration count so CI can exercise
//! the binary end-to-end in well under a second, and writes under
//! `target/smoke/` so the full-size CSV stays intact.
//!
//! Records `results/operator_throughput.csv`.

use cackle::RunError;
use cackle_bench::{output_dir, ResultTable};
use cackle_engine::kernel_prelude::{filter_batch, filter_project, ScratchArena};
use cackle_engine::ops::aggregate::{hash_aggregate, AggExpr, AggFunc};
use cackle_engine::ops::join::{hash_join, JoinType};
use cackle_engine::ops::sort::{sort, SortKey};
use cackle_engine::predicate_mask_into;
use cackle_engine::prelude::*;
use cackle_engine::reference as reference_impl;
use std::time::Instant;

/// Deterministic xorshift64* — the bench needs no external crates.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const VOCAB: [&str; 8] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "alpine", "albedo",
];

fn make_batches(rng: &mut Rng, n_batches: usize, rows: usize, prefix: &str) -> Vec<Batch> {
    let names: Vec<String> = ["k", "v", "s", "d"]
        .iter()
        .map(|s| format!("{prefix}{s}"))
        .collect();
    let dtypes = [DataType::I64, DataType::F64, DataType::Str, DataType::Date];
    let fields: Vec<(&str, DataType)> = names
        .iter()
        .zip(dtypes)
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    let schema = Schema::shared(&fields);
    (0..n_batches)
        .map(|_| {
            let keys: Vec<i64> = (0..rows).map(|_| rng.below(1000) as i64).collect();
            let vals: Vec<f64> = (0..rows)
                .map(|_| rng.below(10_000) as f64 / 100.0)
                .collect();
            let strs: Vec<String> = (0..rows)
                .map(|_| VOCAB[rng.below(VOCAB.len() as u64) as usize].to_string())
                .collect();
            let dates: Vec<i32> = (0..rows).map(|_| 9_000 + rng.below(1_500) as i32).collect();
            Batch::new(
                schema.clone(),
                vec![
                    Column::from_i64(keys),
                    Column::from_f64(vals),
                    Column::from_str_vec(strs),
                    Column::new(ColumnData::Date(dates)),
                ],
            )
        })
        .collect()
}

/// Best-of-`iters` rows/s for `f` over `total_rows` input rows.
fn rows_per_s(total_rows: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    std::hint::black_box(&mut f)(); // warmup
    let mut best = u128::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(&mut f)();
        best = best.min(t0.elapsed().as_nanos());
    }
    total_rows as f64 / (best as f64 / 1e9)
}

fn main() -> Result<(), RunError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_batches, rows, iters) = if smoke { (4, 1024, 1) } else { (64, 4096, 5) };
    let mut rng = Rng::new(7);
    let batches = make_batches(&mut rng, n_batches, rows, "");
    let total: usize = batches.iter().map(|b| b.num_rows()).sum();

    let mut table = ResultTable::new(
        format!("operator throughput — {total} rows/operator, best of {iters}"),
        &[
            "operator",
            "rows",
            "kernel_rows_per_s",
            "reference_rows_per_s",
            "speedup",
        ],
    );
    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut record =
        |table: &mut ResultTable, name: &str, rows: usize, kernel: f64, reference: f64| {
            speedups.push((name.to_string(), kernel / reference));
            table.row_strings(vec![
                name.to_string(),
                rows.to_string(),
                format!("{kernel:.0}"),
                format!("{reference:.0}"),
                format!("{:.2}", kernel / reference),
            ]);
        };

    // scan_filter: predicate evaluation + selection-bitmap filter.
    let pred = Expr::col(0)
        .lt(Expr::lit_i64(500))
        .and(Expr::col(1).gt(Expr::lit_f64(10.0)));
    let kernel = {
        let mut arena = ScratchArena::new();
        let batches = &batches;
        let pred = &pred;
        rows_per_s(total, iters, move || {
            let mut mask = arena.checkout_mask(rows);
            for b in batches {
                predicate_mask_into(pred, b, &mut mask);
                std::hint::black_box(filter_batch(b, &mask, &mut arena));
            }
            arena.recycle_mask(mask);
        })
    };
    let reference = {
        let batches = &batches;
        let pred = &pred;
        rows_per_s(total, iters, move || {
            for b in batches {
                let mask = reference_impl::row_predicate_mask(pred, b);
                std::hint::black_box(b.filter(&mask));
            }
        })
    };
    record(&mut table, "scan_filter", total, kernel, reference);

    // project_arith: two arithmetic projections per row.
    let exprs = [
        Expr::col(0).mul(Expr::lit_i64(3)).add(Expr::lit_i64(1)),
        Expr::col(1).mul(Expr::lit_f64(0.9)).sub(Expr::col(1)),
    ];
    let kernel = rows_per_s(total, iters, || {
        for b in &batches {
            for e in &exprs {
                std::hint::black_box(e.eval(b));
            }
        }
    });
    let reference = rows_per_s(total, iters, || {
        for b in &batches {
            for e in &exprs {
                std::hint::black_box(reference_impl::row_eval(e, b));
            }
        }
    });
    record(&mut table, "project_arith", total, kernel, reference);

    // like: prefix LIKE over the string column.
    let like = Expr::Like {
        input: Box::new(Expr::col(2)),
        pattern: LikePattern::Prefix("al".into()),
        negated: false,
    };
    let kernel = rows_per_s(total, iters, || {
        for b in &batches {
            std::hint::black_box(like.eval(b));
        }
    });
    let reference = rows_per_s(total, iters, || {
        for b in &batches {
            std::hint::black_box(reference_impl::row_eval(&like, b));
        }
    });
    record(&mut table, "like", total, kernel, reference);

    // hash_group_by: SUM/COUNT/MIN grouped by the i64 key.
    let group_by = vec![Expr::col(0)];
    let aggs = vec![
        AggExpr::new(AggFunc::Sum, Expr::col(1)),
        AggExpr::new(AggFunc::CountStar, Expr::col(0)),
        AggExpr::new(AggFunc::Min, Expr::col(1)),
    ];
    let out = Schema::shared(&[
        ("k", DataType::I64),
        ("sum_v", DataType::F64),
        ("cnt", DataType::I64),
        ("min_v", DataType::F64),
    ]);
    let kernel = rows_per_s(total, iters, || {
        std::hint::black_box(hash_aggregate(&batches, &group_by, &aggs, out.clone()));
    });
    let reference = rows_per_s(total, iters, || {
        std::hint::black_box(reference_impl::row_hash_aggregate(
            &batches,
            &group_by,
            &aggs,
            out.clone(),
        ));
    });
    record(&mut table, "hash_group_by", total, kernel, reference);

    // hash_join_probe: probe-heavy inner join against a small build side.
    let build = make_batches(&mut rng, 1, 1000, "b_");
    let build_schema = build[0].schema.clone();
    let join_out = Schema::shared(&[
        ("k", DataType::I64),
        ("v", DataType::F64),
        ("s", DataType::Str),
        ("d", DataType::Date),
        ("b_k", DataType::I64),
        ("b_v", DataType::F64),
        ("b_s", DataType::Str),
        ("b_d", DataType::Date),
    ]);
    let keys = vec![Expr::col(0)];
    let kernel = rows_per_s(total, iters, || {
        std::hint::black_box(hash_join(
            build_schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            JoinType::Inner,
            join_out.clone(),
        ));
    });
    let reference = rows_per_s(total, iters, || {
        std::hint::black_box(reference_impl::row_hash_join(
            build_schema.clone(),
            &build,
            &batches,
            &keys,
            &keys,
            JoinType::Inner,
            join_out.clone(),
        ));
    });
    record(&mut table, "hash_join_probe", total, kernel, reference);

    // sort: two keys, mixed direction.
    let schema = batches[0].schema.clone();
    let sort_keys = vec![SortKey::desc(Expr::col(1)), SortKey::asc(Expr::col(0))];
    let kernel = rows_per_s(total, iters, || {
        std::hint::black_box(sort(schema.clone(), &batches, &sort_keys, None));
    });
    let reference = rows_per_s(total, iters, || {
        std::hint::black_box(reference_impl::row_sort(
            schema.clone(),
            &batches,
            &sort_keys,
            None,
        ));
    });
    record(&mut table, "sort", total, kernel, reference);

    // scan_filter_aggregate: the Open-item-1 pipeline — scan with a
    // filter and a [key, value] projection, then group-aggregate the
    // survivors. The kernel side runs the fused filter+project the Scan
    // node now uses (the string and date columns are never gathered);
    // the reference side does what the pre-refactor Scan did: filter
    // every column, then clone out the projected ones.
    let proj = [0usize, 1];
    let proj_schema = Schema::shared(&[("k", DataType::I64), ("v", DataType::F64)]);
    let kernel_pipeline = |arena: &mut ScratchArena| {
        let mut mask = arena.checkout_mask(rows);
        let mut kept: Vec<Batch> = Vec::with_capacity(batches.len());
        for b in &batches {
            predicate_mask_into(&pred, b, &mut mask);
            kept.push(filter_project(b, &mask, &proj, proj_schema.clone(), arena));
        }
        arena.recycle_mask(mask);
        hash_aggregate(&kept, &group_by, &aggs, out.clone())
    };
    let reference_pipeline = || {
        let kept: Vec<Batch> = batches
            .iter()
            .map(|b| {
                let mask = reference_impl::row_predicate_mask(&pred, b);
                let f = b.filter(&mask);
                let cols = proj.iter().map(|&i| f.columns[i].clone()).collect();
                Batch::new(proj_schema.clone(), cols)
            })
            .collect();
        reference_impl::row_hash_aggregate(&kept, &group_by, &aggs, out.clone())
    };
    // Both pipelines must agree before their throughput is compared.
    {
        let mut arena = ScratchArena::new();
        let k = format_batch(&kernel_pipeline(&mut arena), usize::MAX);
        let r = format_batch(&reference_pipeline(), usize::MAX);
        assert_eq!(k, r, "kernel and reference pipelines disagree");
    }
    let kernel = {
        let mut arena = ScratchArena::new();
        let f = &kernel_pipeline;
        rows_per_s(total, iters, move || {
            std::hint::black_box(f(&mut arena));
        })
    };
    let reference = rows_per_s(total, iters, || {
        std::hint::black_box(reference_pipeline());
    });
    record(
        &mut table,
        "scan_filter_aggregate",
        total,
        kernel,
        reference,
    );

    table.emit_in(&output_dir(smoke), "operator_throughput");

    // Smoke mode exists to exercise the binary in CI; its inputs are too
    // small for stable ratios, so the self-checks only run full-size.
    if smoke {
        return Ok(());
    }
    for (name, speedup) in &speedups {
        // `like` and `project_arith` were already columnar before the
        // kernel refactor; the floor only guards against regressions.
        assert!(
            *speedup > 0.8,
            "{name}: kernel path regressed vs reference ({speedup:.2}x)"
        );
    }
    let headline = speedups
        .iter()
        .find(|(n, _)| n == "scan_filter_aggregate")
        .expect("headline row")
        .1;
    assert!(
        headline >= 4.0,
        "scan_filter_aggregate speedup {headline:.2}x below the 4x target"
    );
    Ok(())
}
