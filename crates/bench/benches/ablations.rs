//! Ablation benchmarks for the design decisions the rustdoc of
//! `optimize_exhaustive`, `reach_recursive`, `ReconcileMode` /
//! `CorrectionMode` and `Estimate` argues for: greedy vs exhaustive
//! optimization, Eq. 1 vs Eq. 2 reach evaluation,
//! reconciliation/correction modes, and copy-on-write belief adoption.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use diffuse_bayes::{BeliefEstimator, Estimate};
use diffuse_bench::fixture_tree;
use diffuse_core::{
    optimize, optimize_exhaustive, reach, reach_recursive, AdaptiveParams, MessageVector,
};
use diffuse_experiments::convergence_run;
use diffuse_graph::generators;
use diffuse_model::Probability;

fn bench_greedy_vs_exhaustive(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimize_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    // Small tree so the exponential oracle terminates.
    let tree = fixture_tree(7, 2, 0.2);
    group.bench_function("greedy", |b| b.iter(|| optimize(&tree, 0.95).unwrap()));
    group.bench_function("exhaustive_oracle", |b| {
        b.iter(|| optimize_exhaustive(&tree, 0.95, 5).unwrap())
    });
    group.finish();
}

fn bench_reach_forms(c: &mut Criterion) {
    let mut group = c.benchmark_group("reach_ablation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    let tree = fixture_tree(100, 8, 0.05);
    let m = MessageVector::ones(tree.link_count());
    group.bench_function("iterative_eq2", |b| b.iter(|| reach(&tree, &m)));
    group.bench_function("recursive_eq1", |b| {
        b.iter(|| reach_recursive(&tree, &m, tree.root()))
    });
    group.finish();
}

fn bench_reconcile_modes(c: &mut Criterion) {
    // Wall-clock cost of a fixed-length convergence attempt under the
    // default and the paper-literal estimator semantics (accuracy is
    // compared in tests; this tracks the runtime cost).
    let mut group = c.benchmark_group("reconcile_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    let topology = generators::ring(16).unwrap();
    let loss = Probability::new(0.05).unwrap();
    for (name, params) in [
        ("seqgap_exact", AdaptiveParams::default()),
        ("paper_literal", AdaptiveParams::default().paper_literal()),
    ] {
        let topology = topology.clone();
        group.bench_function(name, move |b| {
            b.iter(|| {
                convergence_run(
                    &topology,
                    loss,
                    Probability::ZERO,
                    &params,
                    0.02,
                    400, // fixed budget: measure cost, not convergence
                    10,
                    7,
                )
            })
        });
    }
    group.finish();
}

fn bench_estimate_adoption(c: &mut Criterion) {
    // COW adoption (the implementation) vs a forced deep copy of the
    // belief vector — the epidemic exchange's hot path.
    let mut group = c.benchmark_group("adoption_ablation");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    let mut theirs = Estimate::first_hand(100);
    theirs.beliefs_mut().decrease_reliability(5);
    group.bench_function("cow_adopt", |b| {
        b.iter(|| {
            let mut mine = Estimate::unknown(100);
            mine.adopt_if_better(&theirs);
            mine
        })
    });
    group.bench_function("deep_copy_adopt", |b| {
        b.iter(|| {
            // Rebuild the belief vector from raw values: what adoption
            // would cost without structural sharing.
            Estimate::from_parts(
                BeliefEstimator::from_beliefs(theirs.beliefs().beliefs().to_vec()).unwrap(),
                theirs.distortion().incremented(),
            )
        })
    });
    group.finish();
}

fn bench_interval_resolution(c: &mut Criterion) {
    // U sweep: update cost scales with the number of intervals.
    let mut group = c.benchmark_group("intervals_ablation");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    for u in [10usize, 100, 400] {
        group.bench_function(format!("observe_u{u}"), |b| {
            let mut e = BeliefEstimator::new(u);
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                e.observe(i % 10 == 0);
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_greedy_vs_exhaustive,
    bench_reach_forms,
    bench_reconcile_modes,
    bench_estimate_adoption,
    bench_interval_resolution
);
criterion_main!(benches);
