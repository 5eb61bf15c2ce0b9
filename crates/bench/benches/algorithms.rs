//! Wall-clock Criterion benchmarks of the spanning-tree algorithms.
//!
//! One group per figure data series (see DESIGN.md §3): these exercise
//! the *real threaded implementations* on the host. On the single-core
//! reproduction host the parallel variants cannot beat the sequential
//! baseline in wall-clock terms; the figure *shapes* come from the model
//! executor (`figures` binary), and these benches document the host
//! numbers and catch performance regressions in the implementations.
//!
//! Sizes are kept moderate so `cargo bench` completes in reasonable time
//! on one core; scale them with `ST_BENCH_SCALE` (log2 of n, default 12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_bench::workloads::Workload;
use st_core::bader_cong::BaderCong;
use st_core::hcs::Hcs;
use st_core::sv::{Sv, SvConfig};
use st_core::{seq, Engine};

fn scale() -> usize {
    // Typed env parsing: a malformed ST_BENCH_SCALE aborts the bench
    // run instead of silently reverting to the default scale.
    let cfg = st_core::RuntimeConfig::from_env().unwrap_or_else(|e| panic!("{e}"));
    1usize << cfg.bench_scale.unwrap_or(12)
}

/// FIG3 series: sequential BFS vs the new algorithm on random m = 1.5n.
fn bench_fig3_series(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 42);
    let mut group = c.benchmark_group("fig3_random_m15");
    group.sample_size(10);
    group.bench_function("sequential_bfs", |b| b.iter(|| seq::bfs_forest(&g)));
    for p in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("bader_cong", p), &p, |b, &p| {
            b.iter(|| Engine::new(p).run(&BaderCong::with_defaults(), &g))
        });
    }
    group.finish();
}

/// FIG4 panels, one representative per topology class: the three
/// algorithm lines at p = 4.
fn bench_fig4_lines(c: &mut Criterion) {
    let n = scale();
    for w in [
        Workload::TorusRowMajor,
        Workload::RandomNLogN,
        Workload::Mesh2D60,
        Workload::Ad3,
        Workload::GeoHier,
        Workload::ChainSeq,
    ] {
        let g = w.build(n, 42);
        let mut group = c.benchmark_group(format!("fig4_{}", w.id()));
        group.sample_size(10);
        group.bench_function("sequential_bfs", |b| b.iter(|| seq::bfs_forest(&g)));
        group.bench_function("bader_cong_p4", |b| {
            b.iter(|| Engine::new(4).run(&BaderCong::with_defaults(), &g))
        });
        group.bench_function("sv_p4", |b| {
            b.iter(|| Engine::new(4).run(&Sv::new(SvConfig::default()), &g))
        });
        group.finish();
    }
}

/// HCS vs SV (the paper dropped HCS because it behaves like SV — verify
/// they are in the same ballpark).
fn bench_hcs_vs_sv(c: &mut Criterion) {
    let g = Workload::RandomM15.build(scale(), 42);
    let mut group = c.benchmark_group("hcs_vs_sv");
    group.sample_size(10);
    group.bench_function("sv_p4", |b| {
        b.iter(|| Engine::new(4).run(&Sv::new(SvConfig::default()), &g))
    });
    group.bench_function("hcs_p4", |b| b.iter(|| Engine::new(4).run(&Hcs, &g)));
    group.finish();
}

/// Sequential baselines against each other (BFS is the paper's pick).
fn bench_sequential_baselines(c: &mut Criterion) {
    let g = Workload::RandomNLogN.build(scale(), 42);
    let mut group = c.benchmark_group("sequential_baselines");
    group.sample_size(10);
    group.bench_function("bfs", |b| b.iter(|| seq::bfs_forest(&g)));
    group.bench_function("dfs", |b| b.iter(|| seq::dfs_forest(&g)));
    group.finish();
}

criterion_group!(
    benches,
    bench_fig3_series,
    bench_fig4_lines,
    bench_hcs_vs_sv,
    bench_sequential_baselines
);
criterion_main!(benches);
