//! Micro-benchmarks of the SMP substrate primitives the algorithms sit
//! on: barrier episodes, work-queue operations, lock acquisition, team
//! dispatch (spawn-per-call vs the persistent executor), and graph
//! generation throughput.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use st_bench::workloads::Workload;
use st_smp::barrier::BarrierToken;
use st_smp::{
    DisseminationBarrier, Executor, SenseBarrier, SpinLock, StealPolicy, TicketLock, WorkQueue,
};

/// Cost of one software-barrier episode at several team sizes — the
/// model's λ_B term — for both barrier constructions.
fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_episode");
    group.sample_size(10);
    for p in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("sense", p), &p, |b, &p| {
            b.iter(|| {
                let bar = SenseBarrier::new(p);
                Executor::new(p).run(|_| {
                    let token = BarrierToken::new();
                    for _ in 0..100 {
                        bar.wait(&token);
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("dissemination", p), &p, |b, &p| {
            b.iter(|| {
                let bar = DisseminationBarrier::new(p);
                Executor::new(p).run(|ctx| {
                    let token = bar.token(ctx.rank());
                    for _ in 0..100 {
                        bar.wait(&token);
                    }
                });
            })
        });
    }
    group.finish();
}

/// Work-queue push/pop and steal throughput.
fn bench_work_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("work_queue");
    group.bench_function("push_pop_10k", |b| {
        b.iter(|| {
            let q = WorkQueue::new();
            for i in 0..10_000u32 {
                q.push(i);
            }
            while q.pop().is_some() {}
        })
    });
    group.bench_function("steal_half_rounds", |b| {
        b.iter(|| {
            let q = WorkQueue::new();
            q.push_all(0..10_000u32);
            let mut buf = VecDeque::new();
            while q.steal_into(&mut buf, StealPolicy::Half) > 0 {
                buf.clear();
            }
        })
    });
    group.finish();
}

/// Lock acquisition under no contention (the per-root graft cost floor
/// of the SV lock variant).
fn bench_locks(c: &mut Criterion) {
    let mut group = c.benchmark_group("locks_uncontended");
    let spin = SpinLock::new(0u64);
    group.bench_function("spinlock", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                *spin.lock() += 1;
            }
        })
    });
    let ticket = TicketLock::new(0u64);
    group.bench_function("ticketlock", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                *ticket.lock() += 1;
            }
        })
    });
    group.finish();
}

/// Cost of dispatching one small team job: spawning fresh threads per
/// call (a fresh `Executor` per job) vs handing the closure to a
/// persistent, parked team (`Executor::run`). The gap is the fixed
/// per-invocation overhead the engine removes from every algorithm call.
fn bench_executor_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor_reuse");
    group.sample_size(10);
    for p in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("spawn_per_call", p), &p, |b, &p| {
            let sink = AtomicU64::new(0);
            b.iter(|| {
                Executor::new(p).run(|ctx| {
                    sink.fetch_add(ctx.rank() as u64 + 1, Ordering::Relaxed);
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("persistent", p), &p, |b, &p| {
            let exec = Executor::new(p);
            let sink = AtomicU64::new(0);
            b.iter(|| {
                exec.run(|ctx| {
                    sink.fetch_add(ctx.rank() as u64 + 1, Ordering::Relaxed);
                });
            })
        });
    }
    group.finish();
}

/// Generator throughput for the heavier experiment inputs.
fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    for w in [
        Workload::RandomM15,
        Workload::Ad3,
        Workload::GeoFlat,
        Workload::Mesh2D60,
    ] {
        group.bench_function(w.id(), |b| b.iter(|| w.build(1 << 12, 3)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_barrier,
    bench_work_queue,
    bench_locks,
    bench_executor_reuse,
    bench_generators
);
criterion_main!(benches);
