//! The three workloads, and what they share: the closed-loop client, the
//! service every workload builds, the correctness checks and the
//! standalone kernel probe of the traced run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use st_core::{seq, Engine, SpanningForest};
use st_graph::{CsrGraph, VertexId, NO_VERTEX};
use st_obs::PoolSnapshot;
use st_service::{JobError, JobSpec, Service};

use crate::report::Metrics;
use crate::stats;
use crate::trace::{SpanId, SpanLog};

pub mod bulk;
pub mod net;
pub mod small;
pub mod update;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["bulk_random", "small_jobs", "update_stream"];

/// How a run is driven.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Record spans and run the side measurements.
    pub trace: bool,
    /// Width of the service's single team: the host's parallelism.
    pub width: usize,
    /// Origin of every span timestamp.
    pub origin: Instant,
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "bulk_random" => bulk::run(ctx),
        "small_jobs" => small::run(ctx),
        "update_stream" => update::run(ctx),
        other => unreachable!("workload {other} was validated by the caller"),
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Admission-queue capacity of every service the benchmark builds.
const QUEUE_CAPACITY: usize = 64;
/// Result-cache capacity (entries).
const CACHE_CAPACITY: usize = 64;
/// Closed-loop throughput is the median rate over this many windows.
const RATE_WINDOWS: usize = 10;
/// Sample slots reserved, and touched, per client and measured second
/// (over three times small_jobs' rate per client): the samples' memory
/// is then the same on every run, and `peak_rss_mb` moves only with the
/// program's own memory.
const SAMPLES_PER_SECOND: usize = 20_000;
/// Cap on the reserved slots per client; longer runs grow past it.
const MAX_RESERVED_SAMPLES: usize = 1 << 22;

/// Passes or fails one operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted, set-up warm-ups and final checks included.
    pub attempted: u64,
    /// Operations that errored or returned a wrong result.
    pub failed: u64,
    /// The first few failures, for the diagnostics.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one operation's check.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }
}

/// Time spent in each set-up step of one set-up, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupParts {
    /// `st_graph::gen`.
    pub gen: f64,
    /// Building the service.
    pub start: f64,
    /// Catalog registration.
    pub register: f64,
    /// Seeding the dynamic maintainer (update_stream).
    pub seed: f64,
    /// Warm-up jobs.
    pub warmup: f64,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Closed-loop clients driving the measured phase.
    pub clients: usize,
    /// Each set-up's duration in seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set in MiB by the end of the measured phase.
    pub peak_rss_mb: f64,
    /// Latency of each measured operation in milliseconds.
    pub ops_ms: Vec<f64>,
    /// Each operation's completion, from the measured phase's start.
    done_ns: Vec<u64>,
    /// Checks of every operation.
    pub tally: Tally,
    /// Per-layer values (reported by traced runs).
    pub layers: Metrics,
    /// Spans of the traced run.
    pub log: SpanLog,
}

impl Outcome {
    /// Closed-loop throughput over busy time (see
    /// [`stats::closed_loop_rate`]): the benchmark's checks between
    /// operations do not count.
    pub fn ops_per_s(&self) -> Option<f64> {
        stats::closed_loop_rate(&self.done_ns, &self.ops_ms, self.clients, RATE_WINDOWS)
    }
}

/// The service every workload runs against: one team as wide as the
/// host, and every setting that shapes a layer given explicitly.
/// Policies ROADMAP item 2 means to replace with measured rules (the
/// recompute fraction, the width planner) stay at the program's own
/// defaults, pinned by the refusal of `ST_*` variables.
fn service(width: usize) -> Service {
    Service::builder()
        .teams([width])
        .queue_capacity(QUEUE_CAPACITY)
        .result_cache_capacity(CACHE_CAPACITY)
        .elastic(false)
        .build()
}

/// Repeats a set-up [`SETUPS`] times, tearing down each before the
/// next, and keeps the last. Returns it with each set-up's time and
/// the median of each step.
fn repeat_setup<T>(mut build: impl FnMut() -> (T, SetupParts)) -> (T, Vec<f64>, SetupParts) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut parts = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t = Instant::now();
        let (fixture, p) = build();
        times.push(t.elapsed().as_secs_f64());
        parts.push(p);
        kept = Some(fixture);
    }
    let med = |f: fn(&SetupParts) -> f64| stats::median(&parts.iter().map(f).collect::<Vec<_>>());
    let parts = SetupParts {
        gen: med(|p| p.gen),
        start: med(|p| p.start),
        register: med(|p| p.register),
        seed: med(|p| p.seed),
        warmup: med(|p| p.warmup),
    };
    (kept.expect("SETUPS >= 1"), times, parts)
}

fn record_setup(layers: &mut Metrics, parts: SetupParts) {
    layers.set("graph.gen_s", parts.gen);
    layers.set("service.start_s", parts.start);
    layers.set("catalog.register_s", parts.register);
    layers.set("dynamic.seed_s", parts.seed);
    layers.set("setup.warmup_s", parts.warmup);
}

/// Seconds since `t`.
fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One measured operation.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// Completion, in microseconds from the measured phase's start.
    done_us: u32,
    /// Latency in nanoseconds (saturating at 4.29 s).
    latency_ns: u32,
}

impl Sample {
    fn ms(self) -> f64 {
        f64::from(self.latency_ns) / 1e6
    }
}

/// One closed-loop client's record of the measured phase.
struct ClientRun {
    samples: Vec<Sample>,
    tally: Tally,
    log: SpanLog,
}

impl ClientRun {
    fn ops_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.ms())
    }
}

/// A finished operation: when it completed, how long it took, and
/// whether its result was right. The check runs after `done`, outside
/// the timed interval.
struct Done {
    at: Instant,
    latency: Duration,
    check: Result<(), String>,
}

/// Drives `op` closed-loop from `start` for `ctx.seconds`: the next
/// operation starts only after the previous one completed and was
/// checked.
fn closed_loop(
    ctx: &Ctx,
    tid: u32,
    start: Instant,
    mut op: impl FnMut(u64, &mut SpanLog) -> Done,
) -> ClientRun {
    let mut samples = Vec::new();
    let placeholder = Sample {
        done_us: u32::MAX,
        latency_ns: u32::MAX,
    };
    let reserved = (SAMPLES_PER_SECOND * ctx.seconds.as_secs() as usize).min(MAX_RESERVED_SAMPLES);
    samples.resize(reserved, placeholder);
    samples.clear();
    let mut run = ClientRun {
        samples,
        tally: Tally::default(),
        log: SpanLog::new(ctx.trace, ctx.origin, tid),
    };
    let end = start + ctx.seconds;
    let mut j = 0;
    while Instant::now() < end {
        let done = op(j, &mut run.log);
        run.samples.push(Sample {
            done_us: u32::try_from((done.at - start).as_micros()).unwrap_or(u32::MAX),
            latency_ns: u32::try_from(done.latency.as_nanos()).unwrap_or(u32::MAX),
        });
        run.tally.record(done.check);
        j += 1;
    }
    run
}

/// Merges client runs into an outcome. `peak_rss_mb` is read as the
/// measured phase ends, before the side measurements and this merge
/// allocate.
fn merge(
    clients: Vec<ClientRun>,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    mut tally: Tally,
    layers: Metrics,
    mut log: SpanLog,
) -> Outcome {
    let (mut ops_ms, mut done_ns) = (Vec::new(), Vec::new());
    let num_clients = clients.len();
    for c in clients {
        ops_ms.extend(c.ops_ms());
        done_ns.extend(c.samples.iter().map(|s| u64::from(s.done_us) * 1_000));
        tally.absorb(c.tally);
        log.absorb(c.log);
    }
    Outcome {
        clients: num_clients,
        setup_s,
        peak_rss_mb,
        ops_ms,
        done_ns,
        tally,
        layers,
        log,
    }
}

/// Submits `spec` in-process and waits for it, with a span around each
/// call into the service.
fn service_job(
    svc: &Service,
    spec: JobSpec,
    log: &mut SpanLog,
    parent: SpanId,
    request: u64,
) -> Result<SpanningForest, JobError> {
    let s = log.open("service.submit_spec", parent, request);
    let submitted = svc.submit_spec(spec);
    log.close(s);
    let handle = submitted?.handle;
    let w = log.open("service.wait", parent, request);
    let result = handle.wait();
    log.close(w);
    result
}

/// A forest is right when every parent pointer is an edge of `g`, the
/// parent chains are acyclic, and it has as many roots (and reported
/// trees) as `g` has components. These are the conditions of
/// `st_graph::validate::check_spanning_forest`, with the component count
/// computed once per graph by its oracle instead of once per forest: on
/// the bulk graphs a recount per job would cost more than the job.
fn check_forest(
    g: &CsrGraph,
    parents: &[VertexId],
    trees: usize,
    components: usize,
) -> Result<(), String> {
    let n = g.num_vertices();
    if parents.len() != n {
        return Err(format!("{} parents for {n} vertices", parents.len()));
    }
    let mut roots = 0;
    for (v, &p) in parents.iter().enumerate() {
        if p == NO_VERTEX {
            roots += 1;
        } else if p as usize >= n || p as usize == v || !g.neighbors(v as VertexId).contains(&p) {
            return Err(format!(
                "parent edge ({v}, {p}) is not an edge of the graph"
            ));
        }
    }
    // 0 = unvisited, 1 = on the chain being walked, 2 = reaches a root.
    let mut state = vec![0u8; n];
    let mut chain = Vec::new();
    for start in 0..n {
        let mut v = start;
        while state[v] == 0 {
            state[v] = 1;
            chain.push(v);
            match parents[v] {
                NO_VERTEX => break,
                p => v = p as usize,
            }
        }
        if state[v] == 1 && parents[v] != NO_VERTEX {
            return Err(format!("parent chain cycles at vertex {v}"));
        }
        for u in chain.drain(..) {
            state[u] = 2;
        }
    }
    if roots != components || trees != components {
        return Err(format!(
            "{roots} roots and {trees} trees, but the graph has {components} components"
        ));
    }
    Ok(())
}

fn check_job(
    g: &CsrGraph,
    result: &Result<SpanningForest, JobError>,
    components: usize,
) -> Result<(), String> {
    match result {
        Ok(f) => check_forest(g, &f.parents, f.roots.len(), components),
        Err(e) => Err(format!("job failed: {e}")),
    }
}

/// Pool gauges over the measured phase: queue and execution means per
/// executed job, and the result cache's hit fraction.
fn record_pool(layers: &mut Metrics, before: &PoolSnapshot, after: &PoolSnapshot) {
    let executed = after.completed.saturating_sub(before.completed);
    if executed > 0 {
        let per_job_us = |a: u64, b: u64| a.saturating_sub(b) as f64 / executed as f64 / 1e3;
        layers.set(
            "service.queue_us.mean",
            per_job_us(after.queue_ns_total, before.queue_ns_total),
        );
        layers.set(
            "service.exec_us.mean",
            per_job_us(after.exec_ns_total, before.exec_ns_total),
        );
    }
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    let misses = after.cache_misses.saturating_sub(before.cache_misses);
    if hits + misses > 0 {
        layers.set(
            "catalog.cache_hit_frac",
            hits as f64 / (hits + misses) as f64,
        );
    }
}

/// Traced run only: times `resolve_latest` on each of `ids`.
fn probe_resolve(
    svc: &Service,
    ids: &[st_service::GraphId],
    log: &mut SpanLog,
    layers: &mut Metrics,
) {
    let mut ms = Vec::new();
    for i in 0..200u64 {
        for &id in ids {
            let s = log.open("catalog.resolve_latest", None, i);
            let t = Instant::now();
            let r = svc.catalog().resolve_latest(id);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(s);
            assert!(r.is_some(), "registered graph resolves");
        }
    }
    if let Some(v) = stats::p50(&ms) {
        layers.set("catalog.resolve_ms.p50", v);
    }
}

/// Traced run only: the kernel floor under the service. Runs the
/// default algorithm standalone (`Engine::job(g).run()`) at the service
/// team's width and at width 1, and the sequential BFS baseline, on
/// the workload's own graphs; checks every forest. `job_ms_p50` is the
/// workload's service-side job latency, for the kernel share and the
/// overhead factor.
fn probe_core(
    ctx: &Ctx,
    graphs: &[(Arc<CsrGraph>, usize)],
    job_ms_p50: Option<f64>,
    log: &mut SpanLog,
    tally: &mut Tally,
    layers: &mut Metrics,
) {
    let mut wide = Engine::new(ctx.width);
    let mut one = Engine::new(1);
    for (g, _) in graphs {
        // Warm both teams and their workspaces before timing.
        let _ = wide.job(g).run();
        let _ = one.job(g).run();
    }
    let (mut wide_ms, mut one_ms, mut bfs_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fallbacks, mut steals) = (0usize, 0usize);
    let started = Instant::now();
    let mut rep = 0u64;
    while wide_ms.len() < 20 || started.elapsed() < Duration::from_secs(1) {
        for (g, components) in graphs {
            let s = log.open("core.engine", None, rep);
            let t = Instant::now();
            let f = wide.job(g).run();
            wide_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(s);
            tally.record(match &f {
                Ok(f) => {
                    fallbacks += usize::from(f.stats.fallback_triggered);
                    steals += f.stats.steals;
                    check_forest(g, &f.parents, f.roots.len(), *components)
                }
                Err(_) => Err("uncancellable engine run was cancelled".to_owned()),
            });

            let s = log.open("core.engine_p1", None, rep);
            let t = Instant::now();
            let f = one.job(g).run();
            one_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(s);
            tally.record(match &f {
                Ok(f) => check_forest(g, &f.parents, f.roots.len(), *components),
                Err(_) => Err("uncancellable engine run was cancelled".to_owned()),
            });

            let s = log.open("core.seq_bfs", None, rep);
            let t = Instant::now();
            let f = seq::bfs_forest(g);
            bfs_ms.push(t.elapsed().as_secs_f64() * 1e3);
            log.close(s);
            tally.record(check_forest(g, &f.parents, f.roots.len(), *components));
        }
        rep += 1;
    }
    let runs = wide_ms.len() as f64;
    layers.set("core.runs", runs);
    layers.set("core.fallback_frac", fallbacks as f64 / runs);
    layers.set("core.steals_per_job", steals as f64 / runs);
    let wide_p50 = stats::p50(&wide_ms).expect("at least 20 runs");
    let bfs_p50 = stats::p50(&bfs_ms).expect("at least 20 runs");
    layers.set("core.engine_ms.p50", wide_p50);
    layers.set(
        "core.engine_p1_ms.p50",
        stats::p50(&one_ms).expect("at least 20 runs"),
    );
    layers.set("core.bfs_ms.p50", bfs_p50);
    layers.set("core.speedup_vs_bfs", bfs_p50 / wide_p50);
    if let Some(job) = job_ms_p50 {
        layers.set("core.kernel_share", wide_p50 / job);
        layers.set("service.overhead_x", job / bfs_p50);
    }
}

/// Service-call spans of the traced run, summarised.
fn record_service_spans(log: &SpanLog, layers: &mut Metrics) {
    let submit = log.durations_ms("service.submit_spec");
    layers.set("service.jobs", submit.len() as f64);
    if let Some(v) = stats::p50(&submit) {
        layers.set("service.submit_us.p50", v * 1e3);
    }
    if let Some(v) = stats::p50(&log.durations_ms("service.wait")) {
        layers.set("service.wait_us.p50", v * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_graph::validate::count_components;

    #[test]
    fn check_forest_accepts_what_the_oracle_accepts() {
        for seed in 0..4 {
            let g = st_graph::gen::random_gnm(300, 280, seed);
            let f = seq::bfs_forest(&g);
            let components = count_components(&g);
            assert!(st_graph::validate::is_spanning_forest(&g, &f.parents));
            assert_eq!(
                check_forest(&g, &f.parents, f.roots.len(), components),
                Ok(())
            );
        }
    }

    #[test]
    fn check_forest_rejects_broken_forests() {
        // Path 0-1-2-3 plus the isolated vertex 4.
        let mut b = st_graph::GraphBuilder::new(5);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let g = b.build();
        let ok = [NO_VERTEX, 0, 1, 2, NO_VERTEX];
        assert_eq!(check_forest(&g, &ok, 2, 2), Ok(()));
        // A parent pointer that is not an edge.
        assert!(check_forest(&g, &[NO_VERTEX, 0, 0, 2, NO_VERTEX], 2, 2).is_err());
        // A cycle 1 -> 2 -> 1 with no root in that tree.
        assert!(check_forest(&g, &[NO_VERTEX, 2, 1, 2, NO_VERTEX], 2, 2).is_err());
        // Too many roots, and a reported tree count that disagrees.
        assert!(check_forest(&g, &[NO_VERTEX, NO_VERTEX, 1, 2, NO_VERTEX], 3, 2).is_err());
        assert!(check_forest(&g, &ok, 3, 2).is_err());
        // Wrong length.
        assert!(check_forest(&g, &ok[..4], 2, 2).is_err());
    }
}
