//! small_jobs: two clients submit fresh-seed jobs round-robin over a
//! catalog of small graphs. The kernel does little here, so the
//! service's fixed per-job cost (admission, dispatch, lease, sizing,
//! result-cache insert) dominates each job. The traced run also probes
//! the wire path (`net::probe`).

use std::sync::Arc;
use std::time::Instant;

use st_graph::validate::count_components;
use st_graph::CsrGraph;
use st_service::{GraphId, JobSpec};

use super::{
    check_job, closed_loop, merge, net, probe_core, probe_resolve, record_pool,
    record_service_spans, record_setup, repeat_setup, secs_since, service, service_job, Ctx, Done,
    Outcome, SetupParts, Tally,
};
use crate::inputs::{self, job_seed};
use crate::report::Metrics;
use crate::stats;
use crate::trace::SpanLog;

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Warm-up jobs per set-up.
const WARMUP_JOBS: u64 = 200;

/// Runs small_jobs.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut warm = Vec::new();
    let ((svc, ids, graphs), setup_s, parts) = repeat_setup(|| {
        let mut p = SetupParts::default();
        let t = Instant::now();
        let graphs: Vec<Arc<CsrGraph>> = inputs::small_catalog(ctx.seed)
            .into_iter()
            .map(Arc::new)
            .collect();
        p.gen = secs_since(t);
        let t = Instant::now();
        let svc = Arc::new(service(ctx.width));
        p.start = secs_since(t);
        let t = Instant::now();
        let ids: Vec<GraphId> = graphs
            .iter()
            .map(|g| svc.catalog().register(Arc::clone(g)).id)
            .collect();
        p.register = secs_since(t);
        let t = Instant::now();
        for j in 0..WARMUP_JOBS {
            let k = j as usize % ids.len();
            let spec = JobSpec::new(ids[k]).seed(job_seed(ctx.seed, 9, j));
            warm.push((k, svc.submit_spec(spec).and_then(|s| s.handle.wait())));
        }
        p.warmup = secs_since(t);
        ((svc, ids, graphs), p)
    });
    // The oracle, computed once outside every timed interval. Every
    // set-up generated the same graphs, so all warm-ups check against it.
    let components: Vec<usize> = graphs.iter().map(|g| count_components(g)).collect();
    for (k, w) in warm.drain(..) {
        tally.record(check_job(&graphs[k], &w, components[k]));
    }

    let before = svc.snapshot();
    let start = Instant::now();
    let clients = std::thread::scope(|s| {
        let runs: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (svc, ids, graphs, components) = (&svc, &ids, &graphs, &components);
                s.spawn(move || {
                    closed_loop(ctx, c as u32 + 1, start, |j, log| {
                        let k = (c + CLIENTS * j as usize) % ids.len();
                        let request = (c as u64) << 48 | j;
                        let op = log.open("op", None, request);
                        let t = Instant::now();
                        let spec = JobSpec::new(ids[k]).seed(job_seed(ctx.seed, c, j));
                        let result = service_job(svc, spec, log, op, request);
                        let latency = t.elapsed();
                        let at = Instant::now();
                        log.close(op);
                        let chk = log.open("bench.check", None, request);
                        let check = check_job(&graphs[k], &result, components[k]);
                        log.close(chk);
                        Done { at, latency, check }
                    })
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect::<Vec<_>>()
    });
    let after = svc.snapshot();
    let peak_rss_mb = crate::host::peak_rss_mb();

    let mut layers = Metrics::default();
    let mut log = SpanLog::new(ctx.trace, ctx.origin, 0);
    record_setup(&mut layers, parts);
    record_pool(&mut layers, &before, &after);
    if ctx.trace {
        probe_resolve(&svc, &ids, &mut log, &mut layers);
        net::probe(
            &svc,
            &graphs[0],
            components[0],
            &mut log,
            &mut tally,
            &mut layers,
        );
    }
    drop(svc);
    let job_p50 = stats::p50(&clients.iter().flat_map(|c| c.ops_ms()).collect::<Vec<_>>());
    if ctx.trace {
        let graphs: Vec<_> = graphs.into_iter().zip(components).collect();
        probe_core(ctx, &graphs, job_p50, &mut log, &mut tally, &mut layers);
    }
    let mut out = merge(clients, setup_s, peak_rss_mb, tally, layers, log);
    record_service_spans(&out.log, &mut out.layers);
    out
}
